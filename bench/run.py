"""Benchmark of whole posetdual CLI jobs on seeded batch workloads.

Each workload is a fixed list of jobs run through posetdual.cli.run_cli,
one at a time in this one process, repeated for --seconds. Every job's
exit code and output are checked. With --trace 0 the end-to-end metrics
are printed; with --trace 1 the run is split into an untraced and a
traced half and the per-layer metrics come from the traced half.

Times are read at a fixed machine speed: every job and every set-up is
bracketed by a fixed piece of the benchmark's own work, and its wall and
CPU times are scaled by how long that work took around it (speed.py).
Raw times are printed beside them.

    python3 bench/run.py --workload verify_mid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

`--workload all` runs every workload with tracing off and on, each in its
own process so that peak memory belongs to one workload, prints every
metric and writes bench/out/summary-seed<N>.json. The last line of a
single-workload run is one JSON object: correct, attempted, failed and
metrics.
"""

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import fixtures
import tracing
from fixtures import POOL, Spec
from speed import calibrate, scales

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

SETUPS = 11  # set-ups per run; setup_s is their median
MIN_PASSES = 3  # job-list passes per measured half, whatever --seconds is

VERIFY = ("verify", "--brute-force", "--dot", "{dot}")
SECOND_DUAL = ("second-dual",)
CAP = 1 << 17
OVER_CAP = ("dual", "--max-members", str(CAP))

# The jobs of each workload; BENCHMARK.json says why each workload exists.
# Random jobs are banded on member count, and on search work where that
# varies, so that every seed gives about the same load.
WORKLOADS = {
    "verify_mid": (
        Spec("antichain8", "antichain", 8, VERIFY, 0),
        Spec("antichain9", "antichain", 9, VERIFY, 0),
        Spec("chain15", "chain", 15, VERIFY, 0),
        Spec("small6", "random", 6, VERIFY, 0, 0.3, (16, 16)),
        Spec("small7", "random", 7, VERIFY, 0, 0.35, (18, 18)),
        Spec("r12", "random", 12, VERIFY, 0, 0.2, (290, 310)),
        Spec("r14", "random", 14, VERIFY, 0, 0.2, (390, 410)),
        Spec("r16", "random", 16, VERIFY, 0, 0.25, (290, 310)),
        Spec("r18", "random", 18, VERIFY, 0, 0.3, (238, 252)),
        Spec("r20", "random", 20, VERIFY, 0, 0.3, (340, 360)),
    ),
    "second_dual_large": (
        Spec("s30", "random", 30, SECOND_DUAL, 0, 0.1, (90000, 100000), (6.2, 7.2)),
        Spec("s34", "random", 34, SECOND_DUAL, 0, 0.12, (50000, 56000), (9.3, 10.7)),
        Spec("s37", "random", 37, SECOND_DUAL, 0, 0.13, (30000, 34000), (12.0, 14.0)),
        Spec("s40", "random", 40, SECOND_DUAL, 0, 0.15, (20000, 23000), (14.0, 16.0)),
    ),
    "reject_mix": (
        Spec("over_anti20", "antichain", 20, OVER_CAP, 3),
        Spec("over_anti26", "antichain", 26, OVER_CAP, 3),
        Spec("over_r36", "random", 36, OVER_CAP, 3, 0.1, (1 << 18, 1 << 23), (10.0, 12.0)),
        Spec("over_r40", "random", 40, OVER_CAP, 3, 0.1, (1 << 18, 1 << 23), (10.8, 12.4)),
        Spec("cycle", "cycle", 10, ("verify",), 2),
        Spec("unknown", "unknown", 10, ("verify",), 2),
        Spec(
            "nonascii", "nonascii", 10, ("verify",), 2,
            defect="a non-ASCII file raises UnicodeDecodeError out of run_cli",
        ),
        Spec(
            "sd_over_cap", "random", 30, SECOND_DUAL + ("--max-members", "1000"), 3,
            0.12, (18000, 26000), (8.0, 10.0),
            defect="second-dual ignores --max-members and exits 0 after a full build",
        ),
    ),
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "members_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


# --- set-up -----------------------------------------------------------------


def import_program():
    """Import posetdual afresh from this checkout's src/ (never elsewhere)."""
    for name in [n for n in sys.modules if n == "posetdual" or n.startswith("posetdual.")]:
        del sys.modules[name]
    cli = importlib.import_module("posetdual.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"posetdual imported from {cli.__file__}, not {SRC}")
    return cli


def load_table(workload, seed):
    """Recorded draws and output digests of this seed's fixture set, by job."""
    path = os.path.join(BENCH, "expected", f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(str(seed % POOL), {})


def setup(workload, seed):
    """Import, generate, count and write the fixtures, load the expected outputs."""
    start = time.perf_counter()
    cli = import_program()
    table = load_table(workload, seed)
    workdir = os.path.join(BENCH, "work", workload)
    os.makedirs(workdir, exist_ok=True)
    fxs = [
        fixtures.build_fixture(spec, workload, seed, workdir, table.get(spec.name))
        for spec in WORKLOADS[workload]
    ]
    return time.perf_counter() - start, cli, fxs, table


# --- checks -----------------------------------------------------------------


def parse_report(text):
    """The CLI's 'key: value' report, two-space indent per level, as dicts.

    None when the indentation does not nest.
    """
    root = {}
    stack = [root]
    for line in text.splitlines():
        depth = (len(line) - len(line.lstrip(" "))) // 2
        if depth >= len(stack):
            return None
        key, _, value = line.strip().partition(":")
        del stack[depth + 1:]
        if value.strip():
            stack[depth][key] = value.strip()
        else:
            stack[depth][key] = {}
            stack.append(stack[depth][key])
    return root


def _label(elements):
    return "{" + ",".join(elements) + "}"


def check_verify(fx, report, dot_text):
    n, m = fx.spec.n, fx.members
    if fx.spec.shape == "antichain" and m != 1 << n:
        return f"own counter gives {m} members for an antichain of {n}"
    if fx.spec.shape == "chain" and m != n + 1:
        return f"own counter gives {m} members for a chain of {n}"
    if report.get("result") != "pass":
        return f"result {report.get('result')}"
    counts = report.get("counts", {})
    want = {
        "dual_members": str(m),
        "meet_irreducibles": str(n),
        "join_irreducibles": str(n),
        "prime_pairs": str(n),
    }
    for key, value in want.items():
        if counts.get(key) != value:
            return f"counts.{key} {counts.get(key)}, expected {value}"
    brute = report.get("checks", {}).get("second_dual_brute_force")
    if brute != "pass" and (m <= 20 or brute != "skipped"):
        return f"second_dual_brute_force {brute} at {m} members"
    nodes = dot_text.count("[label=")
    edges = dot_text.count("->")
    if nodes != m or edges != fx.edges:
        return f"DOT has {nodes} nodes/{edges} edges, expected {m}/{fx.edges}"
    if dot_text.count("λ:") != n or dot_text.count("υ:") != n:
        return "DOT embedding labels do not name every element once"
    return None


def check_second_dual(fx, report):
    sd = report.get("second_dual", {})
    n = fx.spec.n
    if sd.get("members") != str(n):
        return f"second_dual.members {sd.get('members')}, expected {n}"
    if sd.get("round_trip") != "true" or sd.get("order_embedding") != "true":
        return "round trip or order embedding is not true"
    if sd.get("brute_force") != "skipped":
        return f"brute_force {sd.get('brute_force')} without --brute-force"
    # The kernel top of the evaluation hom at p is the complement of the down-set of p.
    kernels = sd.get("kernels", {})
    for i in range(n):
        want = _label(f"e{j}" for j in range(n) if not fx.up[j] >> i & 1)
        if kernels.get(f"e{i}") != want:
            return f"kernel of e{i} is {kernels.get(f'e{i}')}, expected {want}"
    return None


def check_job(fx, code, out, expected):
    """None when the job did what the README says, else the reason.

    `expected` maps job names to recorded digests; None skips the digests.
    """
    spec = fx.spec
    if code != spec.expect:
        return f"exit {code}, expected {spec.expect}"
    if spec.expect != 0:
        return "refused job wrote a report" if out else None
    report = parse_report(out)
    if report is None:
        return "report does not parse"
    poset = report.get("poset", {})
    if poset.get("name") != spec.name or poset.get("size") != str(spec.n):
        return f"report names poset {poset}"
    dot_bytes = b""
    if fx.dot_path:
        try:
            with open(fx.dot_path, "rb") as fh:
                dot_bytes = fh.read()
        except OSError:
            return "no DOT file written"
        reason = check_verify(fx, report, dot_bytes.decode("utf-8", "replace"))
    else:
        reason = check_second_dual(fx, report)
    if reason or expected is None:
        return reason
    digests = expected.get(spec.name, {})
    if "stdout" not in digests:
        return "no digest recorded for this job"
    if hashlib.sha256(out.encode("utf-8")).hexdigest() != digests["stdout"]:
        return "stdout differs from the recorded report"
    if fx.dot_path and hashlib.sha256(dot_bytes).hexdigest() != digests["dot"]:
        return "DOT differs from the recorded diagram"
    return None


# --- measuring --------------------------------------------------------------


def run_job(cli, fx):
    """Run one job; returns (exit code or exception text, stdout, wall, cpu)."""
    if fx.dot_path and os.path.exists(fx.dot_path):
        os.remove(fx.dot_path)
    out, err = io.StringIO(), io.StringIO()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        code = cli.run_cli(fx.argv, out=out, err=err)
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    except Exception as exc:  # the job failed; the run goes on
        code = f"uncaught {type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return code, out.getvalue(), wall, cpu


class Phase:
    """Per-job timings and failures of one measured stretch of passes.

    Its wall and CPU time are sums of per-job medians over the passes, so
    a stall during one job in one pass does not move them. `walls` and
    `cpus` hold times scaled to the reference speed, `raw_walls` the
    times as measured.
    """

    def __init__(self):
        self.walls = {}
        self.cpus = {}
        self.raw_walls = {}
        self.speeds = []  # wall scale factor of every job
        self.failures = {}
        self.passes = []  # (first, last) span index of each pass
        self.attempted = 0
        self.failed = 0

    def wall(self):
        return sum(statistics.median(w) for w in self.walls.values())

    def cpu(self):
        return sum(statistics.median(c) for c in self.cpus.values())

    def raw_wall(self):
        return sum(statistics.median(w) for w in self.raw_walls.values())


def run_pass(cli, fxs, expected, phase, tracer=None):
    gc.collect()
    before = calibrate()
    for fx in fxs:
        first = len(tracer.spans) if tracer is not None else 0
        if tracer is not None:
            tracer.job = f"pass{len(phase.passes)}/{fx.spec.name}"
        gc.collect()  # each job starts from the same heap state, as a fresh CLI run would
        code, out, wall, cpu = run_job(cli, fx)
        after = calibrate()
        wall_scale, cpu_scale = scales(before, after)
        before = after
        if tracer is not None:
            for span in tracer.spans[first:]:
                span["scale"] = wall_scale
        phase.walls.setdefault(fx.spec.name, []).append(wall * wall_scale)
        phase.cpus.setdefault(fx.spec.name, []).append(cpu * cpu_scale)
        phase.raw_walls.setdefault(fx.spec.name, []).append(wall)
        phase.speeds.append(wall_scale)
        phase.attempted += 1
        reason = check_job(fx, code, out, expected)
        if reason is not None:
            phase.failed += 1
            phase.failures.setdefault(fx.spec.name, reason)


def measure(cli, fxs, expected, seconds, tracer=None):
    """Repeat the job list for about `seconds`, at least MIN_PASSES times."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        first = len(tracer.spans) if tracer is not None else 0
        run_pass(cli, fxs, expected, phase, tracer)
        last = len(tracer.spans) if tracer is not None else 0
        phase.passes.append((first, last))
        elapsed = time.perf_counter() - start
        if len(phase.passes) >= MIN_PASSES and elapsed * (1 + 1 / len(phase.passes)) > seconds:
            return phase


def run_workload(workload, seed, seconds, trace):
    env = environment()
    specs = WORKLOADS[workload]
    print(f"env: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}")
    print(f"workload {workload}, seed {seed} (fixture set {seed % POOL})")

    setup_times, raw_setup_times = [], []
    for _ in range(SETUPS):
        before = calibrate()
        took, cli, fxs, expected = setup(workload, seed)
        setup_times.append(took * scales(before, calibrate())[0])
        raw_setup_times.append(took)
    for fx in fxs:
        print(
            f"job {fx.spec.name}: n={fx.spec.n} members={fx.members} "
            f"expect={fx.spec.expect} draw={fx.draw}"
        )

    if trace:
        untraced = measure(cli, fxs, expected, seconds / 2)
        tracer = tracing.Tracer()
        for name in tracer.install():
            print(f"not traced: posetdual has no {name}")
        try:
            traced = measure(cli, fxs, expected, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        phases = [untraced, traced]
    else:
        phases = [measure(cli, fxs, expected, seconds)]

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failures = {}
    for phase in phases:
        for name, reason in phase.failures.items():
            failures.setdefault(name, reason)
    for spec in specs:
        walls = phases[0].walls[spec.name]
        raw = phases[0].raw_walls[spec.name]
        print(
            f"job {spec.name}: median wall {statistics.median(walls):.4f} s "
            f"(raw {statistics.median(raw):.4f} s)"
        )
    for spec in specs:
        if spec.name in failures:
            known = f" (known defect: {spec.defect})" if spec.defect else ""
            print(f"failed job {spec.name}: {failures[spec.name]}{known}")
    # Failures stay counted in `failed`; only an unexpected one is incorrect.
    correct = all(s.defect for s in specs if s.name in failures)
    print(f"jobs attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.4f}")
    speeds = [x for p in phases for x in p.speeds]
    print(
        f"machine speed: jobs scaled by {min(speeds):.3f}..{max(speeds):.3f} "
        f"(median {statistics.median(speeds):.3f}); raw wall {phases[0].raw_wall():.4f} s, "
        f"raw setup {statistics.median(raw_setup_times):.4f} s"
    )

    if trace:
        metrics = traced_metrics(workload, seed, untraced, traced, tracer, len(fxs))
    else:
        wall = phases[0].wall()
        metrics = {
            "wall_s": wall,
            "cpu_s": phases[0].cpu(),
            "members_per_s": sum(fx.seen for fx in fxs) / wall,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times),
        }
    units = tracing.UNITS if trace else END_TO_END
    for name, value in metrics.items():
        print(f"metric {name}: {value:.6g} {units[name]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def traced_metrics(workload, seed, untraced, traced, tracer, jobs):
    selfs = tracing.self_times(tracer.spans)
    per_pass = [
        tracing.layer_metrics(tracer.spans, selfs, first, last, jobs)
        for first, last in traced.passes
    ]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    traced_wall = traced.wall()
    metrics["trace.overhead_frac"] = traced_wall / untraced.wall() - 1

    hot = {
        "verify_mid": (
            "ideals.prime_pairs_s", "ideals.prime_checks_s", "dot.emit_self_s",
            "dot.closure_s", "dual.index_s", "dual.irreducibles_s",
        ),
        "second_dual_large": ("dual.enumerate_s", "seconddual.evaluation_hom_s"),
    }.get(workload)
    if hot:
        share = sum(metrics[k] for k in hot) / traced_wall
        print(f"share of traced wall in {', '.join(hot)}: {share:.1%}")

    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "spans": tracer.spans}, fh)
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    return metrics


# --- all workloads ----------------------------------------------------------


def run_all(seed, seconds):
    """Every workload, tracing off then on, each run in its own process."""
    env = environment()
    summary = {"seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            argv = [
                sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(
                argv, capture_output=True, text=True, timeout=180, cwd=ROOT, check=False
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                print(f"{workload} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            results["trace" if trace else "end_to_end"] = {**result, "env": env}
            print(f"== {workload} --trace {trace}: correct {result['correct']}, "
                  f"attempted {result['attempted']}, failed {result['failed']}, "
                  f"failed_frac {result['failed'] / result['attempted']:.4f}")
            for name, metric in result["metrics"].items():
                print(f"{workload} {name}: {metric['value']:.6g} {metric['unit']}")
        summary["workloads"][workload] = results
    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"summary-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(f"summary written to {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "posetdual", "__init__.py")):
        print(f"error: no posetdual sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
