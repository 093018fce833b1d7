"""Record each fixture set's accepted draws and reference output digests.

Run at the commit whose outputs are the reference, once per workload:

    python3 bench/record.py --workload verify_mid

For every fixture set in the pool this searches the bands of each random
job for its draw, counts its up-sets (and their covers, for jobs that
draw the lattice), runs each job that must succeed once, checks its
output semantically, and writes the draw, the counts and the sha256 of
its stdout (and DOT file) to bench/expected/<workload>.json. A run reads
the counts back, so its set-up does not count.
"""

import argparse
import hashlib
import json
import os
import sys

import fixtures
import run


def record(workload):
    cli = run.import_program()
    workdir = os.path.join(run.BENCH, "work", workload)
    os.makedirs(workdir, exist_ok=True)
    table = {}
    bad = 0
    for seed in range(fixtures.POOL):
        entries = {}
        for spec in run.WORKLOADS[workload]:
            fx = fixtures.build_fixture(spec, workload, seed, workdir)
            entry = {} if fx.draw is None else {"draw": fx.draw}
            if fx.up:
                entry["members"] = fx.members
            if fx.edges is not None:
                entry["edges"] = fx.edges
            if spec.expect == 0:
                code, out, _, _ = run.run_job(cli, fx)
                reason = run.check_job(fx, code, out, None)
                if reason is not None:
                    print(f"set {seed} job {spec.name}: {reason}; not recorded", file=sys.stderr)
                    bad += 1
                    continue
                entry["stdout"] = hashlib.sha256(out.encode("utf-8")).hexdigest()
                if fx.dot_path:
                    with open(fx.dot_path, "rb") as fh:
                        entry["dot"] = hashlib.sha256(fh.read()).hexdigest()
            if entry:
                entries[spec.name] = entry
        table[str(seed)] = entries
        print(f"set {seed}: {len(entries)} jobs recorded", flush=True)
    path = os.path.join(run.BENCH, "expected", f"{workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(run.WORKLOADS))
    args = parser.parse_args()
    sys.path.insert(0, run.SRC)
    return record(args.workload)


if __name__ == "__main__":
    sys.exit(main())
