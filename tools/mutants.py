"""Mutation testing of src/posetdual against the tier-1 tests.

Each mutant changes one operator or constant in one module. It is
written into a temporary copy of src/, tests/, sample_posets/ and
pyproject.toml, and tier-1 runs there with -x; the checkout is only
read. A mutant is killed when the run fails or times out, and survives
when it passes. The operators:

- swap & and |, + and -, << and >>, and turn ^ into | (also in &=, ...);
- swap == and !=, < and <=, > and >=;
- drop ~ and not;
- add 1 to the int constants 0, 1, 7 and 8.

Every module in a copy is written back through ast.unparse, so a
mutant differs from the baseline run only in its mutation; the baseline
must pass before any mutant runs.

    python tools/mutants.py --list                  # the points, no runs
    python tools/mutants.py                         # every point
    python tools/mutants.py --sample 120 --seed 7   # a seeded sample
    python tools/mutants.py --lines dual.py:150-170 --workers 2

--lines and --sample together run the union of both selections. Each
run starts one pytest process per worker at a time, capped at 2 GiB of
address space, and at most os.cpu_count() workers run at once.
"""

import argparse
import ast
import os
import queue
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor, as_completed
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "posetdual")
COPIED = ("src", "tests", "sample_posets", "pyproject.toml")
BINARY = {
    ast.BitAnd: ast.BitOr,
    ast.BitOr: ast.BitAnd,
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.LShift: ast.RShift,
    ast.RShift: ast.LShift,
    ast.BitXor: ast.BitOr,
}
COMPARE = {
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
}
SYMBOL = {
    ast.BitAnd: "&", ast.BitOr: "|", ast.Add: "+", ast.Sub: "-",
    ast.LShift: "<<", ast.RShift: ">>", ast.BitXor: "^", ast.Eq: "==",
    ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Invert: "~", ast.Not: "not",
}
CONSTANTS = {0, 1, 7, 8}
# The child's address-space cap, so that a mutant that allocates without
# bound fails alone instead of starving the host.
ADDRESS_SPACE = 2 << 30
PYTEST = (
    "import resource, sys\n"
    f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))\n"
    "import pytest\n"
    "sys.exit(pytest.main(['-q', '-x', '-p', 'no:cacheprovider']))\n"
)

# node: the index of the mutated node in ast.walk order; slot: which of
# a comparison's operators.
Point = namedtuple("Point", "module line col node slot change")


def mutation_points(module, source):
    """Every mutation point of one module's source, in source order."""
    points = []
    for k, node in enumerate(ast.walk(ast.parse(source))):
        changes = []
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINARY:
            op = type(node.op)
            changes.append((0, f"{SYMBOL[op]} -> {SYMBOL[BINARY[op]]}"))
        elif isinstance(node, ast.Compare):
            changes += [
                (j, f"{SYMBOL[type(op)]} -> {SYMBOL[COMPARE[type(op)]]}")
                for j, op in enumerate(node.ops)
                if type(op) in COMPARE
            ]
        elif isinstance(node, ast.UnaryOp) and type(node.op) in (ast.Invert, ast.Not):
            changes.append((0, f"drop {SYMBOL[type(node.op)]}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            if node.value in CONSTANTS:
                changes.append((0, f"{node.value} -> {node.value + 1}"))
        points += [
            Point(module, node.lineno, node.col_offset, k, slot, change)
            for slot, change in changes
        ]
    return sorted(points, key=lambda p: (p.line, p.col, p.node, p.slot))


class _Drop(ast.NodeTransformer):
    # Puts a unary operation's operand in its place.
    def __init__(self, target):
        self.target = target

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        return node.operand if node is self.target else node


def mutated(source, point):
    """The module's source with one mutation, as ast.unparse writes it."""
    tree = ast.parse(source)
    node = list(ast.walk(tree))[point.node]
    if isinstance(node, ast.Compare):
        node.ops[point.slot] = COMPARE[type(node.ops[point.slot])]()
    elif isinstance(node, ast.UnaryOp):
        tree = _Drop(node).visit(tree)
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = BINARY[type(node.op)]()
    return ast.unparse(tree)


def run_tier1(copy, timeout):
    """(passed, seconds) of one tier-1 run in a copy; a run over the
    timeout is stopped with its process group and counts as failed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", PYTEST],
        cwd=copy,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        code = child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        code = None
    return code == 0, time.perf_counter() - start


def _worker_count(text):
    workers = int(text)
    if not 1 <= workers <= (os.cpu_count() or 1):
        raise argparse.ArgumentTypeError(f"must be 1 to {os.cpu_count() or 1}")
    return workers


def _line_range(text):
    module, _, lines = text.partition(":")
    first, _, last = lines.partition("-")
    try:
        return module, int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError("expected MODULE:FIRST-LAST") from None


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="list the points only")
    parser.add_argument(
        "--lines", type=_line_range, action="append", default=[],
        metavar="MODULE:FIRST-LAST", help="every point on these lines of a module",
    )
    parser.add_argument("--sample", type=int, help="this many points at random")
    parser.add_argument("--seed", type=int, default=0, help="the sample's seed")
    parser.add_argument(
        "--workers", type=_worker_count, default=min(2, os.cpu_count() or 1),
        help="concurrent tier-1 runs (default 2, at most the CPU count)",
    )
    return parser


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.sample is not None and args.sample < 0:
        parser.error("--sample must be at least 0")
    sources = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted((ROOT / PACKAGE).glob("*.py"))
    }
    points = [p for name, text in sources.items() for p in mutation_points(name, text)]
    chosen = set()
    for module, first, last in args.lines:
        chosen |= {p for p in points if p.module == module and first <= p.line <= last}
    if args.sample is not None:
        rng = random.Random(args.seed)
        chosen |= set(rng.sample(points, min(args.sample, len(points))))
    if args.lines or args.sample is not None:
        points = [p for p in points if p in chosen]
    if args.list:
        for p in points:
            print(f"{p.module}:{p.line}:{p.col}  {p.change}")
        print(f"{len(points)} points")
        return 0

    unparsed = {name: ast.unparse(ast.parse(text)) for name, text in sources.items()}
    with tempfile.TemporaryDirectory(prefix="mutants-") as temp:
        copies = queue.Queue()
        for w in range(args.workers):
            copy = Path(temp, f"w{w}")
            for name in COPIED:
                source, target = ROOT / name, copy / name
                if source.is_dir():
                    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
                    shutil.copytree(source, target, ignore=ignore)
                else:
                    shutil.copy2(source, target)
            for name, text in unparsed.items():
                (copy / PACKAGE / name).write_text(text, encoding="utf-8")
            copies.put(copy)
        copy = copies.get()
        passed, baseline = run_tier1(copy, None)
        copies.put(copy)
        verdict = "pass" if passed else "FAIL"
        print(f"baseline: {verdict} in {baseline:.1f} s", flush=True)
        if not passed:
            return 1
        timeout = 5 * baseline + 30

        def run(point):
            copy = copies.get()
            target = copy / PACKAGE / point.module
            try:
                text = mutated(sources[point.module], point)
                target.write_text(text, encoding="utf-8")
                return run_tier1(copy, timeout)
            finally:
                target.write_text(unparsed[point.module], encoding="utf-8")
                copies.put(copy)

        start, survivors, seconds = time.perf_counter(), [], 0.0
        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            futures = {pool.submit(run, p): p for p in points}
            for future in as_completed(futures):
                p, (passed, spent) = futures[future], future.result()
                seconds += spent
                if passed:
                    survivors.append(p)
                verdict = "SURVIVED" if passed else "killed"
                where = f"{p.module}:{p.line}:{p.col}"
                print(f"{verdict:8}  {where}  {p.change}  {spent:.1f} s", flush=True)
    killed = len(points) - len(survivors)
    share = f" ({100 * killed / len(points):.1f}%)" if points else ""
    print(
        f"killed {killed} of {len(points)}{share}; runs {seconds:.0f} s with "
        f"--workers {args.workers}, {time.perf_counter() - start:.0f} s wall"
    )
    for p in sorted(survivors):
        print(f"survivor: {p.module}:{p.line}:{p.col}  {p.change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
