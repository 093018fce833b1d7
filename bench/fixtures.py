"""Seeded fixtures for the benchmark workloads, built without posetdual.

Every input is generated here, written as a `.poset` file and counted by
this module's own up-set counter, so the program under test only ever
sees the files and the counts it is checked against do not come from it.
"""

import os
import random
from dataclasses import dataclass

# Draws per random job before the band search gives up; the recorded
# fixture sets needed at most about 3000.
MAX_DRAWS = 20000

# Inputs come from one of POOL fixture sets (seed mod POOL); the accepted
# draws and expected output digests are recorded for every set.
POOL = 32


@dataclass(frozen=True)
class Spec:
    """One job of a workload.

    shape: antichain | chain | random | cycle | unknown | nonascii.
    band: accepted (lo, hi) member counts for random draws.
    search: accepted (lo, hi) search nodes per up-set seen (see
      search_nodes) for random draws; None accepts any.
    args: CLI words before the file; "{dot}" becomes the job's DOT path.
    expect: exit code the README prescribes.
    defect: why the seed commit misses `expect`, for a known defect.
    """

    name: str
    shape: str
    n: int
    args: tuple
    expect: int
    density: float = 0.0
    band: tuple = None
    search: tuple = None
    defect: str = None

    @property
    def cap(self):
        """The job's --max-members, or the CLI default."""
        if "--max-members" in self.args:
            return int(self.args[self.args.index("--max-members") + 1])
        return 1 << 22


@dataclass(frozen=True)
class Fixture:
    spec: Spec
    path: str
    up: tuple  # up[i]: bitmask of elements >= element i; () if malformed
    members: int  # up-set count; 0 for malformed files
    edges: int  # cover pairs of the up-set lattice, for jobs that draw it
    draw: int  # recorded draw of a random job; None for the others

    @property
    def seen(self):
        """Up-sets the job must see before it may answer or refuse."""
        return min(self.members, self.spec.cap + 1)

    @property
    def dot_path(self):
        if "{dot}" in self.spec.args:
            return self.path[: -len(".poset")] + ".dot"
        return None

    @property
    def argv(self):
        args = [self.dot_path if a == "{dot}" else a for a in self.spec.args]
        return args + [self.path]


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def random_pairs(n, density, rng):
    # Same distribution as posetdual.random_poset: each i < j independently.
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]


def closure(n, pairs):
    # Pairs only go from lower to higher index, so one backward sweep closes.
    succ = [0] * n
    for i, j in pairs:
        succ[i] |= 1 << j
    up = [0] * n
    for i in range(n - 1, -1, -1):
        acc = 1 << i
        for j in _bits(succ[i]):
            acc |= up[j]
        up[i] = acc
    return tuple(up)


class UpsetCounter:
    """Counts up-sets of a poset given as up-masks, without listing them.

    Splits on the element comparable to most others: an up-set either
    avoids it, and so its whole down-set, or contains its whole up-set.
    """

    def __init__(self, up):
        n = len(up)
        self.up = up
        self.down = [0] * n
        for i in range(n):
            for j in _bits(up[i]):
                self.down[j] |= 1 << i
        self.full = (1 << n) - 1
        self.memo = {0: 1}

    def count(self, s):
        """Up-sets of the subposet on the element mask `s`."""
        hit = self.memo.get(s)
        if hit is not None:
            return hit
        up, down = self.up, self.down
        best, pivot = -1, 0
        for i in _bits(s):
            k = bin((up[i] | down[i]) & s).count("1")
            if k > best:
                best, pivot = k, i
        total = self.count(s & ~down[pivot]) + self.count(s & ~up[pivot])
        self.memo[s] = total
        return total

    def members(self):
        return self.count(self.full)

    def covers(self):
        """Cover pairs of the up-set lattice.

        There is one per (up-set U, minimal p of U), and the up-sets with p
        minimal are ↑p plus any up-set of the elements incomparable to p.
        """
        return sum(
            self.count(self.full & ~(self.up[p] | self.down[p])) for p in range(len(self.up))
        )


def search_nodes(up, limit):
    """Nodes a top-down search of the up-sets visits before seeing `limit`.

    The search takes elements by ascending up-set size, so an element may
    join a partial up-set once everything above it has; each node is one
    partial up-set, and each leaf one up-set. Two posets with the same
    member count can differ twofold in this work, so random draws are
    banded on it to give every seed the same load.
    """
    n = len(up)
    order = sorted(range(n), key=lambda i: (bin(up[i]).count("1"), i))
    nodes = leaves = 0
    stack = [(0, 0)]
    while stack:
        k, current = stack.pop()
        nodes += 1
        if k == n:
            leaves += 1
            if leaves >= limit:
                break
            continue
        e = order[k]
        if up[e] & ~current == 1 << e:
            stack.append((k + 1, current | 1 << e))
        stack.append((k + 1, current))
    return nodes


def _text(name, n, pairs, extra=()):
    lines = [f"poset {name}", "elements: " + " ".join(f"e{i}" for i in range(n)), "relations:"]
    lines += [f"e{i} < e{j}" for i, j in pairs]
    lines += list(extra)
    return "\n".join(lines) + "\n"


def _draw(spec, workload, seed, k):
    rng = random.Random(f"{workload}/{seed % POOL}/{spec.name}/{k}")
    return random_pairs(spec.n, spec.density, rng)


def find_draw(spec, workload, seed):
    """First draw of a random job that fits both of its bands.

    This search can take seconds, so its result is recorded per fixture
    set (see record.py) and a run only regenerates and recounts it.
    """
    lo, hi = spec.band
    for k in range(MAX_DRAWS):
        up = closure(spec.n, _draw(spec, workload, seed, k))
        members = UpsetCounter(up).members()
        if not lo <= members <= hi:
            continue
        if spec.search:
            seen = min(members, spec.cap + 1)
            if not spec.search[0] <= search_nodes(up, seen) / seen <= spec.search[1]:
                continue
        return k
    raise RuntimeError(f"{workload}/{spec.name}: no draw in {MAX_DRAWS} fits the bands")


def _malformed_text(spec, workload, seed):
    # A seeded random poset with one defect appended; never a valid file.
    rng = random.Random(f"{workload}/{seed % POOL}/{spec.name}")
    pairs = random_pairs(spec.n, 0.3, rng) or [(0, 1)]
    if spec.shape == "cycle":
        i, j = pairs[rng.randrange(len(pairs))]
        return _text(spec.name, spec.n, pairs, [f"e{j} < e{i}"])
    if spec.shape == "unknown":
        return _text(spec.name, spec.n, pairs, [f"e{rng.randrange(spec.n)} < x{spec.n}"])
    # nonascii: an identifier that is invalid however the bytes are decoded.
    text = _text(spec.name, spec.n, pairs)
    return text.replace(f" e{spec.n - 1}\n", f" e{spec.n - 1} é{spec.n}\n", 1)


def build_fixture(spec, workload, seed, workdir, recorded=None):
    """Generate, count and write one job's input file.

    `recorded` is the job's entry in the fixture set's table (see
    record.py): the draw of a random job, and the up-set and cover counts
    this module made when it was recorded. Without a draw the bands are
    searched afresh; without counts the up-sets are counted afresh.
    """
    recorded = recorded or {}
    draw = recorded.get("draw")
    if spec.shape in ("cycle", "unknown", "nonascii"):
        text, up, members, edges = _malformed_text(spec, workload, seed), (), 0, None
    else:
        if spec.shape == "antichain":
            pairs = []
        elif spec.shape == "chain":
            pairs = [(i, i + 1) for i in range(spec.n - 1)]
        else:
            if draw is None:
                draw = find_draw(spec, workload, seed)
            pairs = _draw(spec, workload, seed, draw)
        text = _text(spec.name, spec.n, pairs)
        up = closure(spec.n, pairs)
        members, edges = recorded.get("members"), recorded.get("edges")
        if members is None:
            counter = UpsetCounter(up)
            members = counter.members()
            edges = counter.covers() if "{dot}" in spec.args else None
        if spec.band and not spec.band[0] <= members <= spec.band[1]:
            raise RuntimeError(f"{spec.name}: draw {draw} has {members} members, off its band")
    path = os.path.join(workdir, f"{spec.name}.poset")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return Fixture(spec, path, up, members, edges, draw)
