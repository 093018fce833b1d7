"""Finite posets as bitmask up-sets, and their construction.

Elements are indexed 0..n-1 in list order; the order relation is stored as
one "up-mask" per element (the bitmask of everything greater or equal), so
leq is a single bit test and up-set checks are word-parallel.
"""

import random
from dataclasses import dataclass, field

from .errors import (
    CycleDetectedError,
    DuplicateElementError,
    TooLargeError,
    UnknownElementError,
)

DEFAULT_MAX_ELEMENTS = 64


@dataclass(frozen=True, eq=False)
class FinitePoset:
    """Immutable finite partially ordered set.

    up_masks[i] holds the bitmask of indices j with element i <= element j
    (always including i itself), and down_masks[j], computed once from
    them, the bitmask of indices i with element i <= element j. Instances
    compare by identity; all operations on them are pure.
    """

    elements: tuple
    up_masks: tuple
    _index: dict = field(repr=False, compare=False, default=None)
    down_masks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {e: i for i, e in enumerate(self.elements)}
        )
        down = [0] * len(self.up_masks)
        for i, up in enumerate(self.up_masks):
            for j in _bits(up):
                down[j] |= 1 << i
        object.__setattr__(self, "down_masks", tuple(down))

    @property
    def n(self):
        return len(self.elements)

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def index(self, element):
        try:
            return self._index[element]
        except KeyError:
            raise UnknownElementError(f"unknown element: {element!r}") from None

    def leq_index(self, i, j):
        return bool(self.up_masks[i] >> j & 1)

    def up_mask(self, element):
        """Bitmask of everything >= element."""
        return self.up_masks[self.index(element)]

    def down_mask(self, element):
        """Bitmask of everything <= element."""
        return self.down_masks[self.index(element)]

    def strict_down_mask(self, element):
        return self.down_mask(element) & ~(1 << self.index(element))


@dataclass(frozen=True)
class CoverRelation:
    """Hasse diagram: the transitive reduction of a poset's order."""

    pairs: tuple


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transitive_closure(up):
    n = len(up)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in _bits(acc):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    return up


def poset_from_relations(elements, pairs, max_elements=DEFAULT_MAX_ELEMENTS):
    """Build a poset from generating pairs (lower, upper).

    The result is the reflexive-transitive closure of the pairs. Raises
    CycleDetectedError if the closure violates antisymmetry, reporting the
    lexicographically smallest 2-cycle.
    """
    elements = tuple(elements)
    seen = set()
    for e in elements:
        if e in seen:
            raise DuplicateElementError(f"duplicate element: {e!r}")
        seen.add(e)
    if len(elements) > max_elements:
        raise TooLargeError(
            f"poset has {len(elements)} elements, cap is {max_elements}"
        )
    index = {e: i for i, e in enumerate(elements)}
    up = [1 << i for i in range(len(elements))]
    for lower, upper in pairs:
        if lower not in index:
            raise UnknownElementError(f"unknown element: {lower!r}")
        if upper not in index:
            raise UnknownElementError(f"unknown element: {upper!r}")
        up[index[lower]] |= 1 << index[upper]
    _transitive_closure(up)

    cycles = []
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            if up[i] >> j & 1 and up[j] >> i & 1:
                cycles.append(tuple(sorted((elements[i], elements[j]))))
    if cycles:
        raise CycleDetectedError(min(cycles))

    return FinitePoset(elements, tuple(up))


def leq(poset, a, b):
    """Whether a <= b in the poset."""
    return poset.leq_index(poset.index(a), poset.index(b))


def transitive_reduction(poset):
    """Minimal cover pairs whose closure reproduces the poset."""
    n = poset.n
    covers = []
    for i in range(n):
        for j in range(n):
            if i == j or not poset.leq_index(i, j):
                continue
            # (i, j) is a cover unless some k sits strictly between.
            between = poset.up_masks[i] & ~(1 << i) & ~(1 << j)
            if not any(poset.leq_index(k, j) for k in _bits(between)):
                covers.append((poset.elements[i], poset.elements[j]))
    covers.sort()
    return CoverRelation(tuple(covers))


def is_monotone(poset, f):
    """Whether the 0/1-valued map f respects the order."""
    for i in range(poset.n):
        if not f[poset.elements[i]]:
            continue
        # f(i) = 1, so everything above i must also map to 1
        for j in _bits(poset.up_masks[i]):
            if not f[poset.elements[j]]:
                return False
    return True


def random_poset(n, seed, density):
    """Reproducible random poset on elements e0..e{n-1}.

    Samples each strict upper-triangular pair (in index order) with the
    given probability, then takes the transitive closure; never cyclic.
    """
    rng = random.Random(seed)
    elements = [f"e{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                pairs.append((elements[i], elements[j]))
    return poset_from_relations(elements, pairs)
