"""Finite posets as bitmask up-sets, and their construction.

Elements are indexed 0..n-1 in list order; the order relation is stored as
one "up-mask" per element (the bitmask of everything greater or equal), so
leq is a single bit test and up-set checks are word-parallel.
"""

from collections import namedtuple
from itertools import combinations

from .errors import (
    CycleDetectedError,
    DuplicateElementError,
    PosetDualError,
    TooLargeError,
    UnknownElementError,
)

DEFAULT_MAX_ELEMENTS = 64


class _Frozen:
    """Read-only base of the slotted value classes.

    Their __init__ sets each slot once with object.__setattr__; assigning
    or deleting one later raises AttributeError.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FinitePoset(_Frozen):
    """Immutable finite partially ordered set.

    up_masks[i] holds the bitmask of indices j with element i <= element j,
    and down_masks[j], computed once from them, the bitmask of indices i
    with element i <= element j. This is the one place the poset axioms
    are checked: one mask per element, inside the base, no repeated name,
    i <= i, and i <= j <= k only with i <= k, else a PosetDualError names
    the first offender; i <= j <= i for i != j raises CycleDetectedError
    with the lexicographically smallest such pair. Instances compare by
    identity; all operations on them are pure.
    """

    __slots__ = ("elements", "up_masks", "_index", "down_masks")

    def __init__(self, elements, up_masks):
        n = len(elements)
        if len(up_masks) != n:
            raise PosetDualError(f"{n} elements, {len(up_masks)} up-masks")
        index = _index_of(elements)
        for e, up in zip(elements, up_masks):
            if up >> n:  # also every negative mask
                raise PosetDualError(f"up-mask of {e!r} has bits outside the base")
        down = [0] * n
        for i, up in enumerate(up_masks):
            if not up >> i & 1:
                raise PosetDualError(f"element {elements[i]!r} is not <= itself")
            off, bit = ~up, 1 << i
            for j in _bits(up):
                down[j] |= bit
                if up_masks[j] & off:
                    k = (up_masks[j] & off).bit_length() - 1
                    a, b, c = (repr(elements[x]) for x in (i, j, k))
                    raise PosetDualError(f"{a} <= {b} <= {c} without {a} <= {c}")
        # Reflexive and transitive: i <= j <= i just when ↑i = ↑j.
        if len(set(up_masks)) < n:
            pairs = combinations(zip(elements, up_masks), 2)
            raise CycleDetectedError(
                min(tuple(sorted((a, b))) for (a, x), (b, y) in pairs if x == y)
            )
        init = object.__setattr__
        init(self, "elements", elements)
        init(self, "up_masks", up_masks)
        init(self, "_index", index)
        init(self, "down_masks", tuple(down))

    def __repr__(self):
        return f"FinitePoset(elements={self.elements!r}, up_masks={self.up_masks!r})"

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


class CoverRelation(namedtuple("CoverRelation", "pairs")):
    """Hasse diagram: the transitive reduction of a poset's order."""

    __slots__ = ()


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _subsets_in(masks, mask):
    """Bitmask of the indices j whose masks[j] is a subset of mask."""
    outside = ~mask
    inside = 0
    for j, m in enumerate(masks):
        if not m & outside:
            inside |= 1 << j
    return inside


_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _digits(mask):
    """The binary digits of a mask, lowest first, as bytes 0 and 1.

    itertools.compress over them picks the items at the set bits in one
    pass; _bits copies the mask per bit, which is quadratic on wide
    member masks.
    """
    return bin(mask)[:1:-1].encode().translate(_DIGIT_BYTES)


def _transitive_closure(up):
    """Close the reflexive up-rows in place, Warshall's way: once pivot k
    is done, every row reaching k holds everything k reaches through
    pivots up to k, so one pass over the pivots closes the relation.

    poset_from_relations calls it only on cyclic input, where its
    topological sweep cannot finish every row, for FinitePoset to refuse."""
    for k in range(len(up)):
        bit, row = 1 << k, up[k]
        for i, acc in enumerate(up):
            if acc & bit:
                up[i] = acc | row
    return up


def _index_of(elements):
    """{element: index}; a repeated element raises DuplicateElementError
    naming its first repeat."""
    index = {}
    for i, e in enumerate(elements):
        if index.setdefault(e, i) != i:
            raise DuplicateElementError(f"duplicate element: {e!r}")
    return index


def _check_element_cap(n):
    if n > DEFAULT_MAX_ELEMENTS:
        raise TooLargeError(f"poset has {n} elements, cap is {DEFAULT_MAX_ELEMENTS}")


def poset_from_relations(elements, pairs):
    """Build a poset from generating pairs (lower, upper).

    The result is the reflexive-transitive closure of the pairs, found by
    one sweep in reverse topological order (Kahn's): a row is final once
    every direct successor's is, and is then ORed into each direct
    predecessor. The closure of an acyclic relation is antisymmetric, so
    that is all acyclic input costs. Rows left unfinished mean a cycle;
    only then does Warshall's closure run, and FinitePoset refuses the
    closed rows, naming the lexicographically smallest 2-cycle.
    A repeated element is refused before the element cap, naming its
    first repeat; a pair with an unknown end names its lower end first.
    """
    elements = tuple(elements)
    index = _index_of(elements)
    _check_element_cap(len(elements))
    up = [1 << i for i in range(len(elements))]
    preds = [[] for _ in elements]
    for lower, upper in pairs:
        try:
            i, j = index[lower], index[upper]
        except KeyError:
            unknown = upper if lower in index else lower
            raise UnknownElementError(f"unknown element: {unknown!r}") from None
        if not up[i] >> j & 1:  # skips repeats and a < a
            up[i] |= 1 << j
            preds[j].append(i)

    unfinished = [row.bit_count() - 1 for row in up]  # direct successors
    done = [i for i, count in enumerate(unfinished) if not count]
    for j in done:  # grows as rows finish
        row = up[j]
        for i in preds[j]:
            up[i] |= row
            unfinished[i] -= 1
            if not unfinished[i]:
                done.append(i)
    if len(done) < len(elements):
        # A cycle. The swept rows lie between the pairs and their closure,
        # so Warshall still closes them, and FinitePoset refuses the result.
        _transitive_closure(up)
    return FinitePoset(elements, tuple(up))


def leq(poset, a, b):
    """Whether a <= b in the poset."""
    return poset.leq_index(poset.index(a), poset.index(b))


def transitive_reduction(poset):
    """Minimal cover pairs whose closure reproduces the poset: j covers i
    when j is strictly above i and strictly above nothing that is."""
    strict = [up & ~(1 << i) for i, up in enumerate(poset.up_masks)]
    covers = []
    for e, above in zip(poset.elements, strict):
        beyond = 0
        for k in _bits(above):
            beyond |= strict[k]
        covers += [(e, poset.elements[j]) for j in _bits(above & ~beyond)]
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
    An n over the element cap is refused before any name is built or
    pair drawn.
    """
    _check_element_cap(n)
    import random  # here, its one user, so importing the package does not load it

    rng = random.Random(seed)
    elements = [f"e{i}" for i in range(n)]
    pairs = (
        (elements[i], elements[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    )
    return poset_from_relations(elements, pairs)
