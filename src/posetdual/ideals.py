"""Ideals, filters, and primeness over a dual lattice.

Subsets of the lattice are bitmasks over the canonical member order, so
all the closure checks below are mask algebra.
"""

import operator
from dataclasses import dataclass

from .errors import LemmaViolationError
from .poset import _bits
from .dual import lambda_of, upsilon_of


@dataclass(frozen=True)
class SubsetOfLattice:
    """A subset of a dual lattice's members, as a member-index bitmask."""

    lattice: object
    member_mask: int

    @classmethod
    def from_maps(cls, lattice, maps):
        mask = 0
        for x in maps:
            mask |= 1 << lattice.member_index(x)
        return cls(lattice, mask)

    def maps(self):
        return tuple(map(self.lattice.member, _bits(self.member_mask)))

    def complement(self):
        return SubsetOfLattice(
            self.lattice, self.lattice.full_member_mask & ~self.member_mask
        )

    def __contains__(self, x):
        return self.member_mask >> self.lattice.member_index(x) & 1 == 1


def _is_closed(subset, intervals, combine, identity):
    # In a finite lattice a down-closed set is closed under pairwise join
    # iff it holds the join of all its members (a v b lies below it), and
    # dually for up-closed sets and meets; so one pass over the subset.
    lat = subset.lattice
    mask = subset.member_mask
    acc = identity
    for i in _bits(mask):
        if intervals[i] & ~mask:
            return False
        acc = combine(acc, lat.supports[i])
    return mask == 0 or mask >> lat.index_of_support(acc) & 1 == 1


def is_ideal(subset):
    """Downward closed and closed under pairwise join (empty set counts)."""
    down, _ = subset.lattice._intervals()
    return _is_closed(subset, down, operator.or_, 0)


def is_filter(subset):
    """Upward closed and closed under pairwise meet (empty set counts)."""
    _, up = subset.lattice._intervals()
    return _is_closed(subset, up, operator.and_, subset.lattice.base.full_mask)


def is_prime_ideal(subset):
    """Ideal whose complement is a filter; both sides must be nonempty."""
    full = subset.lattice.full_member_mask
    if subset.member_mask == 0 or subset.member_mask == full:
        return False
    return is_ideal(subset) and is_filter(subset.complement())


def is_prime_filter(subset):
    """Filter whose complement is an ideal; both sides must be nonempty."""
    return is_prime_ideal(subset.complement())


def principal_ideal(lattice, x):
    """All members below x (inclusive)."""
    i = lattice.member_index(x)
    return SubsetOfLattice(lattice, lattice.down_intervals[i])


def principal_filter(lattice, x):
    """All members above x (inclusive)."""
    i = lattice.member_index(x)
    return SubsetOfLattice(lattice, lattice.up_intervals[i])


@dataclass(frozen=True)
class PrimePairReport:
    """Complementary principal ideal/filter pairs with their witnesses.

    Each entry (u, v, p) has the interval below u and the interval above v
    partitioning the lattice, with u and v the images of p under the two
    embeddings. The list is in bijection with the base elements.
    """

    pairs: tuple


def prime_principal_pairs(lattice):
    """Find every complementary principal ideal/filter pair.

    Each principal ideal is matched to the principal filter on its
    complement through one dict lookup; pairs come in member order of u.

    Every complementary pair must be witnessed by a unique base element;
    a missing or broken witness raises LemmaViolationError (an
    implementation bug by construction).
    """
    base = lattice.base
    down, up = lattice._intervals()
    full = lattice.full_member_mask
    lambda_by_support = {lambda_of(lattice, p).support: p for p in base.elements}
    upsilon_by_support = {upsilon_of(lattice, p).support: p for p in base.elements}

    filter_by_complement = {full & ~up_j: j for j, up_j in enumerate(up)}
    pairs = []
    seen_witnesses = set()
    for i, down_i in enumerate(down):
        j = filter_by_complement.get(down_i)
        if j is not None:
            u, v = lattice.member(i), lattice.member(j)
            p = lambda_by_support.get(u.support)
            if p is None or upsilon_by_support.get(v.support) != p:
                raise LemmaViolationError(
                    "complementary principal pair without a witness",
                    counterexample=(u, v),
                )
            pairs.append((u, v, p))
            seen_witnesses.add(p)
    if len(pairs) != base.n or len(seen_witnesses) != base.n:
        raise LemmaViolationError(
            "principal prime pairs are not in bijection with the base",
            counterexample=pairs,
        )
    return PrimePairReport(tuple(pairs))
