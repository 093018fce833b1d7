"""Ideals, filters, and primeness over a dual lattice.

Subsets of the lattice are bitmasks over the canonical member order, so
all the closure checks below are mask algebra.
"""

from dataclasses import dataclass

from .errors import LemmaViolationError
from .poset import _bits
from .dual import _witness_tables


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


def is_ideal(subset):
    """Downward closed and closed under pairwise join (empty set counts).

    A nonempty one is the principal ideal of its join (finite lattice).
    """
    lat = subset.lattice
    mask = subset.member_mask
    join = 0
    for i in _bits(mask):
        join |= lat.supports[i]
    return mask == 0 or mask == lat.down_interval(lat.index_of_support(join))


def is_filter(subset):
    """Upward closed and closed under pairwise meet (empty set counts).

    A nonempty one is the principal filter of its meet (finite lattice).
    """
    lat = subset.lattice
    mask = subset.member_mask
    meet = lat.base.full_mask
    for i in _bits(mask):
        meet &= lat.supports[i]
    return mask == 0 or mask == lat.up_interval(lat.index_of_support(meet))


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
    return SubsetOfLattice(lattice, lattice.down_interval(lattice.member_index(x)))


def principal_filter(lattice, x):
    """All members above x (inclusive)."""
    return SubsetOfLattice(lattice, lattice.up_interval(lattice.member_index(x)))


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

    For each member u, the members outside the interval below u form a
    principal filter iff they are the interval above their least member,
    which canonical order puts first; pairs come in member order of u.

    Every complementary pair must be witnessed by a unique base element;
    a missing or broken witness raises LemmaViolationError (an
    implementation bug by construction).
    """
    base = lattice.base
    full = lattice.full_member_mask
    lambdas, upsilons = _witness_tables(base)
    pairs = []
    seen_witnesses = set()
    for i in range(len(lattice)):
        rest = full & ~lattice.down_interval(i)
        j = (rest & -rest).bit_length() - 1
        if rest and rest == lattice.up_interval(j):
            u, v = lattice.member(i), lattice.member(j)
            p = lambdas.get(u.support)
            if p is None or upsilons.get(v.support) != p:
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
