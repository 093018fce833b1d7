"""Ideals, filters, and primeness over a dual lattice.

Subsets of the lattice are bitmasks over the canonical member order, so
all the closure checks below are mask algebra.
"""

from collections import namedtuple
from itertools import compress, count

from .errors import LemmaViolationError
from .poset import _bits, _digits


class SubsetOfLattice(namedtuple("SubsetOfLattice", "lattice member_mask")):
    """A subset of a dual lattice's members, as a member-index bitmask."""

    __slots__ = ()

    @classmethod
    def from_maps(cls, lattice, maps):
        mask = 0
        for x in maps:
            mask |= 1 << lattice.member_index(x)
        return cls(lattice, mask)

    def maps(self):
        indices = compress(count(), _digits(self.member_mask))
        return tuple(map(self.lattice.member, indices))

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
    mask = subset.member_mask
    return mask == 0 or mask == subset.lattice.ideal_of(mask)


def is_filter(subset):
    """Upward closed and closed under pairwise meet (empty set counts).

    A nonempty one is the principal filter of its meet (finite lattice).
    """
    mask = subset.member_mask
    return mask == 0 or mask == subset.lattice.filter_of(mask)


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
    return SubsetOfLattice(lattice, lattice.ideal_of(1 << lattice.member_index(x)))


def principal_filter(lattice, x):
    """All members above x (inclusive)."""
    return SubsetOfLattice(lattice, lattice.filter_of(1 << lattice.member_index(x)))


class PrimePairReport(namedtuple("PrimePairReport", "pairs")):
    """Complementary principal ideal/filter pairs with their witnesses.

    Each entry (u, v, p) has the interval below u and the interval above v
    partitioning the lattice, with u and v the images of p under the two
    embeddings. The list is in bijection with the base elements.
    """

    __slots__ = ()


def prime_principal_pairs(lattice):
    """Find every complementary principal ideal/filter pair.

    If the intervals below u and above v partition the lattice, every
    x > u is above v, so x >= u | v > u: u is meet-irreducible. For each
    such u, the members outside the interval below u form a principal
    filter iff they are the interval above their least member, which
    canonical order puts first; pairs come in member order of u.

    This is the one check of the prime-pair facts. It raises
    LemmaViolationError unless each pair is (λ_p, υ_p) for its own base
    element p and the pairs biject with the base. On return, then, each
    interval below λ_p is a prime ideal whose complement is the filter
    above υ_p, and λ_p(p) = 0 while υ_p(p) = 1, as their supports say.
    """
    full = lattice.full_member_mask
    lambdas, upsilons = lattice.witnesses
    # {member index of λ_p: index of p}
    lambda_at = {i: k for k, i in enumerate(lambdas) if i is not None}
    pairs = []
    for i in _bits(lattice.order_masks[0]):
        # Not the witnesses: by design, the pairs found here check them.
        rest = full & ~lattice.ideal_of(1 << i)
        least = rest & -rest
        if rest and rest == lattice.filter_of(least):
            j = least.bit_length() - 1
            u, v = lattice.member(i), lattice.member(j)
            k = lambda_at.get(i)
            if k is None or upsilons[k] != j:
                raise LemmaViolationError(
                    "complementary principal pair without a witness",
                    counterexample=(u, v),
                )
            pairs.append((u, v, lattice.base.elements[k]))
    if len(pairs) != lattice.base.n:
        raise LemmaViolationError(
            "principal prime pairs are not in bijection with the base",
            counterexample=pairs,
        )
    return PrimePairReport(tuple(pairs))
