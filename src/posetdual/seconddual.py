"""Bound-preserving complete-lattice homomorphisms from a dual lattice to
the two-element chain, and the round trip back to the base poset.

A valid hom is determined by the top of its kernel (the sup of the
preimage of 0), so homs are stored by that single member; comparing homs
is then one mask comparison.
"""

from dataclasses import dataclass

from .errors import (
    BaseMismatchError,
    NoWitnessError,
    TooLargeError,
)
from .poset import _bits
from .dual import _witness_tables

DEFAULT_BRUTEFORCE_CAP = 20


@dataclass(frozen=True)
class BoundedHom:
    """A lattice hom to {0, 1}, stored by the sup of its zero-preimage."""

    lattice: object
    kernel_top: object

    def value(self, x):
        self.lattice.check_member(x)
        return 0 if x.support & ~self.kernel_top.support == 0 else 1


def hom_leq(g, h):
    """Pointwise order on homs: reverse inclusion of kernel ideals."""
    if g.lattice is not h.lattice:
        raise BaseMismatchError("homs over different lattices")
    return h.kernel_top.support & ~g.kernel_top.support == 0


def _down_rows(lattice):
    # down[i]: member-index mask of the members below member i, from
    # comparing supports pairwise (O(m^2)), sharing nothing with the
    # member columns.
    supports = lattice.supports
    return [
        sum(1 << j for j, sj in enumerate(supports) if sj & ~si == 0)
        for si in supports
    ]


def _ones_mask_checker(lattice, down):
    # Pairwise form of the hom conditions on the map whose preimage of 1
    # is the given member-index mask: bounds, zero side downward closed
    # and join closed, one side meet closed (upward closure follows).
    # Every sup and inf in a finite lattice is an iterated pairwise one,
    # so this equals preserving arbitrary sups and infs. Lookups are read
    # once per lattice; down is _down_rows(lattice).
    top_bit = 1 << (len(lattice) - 1)
    full = lattice.full_member_mask
    supports = lattice.supports
    index_of = lattice._member_index

    def ok(ones_mask):
        if ones_mask & 1:
            return False  # bottom must map to 0
        if not ones_mask & top_bit:
            return False  # top must map to 1
        zeros = []
        mm = full & ~ones_mask
        while mm:
            low = mm & -mm
            i = low.bit_length() - 1
            if down[i] & ones_mask:
                return False
            zeros.append(i)
            mm ^= low
        for a, i in enumerate(zeros):
            si = supports[i]
            for j in zeros[a + 1:]:
                if ones_mask >> index_of[si | supports[j]] & 1:
                    return False
        ones = list(_bits(ones_mask))
        for a, i in enumerate(ones):
            si = supports[i]
            for j in ones[a + 1:]:
                if not ones_mask >> index_of[si & supports[j]] & 1:
                    return False
        return True

    return ok


def enumerate_second_dual_bruteforce(lattice):
    """All valid homs, in canonical order of kernel top.

    A valid hom's zero side is nonempty, downward closed and join closed,
    so in a finite lattice it is the principal ideal of its join k. The
    only candidates are thus the m maps that are 0 exactly below some
    member k; each is checked with the pairwise hom conditions, and if
    valid is the hom with kernel top k. The order comes from comparing
    supports, not from the member columns or the base poset, so this
    stays independent of evaluation_hom: it is the oracle side of the
    isomorphism check.
    """
    m = len(lattice)
    if m > DEFAULT_BRUTEFORCE_CAP:
        raise TooLargeError(
            f"brute-force hom enumeration over {m} members exceeds cap "
            f"{DEFAULT_BRUTEFORCE_CAP}"
        )
    down = _down_rows(lattice)
    ok = _ones_mask_checker(lattice, down)
    full = lattice.full_member_mask
    return [
        BoundedHom(lattice, lattice.member(k))
        for k in range(m)
        if ok(full & ~down[k])
    ]


def evaluation_hom(lattice, element):
    """The hom sending each member to its value at the given base element.

    Its preimage of 1 is the element's column; its kernel top, the join of
    the zero side, is the last member of the ideal below that join in
    canonical order. O(n) big-int operations on the member columns.
    """
    zeros = lattice.full_member_mask & ~lattice.columns[lattice.base.index(element)]
    kernel_top = lattice.member(lattice.ideal_of(zeros).bit_length() - 1)
    return BoundedHom(lattice, kernel_top)


def point_of_hom(lattice, hom):
    """Recover the base element whose evaluation hom this is: the p whose
    λ_p, the member vanishing exactly on ↓p, is the kernel top."""
    if hom.lattice is not lattice:
        raise BaseMismatchError("hom over a different lattice")
    lambdas, _ = _witness_tables(lattice.base)
    support = hom.kernel_top.support
    if support in lambdas:
        return lambdas[support]
    raise NoWitnessError(
        f"no base element matches kernel top {hom.kernel_top.support_elements()}"
    )


@dataclass(frozen=True)
class IsomorphismReport:
    """Outcome of checking base <-> second dual round trips and order."""

    forward: dict
    backward: dict
    round_trip_ok: bool
    order_preserved_ok: bool
    brute_force_matched: object  # True/False, or None when skipped
    failures: tuple = ()

    @property
    def ok(self):
        return (
            self.round_trip_ok
            and self.order_preserved_ok
            and self.brute_force_matched is not False
        )


def verify_isomorphism(lattice, use_bruteforce=False):
    """Check that the second dual of a dual lattice mirrors its base poset.

    Checks the round trip (recovering each element from its evaluation
    hom), the order embedding in both directions, and, when requested and
    the lattice has at most DEFAULT_BRUTEFORCE_CAP members, that the
    evaluation homs are exactly the brute-force enumerated ones (skipped
    above the cap). Failures are reported, not raised.
    """
    poset = lattice.base
    failures = []

    forward = {p: evaluation_hom(lattice, p) for p in poset.elements}

    backward = {}
    round_trip_ok = True
    for p, hom in forward.items():
        try:
            q = point_of_hom(lattice, hom)
        except NoWitnessError:
            q = None
        backward[hom] = q
        if q != p:
            round_trip_ok = False
            failures.append(f"round trip broke at {p!r} (got {q!r})")

    order_preserved_ok = True
    for p in poset.elements:
        for q in poset.elements:
            expected = poset.leq_index(poset.index(p), poset.index(q))
            if hom_leq(forward[p], forward[q]) != expected:
                order_preserved_ok = False
                failures.append(f"order embedding broke at ({p!r}, {q!r})")

    brute_force_matched = None
    if use_bruteforce and len(lattice) <= DEFAULT_BRUTEFORCE_CAP:
        enumerated = enumerate_second_dual_bruteforce(lattice)
        brute_force_matched = set(enumerated) == set(forward.values())
        if not brute_force_matched:
            failures.append(
                f"brute force found {len(enumerated)} homs, "
                f"evaluation gives {len(forward)}"
            )

    return IsomorphismReport(
        forward=forward,
        backward=backward,
        round_trip_ok=round_trip_ok,
        order_preserved_ok=order_preserved_ok,
        brute_force_matched=brute_force_matched,
        failures=tuple(failures),
    )
