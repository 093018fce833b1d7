"""Bound-preserving complete-lattice homomorphisms from a dual lattice to
the two-element chain, and the round trip back to the base poset.

A valid hom is determined by the top of its kernel (the sup of the
preimage of 0), so homs are stored by that single member; comparing homs
is then one mask comparison.
"""

from collections import namedtuple

from .errors import (
    BaseMismatchError,
    NoWitnessError,
    TooLargeError,
)
from .poset import _bits, _subsets_in

DEFAULT_BRUTEFORCE_CAP = 20


class BoundedHom(namedtuple("BoundedHom", "lattice kernel_top")):
    """A lattice hom to {0, 1}, stored by the sup of its zero-preimage."""

    __slots__ = ()

    def value(self, x):
        self.lattice.check_member(x)
        return 0 if x.support & ~self.kernel_top.support == 0 else 1


def hom_leq(g, h):
    """Pointwise order on homs: reverse inclusion of kernel ideals."""
    if g.lattice is not h.lattice:
        raise BaseMismatchError("homs over different lattices")
    return h.kernel_top.support & ~g.kernel_top.support == 0


def enumerate_second_dual_bruteforce(lattice):
    """All valid homs, in canonical order of kernel top.

    A valid hom's zero side is nonempty, downward closed and join closed,
    so in a finite lattice it is the principal ideal of its join k. The
    only candidates are thus the m maps that are 0 exactly on the members
    whose support lies in k's. Each is a hom iff it sends the bottom to 0
    and the top to 1, and the meet of the one side's supports is the
    support of a member on the one side: an up-set is meet closed iff it
    holds the meet of all its members (Davey & Priestley, ch. 2). The
    zero side needs no test. It is downward closed because inclusion is
    transitive, and the join of its supports is k's own support, which
    lies on it. Only the supports are read, each candidate scanning all
    m of them, so this stays independent of evaluation_hom and the member
    columns: it is the oracle side of the isomorphism check. On a family
    not closed under intersection, a candidate whose meet is no member's
    support is not a hom.
    """
    supports = lattice.supports
    m = len(supports)
    if m > DEFAULT_BRUTEFORCE_CAP:
        raise TooLargeError(
            f"brute-force hom enumeration over {m} members exceeds cap "
            f"{DEFAULT_BRUTEFORCE_CAP}"
        )
    homs = []
    for k, kernel in enumerate(supports):
        if supports[0] & ~kernel or not supports[-1] & ~kernel:
            continue  # the bottom must map to 0 and the top to 1
        meet = -1
        for support in supports:
            if support & ~kernel:
                meet &= support
        if meet & ~kernel and meet in supports:
            homs.append(BoundedHom(lattice, lattice.member(k)))
    return homs


def evaluation_hom(lattice, element):
    """The hom sending each member to its value at the given base element.

    Its preimage of 0 is the members lacking the element. Its kernel top,
    the join of that zero side, is the side's last member on any family of
    supports, since the ideal below the side's join is the side itself
    (the columns inside col[p] OR to col[p]). It is read off
    `lattice.last_without`, and is the top when the side is empty.
    """
    i = lattice.last_without[lattice.base.index(element)]
    return BoundedHom(lattice, lattice.member(i))


def point_of_hom(lattice, hom):
    """Recover the base element whose evaluation hom this is: the p whose
    λ_p, the member vanishing exactly on ↓p, is the kernel top, so that
    ↓p is the complement of the kernel top's support."""
    if hom.lattice is not lattice:
        raise BaseMismatchError("hom over a different lattice")
    base = lattice.base
    try:
        k = base.down_masks.index(base.full_mask & ~hom.kernel_top.support)
    except ValueError:
        raise NoWitnessError(
            f"no base element matches kernel top {hom.kernel_top.support_elements()}"
        ) from None
    return base.elements[k]


class IsomorphismReport(
    namedtuple(
        "IsomorphismReport",
        "forward backward round_trip_ok order_preserved_ok"
        " brute_force_matched failures",
        defaults=((),),
    )
):
    """Outcome of checking base <-> second dual round trips and order.

    brute_force_matched is True or False, or None when the oracle was
    skipped; failures defaults to ().
    """

    __slots__ = ()

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

    # hom_leq(forward[p], forward[q]) iff q's kernel top lies in p's, and
    # must hold exactly for the q in the up-set of p.
    order_preserved_ok = True
    kernels = [h.kernel_top.support for h in forward.values()]
    for p, kernel, up in zip(poset.elements, kernels, poset.up_masks):
        for j in _bits(_subsets_in(kernels, kernel) ^ up):
            order_preserved_ok = False
            failures.append(
                f"order embedding broke at ({p!r}, {poset.elements[j]!r})"
            )

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
