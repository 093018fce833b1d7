"""The complete lattice of monotone 0/1-valued maps on a finite poset.

A monotone map into the two-element chain is stored as its support (the
preimage of 1), which monotonicity forces to be an up-set of the base
poset. Lattice joins and meets are then bitwise or/and of supports.
"""

from dataclasses import dataclass, field
from itertools import islice

from .errors import BaseMismatchError, LemmaViolationError, TooLargeError
from .poset import _bits

DEFAULT_MAX_MEMBERS = 1 << 22


@dataclass(frozen=True)
class MonotoneMap:
    """One element of the dual lattice: a monotone map base -> {0, 1}.

    Two maps are equal iff they have the same base (by identity) and the
    same support.
    """

    base: object
    support: int

    def evaluate(self, element):
        return self.support >> self.base.index(element) & 1

    def support_elements(self):
        return tuple(self.base.elements[i] for i in _bits(self.support))


def evaluate(x, element):
    """Value of the map x at a base element."""
    return x.evaluate(element)


class DualLattice:
    """All monotone maps base -> {0, 1} under the pointwise order.

    Members are kept in a canonical order: by support popcount, then by
    numeric support value. Immutable after construction.
    """

    def __init__(self, base, support_masks):
        self.base = base
        self.members = tuple(
            MonotoneMap(base, m)
            for m in sorted(support_masks, key=lambda m: (bin(m).count("1"), m))
        )
        self._member_index = {x.support: i for i, x in enumerate(self.members)}
        self.bottom = self.members[0]
        self.top = self.members[-1]
        # Base down-sets: the up-masks of the opposite order.
        self._base_down_masks = tuple(base.down_mask(e) for e in base.elements)
        self._down_intervals = None
        self._up_intervals = None

    def __len__(self):
        return len(self.members)

    @property
    def full_member_mask(self):
        return (1 << len(self.members)) - 1

    def member_index(self, x):
        self.check_member(x)
        return self._member_index[x.support]

    def index_of_support(self, support):
        return self._member_index[support]

    def check_member(self, x):
        if x.base is not self.base or x.support not in self._member_index:
            raise BaseMismatchError("map does not belong to this lattice")

    def _intervals(self):
        # down_intervals[i]: member-index bitmask of everything <= member i;
        # up_intervals[i]: everything >= member i. O(m^2), cached.
        if self._down_intervals is None:
            supports = [x.support for x in self.members]
            down = []
            up = [0] * len(supports)
            for i, si in enumerate(supports):
                d = 0
                for j, sj in enumerate(supports):
                    if sj & ~si == 0:
                        d |= 1 << j
                        up[j] |= 1 << i
                down.append(d)
            self._down_intervals = down
            self._up_intervals = up
        return self._down_intervals, self._up_intervals

    @property
    def down_intervals(self):
        return self._intervals()[0]

    @property
    def up_intervals(self):
        return self._intervals()[1]


def _iter_upset_masks(poset):
    # Elements in an order where everything strictly above comes first
    # (ascending up-set size is such an order); a partial selection can
    # then take an element iff its strict up-set is already selected, so
    # only genuine up-sets are ever produced, each exactly once.
    order = sorted(
        range(poset.n), key=lambda i: (bin(poset.up_masks[i]).count("1"), i)
    )
    up = poset.up_masks

    def extend(k, current):
        if k == len(order):
            yield current
            return
        e = order[k]
        yield from extend(k + 1, current)
        if up[e] & ~current == 1 << e:
            yield from extend(k + 1, current | (1 << e))

    yield from extend(0, 0)


def enumerate_dual(poset, max_members=DEFAULT_MAX_MEMBERS):
    """Enumerate every up-set of the poset as a lattice of monotone maps.

    Walks the up-sets once, holding at most max_members + 1 support masks,
    and raises TooLargeError instead of building the lattice when there are
    more than max_members of them.
    """
    masks = list(islice(_iter_upset_masks(poset), max(max_members + 1, 0)))
    if len(masks) > max_members:
        raise TooLargeError(f"dual lattice exceeds member cap {max_members}")
    return DualLattice(poset, masks)


def pointwise_leq(x, y):
    """Whether x(p) <= y(p) for every p; i.e. support inclusion."""
    if x.base is not y.base:
        raise BaseMismatchError("maps over different base posets")
    return x.support & ~y.support == 0


def sup_of(lattice, maps):
    """Least upper bound: pointwise max, i.e. union of supports."""
    union = 0
    for x in maps:
        lattice.check_member(x)
        union |= x.support
    return lattice.members[lattice.index_of_support(union)]


def inf_of(lattice, maps):
    """Greatest lower bound: pointwise min, i.e. intersection of supports."""
    inter = lattice.base.full_mask
    for x in maps:
        lattice.check_member(x)
        inter &= x.support
    return lattice.members[lattice.index_of_support(inter)]


def lambda_of(lattice, element):
    """The member vanishing exactly on the down-set of the element."""
    support = lattice.base.full_mask & ~lattice.base.down_mask(element)
    return lattice.members[lattice.index_of_support(support)]


def upsilon_of(lattice, element):
    """The member supported exactly on the up-set of the element."""
    return lattice.members[lattice.index_of_support(lattice.base.up_mask(element))]


def _maximal_outside(up_masks, upset):
    """Elements maximal outside an up-set U of the order given by up_masks.

    The upper covers of U in the up-set lattice are U | {p} for exactly
    these p (Birkhoff). With the opposite order's masks and the complement
    of U they are the minimal p in U, and U - {p} are the lower covers.
    """
    return [p for p, up in enumerate(up_masks) if up & ~upset == 1 << p]


def least_above(lattice, x):
    """Inf of all members strictly above x (the top itself when x is top).

    That is x's upper cover when it has exactly one, else x itself. O(n).
    """
    lattice.check_member(x)
    covers = _maximal_outside(lattice.base.up_masks, x.support)
    support = x.support | 1 << covers[0] if len(covers) == 1 else x.support
    return lattice.members[lattice.index_of_support(support)]


def greatest_below(lattice, x):
    """Sup of all members strictly below x (the bottom when x is bottom).

    That is x's lower cover when it has exactly one, else x itself. O(n).
    """
    lattice.check_member(x)
    outside = lattice.base.full_mask & ~x.support
    covers = _maximal_outside(lattice._base_down_masks, outside)
    support = x.support & ~(1 << covers[0]) if len(covers) == 1 else x.support
    return lattice.members[lattice.index_of_support(support)]


def is_meet_irreducible(lattice, x):
    return least_above(lattice, x).support != x.support


def is_join_irreducible(lattice, x):
    return greatest_below(lattice, x).support != x.support


@dataclass(frozen=True)
class IrreducibleReport:
    """Irreducible members with their base-element witnesses.

    Every meet-irreducible arises from exactly one base element via
    lambda_of, every join-irreducible via upsilon_of, and conversely.
    """

    meet_irreducibles: tuple
    join_irreducibles: tuple
    lambda_witness: dict = field(hash=False)
    upsilon_witness: dict = field(hash=False)


def irreducibles(lattice):
    """Compute all irreducible members and match them to base elements.

    Raises LemmaViolationError (an implementation bug by construction) if
    an irreducible lacks a witness or an embedded element is reducible.
    """
    base = lattice.base
    lambda_by_support = {lambda_of(lattice, p).support: p for p in base.elements}
    upsilon_by_support = {upsilon_of(lattice, p).support: p for p in base.elements}

    meets = tuple(x for x in lattice.members if is_meet_irreducible(lattice, x))
    joins = tuple(x for x in lattice.members if is_join_irreducible(lattice, x))

    lambda_witness = {}
    for x in meets:
        if x.support not in lambda_by_support:
            raise LemmaViolationError(
                "meet-irreducible member has no base-element witness",
                counterexample=x,
            )
        lambda_witness[x] = lambda_by_support[x.support]
    for support, p in lambda_by_support.items():
        x = lattice.members[lattice.index_of_support(support)]
        if not is_meet_irreducible(lattice, x):
            raise LemmaViolationError(
                f"embedded element {p!r} gives a reducible member",
                counterexample=x,
            )

    upsilon_witness = {}
    for x in joins:
        if x.support not in upsilon_by_support:
            raise LemmaViolationError(
                "join-irreducible member has no base-element witness",
                counterexample=x,
            )
        upsilon_witness[x] = upsilon_by_support[x.support]
    for support, p in upsilon_by_support.items():
        x = lattice.members[lattice.index_of_support(support)]
        if not is_join_irreducible(lattice, x):
            raise LemmaViolationError(
                f"embedded element {p!r} gives a reducible member",
                counterexample=x,
            )

    return IrreducibleReport(meets, joins, lambda_witness, upsilon_witness)
