"""The complete lattice of monotone 0/1-valued maps on a finite poset.

A monotone map into the two-element chain is stored as its support (the
preimage of 1), which monotonicity forces to be an up-set of the base
poset. Lattice joins and meets are then bitwise or/and of supports.
"""

import sys
from array import array
from collections import namedtuple
from functools import cached_property
from itertools import compress

from .errors import BaseMismatchError, LemmaViolationError, TooLargeError
from .poset import DEFAULT_MAX_ELEMENTS, _bits, _digits

DEFAULT_MAX_MEMBERS = 1 << 22
# The up-set walk stops splitting once at most this many elements are
# undecided, and appends that remainder's memoized up-sets in one copy.
_TAIL_ELEMENTS = 8
# The row transposes read the rows this many (64 KiB) at a time.
_CHUNK_ROWS = 8192
# The three delta swaps (shift, lane mask) of Warren's transpose8 (Hacker's
# Delight 7-3): together they transpose the 8x8 bit matrix held in a
# 64-bit lane, swapping bit 8r + c with bit 8c + r.
_TRANSPOSE8 = (
    (7, 0x00AA00AA00AA00AA),
    (14, 0x0000CCCC0000CCCC),
    (28, 0x00000000F0F0F0F0),
)


class MonotoneMap(namedtuple("MonotoneMap", "base support")):
    """One element of the dual lattice: a monotone map base -> {0, 1}.

    Two maps are equal iff they have the same base (by identity) and the
    same support.
    """

    __slots__ = ()

    def evaluate(self, element):
        return self.support >> self.base.index(element) & 1

    def support_elements(self):
        """The base elements in the support, in element order."""
        return tuple(compress(self.base.elements, _digits(self.support)))


class DualLattice:
    """All monotone maps base -> {0, 1} under the pointwise order.

    Members are kept in a canonical order: by support popcount, then by
    numeric support value. `supports` holds every member's support in
    that order as an array('Q') of 64-bit rows, and is what the lattice
    operations read; it indexes, iterates, and answers `in` and `.index`
    like a tuple of ints. `DualLattice(base, masks)` sorts any family of
    supports into that order; enumerate_dual builds its lattice already
    in order (`_canonical`), with no sort; its walk appends each small
    remainder's memoized up-sets to the popcount buckets as 64-bit lanes
    of one int. The MonotoneMap objects are made on demand, when first
    reached through `members`, `member(i)`, `bottom`/`top` or a function
    such as lambda_of, and kept in a dict of those made, so a lattice
    whose members are never reached holds no per-member slot; each member
    has exactly one object however it is reached. The support -> index map
    is likewise built on the first lookup by support: from sup_of/inf_of,
    check_member and member_index. `verify`, `second-dual` and the DOT
    make none.
    `columns[p]` is the member-index mask of the members whose support holds
    base element p, i.e. the preimage of 1 under evaluation at p; the
    principal ideal and filter of a set of members, `ideal_of(mask)` and
    `filter_of(mask)`, are read from all n, and the Hasse covers, via
    `strict_bounds`, in O(n^2). `last_without[p]`, the last member lacking p
    and the kernel top of ev_p, is column p's highest zero bit, or read off
    the rows backward without columns. One walk of the strict bounds gives
    `order_masks`, the irreducible and closure masks, and `witnesses`, the
    member indices of λ_p and υ_p that lambda_of/upsilon_of, irreducibles,
    the prime pairs, the report and the DOT annotations read. These and
    `upset_count` are built once, on first use; the bounds are not kept.
    The rows are 64 bits wide, so the base has at most DEFAULT_MAX_ELEMENTS
    (64) elements (else TooLargeError), and there must be at least one
    support, each lying in it (else BaseMismatchError): every up-set
    lattice holds the empty set.
    Immutable after construction.
    """

    def __init__(self, base, support_masks):
        _check_width(base)
        supports = sorted(support_masks)
        if not supports:
            raise BaseMismatchError("no supports: every up-set lattice has one")
        if supports[0] < 0 or supports[-1] > base.full_mask:
            raise BaseMismatchError("support has elements outside the base")
        supports.sort(key=int.bit_count)
        self._setup(base, array("Q", supports))

    @classmethod
    def _canonical(cls, base, supports, upset_count):
        """A lattice over an array('Q') of supports already in canonical
        order and inside the base, given its up-set count; nothing is
        sorted, checked or counted."""
        lattice = cls.__new__(cls)
        lattice._setup(base, supports)
        lattice.upset_count = upset_count
        return lattice

    def _setup(self, base, supports):
        self.base = base
        self.supports = supports
        # Member-index mask of every member, read by most mask operations.
        self.full_member_mask = (1 << len(supports)) - 1
        # {index: member object} of those made so far, until `members`
        # makes them all.
        self._made = {}
        self._members = None

    def __len__(self):
        return len(self.supports)

    def member(self, i):
        """The member at canonical index i, made on first request."""
        if self._members is not None:
            return self._members[i]
        i = range(len(self.supports))[i]  # a negative i counts from the end
        x = self._made.get(i)
        if x is None:
            x = self._made[i] = MonotoneMap(self.base, self.supports[i])
        return x

    @property
    def members(self):
        """Every member in canonical order."""
        if self._members is None:
            made, base = self._made, self.base
            self._members = tuple(
                made.get(i) or MonotoneMap(base, s)
                for i, s in enumerate(self.supports)
            )
            self._made = None
        return self._members

    @property
    def bottom(self):
        return self.member(0)

    @property
    def top(self):
        return self.member(len(self.supports) - 1)

    @cached_property
    def columns(self):
        """columns[p]: member-index mask of the supports holding element p."""
        return _transpose_rows(self.supports, self.base.n)

    @cached_property
    def last_without(self):
        """last_without[p]: the index of the last member whose support lacks
        element p, or -1 when every member holds it: the highest zero bit of
        columns[p] once they are built, else read off the rows backward."""
        if "columns" not in vars(self):
            return _last_without(self.supports, self.base.n)
        full = self.full_member_mask
        return tuple((full ^ column).bit_length() - 1 for column in self.columns)

    def strict_bounds(self):
        """Per base element p, in element order, (col[p], above, below):
        the member-index masks AND{col[q] : q > p} and OR{col[q] : q < p},
        each made as it is yielded and none kept. M_p = above & ~col[p]
        holds the members with p maximal outside, one per upper cover
        U | {p}, and J_p = col[p] & ~below those with p minimal inside,
        one per lower cover U - {p} (Birkhoff). ~(col[p] | below) is the
        ideal below λ_p, and col[p] & above the filter above υ_p."""
        columns, base = self.columns, self.base
        # A sweep along the base's Hasse covers did not beat this loop on
        # verify_mid (about 32 ms a pass either way; wide bases untimed).
        for p, (up, down) in enumerate(zip(base.up_masks, base.down_masks)):
            above, below = self.full_member_mask, 0
            for q in _bits(up & ~(1 << p)):
                above &= columns[q]
            for q in _bits(down & ~(1 << p)):
                below |= columns[q]
            yield columns[p], above, below

    @cached_property
    def order_masks(self):
        """(meets, joins, unclosed), read off one walk of strict_bounds
        with the witnesses. meets and joins are the member-index masks of
        the meet- and join-irreducibles: a member has an upper cover per
        M_p and a lower cover per J_p holding it, and those in exactly one
        are counted bit-sliced. unclosed is the OR of col[p] & ~above, the
        members holding some p but not all of ↑p."""
        return self._order_pass[0]

    @cached_property
    def witnesses(self):
        """(lambdas, upsilons): per base element p, in element order, the
        member index of λ_p, the map vanishing exactly on ↓p, and of υ_p,
        the map supported on ↑p; None where no member has that support.
        Read off order_masks' walk: the other members missing all of ↓p
        have fewer elements, and those holding all of ↑p more, so λ_p is
        the last of the former and υ_p the first of the latter (of a
        repeated support, its last and its first copy)."""
        return self._order_pass[1]

    @cached_property
    def _order_pass(self):
        """(order_masks, witnesses), from one walk of strict_bounds."""
        base, supports, full = self.base, self.supports, self.full_member_mask
        meet_once = meet_twice = join_once = join_twice = unclosed = 0
        lambdas, upsilons = [], []
        bounds = zip(self.strict_bounds(), base.down_masks, base.up_masks)
        for p, ((column, above, below), down, up) in enumerate(bounds):
            maximal_outside, minimal_inside = above & ~column, column & ~below
            meet_twice |= meet_once & maximal_outside
            meet_once |= maximal_outside
            join_twice |= join_once & minimal_inside
            join_once |= minimal_inside
            unclosed |= column & ~above
            # The members outside meeting miss all of ↓p and those in
            # holding hold all of ↑p; col[p] joins each only where p is in
            # its own ↓p or ↑p. Every member with λ_p's or υ_p's support is
            # among them, so the -1 of an empty set names one without it.
            meeting = below | column if down >> p & 1 else below
            holding = above & column if up >> p & 1 else above
            i = (full ^ meeting).bit_length() - 1
            lambdas.append(i if supports[i] == base.full_mask & ~down else None)
            i = (holding & -holding).bit_length() - 1
            upsilons.append(i if supports[i] == up else None)
        masks = meet_once & ~meet_twice, join_once & ~join_twice, unclosed
        return masks, (tuple(lambdas), tuple(upsilons))

    @cached_property
    def upset_count(self):
        """The number of up-sets of the base, or None when over len(self):
        enumerate_dual's count, else counted with a budget of len(self)."""
        try:
            return _count_upsets(self.base, len(self))
        except TooLargeError:
            return None

    @cached_property
    def _member_index(self):
        """{support: canonical index}, built on the first lookup."""
        return dict(zip(self.supports, range(len(self.supports))))

    def member_index(self, x):
        self.check_member(x)
        return self._member_index[x.support]

    def index_of_support(self, support):
        return self._member_index[support]

    def check_member(self, x):
        if x.base is not self.base or x.support not in self._member_index:
            raise BaseMismatchError("map does not belong to this lattice")

    def ideal_of(self, mask):
        """Member-index mask of the ideal below the join of the members in
        `mask`, e.g. the interval below member i for mask 1 << i."""
        outside = 0
        for column in self.columns:
            if not column & mask:
                outside |= column
        return self.full_member_mask & ~outside

    def filter_of(self, mask):
        """Member-index mask of the filter above the meet of the members in
        `mask`, e.g. the interval above member i for mask 1 << i."""
        inside = self.full_member_mask
        for column in self.columns:
            if mask & column == mask:
                inside &= column
        return inside


def _check_width(base):
    if base.n > DEFAULT_MAX_ELEMENTS:
        raise TooLargeError(
            f"dual lattice over {base.n} elements, cap is {DEFAULT_MAX_ELEMENTS}"
        )


def _lane_swaps(m):
    """_TRANSPOSE8 with each mask repeated over the lanes of a chunk of an
    m-row array; no swap moves a bit out of its lane, so the masks of a
    full chunk serve the shorter last chunk too."""
    lanes = -(-min(m, _CHUNK_ROWS) // 8)
    return [
        (shift, int.from_bytes(mask.to_bytes(8, "little") * lanes, "little"))
        for shift, mask in _TRANSPOSE8
    ]


def _transposed_plane(chunk, k, swaps):
    """Byte plane k of a chunk of rows (bytes): every 8th byte from byte k
    of little-endian rows (7 - k of big-endian ones), read as one int of
    64-bit lanes, each an 8x8 bit matrix over 8 rows (the last padded
    with zeros) that the swaps transpose, so that byte c of a lane holds
    bit 8k + c of its 8 rows."""
    x = int.from_bytes(chunk[k ^ 7 if sys.byteorder == "big" else k :: 8], "little")
    for shift, mask in swaps:
        t = (x >> shift ^ x) & mask
        x ^= t ^ t << shift
    return x.to_bytes(-(-len(chunk) // 64) * 8, "little")


def _transpose_rows(rows, n):
    """The n columns of an array('Q') of rows: column p is the int whose
    bit i is bit p of rows[i].

    Works through the rows in chunks of _CHUNK_ROWS, a multiple of 8, so
    besides the rows and the planes it holds only chunk-sized copies.
    Each chunk's byte plane k is copied into plane k at its offset, and
    every 8th byte from byte c of plane k, read as one int, is column
    8k + c; each plane is released once its columns are read.
    """
    planes = [bytearray(-(-len(rows) // 8) * 8) for _ in range(-(-n // 8))]
    swaps = _lane_swaps(len(rows))
    with memoryview(rows).cast("B") as raw:
        for start in range(0, len(raw), 8 * _CHUNK_ROWS):
            chunk = raw[start : start + 8 * _CHUNK_ROWS].tobytes()
            for k, plane in enumerate(planes):
                x = _transposed_plane(chunk, k, swaps)
                plane[start // 8 : start // 8 + len(x)] = x
    columns = []
    for k in range(len(planes)):
        plane, planes[k] = planes[k], None
        columns.extend(
            int.from_bytes(plane[c::8], "little") for c in range(min(8, n - 8 * k))
        )
    return tuple(columns)


def _last_without(rows, n):
    """Per p < n, the index of the last row of an array('Q') without bit
    p, or -1 when every row has it: _transpose_rows' chunks are read from
    the end, each transposing only the byte planes of elements not yet
    found, whose highest zero bit in the chunk's column is the answer."""
    last, todo = [-1] * n, (1 << n) - 1
    swaps = _lane_swaps(len(rows))
    with memoryview(rows).cast("B") as raw:
        for start in reversed(range(0, len(raw), 8 * _CHUNK_ROWS)):
            if not todo:
                break
            chunk = raw[start : start + 8 * _CHUNK_ROWS].tobytes()
            rows_mask = (1 << len(chunk) // 8) - 1
            for k in {p >> 3 for p in _bits(todo)}:
                plane = _transposed_plane(chunk, k, swaps)
                for p in _bits(todo & 0xFF << 8 * k):
                    zeros = rows_mask & ~int.from_bytes(plane[p & 7 :: 8], "little")
                    if zeros:
                        last[p] = start // 8 + zeros.bit_length() - 1
                        todo ^= 1 << p
    return tuple(last)


def _walk_upset_buckets(poset):
    """Every up-set of the poset, in one array('Q') per popcount.

    Splits on the highest undecided element p: either p is in the up-set,
    and then so is everything above it, or it is out, and then so is
    everything below it. The included part stays an up-set and the
    excluded part a down-set, so (for any undecided p) neither branch can
    contradict the other's decisions: every node of the search has a leaf
    below it. The branches differ first at bit p, so taking the exclude
    branch at once and stacking the include branch reaches the leaves in
    increasing numeric order: each bucket is increasing, and the buckets
    concatenated are in canonical order.

    The split stops once at most _TAIL_ELEMENTS elements R are
    undecided. The leaves below are then `included + U` for U an up-set
    of the poset restricted to R (`_remainder_family`), and the walk
    meets the same few remainders many times, so each R's family is
    built once per walk and kept as 64-bit lanes of one int per popcount.
    A visit adds `included` to every lane and appends the lanes'
    little-endian bytes to the bucket in one copy; `included` is disjoint
    from R, so no lane carries; a leaf with nothing undecided is the
    empty remainder's one up-set. The lanes are little-endian, so a
    big-endian host byteswaps each bucket once after the walk.
    """
    tail = _TAIL_ELEMENTS
    up = poset.up_masks
    not_up = [~u for u in up]
    not_down = [~d for d in poset.down_masks]
    families = {0: ((0, 1, 1),)}  # the empty remainder: one empty up-set
    buckets = [array("Q") for _ in range(poset.n + 1)]
    extend = [bucket.frombytes for bucket in buckets]
    stack = [0, poset.full_mask]  # (included, undecided) pairs
    pop, push = stack.pop, stack.append
    while stack:
        rest = pop()
        included = pop()
        while rest.bit_count() > tail:
            p = rest.bit_length() - 1
            push(included | up[p])
            push(rest & not_up[p])
            rest &= not_down[p]
        family = _remainder_family(rest, up, not_up, not_down, families)
        for k, (lanes, ones, count) in enumerate(family, included.bit_count()):
            if count:
                extend[k]((lanes + included * ones).to_bytes(8 * count, "little"))
    if sys.byteorder == "big":
        for bucket in buckets:
            bucket.byteswap()
    return buckets


def _remainder_family(rest, up, not_up, not_down, families):
    """The up-sets of the poset restricted to `rest`, memoized in
    `families` by `rest`: per popcount j, (lanes, ones, count), where the
    count up-sets of j elements sit in increasing order in the 64-bit
    lanes of `lanes` and `ones` holds 1 in each of those lanes.

    Built by the walk's own split on the highest element p of `rest`:
    the family of rest - ↓p fills the low lanes, and ↑p ∩ rest joined to
    each member of the family of rest - ↑p fills the lanes above them.
    Only the latter hold p, so each popcount stays increasing.
    """
    family = families.get(rest)
    if family is None:
        p = rest.bit_length() - 1
        top = up[p] & rest
        shift = top.bit_count()
        low = _remainder_family(rest & not_down[p], up, not_up, not_down, families)
        high = _remainder_family(rest & not_up[p], up, not_up, not_down, families)
        family = list(low) + [(0, 0, 0)] * (rest.bit_count() + 1 - len(low))
        for j, (high_lanes, high_ones, high_count) in enumerate(high, shift):
            lanes, ones, count = family[j]
            offset = 64 * count
            family[j] = (
                lanes | (high_lanes + top * high_ones) << offset,
                ones | high_ones << offset,
                count + high_count,
            )
        family = families[rest] = tuple(family)
    return family


def _count_upsets(poset, limit):
    """Number of up-sets of the poset.

    Raises TooLargeError once the count would need more than `limit`
    memo entries, which proves there are more than `limit` + 1 up-sets.

    Counts by recursion on a mask s of elements. If s falls apart into
    several connected components of its comparability graph, its count
    is the product of theirs. Otherwise pivot on the element p
    comparable to most others in s: an up-set either holds p, and with
    it all of ↑p, or avoids it, and with it all of ↓p, so
    count(s) = count(s - ↓p) + count(s - ↑p). Counts are memoized by s.

    Computing count(s) memoizes at most count(s) - 1 nonzero masks, by
    induction: a pivot adds 1 + (a - 1) + (b - 1), and k >= 2 components
    of counts a_i >= 2 add 1 + sum(a_i - 1) <= prod(a_i) - 1. Counting
    is #P-hard in general (Provan & Ball 1983); the memo budget bounds
    the work.
    """
    up, down = poset.up_masks, poset.down_masks
    near = [u | d for u, d in zip(up, down)]
    memo = {}

    def count(s):
        if not s:
            return 1
        total = memo.get(s)
        if total is not None:
            return total
        # Grow the component of the lowest element left, one layer at a
        # time, noting the element comparable to most others in s.
        parts = []
        rest = s
        while rest:
            part = frontier = rest & -rest
            most = -1
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    q = low.bit_length() - 1
                    reach |= near[q]
                    k = (near[q] & s).bit_count()
                    if k > most:
                        most, p = k, q
                frontier = reach & rest & ~part
                part |= frontier
            parts.append(part)
            rest &= ~part
        if len(parts) > 1:
            total = 1
            for part in parts:
                total *= count(part)
        else:
            total = count(s & ~down[p]) + count(s & ~up[p])
        memo[s] = total
        if len(memo) > limit:
            raise TooLargeError(
                f"dual lattice has more than {limit} members, cap {limit}"
            )
        return total

    return count(poset.full_mask)


def enumerate_dual(poset, max_members=DEFAULT_MAX_MEMBERS):
    """Enumerate every up-set of the poset as a lattice of monotone maps.

    Refuses a base of more than DEFAULT_MAX_ELEMENTS elements with
    TooLargeError. Then counts the up-sets, with a memo budget of
    max_members entries, and raises TooLargeError naming the count, or
    saying the budget ran out, when there are more than max_members of
    them; nothing is walked then. Otherwise walks them all into popcount
    buckets, whose concatenation is the canonical order. The walk splits
    only down to remainders of at most _TAIL_ELEMENTS undecided
    elements, and appends each remainder's up-sets, built once per walk,
    as the 64-bit lanes of one int (`_walk_upset_buckets`). Raises
    LemmaViolationError if the walk and the count disagree, so each
    checks the other.
    """
    _check_width(poset)
    count = _count_upsets(poset, max_members)
    if count > max_members:
        raise TooLargeError(f"dual lattice has {count} members, cap {max_members}")
    # Each bucket is released once joined, so the members are held once.
    buckets = _walk_upset_buckets(poset)
    buckets.reverse()
    supports = array("Q")
    while buckets:
        supports += buckets.pop()
    if len(supports) != count:
        raise LemmaViolationError(f"walked {len(supports)} up-sets but counted {count}")
    return DualLattice._canonical(poset, supports, count)


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
    return lattice.member(lattice.index_of_support(union))


def inf_of(lattice, maps):
    """Greatest lower bound: pointwise min, i.e. intersection of supports."""
    inter = lattice.base.full_mask
    for x in maps:
        lattice.check_member(x)
        inter &= x.support
    return lattice.member(lattice.index_of_support(inter))


def _witness(lattice, side, element):
    # KeyError, as for any support the lattice lacks, when there is none.
    i = lattice.witnesses[side][lattice.base.index(element)]
    if i is None:
        raise KeyError(element)
    return lattice.member(i)


def lambda_of(lattice, element):
    """The member vanishing exactly on the down-set of the element."""
    return _witness(lattice, 0, element)


def upsilon_of(lattice, element):
    """The member supported exactly on the up-set of the element."""
    return _witness(lattice, 1, element)


class IrreducibleReport(
    namedtuple(
        "IrreducibleReport",
        "meet_irreducibles join_irreducibles lambda_witness upsilon_witness",
    )
):
    """Irreducible members with their base-element witnesses.

    Every meet-irreducible arises from exactly one base element via
    lambda_of, every join-irreducible via upsilon_of, and conversely.
    The two witness fields are dicts, so a report is not hashable.
    """

    __slots__ = ()


def _match_witnesses(lattice, found, indices, supports, side):
    # The found irreducibles (a member-index mask) must be exactly the
    # members at the witness indices: a member found elsewhere is reported
    # first, lowest index first, then the first element whose witness is
    # missing or was not found.
    elements = lattice.base.elements
    element_at = {i: p for p, i in zip(elements, indices) if i is not None}
    extra = found & ~sum(1 << i for i in element_at)
    if extra:
        raise LemmaViolationError(
            f"{side}-irreducible member has no base-element witness",
            counterexample=lattice.member((extra & -extra).bit_length() - 1),
        )
    for p, i, support in zip(elements, indices, supports):
        if i is None:
            raise LemmaViolationError(
                f"embedded element {p!r} has no member", counterexample=support
            )
        # Never on a reflexive, antisymmetric base: λ_p lies in M_p and in
        # no other M_q, υ_p in J_p alone, so both are always found.
        if not found >> i & 1:
            raise LemmaViolationError(
                f"embedded element {p!r} gives a reducible member",
                counterexample=lattice.member(i),
            )
    found = list(_bits(found))
    members = tuple(map(lattice.member, found))
    return members, dict(zip(members, map(element_at.get, found)))


def irreducibles(lattice):
    """Compute all irreducible members and match them to base elements.

    Irreducibles have exactly one upper (meet) or lower (join) cover,
    read off the member columns; only they are made into member objects.

    Raises LemmaViolationError (an implementation bug by construction) if
    an irreducible lacks a witness or an embedded element is reducible.
    """
    base = lattice.base
    lambdas, upsilons = lattice.witnesses
    meets, joins, _ = lattice.order_masks
    off_down = [base.full_mask & ~down for down in base.down_masks]
    meets, lambda_witness = _match_witnesses(lattice, meets, lambdas, off_down, "meet")
    joins, upsilon_witness = _match_witnesses(
        lattice, joins, upsilons, base.up_masks, "join"
    )
    return IrreducibleReport(meets, joins, lambda_witness, upsilon_witness)
