"""Shared brute-force oracles and small-poset catalogs.

Everything here is deliberately independent of the library's own lattice
machinery: subsets are filtered, bounds are found by full scans, and
posets are generated by filtering raw relations.
"""

import re
from array import array
from itertools import combinations, product

from posetdual import (
    BoundedHom,
    DuplicateElementError,
    FinitePoset,
    NoWitnessError,
    ParseError,
    UnknownElementError,
    hom_leq,
    point_of_hom,
    poset_from_relations,
    random_poset,
    transitive_reduction,
)
from posetdual.textio import PosetDocument

_DOT_KEYWORDS = ("node", "edge", "graph", "digraph", "subgraph", "strict")


def _bits(mask):
    """The indices of the set bits of a mask, lowest first."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _label(x):
    """A member's support in set notation, its elements in base order."""
    names = [e for i, e in enumerate(x.base.elements) if x.support >> i & 1]
    return "{" + ",".join(names) + "}"


def _dot_escape(text):
    return str(text).replace("\\", "\\\\").replace('"', '\\"')


def _dot_graph_id(name):
    """A graph name as a DOT ID: bare when it is an ASCII identifier and
    no keyword in any case, else quoted."""
    bare = re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name)
    if bare and name.lower() not in _DOT_KEYWORDS:
        return name
    return f'"{_dot_escape(name)}"'


def _content_lines(text):
    """(line number, line) of each line that is not blank once a # comment
    and trailing blanks are cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].rstrip()
        if line:
            yield lineno, line


def upset_masks_bruteforce(poset):
    """All up-sets of a poset by filtering every subset."""
    n = poset.n
    out = []
    for mask in range(1 << n):
        ok = True
        for i in range(n):
            if mask >> i & 1 and poset.up_masks[i] & ~mask:
                ok = False
                break
        if ok:
            out.append(mask)
    return out


def upset_walk_scan(poset):
    """Every up-set in one array('Q') per popcount, by the plain walk:
    split on the highest undecided element until none is left, taking
    the exclude branch at once and stacking the include branch, and
    append each leaf on its own. Leaves come in increasing order."""
    up = poset.up_masks
    buckets = [array("Q") for _ in range(poset.n + 1)]
    stack = [(0, poset.full_mask)]  # (included, undecided)
    while stack:
        included, rest = stack.pop()
        while rest:
            p = rest.bit_length() - 1
            stack.append((included | up[p], rest & ~up[p]))
            rest &= ~poset.down_masks[p]
        buckets[included.bit_count()].append(included)
    return buckets


def transitive_closure_fixpoint(up):
    """The closure of reflexive up-rows, by OR-ing into each row the rows
    of its set bits until no row changes."""
    up = list(up)
    changed = True
    while changed:
        changed = False
        for i in range(len(up)):
            acc = up[i]
            for j in _bits(acc):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    return up


def transitive_reduction_scan(poset):
    """Sorted cover pairs, pair by pair: (i, j) with i strictly below j
    is a cover unless some k sits strictly between."""
    n = poset.n
    covers = []
    for i in range(n):
        for j in range(n):
            if i == j or not poset.leq_index(i, j):
                continue
            between = poset.up_masks[i] & ~(1 << i) & ~(1 << j)
            if not any(poset.leq_index(k, j) for k in _bits(between)):
                covers.append((poset.elements[i], poset.elements[j]))
    covers.sort()
    return tuple(covers)


def partial_order_scan(up_masks):
    """Whether up-masks over len(up_masks) elements, read as i <= j iff
    bit j of up_masks[i], are a partial order: no bit outside the
    elements, and the relation reflexive, antisymmetric and transitive,
    each tested on every pair or triple of elements."""
    n = len(up_masks)
    if any(up < 0 or up >> n for up in up_masks):
        return False
    le = [[bool(up >> j & 1) for j in range(n)] for up in up_masks]
    pairs = list(product(range(n), repeat=2))
    return (
        all(le[i][i] for i in range(n))
        and not any(le[i][j] and le[j][i] for i, j in pairs if i != j)
        and all(le[i][k] for i, j in pairs for k in range(n) if le[i][j] and le[j][k])
    )


def down_mask_scan(poset, j):
    """Bitmask of the elements below element j, by testing every i."""
    return sum(1 << i for i in range(poset.n) if poset.up_masks[i] >> j & 1)


def evaluation_columns_scan(lattice):
    """columns[p]: bit i set iff member i evaluates to 1 at element p."""
    return tuple(
        sum(x.evaluate(e) << i for i, x in enumerate(lattice.members))
        for e in lattice.base.elements
    )


def evaluation_kernel_scan(lattice, p):
    """The kernel top of ev_p as the last member of the ideal below the
    join of its zero side, found by the interval scan over every column."""
    column = lattice.columns[lattice.base.index(p)]
    ideal = lattice.ideal_of(lattice.full_member_mask & ~column)
    return lattice.member(ideal.bit_length() - 1)


def transpose_rows_scan(rows, n):
    """columns[p]: bit i set iff bit p of rows[i] is, read off each row's
    n binary digits, the last row's first (after a leading 1, so that a
    0-element base has no column)."""
    digits = [format(row | 1 << n, "b")[1:] for row in reversed(rows)]
    return tuple(int("".join(column), 2) for column in zip(*digits))[::-1]


def last_without_scan(rows, n):
    """last_without[p]: the highest i whose rows[i] lacks bit p, or -1, as
    the top bit of the complement of transpose_rows_scan's column p."""
    full = (1 << len(rows)) - 1
    return tuple((full & ~c).bit_length() - 1 for c in transpose_rows_scan(rows, n))


def intervals_scan(lattice):
    """(down, up): down[i] is the member-index bitmask of every member
    below member i, up[i] of every member above it, both inclusive, from
    comparing every pair of supports."""
    supports = lattice.supports
    down = []
    up = [0] * len(supports)
    for i, si in enumerate(supports):
        d = 0
        for j, sj in enumerate(supports):
            if sj & ~si == 0:
                d |= 1 << j
                up[j] |= 1 << i
        down.append(d)
    return down, up


def irreducible_masks_scan(lattice):
    """(meet, join): member-index masks of the members with exactly one
    upper or lower cover, counting each member's covers from its support."""
    base = lattice.base
    meets = joins = 0
    for i, s in enumerate(lattice.supports):
        if len(_maximal_outside(base.up_masks, s)) == 1:
            meets |= 1 << i
        if len(_maximal_outside(base.down_masks, base.full_mask & ~s)) == 1:
            joins |= 1 << i
    return meets, joins


def strict_bounds_scan(lattice):
    """(above, below): per base element p, the member-index masks
    AND{col[q] : q > p} and OR{col[q] : q < p}, held as one table."""
    columns, base = lattice.columns, lattice.base
    above, below = [], []
    for p, (up, down) in enumerate(zip(base.up_masks, base.down_masks)):
        meet, join = lattice.full_member_mask, 0
        for q in _bits(up & ~(1 << p)):
            meet &= columns[q]
        for q in _bits(down & ~(1 << p)):
            join |= columns[q]
        above.append(meet)
        below.append(join)
    return tuple(above), tuple(below)


def cover_masks_scan(lattice):
    """(outside, inside): per base element p, the member-index mask of
    the members with p maximal outside their support, and of those with
    p minimal inside it, member by member from the supports."""
    base = lattice.base
    outside = [0] * base.n
    inside = [0] * base.n
    for i, s in enumerate(lattice.supports):
        for p in _maximal_outside(base.up_masks, s):
            outside[p] |= 1 << i
        for p in _maximal_outside(base.down_masks, base.full_mask & ~s):
            inside[p] |= 1 << i
    return outside, inside


def complementary_pairs_scan(lattice):
    """Member-index pairs (i, j) whose intervals below i and above j
    partition the lattice, trying every member i as the ideal's top."""
    full = lattice.full_member_mask
    pairs = []
    for i in range(len(lattice)):
        rest = full & ~lattice.ideal_of(1 << i)
        j = (rest & -rest).bit_length() - 1
        if rest and rest == lattice.filter_of(1 << j):
            pairs.append((i, j))
    return pairs


def _maximal_outside(up_masks, upset):
    """Elements maximal outside an up-set U of the order given by up_masks.

    The upper covers of U in the up-set lattice are U | {p} for exactly
    these p (Birkhoff). With the opposite order's masks and the complement
    of U they are the minimal p in U, and U - {p} are the lower covers.
    """
    return [p for p, up in enumerate(up_masks) if up & ~upset == 1 << p]


def least_above(lattice, x):
    """Inf of all members strictly above x (the top itself when x is top),
    looked up by support: x's upper cover when it has exactly one, else x
    itself."""
    lattice.check_member(x)
    covers = _maximal_outside(lattice.base.up_masks, x.support)
    support = x.support | 1 << covers[0] if len(covers) == 1 else x.support
    return lattice.member(lattice.index_of_support(support))


def greatest_below(lattice, x):
    """Sup of all members strictly below x (the bottom when x is bottom),
    looked up by support: x's lower cover when it has exactly one, else x
    itself."""
    lattice.check_member(x)
    outside = lattice.base.full_mask & ~x.support
    covers = _maximal_outside(lattice.base.down_masks, outside)
    support = x.support & ~(1 << covers[0]) if len(covers) == 1 else x.support
    return lattice.member(lattice.index_of_support(support))


def upset_closure_scan(lattice):
    """(ok, payload) of the dual_lattice_closure check, member by member:
    the first member holding an element but not everything above it, then
    the first member whose support the next member repeats, then whether
    there are as many members as subsets of the base that are up-sets."""
    base = lattice.base
    members = lattice.members
    for x in members:
        for i in range(base.n):
            if x.support >> i & 1 and base.up_masks[i] & ~x.support:
                return False, f"member={_label(x)}"
    for x, y in zip(members, members[1:]):
        if x.support == y.support:
            return False, f"member={_label(x)} repeated"
    if len(members) != len(upset_masks_bruteforce(base)):
        return False, f"members={len(members)} missing-up-sets"
    return True, None


def witness_supports_scan(base):
    """[(p, support of lambda_p, support of upsilon_p)] in element order:
    lambda_p is 0 exactly at the q <= p and upsilon_p 1 exactly at the
    q >= p, both built from the order relation."""
    return [
        (
            p,
            sum(1 << j for j in range(base.n) if not base.leq_index(j, k)),
            sum(1 << j for j in range(base.n) if base.leq_index(k, j)),
        )
        for k, p in enumerate(base.elements)
    ]


def witnesses_scan(lattice):
    """(witness_supports_scan(lattice.base), None), or (None, payload)
    naming the first element whose lambda_p, or else upsilon_p, no
    member has."""
    found = witness_supports_scan(lattice.base)
    for p, lam, ups in found:
        if lam not in lattice.supports:
            return None, f"p={p} no-lambda"
        if ups not in lattice.supports:
            return None, f"p={p} no-upsilon"
    return found, None


def embedding_characterization_scan(lattice):
    """(ok, payload) of the embedding_characterization check, element by
    element and member by member, comparing supports: x(p) = 0 iff x is
    below lambda_p, and x(p) = 1 iff x is above upsilon_p."""
    witnesses, missing = witnesses_scan(lattice)
    if missing:
        return False, missing
    for i, (p, lam, ups) in enumerate(witnesses):
        for k, x in enumerate(lattice.supports):
            value = x >> i & 1
            if (value == 0) != (x & ~lam == 0) or (value == 1) != (ups & ~x == 0):
                return False, f"x={_label(lattice.member(k))} p={p}"
    return True, None


def embedding_order_scan(lattice, witnesses=None):
    """(ok, payload) of the embedding_order check, pair by pair and
    element by element: p <= q iff lambda_q <= lambda_p pointwise, iff
    upsilon_q <= upsilon_p. The witnesses, [(p, support of lambda_p,
    support of upsilon_p)] in element order, are witnesses_scan's unless
    given."""
    if witnesses is None:
        witnesses, missing = witnesses_scan(lattice)
        if missing:
            return False, missing
    n = lattice.base.n
    for i, (p, lam_p, ups_p) in enumerate(witnesses):
        for j, (q, lam_q, ups_q) in enumerate(witnesses):
            expected = lattice.base.leq_index(i, j)
            lam_rev = all(lam_q >> k & 1 <= lam_p >> k & 1 for k in range(n))
            ups_rev = all(ups_q >> k & 1 <= ups_p >> k & 1 for k in range(n))
            if lam_rev != expected or ups_rev != expected:
                return False, f"p={p} q={q}"
    return True, None


def irreducible_covers_scan(lattice):
    """(ok, payload) of the irreducible_covers check, member by member:
    the least member strictly above lambda_p, the first member containing
    the intersection of the supports strictly above lambda_p, must be
    lambda_p with p added."""
    witnesses, missing = witnesses_scan(lattice)
    if missing:
        return False, missing
    supports = lattice.supports
    for i, (p, lam, _) in enumerate(witnesses):
        above = [x for x in supports if x != lam and lam & ~x == 0]
        meet = lattice.base.full_mask
        for x in above:
            meet &= x
        least = next(x for x in supports if meet & ~x == 0) if above else None
        if least != lam | 1 << i:
            return False, f"p={p}"
    return True, None


def _down_rows(lattice):
    """down[i]: member-index mask of the members below member i, from
    comparing supports pairwise (O(m^2)), sharing nothing with the member
    columns."""
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
    # once per lattice; down is _down_rows(lattice). The support lookup
    # is built here, so the reference shares none with the lattice.
    top_bit = 1 << (len(lattice) - 1)
    full = lattice.full_member_mask
    supports = lattice.supports
    index_of = {support: i for i, support in enumerate(supports)}

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


def homs_by_all_maps(lattice):
    """Every valid hom to {0, 1}, by running _ones_mask_checker's pairwise
    hom check (itself checked against the all-subsets definition) on every map
    that sends the bottom to 0: the even ones-masks, 2^(m-1) of them. Each
    kernel top is the union of the zero side's supports. Sorted by kernel
    top in canonical member order."""
    ok = _ones_mask_checker(lattice, _down_rows(lattice))
    full = lattice.full_member_mask
    homs = []
    for ones_mask in range(0, 1 << len(lattice), 2):
        if ok(ones_mask):
            union = 0
            for i in _bits(full & ~ones_mask):
                union |= lattice.supports[i]
            kernel_top = lattice.member(lattice.index_of_support(union))
            homs.append(BoundedHom(lattice, kernel_top))
    homs.sort(key=lambda h: lattice.member_index(h.kernel_top))
    return homs


def isomorphism_failures_scan(lattice, forward):
    """verify_isomorphism's failures, brute force aside, for the homs
    forward[p]: each element's round trip through point_of_hom, then
    hom_leq(forward[p], forward[q]) against p <= q, pair by pair."""
    poset = lattice.base
    failures = []
    for p, hom in forward.items():
        try:
            q = point_of_hom(lattice, hom)
        except NoWitnessError:
            q = None
        if q != p:
            failures.append(f"round trip broke at {p!r} (got {q!r})")
    for p in poset.elements:
        for q in poset.elements:
            expected = poset.leq_index(poset.index(p), poset.index(q))
            if hom_leq(forward[p], forward[q]) != expected:
                failures.append(f"order embedding broke at ({p!r}, {q!r})")
    return failures


def satisfies_hom_definition(lattice, values):
    """Definitional hom check on a map given as one value per member in
    canonical order: the bounds, and every subset's sup and inf, are
    preserved. Exponential in the member count."""
    m = len(lattice)
    supports = lattice.supports
    if values[0] != 0 or values[m - 1] != 1:
        return False
    for subset in range(1 << m):
        union = 0
        inter = lattice.base.full_mask
        vmax = 0
        vmin = 1
        for i in _bits(subset):
            union |= supports[i]
            inter &= supports[i]
            vmax = max(vmax, values[i])
            vmin = min(vmin, values[i])
        if values[lattice.index_of_support(union)] != vmax:
            return False
        if values[lattice.index_of_support(inter)] != vmin:
            return False
    return True


def least_upper_bound_scan(lattice, maps):
    """Order-theoretic LUB: collect all upper bounds, pick the least.

    Returns None if no unique least upper bound exists (never happens in
    a lattice, which is the point of the check).
    """
    ubs = [
        y
        for y in lattice.members
        if all(x.support & ~y.support == 0 for x in maps)
    ]
    least = [
        c for c in ubs if all(c.support & ~u.support == 0 for u in ubs)
    ]
    return least[0] if len(least) == 1 else None


def greatest_lower_bound_scan(lattice, maps):
    lbs = [
        y
        for y in lattice.members
        if all(y.support & ~x.support == 0 for x in maps)
    ]
    greatest = [
        c for c in lbs if all(l.support & ~c.support == 0 for l in lbs)
    ]
    return greatest[0] if len(greatest) == 1 else None


def member_poset(lattice):
    """The lattice itself as a finite poset over names m0, m1, ... in
    canonical member order, its up-masks from all pairwise support
    inclusions, which are already reflexive and transitive."""
    supports = lattice.supports
    names = tuple(f"m{i}" for i in range(len(supports)))
    up = tuple(
        sum(1 << j for j, y in enumerate(supports) if x & ~y == 0) for x in supports
    )
    return FinitePoset(names, up)


def lattice_cover_edges_scan(lattice):
    """Hasse edges of the lattice as DOT lines, via the transitive
    reduction of the whole member order."""
    return [
        f'  "{lower}" -> "{upper}";'
        for lower, upper in transitive_reduction(member_poset(lattice)).pairs
    ]


def lattice_dot_scan(lattice, name="L", label_embeddings=False):
    """The lattice DOT built member by member: each label from the
    member's elements, each upper cover U | {p} for p maximal outside U
    looked up by support (KeyError when missing), edges sorted as
    (lower id, upper id) pairs. A backslash or quote in an element name
    is escaped with a backslash."""
    base = lattice.base
    names = [_dot_escape(e) for e in base.elements]
    annotations = {}
    if label_embeddings:
        for p, down in zip(names, base.down_masks):
            annotations.setdefault(base.full_mask & ~down, []).append(f"λ:{p}")
        for p, up in zip(names, base.up_masks):
            annotations.setdefault(up, []).append(f"υ:{p}")
    lines = [f"digraph {_dot_graph_id(name)} {{"]
    for i, x in enumerate(lattice.members):
        label = "{" + ",".join(names[k] for k in _bits(x.support)) + "}"
        notes = annotations.get(x.support)
        if notes:
            label = f"{label} {','.join(notes)}"
        lines.append(f'  "m{i}" [label="{label}"];')
    edges = sorted(
        (f"m{i}", f"m{lattice.index_of_support(x.support | 1 << p)}")
        for i, x in enumerate(lattice.members)
        for p in _maximal_outside(base.up_masks, x.support)
    )
    for lower, upper in edges:
        lines.append(f'  "{lower}" -> "{upper}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _closed_pairwise(lattice, member_mask, below, bound_scan):
    # The definition itself: closed in the given direction, and every pair
    # of members (a member with itself included) has its bound inside.
    members = lattice.members
    inside = [x for i, x in enumerate(members) if member_mask >> i & 1]
    for x in inside:
        for y in members:
            if below(y, x) and y not in inside:
                return False
    for x in inside:
        for y in inside:
            if bound_scan(lattice, [x, y]) not in inside:
                return False
    return True


def is_ideal_pairwise(lattice, member_mask):
    """Down-closed and closed under pairwise least upper bounds."""
    return _closed_pairwise(
        lattice,
        member_mask,
        lambda y, x: y.support & ~x.support == 0,
        least_upper_bound_scan,
    )


def is_filter_pairwise(lattice, member_mask):
    """Up-closed and closed under pairwise greatest lower bounds."""
    return _closed_pairwise(
        lattice,
        member_mask,
        lambda y, x: x.support & ~y.support == 0,
        greatest_lower_bound_scan,
    )


def all_labeled_posets(n):
    """Every partial order on elements 0..n-1, by filtering raw relations.

    Each unordered pair is independently oriented one way, the other, or
    left incomparable; transitivity is then checked directly.
    """
    elements = [f"x{i}" for i in range(n)]
    pairs_idx = list(combinations(range(n), 2))
    posets = []
    for choice in product((0, 1, 2), repeat=len(pairs_idx)):
        rel = [[False] * n for _ in range(n)]
        for i in range(n):
            rel[i][i] = True
        for (i, j), c in zip(pairs_idx, choice):
            if c == 1:
                rel[i][j] = True
            elif c == 2:
                rel[j][i] = True
        transitive = True
        for k in range(n):
            for i in range(n):
                if not rel[i][k]:
                    continue
                for j in range(n):
                    if rel[k][j] and not rel[i][j]:
                        transitive = False
                        break
                if not transitive:
                    break
            if not transitive:
                break
        if not transitive:
            continue
        strict_pairs = [
            (elements[i], elements[j])
            for i in range(n)
            for j in range(n)
            if i != j and rel[i][j]
        ]
        posets.append(poset_from_relations(elements, strict_pairs))
    return posets


def _signature(poset, i):
    return (
        bin(poset.up_masks[i]).count("1"),
        bin(poset.down_masks[i]).count("1"),
    )


def find_isomorphism(p, q):
    """Order isomorphism p -> q as an element dict, or None.

    Backtracking over assignments, pruned by (up-set size, down-set size)
    signatures; exact, exponential in the worst case.
    """
    if p.n != q.n:
        return None
    sig_p = [_signature(p, i) for i in range(p.n)]
    sig_q = [_signature(q, i) for i in range(q.n)]
    if sorted(sig_p) != sorted(sig_q):
        return None

    # Assign the most constrained (rarest signature) elements first.
    order = sorted(range(p.n), key=lambda i: (sig_p[i], i))
    assign = [None] * p.n
    used = [False] * q.n

    def extend(k):
        if k == p.n:
            return True
        i = order[k]
        for j in range(q.n):
            if used[j] or sig_p[i] != sig_q[j]:
                continue
            ok = True
            for k2 in range(k):
                i2 = order[k2]
                j2 = assign[i2]
                if (
                    p.leq_index(i, i2) != q.leq_index(j, j2)
                    or p.leq_index(i2, i) != q.leq_index(j2, j)
                ):
                    ok = False
                    break
            if ok:
                assign[i] = j
                used[j] = True
                if extend(k + 1):
                    return True
                assign[i] = None
                used[j] = False
        return False

    if not extend(0):
        return None
    return {p.elements[i]: q.elements[assign[i]] for i in range(p.n)}


def poset_catalog(max_n):
    """Representatives of every isomorphism class on 0..max_n elements."""
    reps = []
    for n in range(max_n + 1):
        classes = []
        for p in all_labeled_posets(n):
            if not any(find_isomorphism(p, q) for q in classes):
                classes.append(p)
        reps.extend(classes)
    return reps


def random_suite(count=200, max_n=6):
    """Deterministic spread of random posets, sizes 0..max_n."""
    out = []
    for seed in range(count):
        n = seed % (max_n + 1)
        density = (seed * 7 % 11) / 10.0
        out.append(random_poset(n, seed, density))
    return out


def chain(n):
    """c0 < c1 < ... < c(n-1): n + 1 up-sets."""
    names = [f"c{i}" for i in range(n)]
    return poset_from_relations(names, zip(names, names[1:]))


def fence(n):
    """e0 < e1 > e2 < e3 ...: its up-sets are the independent sets of a
    path on n vertices, F(n + 2) of them."""
    pairs = [(f"e{i}", f"e{i + 1}") if i % 2 == 0 else (f"e{i + 1}", f"e{i}")
             for i in range(n - 1)]
    return poset_from_relations([f"e{i}" for i in range(n)], pairs)


_SCAN_IDENT = re.compile(r"[A-Za-z0-9_]+\Z")
_SCAN_TOKEN = re.compile(r"\S+")


def _scan_identifier(token, lineno):
    ident = token.group()
    if not _SCAN_IDENT.match(ident):
        column = token.start() + 1
        raise ParseError(f"bad identifier {ident!r}", line=lineno, column=column)
    return ident


def parse_poset_scan(text):
    """The text format parsed token by token with the regex tokenizer:
    every `elements:` name and both ends of every relation line are
    matched and checked in order, so the first bad token raises."""
    lines = list(_content_lines(text))
    pos = 0

    if pos >= len(lines):
        raise ParseError("expected 'poset <name>'", line=1)
    lineno, line = lines[pos]
    parts = line.split()
    if len(parts) != 2 or parts[0] != "poset" or not _SCAN_IDENT.match(parts[1]):
        raise ParseError("expected 'poset <name>'", line=lineno)
    name = parts[1]
    pos += 1

    if pos >= len(lines):
        raise ParseError("expected 'elements:' line", line=lineno + 1)
    lineno, line = lines[pos]
    if not line.startswith("elements:"):
        raise ParseError("expected 'elements:' line", line=lineno)
    elements = []
    seen = set()
    for token in _SCAN_TOKEN.finditer(line, len("elements:")):
        ident = _scan_identifier(token, lineno)
        if ident in seen:
            raise DuplicateElementError(
                f"line {lineno}: duplicate element: {ident!r}"
            )
        seen.add(ident)
        elements.append(ident)
    pos += 1

    if pos >= len(lines):
        raise ParseError("expected 'relations:' line", line=lineno + 1)
    lineno, line = lines[pos]
    if line != "relations:":
        raise ParseError("expected 'relations:' line", line=lineno)
    pos += 1

    relations = []
    for lineno, line in lines[pos:]:
        tokens = list(_SCAN_TOKEN.finditer(line))
        if len(tokens) != 3 or tokens[1].group() != "<":
            raise ParseError("expected '<id> < <id>'", line=lineno)
        for token in tokens[::2]:
            ident = _scan_identifier(token, lineno)
            if ident not in seen:
                raise UnknownElementError(
                    f"line {lineno}: unknown element: {ident!r}"
                )
        relations.append((tokens[0].group(), tokens[2].group()))

    return PosetDocument(name, tuple(elements), tuple(relations))
