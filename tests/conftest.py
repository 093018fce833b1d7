"""Shared brute-force oracles and small-poset catalogs.

Everything here is deliberately independent of the library's own lattice
machinery: subsets are filtered, bounds are found by full scans, and
posets are generated by filtering raw relations.
"""

from itertools import combinations, product

from posetdual import (
    BoundedHom,
    poset_from_relations,
    random_poset,
    transitive_reduction,
)
from posetdual.dot import support_label
from posetdual.dual import _maximal_outside, lambda_of, upsilon_of
from posetdual.poset import _bits
from posetdual.seconddual import _down_rows, _ones_mask_checker


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


def down_mask_scan(poset, j):
    """Bitmask of the elements below element j, by testing every i."""
    return sum(1 << i for i in range(poset.n) if poset.up_masks[i] >> j & 1)


def evaluation_columns_scan(lattice):
    """columns[p]: bit i set iff member i evaluates to 1 at element p."""
    return tuple(
        sum(x.evaluate(e) << i for i, x in enumerate(lattice.members))
        for e in lattice.base.elements
    )


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


def upset_closure_scan(lattice):
    """(ok, payload) of the dual_lattice_closure check, member by member:
    the first member holding an element but not everything above it."""
    base = lattice.base
    for x in lattice.members:
        for i in range(base.n):
            if x.support >> i & 1 and base.up_masks[i] & ~x.support:
                return False, f"member={support_label(x)}"
    return True, None


def embedding_characterization_scan(lattice):
    """(ok, payload) of the embedding_characterization check, element by
    element and member by member, comparing supports: x(p) = 0 iff x is
    below lambda_p, and x(p) = 1 iff x is above upsilon_p."""
    for i, p in enumerate(lattice.base.elements):
        lam = lambda_of(lattice, p).support
        ups = upsilon_of(lattice, p).support
        for k, x in enumerate(lattice.supports):
            value = x >> i & 1
            if (value == 0) != (x & ~lam == 0) or (value == 1) != (ups & ~x == 0):
                return False, f"x={support_label(lattice.member(k))} p={p}"
    return True, None


def homs_by_all_maps(lattice):
    """Every valid hom to {0, 1}, by running the library's pairwise hom
    check (itself checked against the all-subsets definition) on every map
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
    canonical member order, built from all pairwise comparisons."""
    names = [f"m{i}" for i in range(len(lattice.members))]
    pairs = []
    for i, x in enumerate(lattice.members):
        for j, y in enumerate(lattice.members):
            if i != j and x.support & ~y.support == 0:
                pairs.append((names[i], names[j]))
    return poset_from_relations(names, pairs, max_elements=len(names) or 1)


def lattice_cover_edges_scan(lattice):
    """Hasse edges of the lattice as DOT lines, via the transitive
    reduction of the whole member order."""
    return [
        f'  "{lower}" -> "{upper}";'
        for lower, upper in transitive_reduction(member_poset(lattice)).pairs
    ]


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
