"""Shared brute-force oracles and small-poset catalogs.

Everything here is deliberately independent of the library's own lattice
machinery: subsets are filtered, bounds are found by full scans, and
posets are generated by filtering raw relations.
"""

from itertools import combinations, product

from posetdual import (
    BoundedHom,
    find_isomorphism,
    poset_from_relations,
    random_poset,
    transitive_reduction,
)
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


def homs_by_all_maps(lattice):
    """Every valid hom to {0, 1}, by running the library's pairwise hom
    check (itself checked against satisfies_hom_definition) on every map
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
