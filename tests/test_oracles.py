"""Cross-checks of the cover-based fast paths against the generic scans.

Covers, irreducibility and the lattice Hasse diagram are read off the
base poset in production; principal intervals are read off the member
columns, and ideal and filter checks compare a subset with the interval
of its join or meet. The oracles in conftest rebuild each from the member
order alone.
"""

import pytest

from posetdual import (
    SubsetOfLattice,
    emit_lattice_dot,
    enumerate_dual,
    greatest_below,
    is_filter,
    is_ideal,
    lambda_of,
    least_above,
    poset_from_relations,
    prime_principal_pairs,
    upsilon_of,
)

from conftest import (
    greatest_lower_bound_scan,
    intervals_scan,
    is_filter_pairwise,
    is_ideal_pairwise,
    lattice_cover_edges_scan,
    least_upper_bound_scan,
    poset_catalog,
    random_suite,
)

SUBSET_CAP = 10
# 2^13 members: two blocks of the column transpose.
WIDE = 13


@pytest.fixture(scope="module")
def lattices():
    return [enumerate_dual(p) for p in poset_catalog(4) + random_suite()]


def test_covers_match_bound_scans(lattices):
    for lattice in lattices:
        members = lattice.members
        for x in members:
            above = [y for y in members if y != x and x.support & ~y.support == 0]
            below = [y for y in members if y != x and y.support & ~x.support == 0]
            assert least_above(lattice, x) == greatest_lower_bound_scan(lattice, above)
            assert greatest_below(lattice, x) == least_upper_bound_scan(lattice, below)


def test_lattice_dot_edges_match_transitive_reduction(lattices):
    for lattice in lattices:
        lines = emit_lattice_dot(lattice).splitlines()
        edges = [line for line in lines if "->" in line]
        assert edges == lattice_cover_edges_scan(lattice)


def test_ideal_and_filter_match_pairwise_definition(lattices):
    checked = 0
    for lattice in lattices:
        if len(lattice) > SUBSET_CAP:
            continue
        for mask in range(1 << len(lattice)):
            subset = SubsetOfLattice(lattice, mask)
            assert is_ideal(subset) == is_ideal_pairwise(lattice, mask)
            assert is_filter(subset) == is_filter_pairwise(lattice, mask)
            checked += 1
    assert checked > 10000


def test_intervals_match_pairwise_scan(lattices):
    for lattice in lattices:
        down, up = intervals_scan(lattice)
        assert [lattice.down_interval(i) for i in range(len(lattice))] == down
        assert [lattice.up_interval(i) for i in range(len(lattice))] == up


@pytest.fixture(scope="module")
def wide_antichain():
    lattice = enumerate_dual(poset_from_relations([f"a{i}" for i in range(WIDE)], []))
    assert len(lattice) == 1 << WIDE
    return lattice


def test_intervals_across_transpose_blocks(wide_antichain):
    lattice = wide_antichain
    supports = lattice.supports
    m = len(lattice)
    sample = sorted({*range(0, m, 97), 4095, 4096, m - 1})
    for i in sample:
        si = supports[i]
        down = sum(1 << j for j, sj in enumerate(supports) if sj & ~si == 0)
        up = sum(1 << j for j, sj in enumerate(supports) if si & ~sj == 0)
        assert lattice.down_interval(i) == down
        assert lattice.up_interval(i) == up


def test_prime_pairs_on_wide_lattice(wide_antichain):
    lattice = wide_antichain
    expected = [
        (lambda_of(lattice, p), upsilon_of(lattice, p), p)
        for p in lattice.base.elements
    ]
    expected.sort(key=lambda pair: lattice.member_index(pair[0]))
    assert list(prime_principal_pairs(lattice).pairs) == expected
