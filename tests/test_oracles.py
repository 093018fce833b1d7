"""Cross-checks of the cover-based fast paths against the generic scans.

Covers, irreducibility and the lattice Hasse diagram are read off the
base poset in production; ideal and filter checks test one accumulated
bound. The oracles in conftest rebuild each from the member order alone.
"""

import pytest

from posetdual import (
    SubsetOfLattice,
    emit_lattice_dot,
    enumerate_dual,
    greatest_below,
    is_filter,
    is_ideal,
    least_above,
)

from conftest import (
    greatest_lower_bound_scan,
    is_filter_pairwise,
    is_ideal_pairwise,
    lattice_cover_edges_scan,
    least_upper_bound_scan,
    poset_catalog,
    random_suite,
)

SUBSET_CAP = 10


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
