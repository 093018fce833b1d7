"""Cross-checks of the cover-based fast paths against the generic scans.

Covers and the lattice Hasse diagram are read off the base poset in
production. Everything `verify` asks of the order is read off the member
columns: principal ideals and filters of a member set, ideal and filter
checks, irreducibles, prime-pair candidates, and the up-set closure and
embedding characterization checks. The second dual's homs are checked
only on the principal-ideal candidates. The oracles in conftest rebuild
each from the member order or the supports, member by member, or, for
the homs, from every map on the members.
"""

import random

import pytest

from posetdual import (
    DualLattice,
    LemmaViolationError,
    SubsetOfLattice,
    build_verification_report,
    emit_lattice_dot,
    enumerate_dual,
    enumerate_second_dual_bruteforce,
    greatest_below,
    irreducibles,
    is_filter,
    is_ideal,
    lambda_of,
    least_above,
    poset_from_relations,
    prime_principal_pairs,
    random_poset,
    transitive_reduction,
    upsilon_of,
)
from posetdual import dual as dual_mod
from posetdual.poset import _bits
from posetdual.report import (
    _check_embedding_characterization,
    _check_upset_closure,
)

from conftest import (
    complementary_pairs_scan,
    embedding_characterization_scan,
    greatest_lower_bound_scan,
    homs_by_all_maps,
    intervals_scan,
    irreducible_masks_scan,
    is_filter_pairwise,
    is_ideal_pairwise,
    lattice_cover_edges_scan,
    lattice_dot_scan,
    least_upper_bound_scan,
    poset_catalog,
    random_suite,
    upset_closure_scan,
)

SUBSET_CAP = 10
ALL_MAPS_CAP = 16
# 2^13 members, each row two bytes wide.
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
        assert [lattice.ideal_of(1 << i) for i in range(len(lattice))] == down
        assert [lattice.filter_of(1 << i) for i in range(len(lattice))] == up


def test_second_dual_candidates_match_all_maps(lattices):
    checked = 0
    for lattice in lattices:
        if len(lattice) > ALL_MAPS_CAP:
            continue
        assert enumerate_second_dual_bruteforce(lattice) == homs_by_all_maps(lattice)
        checked += 1
    assert checked > 200


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
        assert lattice.ideal_of(1 << i) == down
        assert lattice.filter_of(1 << i) == up


def test_prime_pairs_on_wide_lattice(wide_antichain):
    lattice = wide_antichain
    expected = [
        (lambda_of(lattice, p), upsilon_of(lattice, p), p)
        for p in lattice.base.elements
    ]
    expected.sort(key=lambda pair: lattice.member_index(pair[0]))
    assert list(prime_principal_pairs(lattice).pairs) == expected


def test_subset_maps_match_bits_listing(wide_antichain):
    lattice = wide_antichain
    full = lattice.full_member_mask
    rng = random.Random(8)
    masks = [0, 1, full, full & ~1, full >> 1, 1 << (len(lattice) - 1)]
    masks += [rng.getrandbits(len(lattice)) for _ in range(4)]
    for mask in masks:
        expected = tuple(map(lattice.member, _bits(mask)))
        assert SubsetOfLattice(lattice, mask).maps() == expected


@pytest.fixture(scope="module")
def fixture_lattices(lattices, wide_antichain):
    return lattices + [wide_antichain]


def test_irreducible_masks_match_cover_scan(fixture_lattices):
    for lattice in fixture_lattices:
        assert dual_mod._irreducible_masks(lattice) == irreducible_masks_scan(lattice)


def test_prime_pair_candidates_match_all_members(fixture_lattices):
    for lattice in fixture_lattices:
        pairs = [
            (lattice.member_index(u), lattice.member_index(v))
            for u, v, _ in prime_principal_pairs(lattice).pairs
        ]
        assert pairs == complementary_pairs_scan(lattice)


def test_column_checks_match_member_scans(fixture_lattices):
    for lattice in fixture_lattices:
        assert _check_upset_closure(lattice) == upset_closure_scan(lattice)
        assert _check_embedding_characterization(
            lattice
        ) == embedding_characterization_scan(lattice)


CORRUPTED = 2000


def _shuffled_poset(rng, n):
    # A random order whose element indices are not a linear extension.
    poset = random_poset(n, rng.randrange(1 << 30), rng.random())
    elements = list(poset.elements)
    rng.shuffle(elements)
    return poset_from_relations(elements, transitive_reduction(poset).pairs)


def _corrupted_lattices(count, seed):
    # Member sets that are not the up-sets of their base: some supports
    # dropped, some arbitrary masks added, or the base swapped for
    # another poset on as many elements; each kind at random, at least
    # one per lattice.
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        base = _shuffled_poset(rng, n)
        masks = set(enumerate_dual(base).supports)
        kinds = rng.randrange(1, 8)
        if kinds & 1:
            masks -= set(rng.sample(sorted(masks), rng.randint(1, len(masks))))
        if kinds & 2:
            masks |= {rng.randrange(1 << n) for _ in range(rng.randint(1, 4))}
        if kinds & 4:
            base = _shuffled_poset(rng, n)
        yield DualLattice(base, masks)


def _outcome(check, lattice):
    # A missing lambda_p or upsilon_p member raises KeyError from both
    # sides; the exception is part of the verdict.
    try:
        return check(lattice)
    except KeyError as exc:
        return "KeyError", str(exc)


def _witnesses_verdict(lattice):
    # How build_verification_report records irreducible_witnesses.
    try:
        irr = irreducibles(lattice)
    except LemmaViolationError as exc:
        return False, str(exc)
    n = lattice.base.n
    ok = len(irr.meet_irreducibles) == n and len(irr.join_irreducibles) == n
    return ok, None if ok else "count mismatch"


@pytest.fixture(scope="module")
def shuffled_lattices():
    rng = random.Random(5)
    return [enumerate_dual(_shuffled_poset(rng, rng.randint(0, 9))) for _ in range(60)]


def test_lattice_dot_matches_member_scan(fixture_lattices, shuffled_lattices):
    for lattice in fixture_lattices + shuffled_lattices:
        for labels in (False, True):
            assert emit_lattice_dot(lattice, "L", labels) == lattice_dot_scan(
                lattice, "L", labels
            )


def test_lattice_dot_on_corrupted_lattices_is_scan_or_error():
    # A member family that is not the up-sets of its base gets the member
    # scan's DOT or an error, never other edges.
    outcomes = set()
    for lattice in _corrupted_lattices(CORRUPTED, seed=12):
        labels = len(lattice) % 2 == 1
        try:
            text = emit_lattice_dot(lattice, "L", labels)
        except (LemmaViolationError, KeyError):
            outcomes.add("error")
            continue
        assert text == lattice_dot_scan(lattice, "L", labels)
        outcomes.add("equal")
    assert outcomes == {"error", "equal"}


def test_corrupted_lattices_get_the_scans_verdicts(monkeypatch):
    seen = set()
    for lattice in _corrupted_lattices(CORRUPTED, seed=11):
        closure = _outcome(_check_upset_closure, lattice)
        assert closure == _outcome(upset_closure_scan, lattice)
        characterization = _outcome(_check_embedding_characterization, lattice)
        assert characterization == _outcome(embedding_characterization_scan, lattice)
        witnesses = _outcome(_witnesses_verdict, lattice)
        with monkeypatch.context() as patch:
            patch.setattr(dual_mod, "_irreducible_masks", irreducible_masks_scan)
            assert witnesses == _outcome(_witnesses_verdict, lattice)
        for name, verdict in [
            ("closure", closure),
            ("characterization", characterization),
            ("witnesses", witnesses),
        ]:
            seen.add((name, verdict[0]))
    # Every check passes on some lattices and fails on others, and the
    # missing-member KeyError is met too.
    for name in ("closure", "characterization", "witnesses"):
        assert {(name, True), (name, False)} <= seen
    assert ("characterization", "KeyError") in seen
    assert ("witnesses", "KeyError") in seen


def test_verify_at_scale():
    # 75,100 members: each check reads the member columns, so the whole
    # report takes O(n^2) big-int operations.
    lattice = enumerate_dual(random_poset(30, 2, 0.12))
    assert len(lattice) == 75100
    tree, ok = build_verification_report("r", lattice)
    assert ok and tree["result"] == "pass"
    assert tree["counts"] == {
        "dual_members": 75100,
        "meet_irreducibles": 30,
        "join_irreducibles": 30,
        "prime_pairs": 30,
    }
