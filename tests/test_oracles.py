"""Cross-checks of the cover-based fast paths against the generic scans.

Covers and the lattice Hasse diagram are read off the base poset in
production. Everything `verify` asks of the order is read off the member
columns, with no support -> index lookup: principal ideals and filters of
a member set, ideal and filter checks, irreducibles, prime-pair
candidates, and the four report checks (up-set closure and completeness,
embedding characterization and order, irreducible covers). The members
that are λ_p and υ_p come from one table, `DualLattice.witnesses`, of
member indices, checked here against supports built from the order
relation. The second dual's homs are checked only on the principal-ideal
candidates. The oracles in conftest rebuild each from the member order
or the supports, member by member, or, for the homs, from every map on
the members or every pair of members on each side of a candidate.
Member families that are not the up-sets of their base get the same
verdicts, payloads included, from both sides, and the report fails them
without raising.
"""

import hashlib
import random
from types import SimpleNamespace

import pytest

from posetdual import (
    BoundedHom,
    DualLattice,
    LemmaViolationError,
    SubsetOfLattice,
    build_verification_report,
    emit_lattice_dot,
    enumerate_dual,
    enumerate_second_dual_bruteforce,
    evaluation_hom,
    irreducibles,
    is_filter,
    is_ideal,
    lambda_of,
    poset_from_relations,
    prime_principal_pairs,
    random_poset,
    render,
    transitive_reduction,
    upsilon_of,
    write_lattice_dot,
)
from posetdual import dot as dot_mod
from posetdual import dual as dual_mod
from posetdual import seconddual as sd_mod
from posetdual.report import _check_embedding_order, _check_upset_closure

from conftest import (
    _bits,
    _down_rows,
    _ones_mask_checker,
    chain,
    complementary_pairs_scan,
    cover_masks_scan,
    embedding_characterization_scan,
    embedding_order_scan,
    evaluation_kernel_scan,
    fence,
    greatest_below,
    greatest_lower_bound_scan,
    homs_by_all_maps,
    intervals_scan,
    irreducible_covers_scan,
    irreducible_masks_scan,
    is_filter_pairwise,
    is_ideal_pairwise,
    last_without_scan,
    lattice_cover_edges_scan,
    lattice_dot_scan,
    least_above,
    least_upper_bound_scan,
    poset_catalog,
    random_suite,
    strict_bounds_scan,
    transitive_reduction_scan,
    transpose_rows_scan,
    upset_closure_scan,
    witness_supports_scan,
    witnesses_scan,
)

SUBSET_CAP = 10
ALL_MAPS_CAP = 16
PAIRWISE_CAP = 64
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


def _pairwise_homs(lattice):
    # The candidates that the pairwise checker accepts; KeyError where a
    # pair on one side has no join or meet in the family.
    down = _down_rows(lattice)
    ok = _ones_mask_checker(lattice, down)
    full = lattice.full_member_mask
    return [
        BoundedHom(lattice, lattice.member(k))
        for k in range(len(lattice))
        if ok(full & ~down[k])
    ]


def test_second_dual_candidates_match_pairwise_checker(
    monkeypatch, lattices, shuffled_lattices
):
    # The oracle checks one meet per candidate; the pairwise checker
    # every pair of members on each side. On a family that is not an
    # up-set lattice they agree wherever the checker finds every join
    # and meet it looks up.
    monkeypatch.setattr(sd_mod, "DEFAULT_BRUTEFORCE_CAP", PAIRWISE_CAP)
    checked = 0
    for lattice in lattices + shuffled_lattices:
        if len(lattice) > PAIRWISE_CAP:
            continue
        assert enumerate_second_dual_bruteforce(lattice) == _pairwise_homs(lattice)
        checked += 1
    assert checked > 250
    outcomes = {"equal": 0, "no reference": 0}
    for lattice in _corrupted_lattices(CORRUPTED, seed=11):
        assert len(lattice) <= PAIRWISE_CAP
        try:
            expected = _pairwise_homs(lattice)
        except KeyError:
            outcomes["no reference"] += 1
            continue
        assert enumerate_second_dual_bruteforce(lattice) == expected
        outcomes["equal"] += 1
    assert min(outcomes.values()) > 100


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
        assert lattice.order_masks[:2] == irreducible_masks_scan(lattice)


def test_prime_pair_candidates_match_all_members(fixture_lattices, shuffled_lattices):
    # prime_principal_pairs is the one prime-pair check: where it returns,
    # its pairs are every complementary pair and each is (λ_p, υ_p) as the
    # order relation gives them, and the report passes prime_pairs; where
    # it raises, the report fails prime_pairs with its message.
    outcomes = set()
    for lattice in (
        fixture_lattices
        + shuffled_lattices
        + list(_corrupted_lattices(CORRUPTED, seed=11))
    ):
        tree, _ = build_verification_report("v", lattice)
        verdict = tree["checks"]["prime_pairs"]
        try:
            found = prime_principal_pairs(lattice).pairs
        except LemmaViolationError as exc:
            assert verdict == "fail"
            assert tree["counterexamples"]["prime_pairs"] == str(exc)
            outcomes.add("raised")
            continue
        assert verdict == "pass"
        index = lattice.member_index
        pairs = [(index(u), index(v)) for u, v, _ in found]
        assert pairs == complementary_pairs_scan(lattice)
        expected = {p: pair for p, *pair in witness_supports_scan(lattice.base)}
        assert [[u.support, v.support] for u, v, _ in found] == [
            expected[p] for *_, p in found
        ]
        outcomes.add("returned")
    assert outcomes == {"returned", "raised"}


# The report checks read off the member columns, each with the member
# scan whose verdict, payload included, it must record.
REPORT_SCANS = {
    "dual_lattice_closure": upset_closure_scan,
    "embedding_characterization": embedding_characterization_scan,
    "embedding_order": embedding_order_scan,
    "irreducible_covers": irreducible_covers_scan,
}


def _report_verdicts(lattice):
    tree, _ = build_verification_report("v", lattice)
    failed = tree.get("counterexamples", {})
    return {
        key: (tree["checks"][key] == "pass", failed.get(key)) for key in REPORT_SCANS
    }


def test_column_checks_match_member_scans(fixture_lattices):
    for lattice in fixture_lattices:
        verdicts = _report_verdicts(lattice)
        assert verdicts == {key: scan(lattice) for key, scan in REPORT_SCANS.items()}
        assert set(verdicts.values()) == {(True, None)}


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
        if masks:  # DualLattice refuses an empty family
            yield DualLattice(base, masks)


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


def test_witness_indices_match_scan(fixture_lattices, shuffled_lattices):
    # Each index holds the support the order relation gives lambda_p or
    # upsilon_p, None stands exactly where no member has it, and the
    # first None is the one the scan names.
    complete = set()
    for lattice in (
        fixture_lattices
        + shuffled_lattices
        + list(_corrupted_lattices(CORRUPTED, seed=11))
    ):
        supports = lattice.supports
        found = [
            (p, *(None if i is None else supports[i] for i in pair))
            for p, *pair in zip(lattice.base.elements, *lattice.witnesses)
        ]
        expected = [
            (p, *(s if s in supports else None for s in pair))
            for p, *pair in witness_supports_scan(lattice.base)
        ]
        assert found == expected
        _, missing = witnesses_scan(lattice)
        first = next(
            (
                f"p={p} no-{side}"
                for p, lam, ups in found
                for side, s in (("lambda", lam), ("upsilon", ups))
                if s is None
            ),
            None,
        )
        assert first == missing
        complete.add(missing is None)
    assert complete == {True, False}


def test_evaluation_kernels_match_interval_scan(fixture_lattices, shuffled_lattices):
    # The zero side of ev_p is the ideal below its own join on any family,
    # so its last member, last_without[p], is the scan's kernel top; where
    # every member holds p the side is empty and both give the top. It is
    # read off the rows backward before the columns are built and off
    # column p's highest zero bit after, so each family is built twice.
    # 15 atoms under a top span five row chunks; the top's answer, the
    # empty set, lies in the first and each atom's in the last.
    atoms = [f"a{i}" for i in range(15)]
    under_top = poset_from_relations([*atoms, "t"], [(a, "t") for a in atoms])
    spanning = enumerate_dual(under_top)
    assert len(spanning) > 4 * dual_mod._CHUNK_ROWS
    emptied = False
    for family in (
        fixture_lattices
        + shuffled_lattices
        + list(_corrupted_lattices(CORRUPTED, seed=11))
        + [spanning]
    ):
        expected = last_without_scan(family.supports, family.base.n)
        scanned = DualLattice(family.base, family.supports)
        assert scanned.last_without == expected
        assert "columns" not in vars(scanned)
        lattice = DualLattice(family.base, family.supports)
        lattice.columns
        assert lattice.last_without == expected
        for p, column in zip(lattice.base.elements, lattice.columns):
            top = evaluation_hom(lattice, p).kernel_top
            assert top is evaluation_kernel_scan(lattice, p)
            emptied |= column == lattice.full_member_mask
    assert emptied
    anti2 = poset_from_relations(["a", "b"], [])
    lattice = DualLattice(anti2, [0b01, 0b11])
    assert evaluation_hom(lattice, "a").kernel_top is lattice.top
    assert evaluation_kernel_scan(lattice, "a") is lattice.top


@pytest.mark.parametrize("chunk", [8, 16, 24])
def test_transposes_across_many_chunk_boundaries(
    monkeypatch, fixture_lattices, shuffled_lattices, chunk
):
    # With chunks of 8 to 24 rows, most lattices span several chunks, and
    # many of the random ones end in a chunk of under 8 rows, padded to
    # one lane. _transpose_rows must give the scan's columns, and
    # _last_without, which reads the chunks backward, each column's
    # highest zero bit.
    monkeypatch.setattr(dual_mod, "_CHUNK_ROWS", chunk)
    rng = random.Random(3)
    randoms = [
        enumerate_dual(
            random_poset(rng.randint(1, 12), rng.randrange(1 << 30), rng.random() / 2)
        )
        for _ in range(120)
    ]
    assert sum(0 < len(lattice) % chunk < 8 for lattice in randoms) > 30
    assert sum(len(lattice) > 4 * chunk for lattice in randoms) > 15
    for lattice in fixture_lattices + shuffled_lattices + randoms:
        rows, n = lattice.supports, lattice.base.n
        columns = dual_mod._transpose_rows(rows, n)
        assert columns == transpose_rows_scan(rows, n)
        full = lattice.full_member_mask
        column_form = tuple((full ^ column).bit_length() - 1 for column in columns)
        assert dual_mod._last_without(rows, n) == column_form


def test_strict_bounds_match_generic_scans(fixture_lattices, shuffled_lattices):
    # The report reads the intervals at λ_p and υ_p, and the cover masks
    # M_p and J_p, off the strict bounds; on any family they must equal
    # the generic interval scans and the member-by-member cover scan.
    witnessed = set()
    for lattice in (
        fixture_lattices
        + shuffled_lattices
        + list(_corrupted_lattices(CORRUPTED, seed=11))
    ):
        full = lattice.full_member_mask
        bounds = list(zip(lattice.strict_bounds(), *lattice.witnesses))
        for (column, up, down), lam, ups in bounds:
            if lam is not None:
                assert ~(column | down) & full == lattice.ideal_of(1 << lam)
            if ups is not None:
                assert column & up == lattice.filter_of(1 << ups)
            witnessed.add((lam is None, ups is None))
        outside = [up & ~column for (column, up, _), *_ in bounds]
        inside = [column & ~down for (column, _, down), *_ in bounds]
        assert (outside, inside) == cover_masks_scan(lattice)
    assert witnessed == {(False, False), (False, True), (True, False), (True, True)}


def _members_in_exactly_one(masks, m):
    return sum(1 << i for i in range(m) if sum(mask >> i & 1 for mask in masks) == 1)


def test_order_masks_match_strict_bounds_table(fixture_lattices, shuffled_lattices):
    # The one pass over the strict bounds gives what readers of the whole
    # table (strict_bounds_scan) would: the irreducibles, counted member
    # by member over M_p and J_p, and the closure check's OR. That OR is
    # also the OR of the embedding check's masks of members off λ_p or
    # υ_p, on lattices with and without such members.
    mismatched = set()
    for lattice in (
        fixture_lattices
        + shuffled_lattices
        + list(_corrupted_lattices(CORRUPTED, seed=11))
    ):
        columns, (above, below) = lattice.columns, strict_bounds_scan(lattice)
        assert list(lattice.strict_bounds()) == list(zip(columns, above, below))
        unclosed = wrong = 0
        for column, up, down in zip(columns, above, below):
            unclosed |= column & ~up
            wrong |= down & ~column | column & ~up
        m = len(lattice)
        expected = (
            _members_in_exactly_one([u & ~c for c, u in zip(columns, above)], m),
            _members_in_exactly_one([c & ~d for c, d in zip(columns, below)], m),
            unclosed,
        )
        assert lattice.order_masks == expected
        assert wrong == unclosed
        mismatched.add(bool(wrong))
    assert mismatched == {True, False}


def test_transitive_reduction_matches_scan(lattices, shuffled_lattices):
    for lattice in lattices + shuffled_lattices:
        poset = lattice.base
        assert transitive_reduction(poset).pairs == transitive_reduction_scan(poset)


def test_embedding_order_check_on_swapped_witnesses(lattices):
    # The report finds the true lambda_p and upsilon_p in any family that
    # holds them, so the check can fail only on witnesses handed to it:
    # here two elements' lambda (or upsilon) members are swapped.
    verdicts = set()
    for lattice in lattices:
        supports = lattice.supports
        for a in range(lattice.base.n - 1):
            for side in (0, 1):
                swapped = [list(indices) for indices in lattice.witnesses]
                row = swapped[side]
                row[a], row[a + 1] = row[a + 1], row[a]
                verdict = _check_embedding_order(
                    SimpleNamespace(
                        base=lattice.base, supports=supports, witnesses=swapped
                    )
                )
                as_supports = [
                    (p, supports[lam], supports[ups])
                    for p, lam, ups in zip(lattice.base.elements, *swapped)
                ]
                assert verdict == embedding_order_scan(lattice, as_supports)
                verdicts.add((side, verdict[0]))
    assert verdicts == {(0, False), (1, False), (0, True), (1, True)}


# Base sizes around 16, 32 and 64 elements, where each half of a
# support spans 8, 16 or 32 bits, and the smallest; a fence of n
# elements has F(n + 2) up-sets.
DOT_SIZES = (0, 1, 2, 15, 16, 17, 31, 32, 33, 63, 64)
FENCE_CAP = 17


def _renamed(poset, names):
    # The same order over other element names.
    rename = dict(zip(poset.elements, names))
    pairs = transitive_reduction(poset).pairs
    return poset_from_relations(names, [(rename[a], rename[b]) for a, b in pairs])


@pytest.fixture(scope="module")
def dot_lattices():
    posets = []
    for n in DOT_SIZES:
        posets.append(chain(n))
        if n <= FENCE_CAP:
            posets.append(fence(n))
        posets.append(random_poset(n, n, 0.3))
    # Names DOT must escape, in labels and in the λ/υ annotations.
    posets.append(poset_from_relations(['a"b', "c\\"], []))
    posets.append(
        _renamed(random_poset(6, 1, 0.2), ['a"0', "b\\1", 'c\\"2', "d", '"', "\\"])
    )
    return [enumerate_dual(p) for p in posets]


def test_lattice_dot_matches_member_scan(
    fixture_lattices, shuffled_lattices, dot_lattices
):
    sizes = set()
    for lattice in fixture_lattices + shuffled_lattices + dot_lattices:
        sizes.add(lattice.base.n)
        for labels in (False, True):
            assert emit_lattice_dot(lattice, "L", labels) == lattice_dot_scan(
                lattice, "L", labels
            )
    assert sizes >= set(DOT_SIZES)


@pytest.mark.parametrize("block", [1, 3])
def test_lattice_dot_is_written_in_blocks(monkeypatch, dot_lattices, block):
    texts = [
        (lattice, labels, emit_lattice_dot(lattice, "L", labels))
        for lattice in dot_lattices
        for labels in (False, True)
    ]
    monkeypatch.setattr(dot_mod, "_BLOCK_LINES", block)
    for lattice, labels, text in texts:
        writes = []
        write_lattice_dot(lattice, SimpleNamespace(write=writes.append), "L", labels)
        assert "".join(writes) == text
        # The header, the node and edge blocks, and the closing brace.
        m, edges = len(lattice), text.count("->")
        assert len(writes) == 2 + -(-m // block) + -(-edges // block)
        assert max(w.count("\n") for w in writes) <= block


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


def _kind(verdict, missing_suffixes):
    # "missing" for a failure naming an absent lambda_p or upsilon_p.
    ok, payload = verdict
    return "missing" if (payload or "").endswith(missing_suffixes) else ok


def test_corrupted_lattices_get_the_scans_verdicts(monkeypatch):
    seen = set()
    for lattice in _corrupted_lattices(CORRUPTED, seed=11):
        for key, verdict in _report_verdicts(lattice).items():
            assert verdict == REPORT_SCANS[key](lattice)
            seen.add((key, _kind(verdict, ("no-lambda", "no-upsilon"))))
        witnesses = _witnesses_verdict(lattice)
        scanned = (*irreducible_masks_scan(lattice), *lattice.order_masks[2:])
        with monkeypatch.context() as patch:
            patch.setitem(vars(lattice), "order_masks", scanned)
            assert witnesses == _witnesses_verdict(lattice)
        seen.add(("witnesses", _kind(witnesses, "has no member")))
    # Every check passes on some lattices and fails on others, and records
    # a failure when a lambda_p or upsilon_p member is missing. The order
    # check fails only then: a member found as lambda_p or upsilon_p has
    # the support that the base order gives it.
    kinds = {
        "dual_lattice_closure": {True, False},
        "embedding_characterization": {True, False, "missing"},
        "embedding_order": {True, "missing"},
        "irreducible_covers": {True, False, "missing"},
        "witnesses": {True, False, "missing"},
    }
    assert seen == {(key, kind) for key, values in kinds.items() for kind in values}


def test_report_passes_exactly_the_up_set_lattices():
    passed = 0
    for lattice in _corrupted_lattices(CORRUPTED, seed=11):
        genuine = lattice.supports == enumerate_dual(lattice.base).supports
        tree, ok = build_verification_report("c", lattice)
        assert ok == genuine and (tree["result"] == "pass") == genuine
        passed += ok
    assert passed > 0


def test_bruteforce_report_passes_exactly_the_up_set_lattices():
    # With the oracle on, every family it runs on gets a verdict, and it
    # passes exactly the genuine ones; some fail only the oracle.
    seen = set()
    for lattice in _corrupted_lattices(CORRUPTED, seed=11):
        if len(lattice) > sd_mod.DEFAULT_BRUTEFORCE_CAP:
            continue
        genuine = lattice.supports == enumerate_dual(lattice.base).supports
        tree, ok = build_verification_report("c", lattice, use_bruteforce=True)
        assert ok == genuine and (tree["result"] == "pass") == genuine
        seen.add((genuine, tree["checks"]["second_dual_brute_force"]))
    assert seen == {(True, "pass"), (False, "pass"), (False, "fail")}


# The sha256 of test_corrupted_lattice_outputs_are_pinned's stream.
CORRUPTED_SHA256 = "2a596794b63e919eb858ccdbbc23d1465cdca510abaeb0b2991deb2f1af56c38"


def test_corrupted_lattice_outputs_are_pinned():
    # Every family from seeds 11-13, 5,618 in all, hashed as its witness
    # indices, its rendered report with and without the brute-force
    # oracle, and its labelled lattice DOT or the DOT's error, so that
    # any change to an index, verdict or payload on a family that is not
    # the up-sets of its base shows.
    digest = hashlib.sha256()
    count = 0
    for seed in (11, 12, 13):
        for lattice in _corrupted_lattices(CORRUPTED, seed):
            parts = [repr(lattice.witnesses)]
            for brute in (False, True):
                tree, _ = build_verification_report("c", lattice, use_bruteforce=brute)
                parts.append(render(tree))
            try:
                parts.append(emit_lattice_dot(lattice, label_embeddings=True))
            except LemmaViolationError as exc:
                parts.append(f"{type(exc).__name__}: {exc}")
            digest.update("\0".join(parts).encode() + b"\n")
            count += 1
    assert count == 5618
    assert digest.hexdigest() == CORRUPTED_SHA256


def test_repeated_supports_fail_closure(lattices):
    # A family listing one up-set twice is not the up-sets of its base.
    for lattice in lattices:
        if len(lattice) > ALL_MAPS_CAP:
            continue
        for support in lattice.supports:
            twice = DualLattice(lattice.base, [*lattice.supports, support])
            verdict = _check_upset_closure(twice)
            assert verdict == upset_closure_scan(twice)
            assert verdict[1].endswith(" repeated")
            assert not build_verification_report("t", twice)[1]
            # λ_p is the last member without p, a repeated one its second
            # copy, and υ_p the first member with p, its first copy.
            assert twice.witnesses[0] == twice.last_without
            first_with = tuple((c & -c).bit_length() - 1 for c in twice.columns)
            assert twice.witnesses[1] == first_with


@pytest.mark.parametrize(
    "poset",
    [
        random_poset(12, 4, 0.2),
        poset_from_relations([f"a{i}" for i in range(WIDE)], []),
    ],
    ids=["random12", "antichain13"],
)
def test_report_builds_no_support_index(poset):
    lattice = enumerate_dual(poset)
    _, ok = build_verification_report("r", lattice)
    assert ok
    assert "_member_index" not in vars(lattice)


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
