import io
import tracemalloc
from pathlib import Path

import pytest

from posetdual import (
    BaseMismatchError,
    BoundedHom,
    DualLattice,
    NoWitnessError,
    TooLargeError,
    build_verification_report,
    enumerate_dual,
    enumerate_second_dual_bruteforce,
    evaluation_hom,
    hom_leq,
    lambda_of,
    point_of_hom,
    poset_from_relations,
    principal_filter,
    principal_ideal,
    random_poset,
    run_cli,
    support_label,
    verify_isomorphism,
)
from posetdual import dual as dual_mod
from posetdual import seconddual as sd_mod

from conftest import (
    _down_rows,
    _ones_mask_checker,
    isomorphism_failures_scan,
    poset_catalog,
    random_suite,
    satisfies_hom_definition,
)


def make(elements, pairs):
    return enumerate_dual(poset_from_relations(elements, pairs))


SAMPLES = Path(__file__).resolve().parent.parent / "sample_posets"
CHAIN2 = make(["a", "b"], [("a", "b")])
ANTI2 = make(["a", "b"], [])


def member(lattice, *names):
    mask = 0
    for name in names:
        mask |= 1 << lattice.base.index(name)
    return lattice.members[lattice.index_of_support(mask)]


def test_constant_zero_rejected():
    ok = _ones_mask_checker(CHAIN2, _down_rows(CHAIN2))
    assert not ok(0b000)


def test_valid_hom_on_three_chain():
    ok = _ones_mask_checker(CHAIN2, _down_rows(CHAIN2))
    assert ok(0b100)
    assert ok(0b110)


def test_join_preservation_rejected_on_square():
    # sending only the top to 1 breaks h(a v b) = max(h(a), h(b))
    ok = _ones_mask_checker(ANTI2, _down_rows(ANTI2))
    assert not ok(1 << ANTI2.member_index(ANTI2.top))


def test_pairwise_check_matches_definitional_oracle():
    for lattice in (CHAIN2, ANTI2, make(["a", "b", "c"], [("a", "c"), ("b", "c")])):
        m = len(lattice)
        ok = _ones_mask_checker(lattice, _down_rows(lattice))
        for ones in range(1 << m):
            values = [ones >> i & 1 for i in range(m)]
            assert ok(ones) == satisfies_hom_definition(lattice, values)


def test_bruteforce_counts():
    assert len(enumerate_second_dual_bruteforce(CHAIN2)) == 2
    empty = make([], [])
    assert enumerate_second_dual_bruteforce(empty) == []
    singleton = make(["a"], [])
    assert len(enumerate_second_dual_bruteforce(singleton)) == 1


def test_bruteforce_cap():
    p = poset_from_relations([f"e{i}" for i in range(5)], [])
    with pytest.raises(TooLargeError):
        enumerate_second_dual_bruteforce(enumerate_dual(p))


def test_bruteforce_rejects_candidate_with_missing_meet():
    # {a, b} and {b, c} lie on the one side of the candidate below the
    # empty support, and their meet {b} is not in the family, so that
    # candidate is no hom. The report then fails the oracle's comparison
    # with the three evaluation homs instead of raising.
    base = poset_from_relations(["a", "b", "c"], [])
    lattice = DualLattice(base, [0, 0b011, 0b110, 0b111])
    homs = enumerate_second_dual_bruteforce(lattice)
    assert [h.kernel_top.support for h in homs] == [0b011, 0b110]
    tree, ok = build_verification_report("t", lattice, use_bruteforce=True)
    assert not ok and tree["result"] == "fail"
    assert tree["checks"]["second_dual_brute_force"] == "fail"
    assert "brute force found 2 homs, evaluation gives 3" in (
        tree["counterexamples"]["second_dual_brute_force"]
    )


def test_evaluation_hom_kernels():
    assert evaluation_hom(CHAIN2, "b").kernel_top is CHAIN2.bottom
    assert evaluation_hom(CHAIN2, "a").kernel_top is member(CHAIN2, "b")
    assert evaluation_hom(ANTI2, "a").kernel_top is member(ANTI2, "b")


def test_evaluation_hom_values_are_evaluation():
    for p in random_suite(count=20):
        lattice = enumerate_dual(p)
        for e in p.elements:
            hom = evaluation_hom(lattice, e)
            for x in lattice.members:
                assert hom.value(x) == x.evaluate(e)


def test_point_of_hom_round_trip():
    assert point_of_hom(CHAIN2, evaluation_hom(CHAIN2, "a")) == "a"
    assert point_of_hom(CHAIN2, evaluation_hom(CHAIN2, "b")) == "b"


def test_point_of_hom_without_witness():
    for lattice in (CHAIN2, ANTI2):
        with pytest.raises(NoWitnessError):
            point_of_hom(lattice, BoundedHom(lattice, lattice.top))


def test_verify_builds_no_support_index():
    # The round trip reads the base's down-sets, not the support -> index
    # map or the witness table.
    lattice = enumerate_dual(random_poset(12, 4, 0.2))
    assert verify_isomorphism(lattice).ok
    assert "_member_index" not in vars(lattice)
    assert "witnesses" not in vars(lattice)
    lattice.index_of_support(0)
    assert "_member_index" in vars(lattice)


def test_evaluation_homs_scan_no_intervals(monkeypatch):
    # Each kernel top is read off last_without: neither the round trip
    # nor the second-dual command asks for an interval.
    calls = []
    ideal_of = DualLattice.ideal_of

    def counted(self, mask):
        calls.append(mask)
        return ideal_of(self, mask)

    monkeypatch.setattr(DualLattice, "ideal_of", counted)
    assert verify_isomorphism(make(["a", "b", "c"], [("a", "b")])).ok
    out = io.StringIO()
    assert run_cli(["second-dual", str(SAMPLES / "diamond.poset")], out=out) == 0
    assert "  round_trip: true\n" in out.getvalue()
    assert calls == []


@pytest.mark.parametrize("flags", [[], ["--brute-force"]])
def test_second_dual_builds_no_columns(monkeypatch, flags):
    # Each kernel top is read off last_without, a backward scan of the
    # rows; the round trip, the order check and the oracle read no column.
    def refuse(*args):
        raise AssertionError("transposed the rows into columns")

    monkeypatch.setattr(dual_mod, "_transpose_rows", refuse)
    for path in sorted(SAMPLES.glob("*.poset")):
        out = io.StringIO()
        assert run_cli(["second-dual", str(path), *flags], out=out) == 0
        assert "  round_trip: true\n" in out.getvalue()
        assert ("  brute_force: true\n" in out.getvalue()) == bool(flags)


def test_second_dual_adds_under_two_bytes_a_member():
    # The rows are built before tracing starts, so the peak is what the
    # evaluation homs and their checks add: a chunk of rows and a few of
    # its byte planes, where the 30 columns took 3.75 bytes a member.
    lattice = enumerate_dual(random_poset(30, 1, 0.1))
    tracemalloc.start()
    try:
        assert verify_isomorphism(lattice).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lattice) == 144460
    assert peak <= 2 * len(lattice) + (64 << 10)


def test_homs_over_different_lattices_are_refused():
    # Two lattices over the same base still hold distinct homs.
    other = enumerate_dual(CHAIN2.base)
    g, h = evaluation_hom(CHAIN2, "a"), evaluation_hom(other, "a")
    with pytest.raises(BaseMismatchError):
        hom_leq(g, h)
    with pytest.raises(BaseMismatchError):
        point_of_hom(CHAIN2, h)


def test_kernel_preimages_are_principal_and_complementary():
    for p in random_suite(count=20):
        lattice = enumerate_dual(p)
        if len(lattice) > 20:
            continue
        for hom in enumerate_second_dual_bruteforce(lattice):
            zeros = [x for x in lattice.members if hom.value(x) == 0]
            ones = [x for x in lattice.members if hom.value(x) == 1]
            ideal = principal_ideal(lattice, hom.kernel_top)
            assert set(ideal.maps()) == set(zeros)
            ones_bottom_support = p.full_mask
            for x in ones:
                ones_bottom_support &= x.support
            ones_bottom = lattice.members[
                lattice.index_of_support(ones_bottom_support)
            ]
            filt = principal_filter(lattice, ones_bottom)
            assert set(filt.maps()) == set(ones)


def test_verify_two_chain():
    report = verify_isomorphism(
        enumerate_dual(poset_from_relations(["a", "b"], [("a", "b")])),
        use_bruteforce=True,
    )
    assert report.round_trip_ok
    assert report.order_preserved_ok
    assert report.brute_force_matched is True
    assert report.ok


def test_verify_antichain_three():
    p = poset_from_relations(["a", "b", "c"], [])
    report = verify_isomorphism(enumerate_dual(p), use_bruteforce=True)
    assert report.ok and report.brute_force_matched is True
    homs = list(report.forward.values())
    assert len(homs) == 3
    for g in homs:
        for h in homs:
            assert hom_leq(g, h) == (g == h)


def test_verify_empty_poset():
    report = verify_isomorphism(
        enumerate_dual(poset_from_relations([], [])), use_bruteforce=True
    )
    assert report.ok
    assert report.forward == {}
    assert report.brute_force_matched is True


def test_bruteforce_skipped_over_cap():
    p = poset_from_relations([f"e{i}" for i in range(5)], [])
    report = verify_isomorphism(enumerate_dual(p), use_bruteforce=True)
    assert report.brute_force_matched is None
    assert report.ok


def chain(n):
    names = [f"c{i}" for i in range(n)]
    return enumerate_dual(poset_from_relations(names, list(zip(names, names[1:]))))


def test_bruteforce_cap_boundary():
    # An n-chain has n + 1 members; the cap is 20 members.
    at_cap, over_cap = chain(19), chain(20)
    assert len(at_cap) == 20 and len(over_cap) == 21
    assert len(enumerate_second_dual_bruteforce(at_cap)) == 19
    assert verify_isomorphism(at_cap, use_bruteforce=True).brute_force_matched is True
    with pytest.raises(TooLargeError):
        enumerate_second_dual_bruteforce(over_cap)
    assert verify_isomorphism(over_cap, use_bruteforce=True).brute_force_matched is None


def test_bruteforce_builds_no_support_index():
    # The oracle reads the supports alone: it makes no support -> index
    # map, and member objects only for the homs it returns.
    lattice = chain(19)
    assert len(lattice) == 20
    assert verify_isomorphism(lattice, use_bruteforce=True).brute_force_matched
    assert "_member_index" not in vars(lattice)
    fresh = chain(19)
    assert len(enumerate_second_dual_bruteforce(fresh)) == len(fresh._made) == 19


def test_round_trip_on_catalog():
    for p in poset_catalog(4):
        report = verify_isomorphism(enumerate_dual(p), use_bruteforce=True)
        assert report.ok, p.elements


def test_order_embedding_biconditional():
    for p in random_suite(count=40):
        lattice = enumerate_dual(p)
        homs = {e: evaluation_hom(lattice, e) for e in p.elements}
        for a in p.elements:
            for b in p.elements:
                assert hom_leq(homs[a], homs[b]) == p.leq_index(
                    p.index(a), p.index(b)
                )


def test_hom_order_is_reverse_kernel_inclusion():
    for p in random_suite(count=20):
        lattice = enumerate_dual(p)
        for a in p.elements:
            for b in p.elements:
                ha, hb = evaluation_hom(lattice, a), evaluation_hom(lattice, b)
                # pointwise comparison computed from values directly
                pointwise = all(
                    ha.value(x) <= hb.value(x) for x in lattice.members
                )
                assert hom_leq(ha, hb) == pointwise
                assert pointwise == (
                    lambda_of(lattice, b).support
                    & ~lambda_of(lattice, a).support
                    == 0
                )


def test_isomorphism_failures_match_pairwise_scan(monkeypatch):
    # evaluation_hom hands elements a and b each other's hom, so the round
    # trip breaks at both and the order embedding wherever they differ.
    real = sd_mod.evaluation_hom
    swap = {}

    def swapped(lattice, element):
        return real(lattice, swap.get(element, element))

    monkeypatch.setattr(sd_mod, "evaluation_hom", swapped)
    posets = poset_catalog(3) + random_suite(count=40) + [random_poset(40, 0, 0.15)]
    broken = 0
    for p in posets:
        lattice = enumerate_dual(p)
        pairs = [(a, b) for a in p.elements for b in p.elements if a < b]
        for a, b in [(None, None)] + pairs[:3] + pairs[-2:]:
            swap.clear()
            if a is not None:
                swap.update({a: b, b: a})
            report = verify_isomorphism(lattice)
            assert report.failures == tuple(
                isomorphism_failures_scan(lattice, report.forward)
            )
            assert report.order_preserved_ok == (
                not any(f.startswith("order embedding") for f in report.failures)
            )
            broken += not report.order_preserved_ok
    assert broken > 50
