import pytest

from posetdual import (
    BoundedHom,
    NoWitnessError,
    TooLargeError,
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
    support_label,
    verify_isomorphism,
)
from posetdual.seconddual import _down_rows, _ones_mask_checker

from conftest import poset_catalog, random_suite, satisfies_hom_definition


def make(elements, pairs):
    return enumerate_dual(poset_from_relations(elements, pairs))


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
    # The round trip reads the witness tables, not the support -> index map.
    lattice = enumerate_dual(random_poset(12, 4, 0.2))
    assert verify_isomorphism(lattice).ok
    assert "_member_index" not in vars(lattice)
    lattice.index_of_support(0)
    assert "_member_index" in vars(lattice)


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
