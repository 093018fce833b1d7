import pytest

from posetdual import (
    LemmaViolationError,
    SubsetOfLattice,
    enumerate_dual,
    is_filter,
    is_ideal,
    is_prime_filter,
    is_prime_ideal,
    lambda_of,
    poset_from_relations,
    prime_principal_pairs,
    principal_filter,
    principal_ideal,
    support_label,
    upsilon_of,
)

from conftest import random_suite


def make(elements, pairs):
    return enumerate_dual(poset_from_relations(elements, pairs))


CHAIN2 = make(["a", "b"], [("a", "b")])
ANTI2 = make(["a", "b"], [])


def member(lattice, *names):
    mask = 0
    for name in names:
        mask |= 1 << lattice.base.index(name)
    return lattice.members[lattice.index_of_support(mask)]


def subset(lattice, *maps):
    return SubsetOfLattice.from_maps(lattice, maps)


def test_whole_lattice_is_ideal_but_not_prime():
    whole = principal_ideal(ANTI2, ANTI2.top)
    assert whole.member_mask == ANTI2.full_member_mask
    assert is_ideal(whole)
    assert not is_prime_ideal(whole)


def test_empty_subset_is_ideal_and_filter_but_not_prime():
    empty = SubsetOfLattice(ANTI2, 0)
    assert is_ideal(empty)
    assert is_filter(empty)
    assert not is_prime_ideal(empty)
    assert not is_prime_filter(empty)


def test_subset_from_maps_and_membership():
    # from_maps sets exactly the given maps' bits, and `in` reads each
    # member's own bit.
    a = member(ANTI2, "a")
    assert subset(ANTI2).member_mask == 0
    s = subset(ANTI2, ANTI2.top, a)
    assert s.maps() == (a, ANTI2.top)
    assert [x in s for x in ANTI2.members] == [False, True, False, True]


def test_join_closure_required():
    a, b = member(ANTI2, "a"), member(ANTI2, "b")
    s = subset(ANTI2, ANTI2.bottom, a, b)
    assert not is_ideal(s)  # a v b = top is missing


def test_small_ideal_in_square():
    s = subset(ANTI2, ANTI2.bottom, member(ANTI2, "a"))
    assert is_ideal(s)
    assert is_prime_ideal(s)
    assert is_filter(s.complement())


def test_prime_ideal_in_three_chain():
    s = subset(CHAIN2, CHAIN2.bottom)
    assert is_prime_ideal(s)
    assert is_filter(s.complement())


def test_principal_intervals():
    assert principal_ideal(CHAIN2, CHAIN2.bottom).maps() == (CHAIN2.bottom,)
    assert principal_filter(CHAIN2, CHAIN2.top).maps() == (CHAIN2.top,)
    s = principal_ideal(ANTI2, member(ANTI2, "a"))
    assert set(s.maps()) == {ANTI2.bottom, member(ANTI2, "a")}


def test_prime_pairs_chain():
    report = prime_principal_pairs(CHAIN2)
    mid = member(CHAIN2, "b")
    assert report.pairs == (
        (CHAIN2.bottom, mid, "b"),
        (mid, CHAIN2.top, "a"),
    )


def test_prime_pairs_antichain():
    report = prime_principal_pairs(ANTI2)
    a, b = member(ANTI2, "a"), member(ANTI2, "b")
    assert set(report.pairs) == {(b, a, "a"), (a, b, "b")}


def test_prime_pairs_empty_poset():
    lattice = make([], [])
    assert prime_principal_pairs(lattice).pairs == ()


def test_embedded_intervals_are_prime_and_complementary():
    for p in random_suite(count=40):
        lattice = enumerate_dual(p)
        for e in p.elements:
            ideal = principal_ideal(lattice, lambda_of(lattice, e))
            filt = principal_filter(lattice, upsilon_of(lattice, e))
            assert is_prime_ideal(ideal)
            assert is_prime_filter(filt)
            assert (
                filt.member_mask
                == lattice.full_member_mask & ~ideal.member_mask
            )


def test_pair_scan_matches_base_bijectively():
    for p in random_suite(count=40):
        lattice = enumerate_dual(p)
        report = prime_principal_pairs(lattice)
        assert len(report.pairs) == p.n
        witnesses = {e for _, _, e in report.pairs}
        assert witnesses == set(p.elements)
        for u, v, e in report.pairs:
            assert u is lambda_of(lattice, e)
            assert v is upsilon_of(lattice, e)


def test_embedded_pair_disagrees_at_witness():
    for p in random_suite(count=40):
        lattice = enumerate_dual(p)
        for e in p.elements:
            assert lambda_of(lattice, e).evaluate(e) == 0
            assert upsilon_of(lattice, e).evaluate(e) == 1


def test_subset_membership_and_labels():
    s = subset(ANTI2, ANTI2.bottom, member(ANTI2, "a"))
    assert ANTI2.bottom in s
    assert ANTI2.top not in s
    assert support_label(ANTI2.bottom) == "{}"
