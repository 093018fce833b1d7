import pytest

from posetdual import (
    CycleDetectedError,
    DuplicateElementError,
    TooLargeError,
    UnknownElementError,
    is_monotone,
    leq,
    poset_from_relations,
    random_poset,
    transitive_reduction,
)

from conftest import down_mask_scan, find_isomorphism, random_suite


def chain(*names):
    return poset_from_relations(names, list(zip(names, names[1:])))


def test_two_element_chain():
    p = chain("a", "b")
    assert leq(p, "a", "b")
    assert not leq(p, "b", "a")
    assert leq(p, "a", "a")


def test_closure_forces_transitivity():
    p = poset_from_relations(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert leq(p, "a", "c")


def test_cycle_detected():
    with pytest.raises(CycleDetectedError) as exc:
        poset_from_relations(["a", "b"], [("a", "b"), ("b", "a")])
    assert exc.value.cycle == ("a", "b")


def test_cycle_reports_lexicographically_smallest():
    with pytest.raises(CycleDetectedError) as exc:
        poset_from_relations(
            ["d", "c", "b", "a"],
            [("d", "c"), ("c", "d"), ("b", "a"), ("a", "b")],
        )
    assert exc.value.cycle == ("a", "b")


def test_duplicate_and_unknown_elements():
    with pytest.raises(DuplicateElementError):
        poset_from_relations(["a", "a"], [])
    with pytest.raises(UnknownElementError):
        poset_from_relations(["a"], [("b", "a")])
    p = chain("a", "b")
    with pytest.raises(UnknownElementError):
        leq(p, "a", "z")


def test_element_cap():
    names = [f"e{i}" for i in range(65)]
    with pytest.raises(TooLargeError):
        poset_from_relations(names, [])
    poset_from_relations(names, [], max_elements=65)


def test_antichain_incomparable():
    p = poset_from_relations(["a", "b"], [])
    assert not leq(p, "a", "b")
    assert not leq(p, "b", "a")


def test_transitive_reduction_chain():
    p = chain("a", "b", "c")
    assert transitive_reduction(p).pairs == (("a", "b"), ("b", "c"))


def test_transitive_reduction_antichain():
    p = poset_from_relations(["a", "b"], [])
    assert transitive_reduction(p).pairs == ()


def test_transitive_reduction_diamond():
    p = poset_from_relations(
        ["a", "b", "c", "d"],
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
    )
    pairs = transitive_reduction(p).pairs
    assert len(pairs) == 4
    assert ("a", "d") not in pairs


def test_reduction_closure_roundtrip():
    for p in random_suite(count=60):
        covers = transitive_reduction(p)
        q = poset_from_relations(p.elements, covers.pairs)
        assert q.up_masks == p.up_masks


def test_poset_axioms_on_random_suite():
    for p in random_suite(count=40):
        n = p.n
        for i in range(n):
            assert p.leq_index(i, i)
            for j in range(n):
                if i != j and p.leq_index(i, j):
                    assert not p.leq_index(j, i)
                for k in range(n):
                    if p.leq_index(i, j) and p.leq_index(j, k):
                        assert p.leq_index(i, k)


def test_down_masks_match_scan():
    for p in random_suite(count=40) + [chain("a", "b", "c")]:
        assert p.down_masks == tuple(down_mask_scan(p, j) for j in range(p.n))


def test_is_monotone():
    p = chain("a", "b")
    assert is_monotone(p, {"a": 0, "b": 1})
    assert not is_monotone(p, {"a": 1, "b": 0})
    anti = poset_from_relations(["a", "b"], [])
    for fa in (0, 1):
        for fb in (0, 1):
            assert is_monotone(anti, {"a": fa, "b": fb})


def test_find_isomorphism_chains():
    p = chain("a", "b")
    q = chain("x", "y")
    assert find_isomorphism(p, q) == {"a": "x", "b": "y"}


def test_find_isomorphism_distinguishes_comparability():
    p = chain("a", "b")
    q = poset_from_relations(["x", "y"], [])
    assert find_isomorphism(p, q) is None


def test_find_isomorphism_diamond_relabeled():
    p = poset_from_relations(
        ["a", "b", "c", "d"],
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
    )
    q = poset_from_relations(
        ["w", "x", "y", "z"],
        [("z", "x"), ("z", "y"), ("x", "w"), ("y", "w")],
    )
    iso = find_isomorphism(p, q)
    assert iso is not None
    for s in p.elements:
        for t in p.elements:
            assert leq(p, s, t) == leq(q, iso[s], iso[t])


def test_find_isomorphism_reflexive_and_symmetric():
    suite = random_suite(count=30)
    for p in suite:
        assert find_isomorphism(p, p) is not None
    for p, q in zip(suite, suite[1:]):
        assert (find_isomorphism(p, q) is None) == (
            find_isomorphism(q, p) is None
        )


def test_random_poset_reproducible():
    a = random_poset(6, 123, 0.5)
    b = random_poset(6, 123, 0.5)
    assert a.elements == b.elements
    assert a.up_masks == b.up_masks
    c = random_poset(6, 124, 0.5)
    assert a.up_masks != c.up_masks or True  # different seed may coincide


def test_random_poset_extremes():
    assert random_poset(0, 1, 0.5).n == 0
    anti = random_poset(5, 42, 0.0)
    assert all(mask == 1 << i for i, mask in enumerate(anti.up_masks))
    ch = random_poset(5, 42, 1.0)
    assert transitive_reduction(ch).pairs == (
        ("e0", "e1"),
        ("e1", "e2"),
        ("e2", "e3"),
        ("e3", "e4"),
    )
