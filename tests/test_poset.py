import random
import re
import tracemalloc
from itertools import product

import pytest

from posetdual import (
    CycleDetectedError,
    DuplicateElementError,
    FinitePoset,
    LemmaViolationError,
    PosetDualError,
    TooLargeError,
    UnknownElementError,
    is_monotone,
    leq,
    poset_from_relations,
    random_poset,
    transitive_reduction,
)

from posetdual import poset as poset_module
from posetdual.poset import _transitive_closure

from conftest import (
    _bits,
    down_mask_scan,
    find_isomorphism,
    partial_order_scan,
    random_suite,
    transitive_closure_fixpoint,
)


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


def test_closure_matches_fixpoint_oracle():
    # Random relation lists, cycles included, over up to 12 elements.
    rng = random.Random(3)
    cyclic = 0
    for _ in range(500):
        n = rng.randint(0, 12)
        up = [1 << i for i in range(n)]
        for _ in range(rng.randint(0, n * n)):
            up[rng.randrange(n)] |= 1 << rng.randrange(n)
        expected = transitive_closure_fixpoint(up)
        assert _transitive_closure(up) == expected
        cyclic += any(
            up[j] >> i & 1 for i, row in enumerate(up) for j in _bits(row & ~(1 << i))
        )
    # Both kinds are drawn often.
    assert 50 < cyclic < 450


def _relation_draw(rng):
    """Element names in shuffled order and a pair list over them: a random
    DAG under a hidden ranking, with repeated pairs, a < a, redundant
    transitive pairs and, in some draws, back edges that close cycles."""
    n = rng.randint(0, 12)
    names = [f"x{i}" for i in range(n)]
    rng.shuffle(names)  # the ranking: pairs go from earlier to later
    pairs = []
    if n:
        for _ in range(rng.randint(0, 2 * n)):
            i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
            pairs.append((names[i], names[j]))
        for _ in range(rng.randint(0, 3)):
            name = rng.choice(names)
            pairs.append((name, name))
        for (a, b), (c, d) in zip(pairs, pairs[1:]):
            if b == c and rng.random() < 0.5:
                pairs.append((a, d))
        pairs += rng.sample(pairs, min(len(pairs), rng.randint(0, 3)))
        if n > 1 and rng.random() < 0.3:
            i, j = sorted(rng.sample(range(n), 2))
            pairs.append((names[j], names[i]))
    rng.shuffle(pairs)
    elements = rng.sample(names, n)
    return elements, pairs


def test_closure_sweep_matches_fixpoint_oracle():
    # poset_from_relations against the fixpoint closure of the same pairs:
    # the up-masks on acyclic input, the smallest mutually reachable pair
    # on cyclic input.
    rng = random.Random(19)
    acyclic = cyclic = unsorted = 0
    for _ in range(2000):
        elements, pairs = _relation_draw(rng)
        index = {e: i for i, e in enumerate(elements)}
        up = [1 << i for i in range(len(elements))]
        for a, b in pairs:
            up[index[a]] |= 1 << index[b]
        closed = transitive_closure_fixpoint(up)
        cycles = [
            tuple(sorted((a, b)))
            for a in elements
            for b in elements
            if a != b
            and closed[index[a]] >> index[b] & 1
            and closed[index[b]] >> index[a] & 1
        ]
        if cycles:
            cyclic += 1
            with pytest.raises(CycleDetectedError) as exc:
                poset_from_relations(elements, pairs)
            assert exc.value.cycle == min(cycles)
        else:
            acyclic += 1
            unsorted += any(index[a] > index[b] for a, b in pairs)
            assert poset_from_relations(elements, pairs).up_masks == tuple(closed)
    assert cyclic > 100 and acyclic > 1000 and unsorted > 500


def test_closure_skips_warshall_on_acyclic_input(monkeypatch):
    calls = []

    def recorded(up):
        calls.append(len(up))
        return _transitive_closure(up)

    monkeypatch.setattr(poset_module, "_transitive_closure", recorded)
    # A 64-chain listed in string order (e0 e1 e10 ...), so index order
    # is not a linear extension.
    names = [f"e{i}" for i in range(64)]
    p = poset_from_relations(sorted(names), list(zip(names, names[1:])))
    assert all(
        p.up_mask(a) == sum(1 << p.index(b) for b in names[k:])
        for k, a in enumerate(names)
    )
    for q in random_suite(count=40):
        poset_from_relations(q.elements[::-1], transitive_reduction(q).pairs)
    assert calls == []

    with pytest.raises(CycleDetectedError) as exc:
        poset_from_relations(["c", "b", "a"], [("b", "c"), ("c", "a"), ("a", "b")])
    assert exc.value.cycle == ("a", "b")
    assert calls == [3]


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
    with pytest.raises(UnknownElementError, match="'b'"):
        poset_from_relations(["a"], [("b", "a")])
    with pytest.raises(UnknownElementError, match="'c'"):
        poset_from_relations(["a"], [("a", "c")])
    # The first repeat is named, and a pair with two unknown ends names
    # its lower end.
    with pytest.raises(DuplicateElementError) as exc:
        poset_from_relations(["a", "b", "b", "a"], [])
    assert str(exc.value) == "duplicate element: 'b'"
    with pytest.raises(UnknownElementError) as exc:
        poset_from_relations(["a"], [("a", "a"), ("y", "x")])
    assert str(exc.value) == "unknown element: 'y'"
    # A repeat is refused before the element cap is checked.
    names = [f"e{i}" for i in range(64)] + ["e7"]
    with pytest.raises(DuplicateElementError) as exc:
        poset_from_relations(names, [])
    assert str(exc.value) == "duplicate element: 'e7'"
    p = chain("a", "b")
    with pytest.raises(UnknownElementError):
        leq(p, "a", "z")


def test_finite_poset_accepts_exactly_the_partial_orders():
    # Every tuple of n up-masks inside the base for n <= 3, and every
    # reflexive one for n = 4: FinitePoset keeps exactly the partial
    # orders of the scan, with the scan's down-masks, and refuses each
    # other tuple with a PosetDualError naming a real failure, never a
    # lattice lemma.
    tuples = [m for n in range(4) for m in product(range(1 << n), repeat=n)]
    tuples += product(*([m for m in range(16) if m >> i & 1] for i in range(4)))
    accepted = [0] * 5
    for up_masks in tuples:
        n = len(up_masks)
        names = tuple("abcd"[:n])
        le = [[bool(up >> j & 1) for j in range(n)] for up in up_masks]
        try:
            p = FinitePoset(names, up_masks)
        except PosetDualError as exc:
            assert not partial_order_scan(up_masks)
            assert not isinstance(exc, LemmaViolationError)
            message = str(exc)
            if isinstance(exc, CycleDetectedError):
                # Only a reflexive, transitive relation gets this far.
                assert all(le[i][i] for i in range(n))
                assert transitive_closure_fixpoint(up_masks) == list(up_masks)
                assert exc.cycle == min(
                    (names[i], names[j])
                    for i in range(n)
                    for j in range(i + 1, n)
                    if le[i][j] and le[j][i]
                )
            elif found := re.fullmatch(r"element '(.)' is not <= itself", message):
                i = names.index(found[1])
                assert not le[i][i]
            else:
                pattern = r"'(.)' <= '(.)' <= '(.)' without '\1' <= '\3'"
                found = re.fullmatch(pattern, message)
                i, j, k = map(names.index, found.groups())
                assert le[i][j] and le[j][k] and not le[i][k]
        else:
            assert partial_order_scan(up_masks)
            assert p.up_masks == up_masks
            assert p.down_masks == tuple(down_mask_scan(p, j) for j in range(n))
            accepted[n] += 1
    # The labeled posets on 0..4 elements (OEIS A001035).
    assert accepted == [1, 1, 3, 19, 219]


def test_element_cap():
    names = [f"e{i}" for i in range(65)]
    with pytest.raises(TooLargeError):
        poset_from_relations(names, [])


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


def test_random_poset_over_cap_refused_before_naming():
    # Refused on n alone, before any of the 10^5 names is built.
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError) as exc:
            random_poset(10**5, 0, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "poset has 100000 elements, cap is 64"
    assert peak < 1 << 20, peak


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
