"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The verification targets are the exhaustive isomorphism-class catalog of
posets on at most 4 elements plus 200 deterministic random posets on at
most 6 elements. All tolerances are exact.
"""

from itertools import combinations

import numpy as np
import pytest

from posetdual import (
    canonical_text,
    document_from_poset,
    enumerate_dual,
    inf_of,
    irreducibles,
    lambda_of,
    pointwise_leq,
    poset_from_relations,
    prime_principal_pairs,
    run_cli,
    sup_of,
    upsilon_of,
)
from posetdual.poset import random_poset

from conftest import (
    _down_rows,
    _ones_mask_checker,
    all_labeled_posets,
    intervals_scan,
    poset_catalog,
    random_suite,
    satisfies_hom_definition,
)

import io


def _report(criterion, label, ok):
    print(f"ACCEPTANCE {criterion} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def catalog():
    return poset_catalog(4)


@pytest.fixture(scope="module")
def suite(catalog):
    return list(catalog) + random_suite(count=200, max_n=6)


def test_criterion_1_isomorphism_suite(catalog, suite, tmp_path_factory):
    # Catalog class counts are themselves derived by brute force
    # (conftest.find_isomorphism).
    per_n = {}
    for p in catalog:
        per_n.setdefault(p.n, []).append(p)
    counts = [len(per_n.get(n, [])) for n in range(5)]
    assert counts == [1, 1, 2, 5, 16]

    tmp = tmp_path_factory.mktemp("suite1")
    ok = True
    for k, p in enumerate(suite):
        path = tmp / f"p{k}.poset"
        path.write_text(canonical_text(document_from_poset(p, f"p{k}")))
        out = io.StringIO()
        code = run_cli(["verify", str(path), "--brute-force"], out=out, err=out)
        if code != 0:
            ok = False
            break
    _report(1, "isomorphism suite (catalog<=4 + 200 random<=6)", ok)


def test_criterion_2_dual_cardinalities():
    ok = True
    for n in range(17):
        names = [f"e{i}" for i in range(n)]
        chain = poset_from_relations(names, list(zip(names, names[1:])))
        anti = poset_from_relations(names, [])
        if len(enumerate_dual(chain)) != n + 1:
            ok = False
        if len(enumerate_dual(anti)) != 2**n:
            ok = False
    _report(2, "chain and antichain dual cardinalities (n<=16)", ok)


def test_criterion_3_membership_biconditionals(suite):
    ok = True
    for p in suite:
        lattice = enumerate_dual(p)
        for e in p.elements:
            lam, ups = lambda_of(lattice, e), upsilon_of(lattice, e)
            for x in lattice.members:
                if (x.evaluate(e) == 0) != pointwise_leq(x, lam):
                    ok = False
                if (x.evaluate(e) == 1) != pointwise_leq(ups, x):
                    ok = False
    _report(3, "membership biconditionals for all (x, p)", ok)


def test_criterion_4_irreducibles(suite):
    ok = True
    for p in suite:
        lattice = enumerate_dual(p)
        report = irreducibles(lattice)
        if len(report.meet_irreducibles) != p.n:
            ok = False
        if len(report.join_irreducibles) != p.n:
            ok = False
        if set(report.meet_irreducibles) != {
            lambda_of(lattice, e) for e in p.elements
        }:
            ok = False
        if set(report.join_irreducibles) != {
            upsilon_of(lattice, e) for e in p.elements
        }:
            ok = False
        for x, e in report.lambda_witness.items():
            if lambda_of(lattice, e) is not x:
                ok = False
        for x, e in report.upsilon_witness.items():
            if upsilon_of(lattice, e) is not x:
                ok = False
    _report(4, "irreducibles equal embedded elements with witnesses", ok)


def test_criterion_5_prime_pairs(suite):
    ok = True
    for p in suite:
        lattice = enumerate_dual(p)
        report = prime_principal_pairs(lattice)  # raises on lemma violation
        if len(report.pairs) != p.n:
            ok = False
        if {e for _, _, e in report.pairs} != set(p.elements):
            ok = False
        # independent exhaustive complement scan
        down, up = intervals_scan(lattice)
        full = lattice.full_member_mask
        found = {
            (i, j)
            for i in range(len(lattice))
            for j in range(len(lattice))
            if down[i] == full & ~up[j]
        }
        expected = {
            (
                lattice.member_index(u),
                lattice.member_index(v),
            )
            for u, v, _ in report.pairs
        }
        if found != expected:
            ok = False
    _report(5, "prime principal pairs biject with base elements", ok)


def _np_bounds(supports, pools):
    """(lub, glb): per row of `pools` (member indices, one pool a row),
    the least member above every pool member and the greatest below
    them all, found by scanning every member; -1 where none is unique."""
    column = supports[None, :]
    above = np.ones((len(pools), len(supports)), bool)
    below = above.copy()
    for k in supports[pools].T[:, :, None]:  # one pool position at a time
        above &= (column & k) == k
        below &= (column & k) == column
    # Canonical order puts the least first and the greatest last, if any.
    least = supports[above.argmax(axis=1)][:, None]
    greatest = supports[len(supports) - 1 - below[:, ::-1].argmax(axis=1)][:, None]
    lub_ok = above.any(axis=1) & (~above | ((column & least) == least)).all(axis=1)
    glb_ok = below.any(axis=1) & (~below | ((column & greatest) == column)).all(axis=1)
    return np.where(lub_ok, least[:, 0], -1), np.where(glb_ok, greatest[:, 0], -1)


def test_criterion_6_sup_inf_oracle(suite):
    ok = True
    for p in suite:
        lattice = enumerate_dual(p)
        m = len(lattice)
        if m > 64:
            continue
        members = lattice.members
        supports = np.array([x.support for x in members], np.int64)
        pools = [(k, list(combinations(range(m), k))) for k in (0, 1, 2, 3)]
        pools.append((m, [tuple(range(m))]))
        for size, same_size in pools:
            rows = np.array(same_size, np.intp).reshape(len(same_size), size)
            lub, glb = _np_bounds(supports, rows)
            for idxs, lub_support, glb_support in zip(
                same_size, lub.tolist(), glb.tolist()
            ):
                maps = [members[i] for i in idxs]
                if sup_of(lattice, maps).support != lub_support:
                    ok = False
                if inf_of(lattice, maps).support != glb_support:
                    ok = False
    _report(6, "pointwise sup/inf equal scanned bounds (K<=3, empty, all)", ok)


def _subset_tables(lattice):
    m = len(lattice)
    supports = [x.support for x in lattice.members]
    index_of = {s: i for i, s in enumerate(supports)}
    full = lattice.base.full_mask
    sup_mask = [0] * (1 << m)
    inf_mask = [full] * (1 << m)
    for subset in range(1, 1 << m):
        low = subset & -subset
        i = low.bit_length() - 1
        rest = subset ^ low
        sup_mask[subset] = sup_mask[rest] | supports[i]
        inf_mask[subset] = inf_mask[rest] & supports[i]
    sup_idx = np.array([index_of[s] for s in sup_mask], np.int32)
    inf_idx = np.array([index_of[s] for s in inf_mask], np.int32)
    return sup_idx, inf_idx


def _definition_verdicts(lattice):
    """All-subsets hom verdict for every candidate map, vectorized over K."""
    m = len(lattice)
    sup_idx, inf_idx = _subset_tables(lattice)
    subsets = np.arange(1 << m, dtype=np.int64)
    verdicts = []
    for ones in range(1 << m):
        vals = ((ones >> np.arange(m)) & 1).astype(bool)
        max_k = (subsets & ones) != 0
        min_k = (subsets & (((1 << m) - 1) ^ ones)) == 0
        verdicts.append(
            bool(
                (vals[sup_idx] == max_k).all()
                and (vals[inf_idx] == min_k).all()
            )
        )
    return verdicts


def test_criterion_7_hom_check_equivalence(catalog):
    duals = []
    for p in catalog:
        lattice = enumerate_dual(p)
        if len(lattice) <= 12:
            duals.append(lattice)
    # include a 12-member chain dual explicitly
    names = [f"e{i}" for i in range(11)]
    duals.append(
        enumerate_dual(poset_from_relations(names, list(zip(names, names[1:]))))
    )
    ok = True
    for lattice in duals:
        m = len(lattice)
        verdicts = _definition_verdicts(lattice)
        pairwise = _ones_mask_checker(lattice, _down_rows(lattice))
        for ones in range(1 << m):
            if pairwise(ones) != verdicts[ones]:
                ok = False
        # cross-check the vectorized oracle against the loop form of the
        # definition on the smaller lattices
        if m <= 8:
            for ones in range(1 << m):
                values = [(ones >> i) & 1 for i in range(m)]
                if satisfies_hom_definition(lattice, values) != verdicts[ones]:
                    ok = False
    _report(7, "pairwise hom check equals all-subsets definition (m<=12)", ok)


def test_criterion_8_degenerate_cases():
    from posetdual import enumerate_second_dual_bruteforce, verify_isomorphism

    empty = poset_from_relations([], [])
    dual_empty = enumerate_dual(empty)
    ok = len(dual_empty) == 1
    ok = ok and dual_empty.bottom is dual_empty.top
    ok = ok and enumerate_second_dual_bruteforce(dual_empty) == []
    ok = ok and verify_isomorphism(enumerate_dual(empty), use_bruteforce=True).ok

    singleton = poset_from_relations(["a"], [])
    rep = verify_isomorphism(enumerate_dual(singleton), use_bruteforce=True)
    ok = ok and rep.ok and rep.backward[rep.forward["a"]] == "a"
    _report(8, "degenerate posets (empty and singleton)", ok)


def test_criterion_9_determinism(tmp_path):
    p = random_poset(5, 999, 0.5)
    path = tmp_path / "d.poset"
    path.write_text(canonical_text(document_from_poset(p, "d")))

    def run_once():
        out, err = io.StringIO(), io.StringIO()
        code = run_cli(["verify", str(path), "--brute-force"], out=out, err=err)
        return code, out.getvalue(), err.getvalue()

    first, second = run_once(), run_once()
    ok = first == second and first[0] == 0
    _report(9, "verify output byte-identical across runs", ok)
