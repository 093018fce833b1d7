import random
import sys
import tracemalloc
from array import array
from itertools import combinations

import pytest

from posetdual import (
    BaseMismatchError,
    CycleDetectedError,
    DualLattice,
    DuplicateElementError,
    FinitePoset,
    LemmaViolationError,
    MonotoneMap,
    PosetDualError,
    TooLargeError,
    UnknownElementError,
    build_verification_report,
    emit_lattice_dot,
    enumerate_dual,
    inf_of,
    irreducibles,
    lambda_of,
    pointwise_leq,
    poset_from_relations,
    random_poset,
    sup_of,
    support_label,
    upsilon_of,
)
from posetdual import dual as dual_mod
from posetdual.dual import (
    _count_upsets,
    _last_without,
    _transpose_rows,
    _walk_upset_buckets,
)

from conftest import (
    chain,
    evaluation_columns_scan,
    fence,
    greatest_below,
    greatest_lower_bound_scan,
    last_without_scan,
    least_above,
    least_upper_bound_scan,
    poset_catalog,
    random_suite,
    transpose_rows_scan,
    upset_masks_bruteforce,
    upset_walk_scan,
)


DEFAULT_CAP = dual_mod.DEFAULT_MAX_MEMBERS


def make(elements, pairs):
    return enumerate_dual(poset_from_relations(elements, pairs))


CHAIN2 = make(["a", "b"], [("a", "b")])
ANTI2 = make(["a", "b"], [])
VEE = make(["a", "b", "c"], [("a", "c"), ("b", "c")])


def member(lattice, *names):
    mask = 0
    for name in names:
        mask |= 1 << lattice.base.index(name)
    return lattice.members[lattice.index_of_support(mask)]


def test_enumerate_chain():
    assert [support_label(x) for x in CHAIN2.members] == ["{}", "{b}", "{a,b}"]


def test_enumerate_antichain():
    assert len(ANTI2.members) == 4


def test_enumerate_vee():
    labels = [support_label(x) for x in VEE.members]
    assert labels == ["{}", "{c}", "{a,c}", "{b,c}", "{a,b,c}"]


def test_members_match_subset_filter():
    posets = random_suite(count=40)
    posets += [random_poset(n, n, 0.3) for n in (10, 13, 16)]
    for p in posets:
        lattice = enumerate_dual(p)
        expected = sorted(upset_masks_bruteforce(p))
        assert sorted(x.support for x in lattice.members) == expected


def antichain(n):
    return poset_from_relations([f"e{i}" for i in range(n)], [])


def grid(rows, cols):
    names = [f"g{r}_{c}" for r in range(rows) for c in range(cols)]
    pairs = [(f"g{r}_{c}", f"g{r + 1}_{c}") for r in range(rows - 1)
             for c in range(cols)]
    pairs += [(f"g{r}_{c}", f"g{r}_{c + 1}") for r in range(rows)
              for c in range(cols - 1)]
    return poset_from_relations(names, pairs)


def test_member_cap():
    p = antichain(6)
    with pytest.raises(TooLargeError):
        enumerate_dual(p, max_members=63)
    assert len(enumerate_dual(p, max_members=64)) == 64
    for cap in (0, -1, -5):
        with pytest.raises(TooLargeError):
            enumerate_dual(p, max_members=cap)
    for q in random_suite() + [random_poset(10, 3, 0.2)]:
        m = len(upset_masks_bruteforce(q))
        for cap in range(-1, m + 1):
            if cap < m:
                with pytest.raises(TooLargeError):
                    enumerate_dual(q, max_members=cap)
            else:
                assert len(enumerate_dual(q, max_members=cap)) == m


def walked_masks(poset):
    """The walk's up-sets, buckets concatenated."""
    return [mask for bucket in _walk_upset_buckets(poset) for mask in bucket]


def test_count_matches_walk():
    for p in poset_catalog(4) + random_suite() + [grid(4, 8)]:
        assert _count_upsets(p, DEFAULT_CAP) == len(walked_masks(p))


def test_count_closed_forms():
    fib = [0, 1]
    while len(fib) < 67:
        fib.append(fib[-1] + fib[-2])
    for n in range(65):
        assert _count_upsets(antichain(n), DEFAULT_CAP) == 2**n
        assert _count_upsets(fence(n), DEFAULT_CAP) == fib[n + 2]
    assert _count_upsets(grid(4, 8), DEFAULT_CAP) == 495  # C(12, 4)


def test_budget_counts_memo_entries():
    # An n-antichain, of two components or of 40, memoizes its n
    # singletons and itself; the count stops once the memo holds more
    # than the budget.
    for n in (2, 40):
        assert _count_upsets(antichain(n), n + 1) == 2**n
        with pytest.raises(TooLargeError, match=f"^dual lattice has more than {n} "):
            _count_upsets(antichain(n), n)
    assert _count_upsets(antichain(0), -1) == 1
    # Pivoting on the first element comparable to most others memoizes
    # 17 masks for these 296 up-sets, so the pivot rule decides which
    # refusal a cap of 16 or 17 gives.
    p = random_poset(12, 1, 0.2)
    with pytest.raises(TooLargeError, match="^dual lattice has 296 members, cap 17$"):
        enumerate_dual(p, max_members=17)
    with pytest.raises(TooLargeError, match="^dual lattice has more than 16 members, cap 16$"):
        enumerate_dual(p, max_members=16)


def test_refusals_walk_no_upsets(monkeypatch):
    def no_walk(poset):
        raise AssertionError("walked the up-sets of an over-cap poset")

    monkeypatch.setattr(dual_mod, "_walk_upset_buckets", no_walk)
    message = "^dual lattice has 1099511627776 members, cap 4194304$"
    with pytest.raises(TooLargeError, match=message):
        enumerate_dual(antichain(40))
    # 198,912 up-sets; the memo outgrows a budget of 10 before the count ends.
    p = random_poset(24, 0, 0.05)
    message = "^dual lattice has more than 10 members, cap 10$"
    with pytest.raises(TooLargeError, match=message):
        enumerate_dual(p, max_members=10)


def test_walk_and_count_must_agree(monkeypatch):
    def short_walk(poset):
        buckets = _walk_upset_buckets(poset)
        del buckets[0][0]
        return buckets

    monkeypatch.setattr(dual_mod, "_walk_upset_buckets", short_walk)
    with pytest.raises(LemmaViolationError, match="walked 7 up-sets but counted 8"):
        enumerate_dual(antichain(3))


def test_walk_yields_each_upset_once():
    posets = poset_catalog(4) + [
        random_poset(n, seed, density)
        for n in range(11)
        for seed, density in ((n, 0.1), (n + 11, 0.3), (n + 22, 0.6))
    ]
    for p in posets:
        masks = walked_masks(p)
        assert len(masks) == len(set(masks))
        assert sorted(masks) == upset_masks_bruteforce(p)


def test_walk_is_in_numeric_order():
    # Each bucket holds the up-sets of its popcount in increasing order.
    for p in poset_catalog(4) + random_suite() + [grid(4, 8), chain(64)]:
        buckets = _walk_upset_buckets(p)
        assert len(buckets) == p.n + 1
        for k, bucket in enumerate(buckets):
            assert all(a < b for a, b in zip(bucket, bucket[1:]))
            assert all(mask.bit_count() == k for mask in bucket)


def test_walk_buckets_concatenate_to_canonical_order():
    # The sorting constructor orders any family canonically; the walk's
    # buckets, concatenated, must already be in that order.
    for p in poset_catalog(4) + random_suite() + [grid(4, 8), chain(64)]:
        masks = walked_masks(p)
        assert tuple(DualLattice(p, masks).supports) == tuple(masks)
        assert tuple(enumerate_dual(p).supports) == tuple(masks)


def walk_posets():
    posets = poset_catalog(4) + random_suite() + [grid(4, 8), chain(64)]
    return posets + [antichain(n) for n in range(17)] + [fence(n) for n in range(17)]


def bucket_bytes(buckets):
    return [bucket.tobytes() for bucket in buckets]


def test_walk_matches_plain_walk():
    # chain(64) has up-sets holding bit 63, where a carry out of a lane
    # would show; random_poset(40, 0, 0.1) has 190,048 up-sets.
    for p in walk_posets() + [random_poset(40, 0, 0.1)]:
        assert bucket_bytes(_walk_upset_buckets(p)) == bucket_bytes(upset_walk_scan(p))


@pytest.mark.parametrize("tail", [0, 1, 64])
def test_walk_matches_plain_walk_at_any_tail(monkeypatch, tail):
    # Tail 0 splits down to the leaves, each appended as the empty
    # remainder's one up-set; tail 64 builds the whole family from the
    # memoized remainders, without a walk.
    monkeypatch.setattr(dual_mod, "_TAIL_ELEMENTS", tail)
    for p in walk_posets():
        assert bucket_bytes(_walk_upset_buckets(p)) == bucket_bytes(upset_walk_scan(p))


def test_big_endian_branches_byteswap_the_rows(monkeypatch):
    # On a big-endian host an array('Q') holds each row's bytes reversed;
    # here the rows are byteswapped by hand to stand for that.
    p = random_poset(20, 3, 0.15)
    buckets = _walk_upset_buckets(p)
    lattice = enumerate_dual(p)
    swapped = array("Q", lattice.supports)
    swapped.byteswap()
    monkeypatch.setattr(sys, "byteorder", "big")
    big_buckets = _walk_upset_buckets(p)
    big_columns = _transpose_rows(swapped, p.n)
    monkeypatch.undo()
    for bucket in big_buckets:
        bucket.byteswap()
    assert bucket_bytes(big_buckets) == bucket_bytes(buckets)
    assert big_columns == lattice.columns
    assert len(lattice) == 2307


def test_columns_are_member_values():
    # The last two lattices have 7920 and 8192 members.
    antichain13 = poset_from_relations([f"e{i}" for i in range(13)], [])
    for p in random_suite(count=40) + [random_poset(16, 14, 0.1), antichain13]:
        lattice = enumerate_dual(p)
        assert lattice.columns == evaluation_columns_scan(lattice)


def test_columns_at_row_byte_edges():
    # Element 63 is the last bit of a 64-bit row; an 8-element base fills
    # exactly one byte of it, and n = 1, 9 and 63 fill the last byte
    # plane partly. A k-chain has k + 1 members, so m runs through every
    # residue mod 8: the last 64-bit lane of a plane is padded.
    posets = [chain(k) for k in (0, 1, 2, 3, 4, 5, 6, 9, 15, 63, 64)]
    posets += [antichain(1), antichain(8), fence(8), fence(9), antichain(9)]
    posets += [random_poset(63, 5, 0.9), random_poset(64, 7, 0.95)]
    for p in posets:
        lattice = enumerate_dual(p)
        assert lattice.columns == evaluation_columns_scan(lattice)
    assert {len(enumerate_dual(p)) % 8 for p in posets} == set(range(8))
    assert {1, 8, 9, 63, 64} <= {p.n for p in posets}


def test_transpose_at_chunk_boundaries(monkeypatch):
    # m runs over 1 and 2 chunks and a part, each side of every chunk and
    # lane edge; the n-bit rows are random, so every bit plane is dense.
    # _last_without reads the same chunks from the end.
    chunk = dual_mod._CHUNK_ROWS
    rng = random.Random(20)
    for n in (1, 8, 9, 63, 64):
        for m in (1, 7, 8, chunk - 1, chunk, chunk + 1, 2 * chunk + 13):
            rows = array("Q", (rng.getrandbits(n) for _ in range(m)))
            assert _transpose_rows(rows, n) == transpose_rows_scan(rows, n)
            assert _last_without(rows, n) == last_without_scan(rows, n)
    # The big-endian branch reads byte plane 7 - k; the last rows (2 chunks
    # and 13 rows of 64 bits), byteswapped by hand, stand for a big-endian
    # host's.
    swapped = array("Q", rows)
    swapped.byteswap()
    monkeypatch.setattr(sys, "byteorder", "big")
    assert _transpose_rows(swapped, 64) == transpose_rows_scan(rows, 64)
    assert _last_without(swapped, 64) == last_without_scan(rows, 64)


def test_last_without_reaches_the_first_row(monkeypatch):
    # Element p is missing only from row p, if there is one: the scan
    # walks back through every chunk and ends at row p or, past the rows,
    # at -1. Each family is also read as a big-endian host's.
    chunk = dual_mod._CHUNK_ROWS
    for n, m in ((9, 5), (9, 2 * chunk + 13), (64, chunk + 1), (64, 2 * chunk + 13)):
        full = (1 << n) - 1
        rows = array("Q", [full & ~(1 << i) for i in range(min(n, m))])
        rows.extend([full] * (m - len(rows)))
        expected = last_without_scan(rows, n)
        assert expected == tuple(p if p < m else -1 for p in range(n))
        assert _last_without(rows, n) == expected
        rows.byteswap()
        with monkeypatch.context() as patch:
            patch.setattr(sys, "byteorder", "big")
            assert _last_without(rows, n) == expected


def test_lattice_and_columns_hold_rows_and_columns_once(monkeypatch):
    # Building the lattice and its columns holds the rows, 8 bytes per
    # member, and the column bytes about once each. The popcount buckets
    # are released as they are joined, so joining them adds at most the
    # bucket being joined (a fifth of the members here) and the array's
    # slack to what the walk leaves; keeping them adds all the rows again.
    # The transpose copies no more than a chunk of the rows at a time; a
    # full copy takes the whole peak over 2.4 times the data.
    walk = dual_mod._walk_upset_buckets
    walked = []  # (traced memory, traced peak) as each walk returns

    def walk_then_reset_peak(poset):
        buckets = walk(poset)
        walked.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return buckets

    monkeypatch.setattr(dual_mod, "_walk_upset_buckets", walk_then_reset_peak)
    antichain16 = poset_from_relations([f"e{i}" for i in range(16)], [])
    for p, size in ((antichain16, 65536), (random_poset(30, 1, 0.1), 144460)):
        tracemalloc.start()
        try:
            lattice = enumerate_dual(p)
            join_peak = tracemalloc.get_traced_memory()[1]
            lattice.columns
            walk_end, walk_peak = walked.pop()
            peak = max(walk_peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(lattice) == size
        assert join_peak - walk_end <= 0.5 * 8 * size + (64 << 10)
        assert peak <= 1.6 * (8 * size + p.n * -(-size // 8)) + (64 << 10)


def test_report_adds_a_few_masks_to_rows_and_columns():
    # The rows and columns are built before tracing starts, so the peak
    # is what the report adds. It reads the strict bounds through one
    # pass that keeps a few member masks, where a table of them holds 2n:
    # 60 masks here, over 3 times this bound.
    lattice = enumerate_dual(random_poset(30, 1, 0.1))
    lattice.columns
    tracemalloc.start()
    try:
        _, ok = build_verification_report("r30", lattice)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and len(lattice) == 144460
    assert peak <= 16 * -(-len(lattice) // 8) + (64 << 10)


def test_report_walks_the_strict_bounds_once(monkeypatch):
    # irreducibles, prime_principal_pairs and the closure and embedding
    # checks all read order_masks, built by the one walk. The embedding
    # check walks again, for its first element, only when closure fails:
    # here the four subsets of {a, b} over the chain a < b, where {a} is
    # not an up-set but every λ_p and υ_p is a member.
    walks = []
    strict_bounds = DualLattice.strict_bounds

    def counted(lattice):
        walks.append(lattice)
        return strict_bounds(lattice)

    monkeypatch.setattr(DualLattice, "strict_bounds", counted)
    for name, lattice in (
        ("r12", enumerate_dual(random_poset(12, 4, 0.2))),
        ("a13", enumerate_dual(antichain(13))),
    ):
        assert build_verification_report(name, lattice)[1]
        assert walks == [lattice]
        walks.clear()
    unclosed = DualLattice(CHAIN2.base, [0, 1, 2, 3])
    tree, ok = build_verification_report("c2", unclosed)
    assert not ok and tree["checks"]["dual_lattice_closure"] == "fail"
    assert tree["counterexamples"]["embedding_characterization"] == "x={a} p=a"
    assert walks == [unclosed, unclosed]


def test_base_over_64_elements_refused(monkeypatch):
    # enumerate_dual refuses the base before it counts or walks.
    def refuse(*args):
        raise AssertionError("counted or walked a base over 64 elements")

    monkeypatch.setattr(dual_mod, "_count_upsets", refuse)
    monkeypatch.setattr(dual_mod, "_walk_upset_buckets", refuse)
    # The 65-chain, built directly: poset_from_relations caps it at 64.
    full = (1 << 65) - 1
    names = tuple(f"c{i}" for i in range(65))
    p = FinitePoset(names, tuple(-1 << i & full for i in range(65)))
    message = "^dual lattice over 65 elements, cap is 64$"
    with pytest.raises(TooLargeError, match=message):
        DualLattice(p, [0])
    with pytest.raises(TooLargeError, match=message):
        enumerate_dual(p)


def test_supports_outside_base_refused():
    p = antichain(2)
    for masks in ([0, 1, 2, 3, 4], [-1, 0, 1, 2, 3]):
        with pytest.raises(BaseMismatchError):
            DualLattice(p, masks)
    assert tuple(DualLattice(p, [3, 2, 1, 0]).supports) == (0, 1, 2, 3)


def test_empty_family_refused():
    # Every up-set lattice holds the empty up-set, so it is never empty.
    for p in (antichain(0), antichain(2)):
        with pytest.raises(BaseMismatchError):
            DualLattice(p, [])


def test_one_object_per_member_however_reached():
    def reach(lattice):
        lams = [lambda_of(lattice, e) for e in lattice.base.elements]
        return (
            lams
            + [upsilon_of(lattice, e) for e in lattice.base.elements]
            + [least_above(lattice, x) for x in lams]
            + [lattice.bottom, lattice.top]
            + [sup_of(lattice, lams), inf_of(lattice, lams)]
        )

    for p in random_suite(count=20):
        listed_first = enumerate_dual(p)
        members = listed_first.members
        for x in reach(listed_first):
            assert x is members[listed_first.index_of_support(x.support)]

        listed_last = enumerate_dual(p)
        reached = reach(listed_last)
        members = listed_last.members
        for x, again in zip(reached, reach(listed_last)):
            assert x is again
            assert x is members[listed_last.index_of_support(x.support)]


def test_evaluate():
    assert CHAIN2.bottom.evaluate("a") == 0
    assert CHAIN2.top.evaluate("a") == 1
    mid = member(CHAIN2, "b")
    assert mid.evaluate("a") == 0
    assert mid.evaluate("b") == 1
    with pytest.raises(UnknownElementError):
        mid.evaluate("zzz")


def test_pointwise_leq():
    assert pointwise_leq(CHAIN2.bottom, CHAIN2.top)
    a, b = member(ANTI2, "a"), member(ANTI2, "b")
    assert not pointwise_leq(a, b)
    assert not pointwise_leq(b, a)
    assert pointwise_leq(member(CHAIN2, "b"), CHAIN2.top)
    with pytest.raises(BaseMismatchError):
        pointwise_leq(CHAIN2.bottom, ANTI2.bottom)


def test_check_member_refuses_maps_outside_the_lattice():
    # A map over another base, or over this base with a support the
    # family lacks, is not a member.
    lattice = DualLattice(CHAIN2.base, [0, 0b11])
    lattice.check_member(CHAIN2.bottom)
    for x in (member(CHAIN2, "b"), ANTI2.bottom):
        with pytest.raises(BaseMismatchError):
            lattice.check_member(x)


def test_sup_inf_conventions():
    assert sup_of(CHAIN2, []) is CHAIN2.bottom
    assert inf_of(CHAIN2, []) is CHAIN2.top


def test_sup_inf_examples():
    a, b = member(ANTI2, "a"), member(ANTI2, "b")
    assert sup_of(ANTI2, [a, b]) is ANTI2.top
    assert inf_of(ANTI2, [a, b]) is ANTI2.bottom
    ac, bc = member(VEE, "a", "c"), member(VEE, "b", "c")
    assert inf_of(VEE, [ac, bc]) is member(VEE, "c")


def test_sup_inf_against_scan_oracle():
    for p in random_suite(count=30):
        lattice = enumerate_dual(p)
        if len(lattice) > 64:
            continue
        pool = lattice.members
        subsets = [()]
        for size in (1, 2, 3):
            subsets.extend(combinations(pool, size))
        for maps in subsets:
            assert sup_of(lattice, maps) is least_upper_bound_scan(lattice, maps)
            assert inf_of(lattice, maps) is greatest_lower_bound_scan(lattice, maps)


def test_lambda_upsilon_chain():
    assert lambda_of(CHAIN2, "a") is member(CHAIN2, "b")
    assert lambda_of(CHAIN2, "b") is CHAIN2.bottom
    assert upsilon_of(CHAIN2, "a") is CHAIN2.top
    assert upsilon_of(CHAIN2, "b") is member(CHAIN2, "b")


def test_lambda_upsilon_antichain():
    assert lambda_of(ANTI2, "a") is member(ANTI2, "b")
    assert upsilon_of(ANTI2, "a") is member(ANTI2, "a")


def test_lambda_and_upsilon_read_the_witness_table():
    # By member index, with no support index; KeyError where the family
    # lacks the member.
    lattice = enumerate_dual(random_poset(12, 4, 0.2))
    for e, lam, ups in zip(lattice.base.elements, *lattice.witnesses):
        assert lambda_of(lattice, e) is lattice.member(lam)
        assert upsilon_of(lattice, e) is lattice.member(ups)
    assert "_member_index" not in vars(lattice)
    # a < b has the up-sets {}, {b}, {a,b}; {b} is lambda_a and upsilon_b.
    gapped = DualLattice(CHAIN2.base, [0b00, 0b11])
    assert lambda_of(gapped, "b") is gapped.bottom
    assert upsilon_of(gapped, "a") is gapped.top
    with pytest.raises(KeyError):
        lambda_of(gapped, "a")
    with pytest.raises(KeyError):
        upsilon_of(gapped, "b")


def test_lambda_is_downset_complement():
    for p in random_suite(count=30):
        lattice = enumerate_dual(p)
        for e in p.elements:
            assert (
                lambda_of(lattice, e).support
                == p.full_mask & ~p.down_mask(e)
            )


def test_membership_characterization():
    # x(p) = 0 iff x <= lambda_p; x(p) = 1 iff upsilon_p <= x.
    for p in random_suite(count=30):
        lattice = enumerate_dual(p)
        for e in p.elements:
            lam, ups = lambda_of(lattice, e), upsilon_of(lattice, e)
            for x in lattice.members:
                assert (x.evaluate(e) == 0) == pointwise_leq(x, lam)
                assert (x.evaluate(e) == 1) == pointwise_leq(ups, x)


def test_embeddings_reverse_and_preserve_order():
    for p in random_suite(count=30):
        lattice = enumerate_dual(p)
        for a in p.elements:
            for b in p.elements:
                expected = p.leq_index(p.index(a), p.index(b))
                assert pointwise_leq(
                    lambda_of(lattice, b), lambda_of(lattice, a)
                ) == expected
                assert pointwise_leq(
                    upsilon_of(lattice, b), upsilon_of(lattice, a)
                ) == expected


def test_neighbours_in_three_chain():
    mid = member(CHAIN2, "b")
    assert least_above(CHAIN2, mid) is CHAIN2.top
    assert greatest_below(CHAIN2, mid) is CHAIN2.bottom


def test_neighbours_at_bounds():
    assert least_above(CHAIN2, CHAIN2.top) is CHAIN2.top
    assert greatest_below(CHAIN2, CHAIN2.bottom) is CHAIN2.bottom


def test_neighbours_in_square():
    a = member(ANTI2, "a")
    assert least_above(ANTI2, a) is ANTI2.top
    assert greatest_below(ANTI2, a) is ANTI2.bottom


def test_irreducibility_in_square():
    meets, joins, _ = ANTI2.order_masks
    index = ANTI2.member_index
    assert meets >> index(member(ANTI2, "a")) & 1
    assert not meets >> index(ANTI2.top) & 1
    assert not meets >> index(ANTI2.bottom) & 1
    assert joins >> index(member(ANTI2, "b")) & 1
    assert not joins >> index(ANTI2.bottom) & 1


def test_irreducibles_chain():
    report = irreducibles(CHAIN2)
    assert set(report.meet_irreducibles) == {CHAIN2.bottom, member(CHAIN2, "b")}
    assert report.lambda_witness[CHAIN2.bottom] == "b"
    assert report.lambda_witness[member(CHAIN2, "b")] == "a"


def test_irreducibles_antichain():
    report = irreducibles(ANTI2)
    ab = {member(ANTI2, "a"), member(ANTI2, "b")}
    assert set(report.meet_irreducibles) == ab
    assert set(report.join_irreducibles) == ab


def test_irreducibles_empty_poset():
    lattice = make([], [])
    report = irreducibles(lattice)
    assert report.meet_irreducibles == ()
    assert report.join_irreducibles == ()
    assert report.lambda_witness == {}


def test_every_witness_is_irreducible_in_any_family():
    # Over a poset, λ_p lies in M_p and in no other M_q, and υ_p in J_p
    # alone, whatever else the family holds: a witness found is always
    # irreducible, so irreducibles has no reducible one to report. The
    # families mix witness supports, arbitrary masks and repeats.
    rng = random.Random(35)
    witnessed = 0
    for base in poset_catalog(4):
        full = base.full_mask
        supports = [full & ~down for down in base.down_masks] + list(base.up_masks)
        for _ in range(20):
            masks = rng.sample(supports, rng.randint(0, len(supports)))
            masks += [rng.randrange(full + 1) for _ in range(rng.randint(1, 6))]
            lattice = DualLattice(base, masks)
            meets, joins, _ = lattice.order_masks
            for found, indices in zip((meets, joins), lattice.witnesses):
                for i in indices:
                    if i is not None:
                        witnessed += 1
                        assert found >> i & 1
    assert witnessed > 1000


def test_irreducibles_name_the_lowest_unwitnessed_meet():
    # Every subset of the chain a < b < c: members 1, 2, 4 and 5 are
    # meet-irreducible but none has a support P - ↓p, and the error names
    # the lowest, {a}; member 0, below it, is λ_c.
    chain3 = poset_from_relations(["a", "b", "c"], [("a", "b"), ("b", "c")])
    lattice = DualLattice(chain3, range(8))
    assert lattice.witnesses[0] == (6, 3, 0)
    with pytest.raises(LemmaViolationError, match="has no base-element witness") as exc:
        irreducibles(lattice)
    assert exc.value.counterexample is lattice.member(1)
    assert exc.value.counterexample.support_elements() == ("a",)


def test_irreducibles_name_a_missing_lambda_by_its_support():
    # Over the antichain {a, b}, the family {}, {a} lacks λ_a, whose
    # support is P - ↓a = {b}; its one meet-irreducible, {a}, is λ_b.
    base = ANTI2.base
    lattice = DualLattice(base, [0b00, 0b01])
    missing = "embedded element 'a' has no member"
    with pytest.raises(LemmaViolationError, match=missing) as exc:
        irreducibles(lattice)
    assert exc.value.counterexample == base.full_mask & ~base.down_masks[0] == 0b10


def test_a_base_without_reflexivity_is_refused(monkeypatch):
    # FinitePoset checks every poset axiom, and the shape of its input, so
    # no lattice code runs on a base that is not a poset: without
    # reflexivity enumerate_dual would recurse without end, without
    # transitivity it miscounts (walked 5 up-sets but counted 4), and on
    # a 2-cycle irreducibles finds a reducible witness.
    reached = []
    monkeypatch.setattr(dual_mod, "_check_width", reached.append)
    for elements, up_masks, error, message in (
        (("a",), (0,), PosetDualError, "element 'a' is not <= itself"),
        (("a", "b"), (2, 2), PosetDualError, "element 'a' is not <= itself"),
        (("a", "b"), (1, 1), PosetDualError, "element 'b' is not <= itself"),
        (
            ("a", "b", "c"),
            (0b011, 0b110, 0b100),
            PosetDualError,
            "'a' <= 'b' <= 'c' without 'a' <= 'c'",
        ),
        (("a", "b"), (3, 3), CycleDetectedError, "cycle detected: a <= b and b <= a"),
        (("a", "b"), (1,), PosetDualError, "2 elements, 1 up-masks"),
        (("a",), (0b11,), PosetDualError, "up-mask of 'a' has bits outside the base"),
        (("a",), (-1,), PosetDualError, "up-mask of 'a' has bits outside the base"),
        (("a", "a"), (1, 2), DuplicateElementError, "duplicate element: 'a'"),
    ):
        with pytest.raises(PosetDualError) as exc:
            dual_mod.enumerate_dual(FinitePoset(elements, up_masks))
        assert type(exc.value) is error
        assert str(exc.value) == message
    assert reached == []


def test_irreducible_counts_match_base():
    for p in random_suite(count=40):
        lattice = enumerate_dual(p)
        report = irreducibles(lattice)
        assert len(report.meet_irreducibles) == p.n
        assert len(report.join_irreducibles) == p.n


def test_irreducibles_build_no_support_index():
    # The witnesses are matched by member index.
    lattice = enumerate_dual(random_poset(12, 4, 0.2))
    report = irreducibles(lattice)
    assert len(report.meet_irreducibles) == len(report.join_irreducibles) == 12
    assert "_member_index" not in vars(lattice)


def test_lattice_dot_makes_no_members():
    lattice = enumerate_dual(random_poset(12, 4, 0.2))
    emit_lattice_dot(lattice, label_embeddings=True)
    assert lattice._made == {} and lattice._members is None  # no member made
    assert "_member_index" not in vars(lattice)


def test_member_objects_are_made_once(monkeypatch):
    # However a member is reached, before or after `members` makes them
    # all, it is the same object, made once; only the members reached
    # are held.
    made = []

    def make(base, support):
        made.append(support)
        return MonotoneMap(base, support)

    monkeypatch.setattr(dual_mod, "MonotoneMap", make)
    lattice = enumerate_dual(random_poset(8, 2, 0.2))
    top, third = lattice.member(-1), lattice.member(3)
    assert lattice.member(-1) is top and lattice.top is top
    assert lattice.member(len(lattice) - 1) is top
    assert made == [lattice.supports[-1], lattice.supports[3]]
    assert len(lattice._made) == 2
    assert lattice.members[3] is third and lattice.members[-1] is top
    assert lattice.member(3) is third and lattice.bottom is lattice.members[0]
    with pytest.raises(IndexError):
        lattice.member(len(lattice))


def test_meet_irreducible_cover_witness():
    # The least member strictly above an embedded lambda is the map that
    # vanishes exactly on the strict down-set.
    for p in random_suite(count=30):
        lattice = enumerate_dual(p)
        for e in p.elements:
            cover = least_above(lattice, lambda_of(lattice, e))
            assert cover.support == p.full_mask & ~p.strict_down_mask(e)
