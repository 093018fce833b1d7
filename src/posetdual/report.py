"""Deterministic structured-text reports and the full verification run.

Reports are nested string-keyed dicts rendered as 'key: value' lines,
keys sorted, two-space indent per level. No timestamps, no paths.
"""

from .errors import LemmaViolationError
from . import dual as dual_mod
from . import ideals as ideals_mod
from . import seconddual as sd_mod
from .dot import support_label
from .poset import _bits


def render(tree):
    """Render a nested dict to the stable text form."""
    out = []

    def emit(node, depth):
        for key in sorted(node):
            value = node[key]
            pad = "  " * depth
            if isinstance(value, dict):
                out.append(f"{pad}{key}:")
                emit(value, depth + 1)
            else:
                out.append(f"{pad}{key}: {_scalar(value)}")

    emit(tree, 0)
    return "\n".join(out) + "\n"


def _scalar(value):
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "skipped"
    return str(value)


def _lowest_member_label(lattice, mask):
    return support_label(lattice.member((mask & -mask).bit_length() - 1))


def _check_embedding_characterization(lattice):
    # Per element p, the members x where x(p) = 0 and x <= lambda_p
    # disagree, or x(p) = 1 and x >= upsilon_p do.
    full = lattice.full_member_mask
    for p, column in zip(lattice.base.elements, lattice.columns):
        ideal = ideals_mod.principal_ideal(lattice, dual_mod.lambda_of(lattice, p))
        filt = ideals_mod.principal_filter(lattice, dual_mod.upsilon_of(lattice, p))
        wrong = (full & ~column ^ ideal.member_mask) | (column ^ filt.member_mask)
        if wrong:
            return False, f"x={_lowest_member_label(lattice, wrong)} p={p}"
    return True, None


def _check_embedding_order(lattice):
    # p <= q iff lambda_q <= lambda_p iff upsilon_q <= upsilon_p.
    base = lattice.base
    lam = [dual_mod.lambda_of(lattice, p).support for p in base.elements]
    ups = [dual_mod.upsilon_of(lattice, p).support for p in base.elements]
    for i, p in enumerate(base.elements):
        for j, q in enumerate(base.elements):
            expected = base.leq_index(i, j)
            lam_rev = lam[j] & ~lam[i] == 0
            ups_rev = ups[j] & ~ups[i] == 0
            if lam_rev != expected or ups_rev != expected:
                return False, f"p={p} q={q}"
    return True, None


def _check_irreducible_covers(lattice):
    # The least member strictly above an embedded element vanishes exactly
    # on the strict down-set of that element.
    base = lattice.base
    for p in base.elements:
        lam = dual_mod.lambda_of(lattice, p)
        expected = base.full_mask & ~base.strict_down_mask(p)
        if dual_mod.least_above(lattice, lam).support != expected:
            return False, f"p={p}"
    return True, None


def _check_prime_pairs(lattice, pair_report):
    for u, v, p in pair_report.pairs:
        ideal = ideals_mod.principal_ideal(lattice, u)
        filt = ideals_mod.principal_filter(lattice, v)
        if not ideals_mod.is_prime_ideal(ideal):
            return False, f"p={p} ideal-not-prime"
        # A filter complementary to the ideal needs no primeness check of
        # its own: is_prime_filter(filt) would be is_prime_ideal(ideal).
        if filt.member_mask != lattice.full_member_mask & ~ideal.member_mask:
            if not ideals_mod.is_prime_filter(filt):
                return False, f"p={p} filter-not-prime"
            return False, f"p={p} not-complementary"
        if u.evaluate(p) != 0 or v.evaluate(p) != 1:
            return False, f"p={p} embeddings-not-disjoint"
    return True, None


def _check_upset_closure(lattice):
    # The members holding some element i but not some j above it.
    columns = lattice.columns
    wrong = 0
    for column, up in zip(columns, lattice.base.up_masks):
        for j in _bits(up):
            wrong |= column & ~columns[j]
    if wrong:
        return False, f"member={_lowest_member_label(lattice, wrong)}"
    return True, None


def build_verification_report(
    name,
    lattice,
    use_bruteforce=False,
    corrupt=False,
):
    """Run every lemma check on one dual lattice and its base poset.

    Returns (report tree, all passed). Lemma failures are captured in the
    report with counterexample payloads.
    """
    poset = lattice.base
    checks = {}
    counterexamples = {}

    def record(key, ok, payload):
        checks[key] = "pass" if ok else "fail"
        if not ok and payload is not None:
            counterexamples[key] = payload

    record("dual_lattice_closure", *_check_upset_closure(lattice))
    record("embedding_characterization", *_check_embedding_characterization(lattice))
    record("embedding_order", *_check_embedding_order(lattice))
    record("irreducible_covers", *_check_irreducible_covers(lattice))

    meet_count = join_count = None
    try:
        irr = dual_mod.irreducibles(lattice)
        meet_count = len(irr.meet_irreducibles)
        join_count = len(irr.join_irreducibles)
        ok = meet_count == poset.n and join_count == poset.n
        record("irreducible_witnesses", ok, None if ok else "count mismatch")
    except LemmaViolationError as exc:
        record("irreducible_witnesses", False, str(exc))

    pair_count = None
    try:
        pair_report = ideals_mod.prime_principal_pairs(lattice)
        pair_count = len(pair_report.pairs)
        record("prime_pairs", *_check_prime_pairs(lattice, pair_report))
    except LemmaViolationError as exc:
        record("prime_pairs", False, str(exc))

    iso = sd_mod.verify_isomorphism(lattice, use_bruteforce=use_bruteforce)
    record(
        "second_dual_round_trip",
        iso.round_trip_ok,
        "; ".join(iso.failures) if not iso.round_trip_ok else None,
    )
    record(
        "second_dual_order_embedding",
        iso.order_preserved_ok,
        "; ".join(iso.failures) if not iso.order_preserved_ok else None,
    )
    if iso.brute_force_matched is None:
        checks["second_dual_brute_force"] = "skipped"
    else:
        record(
            "second_dual_brute_force",
            iso.brute_force_matched,
            "; ".join(iso.failures) if not iso.brute_force_matched else None,
        )

    if corrupt:
        # Harness hook: force one failure to exercise the exit-code path.
        record("second_dual_round_trip", False, "forced failure (harness flag)")

    all_ok = "fail" not in checks.values()
    tree = {
        "poset": {"name": name, "size": poset.n},
        "counts": {
            "dual_members": len(lattice),
            "meet_irreducibles": meet_count,
            "join_irreducibles": join_count,
            "prime_pairs": pair_count,
        },
        "checks": checks,
        "result": "pass" if all_ok else "fail",
    }
    if counterexamples:
        tree["counterexamples"] = counterexamples
    return tree, all_ok
