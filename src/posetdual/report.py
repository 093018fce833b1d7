"""Deterministic structured-text reports and the full verification run.

Reports are nested string-keyed dicts rendered as 'key: value' lines,
keys sorted, two-space indent per level. No timestamps, no paths.
"""

from .errors import LemmaViolationError
from . import dual as dual_mod
from . import ideals as ideals_mod
from . import seconddual as sd_mod
from .dot import support_label
from .poset import _subsets_in


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


def _missing_witness(lattice):
    """'p=<e> no-lambda' or 'p=<e> no-upsilon' for the first element, in
    element order, with no member for λ_p (checked first) or υ_p; else
    None."""
    for p, lam, ups in zip(lattice.base.elements, *lattice.witnesses):
        if lam is None:
            return f"p={p} no-lambda"
        if ups is None:
            return f"p={p} no-upsilon"
    return None


def _check_embedding_characterization(lattice):
    # Per element p, the members x where x(p) = 0 and x <= lambda_p
    # disagree, or x(p) = 1 and x >= upsilon_p do: below & ~col[p] |
    # col[p] & ~above. Over all p they OR to order_masks' unclosed, as
    # down_masks is the transpose of up_masks: one holding q < p but not p
    # lies in col[q] & ~above_q. So the first p is sought only on failure.
    if not lattice.order_masks[2]:
        return True, None
    bounds = zip(lattice.base.elements, lattice.strict_bounds())
    for p, (column, above, below) in bounds:
        wrong = below & ~column | column & ~above
        if wrong:
            break
    return False, f"x={_lowest_member_label(lattice, wrong)} p={p}"


def _check_embedding_order(lattice):
    # p <= q iff lambda_q <= lambda_p iff upsilon_q <= upsilon_p: per p, the
    # q whose lambda_q lies in lambda_p, and those whose upsilon_q lies in
    # upsilon_p, are each the up-set of p; the lowest q off it is reported.
    base, supports = lattice.base, lattice.supports
    lambdas, upsilons = ([supports[i] for i in side] for side in lattice.witnesses)
    for p, lam_p, ups_p, up in zip(base.elements, lambdas, upsilons, base.up_masks):
        wrong = _subsets_in(lambdas, lam_p) ^ up
        wrong |= _subsets_in(upsilons, ups_p) ^ up
        if wrong:
            q = base.elements[(wrong & -wrong).bit_length() - 1]
            return False, f"p={p} q={q}"
    return True, None


def _check_irreducible_covers(lattice):
    # The least member strictly above an embedded element vanishes exactly
    # on the strict down-set of that element: every member strictly above
    # lambda_p holds p, and the first of them is lambda_p with p added.
    base, supports = lattice.base, lattice.supports
    for p, lam, column in zip(base.elements, lattice.witnesses[0], lattice.columns):
        # Not strict_bounds: the filter above lambda_p is an AND over P - ↓p.
        above = lattice.filter_of(1 << lam) & ~(1 << lam)
        least = (above & -above).bit_length() - 1
        expected = base.full_mask & ~base.strict_down_mask(p)
        if not above or above & ~column or supports[least] != expected:
            return False, f"p={p}"
    return True, None


def _check_upset_closure(lattice):
    # The members holding some element i but not some j above it; then
    # whether the members are every up-set, each once: canonical order
    # puts equal supports side by side, where no column tells them apart,
    # and the up-sets are counted.
    wrong, differ = lattice.order_masks[2], 0
    for column in lattice.columns:
        differ |= column ^ column >> 1
    if wrong:
        return False, f"member={_lowest_member_label(lattice, wrong)}"
    repeated = lattice.full_member_mask >> 1 & ~differ
    if repeated:
        return False, f"member={_lowest_member_label(lattice, repeated)} repeated"
    m = len(lattice)
    if lattice.upset_count != m:
        return False, f"members={m} missing-up-sets"
    return True, None


def build_verification_report(name, lattice, use_bruteforce=False):
    """Run every lemma check on one dual lattice and its base poset.

    Returns (report tree, all passed). Lemma failures are captured in the
    report with counterexample payloads.
    """
    poset = lattice.base
    checks = {}
    counterexamples = {}

    def record(key, ok, payload):
        checks[key] = "skipped" if ok is None else "pass" if ok else "fail"
        if ok is False and payload is not None:
            counterexamples[key] = payload

    record("dual_lattice_closure", *_check_upset_closure(lattice))
    # The checks that read λ_p and υ_p all fail, naming the first element
    # without them, when some are missing.
    missing = _missing_witness(lattice)
    for key, check in (
        ("embedding_characterization", _check_embedding_characterization),
        ("embedding_order", _check_embedding_order),
        ("irreducible_covers", _check_irreducible_covers),
    ):
        record(key, *((False, missing) if missing else check(lattice)))

    meet_count = join_count = None
    try:
        irr = dual_mod.irreducibles(lattice)
        meet_count = len(irr.meet_irreducibles)
        join_count = len(irr.join_irreducibles)
        ok = meet_count == poset.n and join_count == poset.n
        record("irreducible_witnesses", ok, "count mismatch")
    except LemmaViolationError as exc:
        record("irreducible_witnesses", False, str(exc))

    pair_count = None
    try:
        # The one prime-pair check: it raises unless every pair holds.
        pair_count = len(ideals_mod.prime_principal_pairs(lattice).pairs)
        record("prime_pairs", True, None)
    except LemmaViolationError as exc:
        record("prime_pairs", False, str(exc))

    iso = sd_mod.verify_isomorphism(lattice, use_bruteforce=use_bruteforce)
    failures = "; ".join(iso.failures)
    record("second_dual_round_trip", iso.round_trip_ok, failures)
    record("second_dual_order_embedding", iso.order_preserved_ok, failures)
    record("second_dual_brute_force", iso.brute_force_matched, failures)

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
