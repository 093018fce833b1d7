"""Batch CLI: construction, inspection, and lemma verification.

Exit codes, which run_cli reads off each error's class: 0 success / all
checks pass, 1 a lemma check failed (LemmaViolationError), 2 a parse,
input or other package error (any other PosetDualError, OSError or
UnicodeDecodeError), 3 size cap exceeded (TooLargeError).
"""

import argparse
import functools
import sys

from . import dual as dual_mod
from . import ideals as ideals_mod
from . import seconddual as sd_mod
from .dot import emit_poset_dot, support_label, write_lattice_dot
from .errors import LemmaViolationError, PosetDualError, TooLargeError
from .poset import random_poset
from .report import build_verification_report, render
from .textio import (
    _IDENT,
    build_poset,
    canonical_text,
    document_from_poset,
    parse_poset,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_TOO_LARGE = 3


def nonnegative_int(text):
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def probability(text):
    p = float(text)
    if not 0.0 <= p <= 1.0:
        raise argparse.ArgumentTypeError(f"density must be in [0, 1], got {text}")
    return p


def poset_name(text):
    if not _IDENT.match(text):
        raise argparse.ArgumentTypeError(f"name must match [A-Za-z0-9_]+, got {text!r}")
    return text


@functools.cache
def _build_parser():
    # Built on the first run_cli call and reused: parse_args keeps no state
    # between calls, and a build costs more than a refused job.
    parser = argparse.ArgumentParser(
        prog="posetdual",
        description="Finite-poset duality toolkit: dual lattice, ideals, "
        "second dual, and lemma verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand declares only the flags it reads.
    for cmd, helptext in [
        ("dual", "enumerate the dual lattice of a poset file"),
        ("irreducibles", "list irreducible members with witnesses"),
        ("primes", "list complementary principal prime pairs"),
        ("second-dual", "build the second dual and report the round trip"),
        ("verify", "run every lemma check on a poset file"),
        ("hasse", "emit the poset's Hasse diagram as DOT"),
    ]:
        p = sub.add_parser(cmd, help=helptext)
        p.add_argument("file", help="poset file")
        if cmd != "hasse":
            # The lattice runner reads these on every subcommand; verify
            # labels its DOT's embedded elements without a flag.
            p.set_defaults(dot=None, label_embeddings=cmd == "verify")
            p.add_argument(
                "--max-members",
                type=nonnegative_int,
                default=dual_mod.DEFAULT_MAX_MEMBERS,
                help="cap on dual-lattice size (default %(default)s)",
            )
        if cmd in ("dual", "verify", "hasse"):
            p.add_argument("--dot", metavar="PATH", help="write a DOT diagram here")
        if cmd in ("second-dual", "verify"):
            p.add_argument(
                "--brute-force",
                action="store_true",
                help="also check the second dual against its independent oracle",
            )
        if cmd == "dual":
            p.add_argument(
                "--label-embeddings",
                action="store_true",
                help="annotate DOT nodes that embed base elements",
            )

    p = sub.add_parser("random", help="emit a random poset file")
    p.add_argument("n", type=nonnegative_int, help="number of elements")
    p.add_argument("--density", type=probability, default=0.5)
    p.add_argument("--name", type=poset_name, default="random")
    p.add_argument("--out", metavar="PATH", help="write here instead of stdout")
    p.add_argument("--seed", type=int, default=0, help="random seed")

    return parser


def _load(args):
    with open(args.file, "r", encoding="ascii") as fh:
        doc = parse_poset(fh.read())
    return doc, build_poset(doc)


def _write_text(text, path, out):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)


def _run_on_dual(body, args, out):
    """Run one lattice subcommand: enumerate FILE's dual under
    --max-members, write the report `body` gives, headed by the poset,
    then the lattice DOT if --dot names a path."""
    doc, poset = _load(args)
    lattice = dual_mod.enumerate_dual(poset, max_members=args.max_members)
    tree, ok = body(args, doc.name, lattice)
    tree["poset"] = {"name": doc.name, "size": poset.n}
    out.write(render(tree))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            write_lattice_dot(lattice, fh, doc.name, args.label_embeddings)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# Each body returns (report tree, verdict); the runner sets the tree's
# poset heading.


def _dual(args, name, lattice):
    irr = dual_mod.irreducibles(lattice)
    return {
        "dual": {
            "members": len(lattice),
            "bottom": support_label(lattice.bottom),
            "top": support_label(lattice.top),
            "meet_irreducibles": len(irr.meet_irreducibles),
            "join_irreducibles": len(irr.join_irreducibles),
        },
    }, True


def _irreducibles(args, name, lattice):
    irr = dual_mod.irreducibles(lattice)
    return {
        "meet_irreducibles": {
            support_label(x): p for x, p in irr.lambda_witness.items()
        },
        "join_irreducibles": {
            support_label(x): p for x, p in irr.upsilon_witness.items()
        },
    }, True


def _primes(args, name, lattice):
    pairs = ideals_mod.prime_principal_pairs(lattice)
    return {
        "pairs": {
            p: f"ideal_top={support_label(u)} filter_bottom={support_label(v)}"
            for u, v, p in pairs.pairs
        },
        "pair_count": len(pairs.pairs),
    }, True


def _second_dual(args, name, lattice):
    iso = sd_mod.verify_isomorphism(lattice, use_bruteforce=args.brute_force)
    return {
        "second_dual": {
            "members": len(iso.forward),
            "round_trip": iso.round_trip_ok,
            "order_embedding": iso.order_preserved_ok,
            "brute_force": iso.brute_force_matched,
            "kernels": {
                p: support_label(h.kernel_top) for p, h in iso.forward.items()
            },
        },
    }, iso.ok


def _verify(args, name, lattice):
    return build_verification_report(name, lattice, use_bruteforce=args.brute_force)


def _cmd_hasse(args, out):
    doc, poset = _load(args)
    _write_text(emit_poset_dot(poset, doc.name), args.dot, out)
    return EXIT_OK


def _cmd_random(args, out):
    poset = random_poset(args.n, args.seed, args.density)
    _write_text(canonical_text(document_from_poset(poset, args.name)), args.out, out)
    return EXIT_OK


_COMMANDS = {
    "dual": functools.partial(_run_on_dual, _dual),
    "irreducibles": functools.partial(_run_on_dual, _irreducibles),
    "primes": functools.partial(_run_on_dual, _primes),
    "second-dual": functools.partial(_run_on_dual, _second_dual),
    "verify": functools.partial(_run_on_dual, _verify),
    "hasse": _cmd_hasse,
    "random": _cmd_random,
}


def run_cli(argv=None, out=None, err=None):
    """Run one CLI invocation and return its exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except TooLargeError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_TOO_LARGE
    except LemmaViolationError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_CHECK_FAILED
    except (PosetDualError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INPUT_ERROR


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
