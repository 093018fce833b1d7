"""Finite-poset duality toolkit.

Builds the complete lattice of monotone 0/1-valued maps on a finite
poset, its prime ideal/filter structure, and the second dual, and checks
that the second dual reproduces the original poset.
"""

from .errors import (
    BaseMismatchError,
    CycleDetectedError,
    DuplicateElementError,
    LemmaViolationError,
    NoWitnessError,
    ParseError,
    PosetDualError,
    TooLargeError,
    UnknownElementError,
)
from .poset import (
    CoverRelation,
    FinitePoset,
    is_monotone,
    leq,
    poset_from_relations,
    random_poset,
    transitive_reduction,
)
from .dual import (
    DualLattice,
    IrreducibleReport,
    MonotoneMap,
    enumerate_dual,
    inf_of,
    irreducibles,
    lambda_of,
    pointwise_leq,
    sup_of,
    upsilon_of,
)
from .ideals import (
    PrimePairReport,
    SubsetOfLattice,
    is_filter,
    is_ideal,
    is_prime_filter,
    is_prime_ideal,
    prime_principal_pairs,
    principal_filter,
    principal_ideal,
)
from .seconddual import (
    BoundedHom,
    IsomorphismReport,
    enumerate_second_dual_bruteforce,
    evaluation_hom,
    hom_leq,
    point_of_hom,
    verify_isomorphism,
)
from .textio import (
    PosetDocument,
    build_poset,
    canonical_text,
    document_from_poset,
    parse_poset,
)
from .dot import emit_lattice_dot, emit_poset_dot, support_label, write_lattice_dot
from .report import build_verification_report, render
from .cli import run_cli

__all__ = [
    "BaseMismatchError",
    "CycleDetectedError",
    "DuplicateElementError",
    "LemmaViolationError",
    "NoWitnessError",
    "ParseError",
    "PosetDualError",
    "TooLargeError",
    "UnknownElementError",
    "CoverRelation",
    "FinitePoset",
    "is_monotone",
    "leq",
    "poset_from_relations",
    "random_poset",
    "transitive_reduction",
    "DualLattice",
    "IrreducibleReport",
    "MonotoneMap",
    "enumerate_dual",
    "inf_of",
    "irreducibles",
    "lambda_of",
    "pointwise_leq",
    "sup_of",
    "upsilon_of",
    "PrimePairReport",
    "SubsetOfLattice",
    "is_filter",
    "is_ideal",
    "is_prime_filter",
    "is_prime_ideal",
    "prime_principal_pairs",
    "principal_filter",
    "principal_ideal",
    "BoundedHom",
    "IsomorphismReport",
    "enumerate_second_dual_bruteforce",
    "evaluation_hom",
    "hom_leq",
    "point_of_hom",
    "verify_isomorphism",
    "PosetDocument",
    "build_poset",
    "canonical_text",
    "document_from_poset",
    "parse_poset",
    "emit_lattice_dot",
    "emit_poset_dot",
    "support_label",
    "write_lattice_dot",
    "build_verification_report",
    "render",
    "run_cli",
]
