"""Witness extraction for nilpotent coefficients of invertible polynomials.

Given an inverse pair f*g = 1 of univariate polynomials over a commutative
ring, every nonconstant coefficient u of f is nilpotent.  This package
computes an exponent e with u^e = 0 by induction over the finite lattice of
generator-set labels, and in the indeterminate-coefficient mode also emits
an independently checkable certificate: an exact polynomial identity
writing u^e as a combination of the defining relations.
"""

from .certificates import (
    UNIT_RELATION,
    NilpotencyCertificate,
    NotInClosure,
    check_node_local,
    combine,
    dump_certificate,
    extract_certificate,
    gauss_product_witness,
    load_certificate,
    power_check,
    verify_concrete,
    verify_symbolic,
)
from .dot import emit_dot
from .engine import (
    CaseTag,
    Digraph,
    InternalInconsistency,
    NotAUnit,
    ProblemInstance,
    case_split,
    check_unit,
    convolution,
    grow_digraph,
    structural_metrics,
)
from .induction import (
    BadInput,
    CompositeWitness,
    FinitePoset,
    Holds,
    NotReducible,
    PrimeIdeal,
    Reduce,
    UnitIdeal,
    ln_decompose,
    radical_ideal_poset,
    radical_modn,
    run_induction,
    spt_modn,
)
from .oracles import IdealLabel, mod_membership
from .poly import MultiPoly, PolyParseError, avar, bvar

__version__ = "0.1.0"

__all__ = [
    "BadInput",
    "CaseTag",
    "CompositeWitness",
    "Digraph",
    "FinitePoset",
    "Holds",
    "IdealLabel",
    "InternalInconsistency",
    "MultiPoly",
    "NilpotencyCertificate",
    "NotAUnit",
    "NotInClosure",
    "NotReducible",
    "PolyParseError",
    "PrimeIdeal",
    "ProblemInstance",
    "Reduce",
    "UNIT_RELATION",
    "UnitIdeal",
    "avar",
    "bvar",
    "case_split",
    "check_node_local",
    "check_unit",
    "combine",
    "convolution",
    "dump_certificate",
    "emit_dot",
    "extract_certificate",
    "gauss_product_witness",
    "grow_digraph",
    "ln_decompose",
    "load_certificate",
    "mod_membership",
    "power_check",
    "radical_ideal_poset",
    "radical_modn",
    "run_induction",
    "spt_modn",
    "structural_metrics",
    "verify_concrete",
    "verify_symbolic",
]
