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
    NodeProof,
    NotInClosure,
    WitnessBuilder,
    check_node_local,
    combine,
    dump_certificate,
    extract_certificate,
    gauss_product_witness,
    load_certificate,
    membership_witness,
    node_witnesses,
    power_check,
    verify_concrete,
    verify_symbolic,
    witness_gap,
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
    convolution_polys,
    grow_digraph,
    root_exponent,
    structural_metrics,
)
from .induction import (
    BadInput,
    CompositeWitness,
    FinitePoset,
    Holds,
    ModIdeal,
    NotReducible,
    PrimeIdeal,
    Reduce,
    UnitIdeal,
    check_key_lemma,
    label_poset,
    ln_decompose,
    nc_run_induction,
    radical_ideal_poset,
    radical_modn,
    run_induction,
    spt_modn,
)
from .oracles import IdealLabel, mod_membership
from .poly import (
    Indeterminate,
    MissingAssignment,
    MultiPoly,
    PolyParseError,
    avar,
    bvar,
)
from .rings import RingHandle

__version__ = "0.1.0"

__all__ = [
    "BadInput",
    "CaseTag",
    "CompositeWitness",
    "Digraph",
    "FinitePoset",
    "Holds",
    "IdealLabel",
    "Indeterminate",
    "InternalInconsistency",
    "MissingAssignment",
    "ModIdeal",
    "MultiPoly",
    "NilpotencyCertificate",
    "NodeProof",
    "NotAUnit",
    "NotInClosure",
    "NotReducible",
    "PolyParseError",
    "PrimeIdeal",
    "ProblemInstance",
    "Reduce",
    "RingHandle",
    "UNIT_RELATION",
    "UnitIdeal",
    "WitnessBuilder",
    "avar",
    "bvar",
    "case_split",
    "check_key_lemma",
    "check_node_local",
    "check_unit",
    "combine",
    "convolution",
    "convolution_polys",
    "dump_certificate",
    "emit_dot",
    "extract_certificate",
    "gauss_product_witness",
    "grow_digraph",
    "label_poset",
    "ln_decompose",
    "load_certificate",
    "membership_witness",
    "mod_membership",
    "nc_run_induction",
    "node_witnesses",
    "power_check",
    "radical_ideal_poset",
    "radical_modn",
    "root_exponent",
    "run_induction",
    "spt_modn",
    "structural_metrics",
    "verify_concrete",
    "verify_symbolic",
    "witness_gap",
]
