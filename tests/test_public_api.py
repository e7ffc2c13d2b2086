"""The public surface: the package's exports and the README's library API.

The export list is pinned name by name, so that adding or deleting an
export is a visible decision.  The README's ``## Library`` example runs as
written, and every dotted ``nilcert.``/``nc.`` name in the README must
resolve, so deleting a documented name fails here.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

import nilcert

README = Path(__file__).resolve().parents[1] / "README.md"

EXPORTS = [
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


def test_exports_are_pinned():
    assert len(EXPORTS) == 42 and EXPORTS == sorted(EXPORTS)
    assert nilcert.__all__ == EXPORTS
    for name in EXPORTS:
        assert getattr(nilcert, name, None) is not None, name


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, "no python block under ## Library"
    return match.group(1)


def test_readme_library_example_runs():
    exec(compile(_library_block(), f"{README}:## Library", "exec"), {})


def _resolve(dotted: str) -> object:
    """The object a dotted name starting at nilcert names, importing
    submodules on the way."""
    parts = dotted.split(".")
    obj = nilcert
    for k, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[:k]))
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize(
    "dotted",
    sorted(
        {
            "nilcert" + rest
            for rest in re.findall(r"\b(?:nilcert|nc)((?:\.[A-Za-z_]\w*)+)", README.read_text(encoding="utf-8"))
        }
    ),
)
def test_readme_names_resolve(dotted):
    _resolve(dotted)
