"""Witness construction, combination, extraction, verification and dumps.

Every identity claimed here is checked by full symbolic expansion: a
witness is accepted only when combination-side minus subject normalizes to
the empty term map.
"""

from __future__ import annotations

import json
import random

import pytest

import helpers
from nilcert import (
    IdealLabel,
    Indeterminate,
    MultiPoly,
    NotInClosure,
    ProblemInstance,
    WitnessBuilder,
    avar,
    bvar,
    combine,
    dump_certificate,
    extract_certificate,
    gauss_product_witness,
    grow_digraph,
    load_certificate,
    membership_witness,
    node_witnesses,
    power_check,
    root_exponent,
    unit_relation,
    verify_concrete,
    verify_symbolic,
    witness_gap,
)
from nilcert.poly import FIELD_BITS, MAX_INDEX

A = Indeterminate.a
B = Indeterminate.b


def label(n: int, m: int, *names: str) -> IdealLabel:
    elems = [Indeterminate(name[0], int(name[1:])) for name in names]
    return IdealLabel.from_elements(n, m, elems)


class TestMembershipWitness:
    def test_generator_case(self):
        w = membership_witness(label(2, 1, "a2"), A(2))
        assert w.subject == avar(2)
        assert w.gen_coeffs == {A(2): MultiPoly.one()}
        assert w.rel_coeffs == {}
        assert w.unit_coeff.is_zero
        assert witness_gap(w).is_zero

    def test_rule_case_expands_to_zero(self):
        # a1 enters the closure of (b1) through the degree-1 convolution
        w = membership_witness(label(2, 1, "b1"), A(1))
        assert w.subject == avar(1)
        assert witness_gap(w).is_zero
        assert set(w.gen_coeffs) == {B(1)}

    def test_empty_premise_sum_when_m_zero(self):
        w = membership_witness(IdealLabel.root(1, 0), A(1))
        assert w.gen_coeffs == {}
        assert w.rel_coeffs == {1: avar(0)}
        assert w.unit_coeff == -avar(1)
        assert witness_gap(w).is_zero

    def test_not_in_closure(self):
        with pytest.raises(NotInClosure):
            membership_witness(label(2, 1, "a2"), A(1))

    def test_b_side_rule(self):
        w = membership_witness(label(1, 2, "a1"), B(2))
        assert w.subject == bvar(2)
        assert witness_gap(w).is_zero

    def test_every_closure_element_everywhere(self):
        from itertools import product

        for n, m in [(1, 1), (2, 1), (2, 2), (3, 1)]:
            for a_bits in product((0, 1), repeat=n):
                for b_bits in product((0, 1), repeat=m):
                    lab = IdealLabel(a_bits, b_bits)
                    builder = WitnessBuilder(lab)
                    for element in builder.derivations:
                        assert witness_gap(builder.witness(element)).is_zero, (lab, element)


class TestGaussProductWitness:
    def test_root_top_product_is_one_relation(self):
        # at the root both correction sums are empty by maximality
        w = gauss_product_witness(2, 1, IdealLabel.root(2, 1))
        assert w.subject == avar(2) * bvar(1)
        assert w.gen_coeffs == {}
        assert w.rel_coeffs == {3: MultiPoly.one()}
        assert w.unit_coeff.is_zero

    def test_interior_product(self):
        # at (a2): a1*b1 = c2 - b0*a2 with a2 a generator
        w = gauss_product_witness(1, 1, label(2, 1, "a2"))
        assert w.subject == avar(1) * bvar(1)
        assert w.rel_coeffs == {2: MultiPoly.one()}
        assert w.gen_coeffs == {A(2): -bvar(0)}
        assert witness_gap(w).is_zero

    def test_degenerate_top_indices(self):
        w = gauss_product_witness(3, 2, label(3, 2, "a3"))
        assert w.rel_coeffs == {5: MultiPoly.one()}
        assert w.gen_coeffs == {} and w.unit_coeff.is_zero

    def test_correction_sums_expand_to_zero(self):
        # branch(1, 1) at a label where both correction sums are inhabited
        w = gauss_product_witness(1, 1, label(3, 3, "a2", "a3", "b2", "b3"))
        assert w.subject == avar(1) * bvar(1)
        assert w.rel_coeffs == {2: MultiPoly.one()}
        assert w.gen_coeffs == {A(2): -bvar(0), B(2): -avar(0)}
        assert witness_gap(w).is_zero

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gauss_product_witness(3, 1, IdealLabel.root(2, 1))


class TestCombine:
    def test_worked_interior_node(self):
        # children of (a2): witnesses of u at (a1,a2) and (a2,b1) merge
        # into a witness of u^2 at (a2), u = a1
        wk = membership_witness(label(2, 1, "a1", "a2"), A(1))
        wl = membership_witness(label(2, 1, "a2", "b1"), A(1))
        gp = gauss_product_witness(1, 1, label(2, 1, "a2"))
        parent = combine(wk, wl, gp)
        assert parent.label == label(2, 1, "a2")
        assert parent.subject == avar(1) ** 2
        assert witness_gap(parent).is_zero

    def test_leaf_pair_sums_exponents(self):
        d = grow_digraph(ProblemInstance.generic(1, 1))
        cert = extract_certificate(d, 1)
        assert cert.exponent == 2

    def test_label_mismatch_rejected(self):
        wk = membership_witness(label(2, 1, "a1", "a2"), A(1))
        wl = membership_witness(label(2, 1, "a2", "b1"), A(1))
        gp = gauss_product_witness(2, 1, IdealLabel.root(2, 1))
        with pytest.raises(ValueError):
            combine(wk, wl, gp)


class TestExtractCertificate:
    def test_worked_example_target_one(self):
        d = grow_digraph(ProblemInstance.generic(2, 1))
        cert = extract_certificate(d, 1)
        assert cert.exponent == 3
        assert cert.root_witness.gen_coeffs == {}
        assert verify_symbolic(cert).ok

    def test_worked_example_target_two(self):
        d = grow_digraph(ProblemInstance.generic(2, 1))
        cert = extract_certificate(d, 2)
        assert cert.exponent == 3
        assert verify_symbolic(cert).ok

    def test_leaf_root_identity(self):
        d = grow_digraph(ProblemInstance.generic(1, 0))
        cert = extract_certificate(d, 1)
        assert cert.exponent == 1
        assert cert.root_witness.rel_coeffs == {1: avar(0)}
        assert cert.root_witness.unit_coeff == -avar(1)

    def test_exponent_agrees_with_recursion(self):
        for n, m in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2), (4, 1)]:
            d = grow_digraph(ProblemInstance.generic(n, m))
            for i0 in range(1, n + 1):
                assert extract_certificate(d, i0).exponent == root_exponent(d)[0]

    def test_witness_soundness_at_every_node(self):
        """Every node of every digraph with n+m <= 7, every target: the
        stored witness identity expands to zero and the exponent matches
        the digraph's."""
        for total in range(1, 8):
            for n in range(1, total + 1):
                m = total - n
                d = grow_digraph(ProblemInstance.generic(n, m))
                for i0 in range(1, n + 1):
                    for lab, (exponent, witness) in node_witnesses(d, i0).items():
                        assert exponent == d.nodes[lab].exponent, (n, m, i0, lab)
                        assert witness.subject == avar(i0) ** exponent
                        assert witness_gap(witness).is_zero, (n, m, i0, lab)

    def test_rejects_concrete_digraphs(self):
        d = grow_digraph(ProblemInstance.concrete(8, [1, 2, 4], [1, 6]))
        with pytest.raises(ValueError):
            extract_certificate(d, 1)

    def test_early_stop_certificates_still_verify(self):
        d = grow_digraph(ProblemInstance.generic(3, 2, target=3), early_stop=True)
        cert = extract_certificate(d, 3)
        assert verify_symbolic(cert).ok
        assert cert.exponent <= root_exponent(grow_digraph(ProblemInstance.generic(3, 2)))[0]


class TestVerifySymbolic:
    def test_detects_single_perturbation(self):
        d = grow_digraph(ProblemInstance.generic(2, 1))
        cert = extract_certificate(d, 1)
        cert.root_witness.rel_coeffs[2] = cert.root_witness.rel_coeffs[2] + 1
        check = verify_symbolic(cert)
        assert not check.ok
        assert not check.diff.is_zero

    def test_random_mutations_detected(self):
        rng = random.Random(20240901)
        d = grow_digraph(ProblemInstance.generic(2, 2))
        for _ in range(10):
            cert = extract_certificate(d, rng.randrange(1, 3))
            witness = cert.root_witness
            slots = sorted(witness.rel_coeffs) + ["unit"]
            slot = rng.choice(slots)
            poly = witness.unit_coeff if slot == "unit" else witness.rel_coeffs[slot]
            monos = sorted(poly.terms, key=str) + [()]
            bump = MultiPoly({rng.choice(monos): 1})
            if slot == "unit":
                witness.unit_coeff = witness.unit_coeff + bump
            else:
                witness.rel_coeffs[slot] = poly + bump
            assert not verify_symbolic(cert).ok

    def test_rejects_generator_coefficients(self):
        w = membership_witness(label(2, 1, "b1"), A(1))
        from nilcert import NilpotencyCertificate

        bogus = NilpotencyCertificate(2, 1, 1, 1, w)
        with pytest.raises(ValueError):
            verify_symbolic(bogus)


class TestConcreteChecks:
    def test_worked_example_minimal_exponents(self):
        instance = ProblemInstance.concrete(8, [1, 2, 4], [1, 6])
        d = grow_digraph(ProblemInstance.generic(2, 1))
        cert1 = extract_certificate(d, 1)
        check1 = verify_concrete(cert1, instance)
        assert check1.ok and check1.minimal_exponent == 3
        cert2 = extract_certificate(d, 2)
        check2 = verify_concrete(cert2, instance)
        assert check2.ok and check2.minimal_exponent == 2

    def test_zero_exponent_fails(self):
        instance = ProblemInstance.concrete(8, [1, 2, 4], [1, 6])
        check = power_check(instance, 1, 0)
        assert not check.ok and check.value == 1

    def test_dimension_mismatch(self):
        instance = ProblemInstance.concrete(8, [1, 2, 4], [1, 6])
        d = grow_digraph(ProblemInstance.generic(1, 1))
        with pytest.raises(ValueError):
            verify_concrete(extract_certificate(d, 1), instance)

    def test_specialized_expansion_vanishes(self):
        """Evaluating the full right-hand side at the Z/8 coefficients gives
        the same value as u^e, namely zero (homomorphism argument)."""
        from nilcert import convolution_polys

        instance = ProblemInstance.concrete(8, [1, 2, 4], [1, 6])
        assignment = instance.coefficient_assignment()
        ring = instance.ring
        d = grow_digraph(ProblemInstance.generic(2, 1))
        for i0 in (1, 2):
            witness = extract_certificate(d, i0).root_witness
            total = 0
            for k, coeff in witness.rel_coeffs.items():
                c_k = convolution_polys(2, 1)[k]
                total = ring.add(total, ring.mul(coeff.evaluate(assignment, ring), c_k.evaluate(assignment, ring)))
            total = ring.add(
                total,
                ring.mul(
                    witness.unit_coeff.evaluate(assignment, ring),
                    unit_relation().evaluate(assignment, ring),
                ),
            )
            assert total == 0
            assert witness.subject.evaluate(assignment, ring) == 0

    def test_specialization_small_sample(self):
        for modulus in (4, 8, 9):
            for f, g in helpers.unit_pairs(modulus, max_deg_f=2, max_deg_g=3):
                instance = ProblemInstance.concrete(modulus, f, g)
                d = grow_digraph(ProblemInstance.generic(instance.n, instance.m))
                for i0 in range(1, instance.n + 1):
                    cert = extract_certificate(d, i0)
                    assert verify_concrete(cert, instance).ok, (modulus, f, g, i0)


class TestDump:
    def test_round_trip_verifies(self):
        d = grow_digraph(ProblemInstance.generic(2, 1))
        cert = extract_certificate(d, 1)
        text = dump_certificate(cert)
        loaded = load_certificate(text)
        assert loaded.n == 2 and loaded.m == 1
        assert loaded.exponent == cert.exponent
        assert loaded.root_witness.rel_coeffs == cert.root_witness.rel_coeffs
        assert loaded.root_witness.unit_coeff == cert.root_witness.unit_coeff
        assert verify_symbolic(loaded).ok

    def test_dump_is_deterministic(self):
        d = grow_digraph(ProblemInstance.generic(2, 2))
        assert dump_certificate(extract_certificate(d, 1)) == dump_certificate(
            extract_certificate(d, 1)
        )

    def test_load_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            load_certificate('{"format": "something-else"}')


def _dump_fields(*drop, **changes):
    """A valid (2, 1) dump with keys dropped or replaced."""
    doc = json.loads(dump_certificate(extract_certificate(grow_digraph(ProblemInstance.generic(2, 1)), 1)))
    for key in drop:
        del doc[key]
    doc.update(changes)
    return json.dumps(doc)


MALFORMED_DUMPS = {
    "not json": "{",
    "top-level list": "[1, 2]",
    "no format": "{}",
    "missing n": _dump_fields("n"),
    "missing rel_coeffs": _dump_fields("rel_coeffs"),
    "missing unit_coeff": _dump_fields("unit_coeff"),
    "string n": _dump_fields(n="2"),
    "float m": _dump_fields(m=1.0),
    "boolean i0": _dump_fields(i0=True),
    "null e": _dump_fields(e=None),
    "n = 0": _dump_fields(n=0, m=3, i0=0),
    "negative m": _dump_fields(m=-1),
    "i0 = 0": _dump_fields(i0=0),
    "i0 > n": _dump_fields(i0=3),
    "e = 0": _dump_fields(e=0),
    "rel_coeffs list": _dump_fields(rel_coeffs=["1*a0"]),
    "non-string rel coefficient": _dump_fields(rel_coeffs={"1": 3}),
    "non-integer rel index": _dump_fields(rel_coeffs={"x": "1*a0"}),
    "rel index out of range": _dump_fields(rel_coeffs={"4": "1*a0"}),
    "non-string unit_coeff": _dump_fields(unit_coeff=7),
    "unparsable unit_coeff": _dump_fields(unit_coeff="1*c0"),
}


@pytest.mark.parametrize("text", MALFORMED_DUMPS.values(), ids=MALFORMED_DUMPS.keys())
def test_load_rejects_malformed_dump(text):
    with pytest.raises(ValueError):
        load_certificate(text)


W = FIELD_BITS
OVERSIZED_DUMPS = {
    "e = 2**W": _dump_fields(e=2**W),
    "n past MAX_INDEX": _dump_fields(n=MAX_INDEX + 1),
    "exponent 2**W in a coefficient": _dump_fields(unit_coeff=f"1*a0^{2**W}"),
    "exponent 2**W - 2 in a coefficient": _dump_fields(rel_coeffs={"1": f"1*b1^{2**W - 2}"}),
    "index past MAX_INDEX in a coefficient": _dump_fields(rel_coeffs={"2": f"1*a{MAX_INDEX + 1}"}),
}


@pytest.mark.parametrize("text", OVERSIZED_DUMPS.values(), ids=OVERSIZED_DUMPS.keys())
def test_load_rejects_dump_past_packed_fields(text):
    with pytest.raises(ValueError):
        load_certificate(text)


def test_load_keeps_largest_checkable_exponents():
    cert = load_certificate(_dump_fields(e=2**W - 1, unit_coeff=f"1*a0^{2**W - 3}"))
    assert not verify_symbolic(cert).ok
