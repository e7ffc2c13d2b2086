"""Witness construction, combination, extraction, verification and dumps.

Every identity claimed here is checked by full symbolic expansion: a
witness is accepted only when combination-side minus subject normalizes to
the empty term map.
"""

from __future__ import annotations

import dataclasses
import json
import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

import helpers
from nilcert import (
    UNIT_RELATION,
    CaseTag,
    IdealLabel,
    Indeterminate,
    MultiPoly,
    NilpotencyCertificate,
    NotInClosure,
    ProblemInstance,
    WitnessBuilder,
    avar,
    bvar,
    certificates,
    check_node_local,
    combine,
    dump_certificate,
    extract_certificate,
    gauss_product_witness,
    grow_digraph,
    load_certificate,
    power_check,
    verify_concrete,
    verify_symbolic,
)
from nilcert.certificates import (
    MembershipWitness,
    _expansion_minus,
    _identity_holds,
    certify,
    checked_exponents,
    local_witnesses,
    relation_poly,
)
from nilcert.engine import early_stop_cut
from nilcert.poly import FIELD_BITS, MAX_INDEX, _fields

A = Indeterminate.a
B = Indeterminate.b


label = helpers.label


def expansion(witness: MembershipWitness, n: int, m: int) -> MultiPoly:
    """The combination side of the witness identity, expanded in Z[a, b]
    with the relations of size (n, m)."""
    return _expansion_minus(witness, MultiPoly.zero(), n, m)


def gap(witness: MembershipWitness, subject: MultiPoly, n: int, m: int) -> MultiPoly:
    """Expansion minus the expected subject; the zero polynomial iff the
    witness holds for it at size (n, m)."""
    return _expansion_minus(witness, subject, n, m)


class TestMembershipWitness:
    def test_generator_case(self):
        w = WitnessBuilder(label(2, 1, "a2")).witness(A(2))
        assert w.gen_coeffs == {A(2): MultiPoly.one()}
        assert w.rel_coeffs == {}
        assert w.unit_coeff.is_zero
        assert gap(w, avar(2), 2, 1).is_zero

    def test_rule_case_expands_to_zero(self):
        # a1 enters the closure of (b1) through the degree-1 convolution
        w = WitnessBuilder(label(2, 1, "b1")).witness(A(1))
        assert gap(w, avar(1), 2, 1).is_zero
        assert set(w.gen_coeffs) == {B(1)}

    def test_empty_premise_sum_when_m_zero(self):
        w = WitnessBuilder(IdealLabel.root(1, 0)).witness(A(1))
        assert w.gen_coeffs == {}
        assert w.rel_coeffs == {1: avar(0)}
        assert w.unit_coeff == -avar(1)
        assert gap(w, avar(1), 1, 0).is_zero

    def test_not_in_closure(self):
        with pytest.raises(NotInClosure):
            WitnessBuilder(label(2, 1, "a2")).witness(A(1))

    def test_b_side_rule(self):
        w = WitnessBuilder(label(1, 2, "a1")).witness(B(2))
        assert gap(w, bvar(2), 1, 2).is_zero

    def test_every_closure_element_everywhere(self):
        from itertools import product

        for n, m in [(1, 1), (2, 1), (2, 2), (3, 1)]:
            for a_bits in product((0, 1), repeat=n):
                for b_bits in product((0, 1), repeat=m):
                    lab = helpers.from_bits(a_bits, b_bits)
                    builder = WitnessBuilder(lab)
                    for element in helpers.reference_closure(lab):
                        subject = MultiPoly.variable(element)
                        assert gap(builder.witness(element), subject, n, m).is_zero, (lab, element)

    def test_out_of_range_elements_not_in_closure(self):
        """a0, b0, a_{n+1} and b_{m+1} are never closure elements; index 0
        must not wrap round to the last bit."""
        for total in range(1, 5):
            for n in range(1, total + 1):
                for a_bits in product((0, 1), repeat=n):
                    for b_bits in product((0, 1), repeat=total - n):
                        builder = WitnessBuilder(helpers.from_bits(a_bits, b_bits))
                        for element in (A(0), B(0), A(n + 1), B(total - n + 1)):
                            with pytest.raises(NotInClosure):
                                builder.witness(element)


class TestGaussProductWitness:
    def test_root_top_product_is_one_relation(self):
        # at the root both correction sums are empty by maximality
        w = gauss_product_witness(2, 1, IdealLabel.root(2, 1))
        assert w.gen_coeffs == {}
        assert w.rel_coeffs == {3: MultiPoly.one()}
        assert w.unit_coeff.is_zero
        assert gap(w, avar(2) * bvar(1), 2, 1).is_zero

    def test_interior_product(self):
        # at (a2): a1*b1 = c2 - b0*a2 with a2 a generator
        w = gauss_product_witness(1, 1, label(2, 1, "a2"))
        assert w.rel_coeffs == {2: MultiPoly.one()}
        assert w.gen_coeffs == {A(2): -bvar(0)}
        assert gap(w, avar(1) * bvar(1), 2, 1).is_zero

    def test_degenerate_top_indices(self):
        w = gauss_product_witness(3, 2, label(3, 2, "a3"))
        assert w.rel_coeffs == {5: MultiPoly.one()}
        assert w.gen_coeffs == {} and w.unit_coeff.is_zero

    def test_correction_sums_expand_to_zero(self):
        # branch(1, 1) at a label where both correction sums are inhabited
        w = gauss_product_witness(1, 1, label(3, 3, "a2", "a3", "b2", "b3"))
        assert w.rel_coeffs == {2: MultiPoly.one()}
        assert w.gen_coeffs == {A(2): -bvar(0), B(2): -avar(0)}
        assert gap(w, avar(1) * bvar(1), 3, 3).is_zero

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gauss_product_witness(3, 1, IdealLabel.root(2, 1))


def weighted_sum(parts) -> MembershipWitness:
    """The witness of sum factor*subject over (factor, witness) parts, each
    coefficient added up with the MultiPoly operators; zero generator and
    relation coefficients are dropped."""
    gens, rels, unit = {}, {}, MultiPoly.zero()
    for factor, witness in parts:
        for d, coeff in witness.gen_coeffs.items():
            gens[d] = gens.get(d, MultiPoly.zero()) + factor * coeff
        for k, coeff in witness.rel_coeffs.items():
            rels[k] = rels.get(k, MultiPoly.zero()) + factor * coeff
        unit = unit + factor * witness.unit_coeff
    return MembershipWitness(
        {d: c for d, c in gens.items() if not c.is_zero}, {k: c for k, c in rels.items() if not c.is_zero}, unit
    )


class ReferenceWitnesses:
    """The element rule and the product correction sums as first written,
    before both became the one isolation identity of ``WitnessBuilder``.

    Element witnesses follow the premises of the reference closure:
    x_k = x0*c_k - x0 * sum_{y_q in premises} x_{k-q}*y_q - x_k*r0.
    Product witnesses remove the terms of c_{i+j} other than a_i*b_j by
    two correction sums, b-side first.
    """

    def __init__(self, lab: IdealLabel):
        self.label = lab
        self.admissions = helpers.reference_closure(lab)
        self.memo: dict = {}

    def element(self, element):
        admission = self.admissions.get(element)
        if admission is None:
            raise NotInClosure(str(element))
        if element not in self.memo:
            if admission.rule == "generator":
                built = MembershipWitness({element: MultiPoly.one()})
            else:
                var = avar if element.kind == "a" else bvar
                k = element.index
                parts = [(var(0), MembershipWitness(rel_coeffs={k: MultiPoly.one()}))]
                parts.append((-var(k), MembershipWitness(unit_coeff=MultiPoly.one())))
                for premise in admission.premises:
                    parts.append((-(var(0) * var(k - premise.index)), self.element(premise)))
                built = weighted_sum(parts)
            self.memo[element] = built
        return self.memo[element]

    def product(self, i, j):
        n, m = self.label.n, self.label.m
        if not (1 <= i <= n and 1 <= j <= m):
            raise ValueError(f"branch indices ({i},{j}) out of range")
        parts = [(MultiPoly.one(), MembershipWitness(rel_coeffs={i + j: MultiPoly.one()}))]
        parts += [(-avar(i + j - q), self.element(B(q))) for q in range(j + 1, min(i + j, m) + 1)]
        parts += [(-bvar(i + j - p), self.element(A(p))) for p in range(i + 1, min(i + j, n) + 1)]
        return weighted_sum(parts)


def _outcome(build):
    """The witness a call builds, or the class of the exception it raises."""
    try:
        return build()
    except (NotInClosure, ValueError) as exc:
        return type(exc)


def largest_exponent(p: MultiPoly) -> int:
    """The largest exponent in p, read field by field from its packed terms."""
    return max((max(_fields(mono), default=0) for mono in p._terms), default=0)


def bounds_hold(witness: MembershipWitness) -> bool:
    """Every coefficient's exponent bound is at least its largest exponent."""
    coefficients = [*witness.gen_coeffs.values(), *witness.rel_coeffs.values(), witness.unit_coeff]
    return all(c.exponent_bound >= largest_exponent(c) for c in coefficients)


def alternating(k: int) -> IdealLabel:
    """a = 0101..., b = 1010... at n = m = k: the closure admits a_1, b_2,
    a_3, ... in turn, each through the one before, so derivations run up
    to k deep."""
    return helpers.from_bits([i % 2 for i in range(k)], [(i + 1) % 2 for i in range(k)])


class TestIsolationMatchesReference:
    """Element and product witnesses equal the reference formulas in every
    field, bound their exponents, and hold for x_k and a_i*b_j at their
    label: for every label with n+m <= 6 (golden digests pin only roots),
    every label the digraphs of (4,4), (7,1), (1,7) and (10,10) reach, and
    the alternating labels up to n = m = 12.  Elements outside the closure
    and (i, j) outside 1..n x 1..m must raise the reference's exception."""

    LABELS = [
        helpers.from_bits(a_bits, b_bits)
        for total in range(1, 7)
        for n in range(1, total + 1)
        for a_bits in product((0, 1), repeat=n)
        for b_bits in product((0, 1), repeat=total - n)
    ]
    LABELS += [
        label
        for n, m in [(4, 4), (7, 1), (1, 7), (10, 10)]
        for label in grow_digraph(ProblemInstance.generic(n, m)).nodes
    ]
    LABELS += [alternating(k) for k in range(1, 13)]

    def test_element_witnesses(self):
        for lab in self.LABELS:
            builder, reference = WitnessBuilder(lab), ReferenceWitnesses(lab)
            elements = [A(i) for i in range(0, lab.n + 2)] + [B(j) for j in range(0, lab.m + 2)]
            for element in elements:
                expected = _outcome(lambda: reference.element(element))
                built = _outcome(lambda: builder.witness(element))
                assert built == expected, (lab, element)
                if isinstance(expected, MembershipWitness):
                    assert bounds_hold(built), (lab, element)
                    assert _identity_holds(expected, lab, MultiPoly.variable(element)), (lab, element)

    def test_product_witnesses(self):
        for lab in self.LABELS:
            reference = ReferenceWitnesses(lab)
            for i in range(0, lab.n + 2):
                for j in range(0, lab.m + 2):
                    expected = _outcome(lambda: reference.product(i, j))
                    built = _outcome(lambda: gauss_product_witness(i, j, lab))
                    assert built == expected, (lab, i, j)
                    if isinstance(expected, MembershipWitness):
                        assert bounds_hold(built), (lab, i, j)
                        assert _identity_holds(expected, lab, avar(i) * bvar(j)), (lab, i, j)


class TestCombine:
    def test_worked_interior_node(self):
        # children of (a2): witnesses of u at (a1,a2) and (a2,b1) merge
        # into a witness of u^2 at (a2), u = a1
        wk = WitnessBuilder(label(2, 1, "a1", "a2")).witness(A(1))
        wl = WitnessBuilder(label(2, 1, "a2", "b1")).witness(A(1))
        gp = gauss_product_witness(1, 1, label(2, 1, "a2"))
        parent = combine(wk, wl, gp, CaseTag.branch(1, 1), avar(1))
        assert _identity_holds(parent, label(2, 1, "a2"), avar(1) ** 2)

    def test_leaf_pair_sums_exponents(self):
        d = grow_digraph(ProblemInstance.generic(1, 1))
        cert = extract_certificate(d, 1)
        assert cert.exponent == 2

    def test_worked_interior_node_fields(self):
        wk = WitnessBuilder(label(2, 1, "a1", "a2")).witness(A(1))
        wl = WitnessBuilder(label(2, 1, "a2", "b1")).witness(A(1))
        parent = combine(wk, wl, gauss_product_witness(1, 1, label(2, 1, "a2")), CaseTag.branch(1, 1), avar(1))
        assert gap(parent, avar(1) ** 2, 2, 1).is_zero
        assert parent.gen_coeffs == {A(2): MultiPoly.parse("1*a0^2*b0")}
        assert parent.rel_coeffs == {1: MultiPoly.parse("1*a0*a1"), 2: MultiPoly.parse("-1*a0^2")}
        assert parent.unit_coeff == MultiPoly.parse("-1*a1^2")


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
                assert extract_certificate(d, i0).exponent == d.nodes[d.root].exponent

    def test_witness_soundness_at_every_node(self):
        """Every node of every digraph with n+m <= 7, every target: the
        witness that the per-label induction step builds there (the
        ``local_witnesses``/``node_witness`` steps of the label-poset run)
        expands to zero and its exponent matches the digraph's."""
        for total in range(1, 8):
            for n in range(1, total + 1):
                m = total - n
                instance = ProblemInstance.generic(n, m)
                d = grow_digraph(instance)
                for i0 in range(1, n + 1):
                    evidence, _ = helpers.nc_run_induction(instance, i0)
                    for lab in d.nodes:
                        exponent, witness = evidence[lab]
                        assert exponent == d.nodes[lab].exponent, (n, m, i0, lab)
                        assert _identity_holds(witness, lab, avar(i0) ** exponent), (n, m, i0, lab)

    def test_rejects_concrete_digraphs(self):
        d = grow_digraph(ProblemInstance.concrete(8, [1, 2, 4], [1, 6]))
        with pytest.raises(ValueError):
            extract_certificate(d, 1)

    def test_early_stop_certificates_still_verify(self):
        d = grow_digraph(ProblemInstance.generic(3, 2), early_stop_target=3)
        cert = extract_certificate(d, 3)
        assert verify_symbolic(cert).ok
        full = grow_digraph(ProblemInstance.generic(3, 2))
        assert cert.exponent <= full.nodes[full.root].exponent


def small_generic_runs(max_total: int = 5):
    """(digraph, i0) for every generic (n, m) with n+m <= max_total and
    every target: the shared digraph, and the target's early-stop one."""
    for total in range(1, max_total + 1):
        for n in range(1, total + 1):
            for i0 in range(1, n + 1):
                instance = ProblemInstance.generic(n, total - n)
                yield grow_digraph(instance), i0
                yield grow_digraph(instance, early_stop_target=i0), i0


def with_local(at: IdealLabel, change):
    """The witness source with each witness at label ``at`` passed
    through change."""

    def source(label, tag, targets):
        witnesses = local_witnesses(label, tag, targets)
        return [change(witness) for witness in witnesses] if label == at else witnesses

    return source


def with_list(at: IdealLabel, change):
    """The witness source with the list of witnesses at label ``at``
    passed through change."""

    def source(label, tag, targets):
        witnesses = local_witnesses(label, tag, targets)
        return change(witnesses) if label == at else witnesses

    return source


def with_node(digraph, at: IdealLabel, **fields):
    """A source of the digraph's own witnesses, after which its node at
    ``at`` has the given fields replaced: the claim changes, the witnesses
    do not."""
    tags = {label: node.tag for label, node in digraph.nodes.items()}
    digraph.nodes[at] = replace(digraph.nodes[at], **fields)
    return lambda label, tag, targets: local_witnesses(label, tags[label], targets)


def keeping_products(kept: dict):
    """The witness source, handing out the product witness of each branch
    label from ``kept``, where the first call stores it."""

    def source(label, tag, targets):
        if tag.is_leaf:
            return local_witnesses(label, tag, targets)
        return kept.setdefault(label, local_witnesses(label, tag, targets))

    return source


def fresh(digraph):
    return replace(digraph, nodes=dict(digraph.nodes))


class TestNodeLocalCheck:
    """check_node_local accepts every proof the builder makes and rejects
    each kind of tampering, on every generic run with n+m <= 5, plain and
    --early-stop, all targets.  A tampered witness comes from a witness
    source that stands in for ``local_witnesses``."""

    def test_accepts_every_unmodified_proof(self):
        for digraph, i0 in small_generic_runs():
            assert check_node_local(digraph, i0), (digraph.n, digraph.m, i0)

    def test_shared_proof_serves_every_target(self):
        digraph = grow_digraph(ProblemInstance.generic(3, 2))
        assert all(check_node_local(digraph, i0) for i0 in (1, 2, 3))
        assert check_node_local(digraph, 1, 2, 3)

    @pytest.mark.parametrize("targets", [(), (0,), (4,), (1, 4)])
    def test_refuses_a_missing_or_out_of_range_target(self, targets):
        digraph = grow_digraph(ProblemInstance.generic(3, 2))
        with pytest.raises(ValueError):
            check_node_local(digraph, *targets)

    def test_products_checked_once_per_proof(self, monkeypatch):
        """One call for three targets builds and expands each branch's
        product identity once and each leaf identity once per target."""
        digraph = grow_digraph(ProblemInstance.generic(3, 2))
        branches = sum(not node.tag.is_leaf for node in digraph.nodes.values())
        leaves = len(digraph.nodes) - branches
        expand, build = certificates._expansion_minus, certificates.gauss_product_witness
        subjects, built = Counter(), []
        monkeypatch.setattr(
            certificates, "_expansion_minus", lambda *args: subjects.update([args[1].render()]) or expand(*args)
        )
        monkeypatch.setattr(certificates, "gauss_product_witness", lambda *args: built.append(args) or build(*args))
        assert check_node_local(digraph, 1, 2, 3)
        expected = Counter(f"1*a{node.tag.i}*b{node.tag.j}" for node in digraph.nodes.values() if node.children)
        expected.update({f"1*a{i0}": leaves for i0 in (1, 2, 3)})
        assert subjects == expected
        assert subjects.total() == branches + 3 * leaves
        assert len(built) == branches

        # All three --early-stop proofs in one walk: each distinct branch
        # identity once, however many targets go on past it, and each
        # target's leaf identity once per leaf of its own cut.
        cuts = {i0: early_stop_cut(digraph, i0) for i0 in (1, 2, 3)}
        subjects.clear()
        built.clear()
        assert check_node_local(digraph, 1, 2, 3, early_stop=True)
        branch_nodes = {
            (label, node.tag) for cut in cuts.values() for label, node in cut.nodes.items() if node.children
        }
        assert sum(sum(bool(node.children) for node in cut.nodes.values()) for cut in cuts.values()) > len(branch_nodes)
        expected = Counter(f"1*a{tag.i}*b{tag.j}" for _, tag in branch_nodes)
        for i0, cut in cuts.items():
            expected.update({f"1*a{i0}": sum(not node.children for node in cut.nodes.values())})
        assert subjects == expected
        assert sorted(built) == sorted((tag.i, tag.j, label) for label, tag in branch_nodes)

    def test_a_false_shared_product_fails_every_order(self):
        """A corrupted product witness at a branch that several targets'
        --early-stop proofs share fails the check, whichever order the
        targets come in, and yields no certificate."""
        digraph = grow_digraph(ProblemInstance.generic(3, 3))
        cuts = {i0: early_stop_cut(digraph, i0) for i0 in (1, 2, 3)}
        sharing = Counter(label for cut in cuts.values() for label, node in cut.nodes.items() if node.children)
        shared = [label for label, count in sharing.items() if count > 1]
        assert shared
        bump = lambda witness: replace(witness, unit_coeff=witness.unit_coeff + MultiPoly.one())  # noqa: E731
        for at in shared:
            source = with_local(at, bump)
            for order in ((1, 2, 3), (3, 2, 1), (2, 3, 1)):
                assert check_node_local(digraph, *order, early_stop=True)
                assert not check_node_local(digraph, *order, early_stop=True, source=source), (at, order)

    def test_cuts_certify_as_their_early_stop_digraphs(self):
        """With early_stop, one walk over the plain digraph gives each
        target the exponent and root certificate of its own early-stop
        digraph."""
        instance = ProblemInstance.generic(3, 2)
        digraph = grow_digraph(instance)
        together = certify(digraph, 1, 2, 3, early_stop=True)
        alone = [extract_certificate(grow_digraph(instance, early_stop_target=i0), i0) for i0 in (1, 2, 3)]
        assert [(c.target_index, c.exponent) for c in together] == [(1, 10), (2, 6), (3, 3)]
        assert [c.root_witness for c in together] == [c.root_witness for c in alone]
        assert all(verify_symbolic(c).ok for c in together)
        assert checked_exponents(digraph, 3, 1, early_stop=True) == {3: 3, 1: 10}

    def test_rejects_a_cut_the_walk_does_not_meet(self):
        """The walk meets each label after its children, in the digraph's
        order; each target lies in 1..n, and the digraph must be generic."""
        digraph = grow_digraph(ProblemInstance.generic(2, 2))
        assert check_node_local(digraph, 1, 2, early_stop=True)
        # The order comes from the digraph: reversed, no child is met first.
        backwards = replace(digraph, nodes=dict(reversed(digraph.nodes.items())))
        assert not check_node_local(backwards, 1, 2, early_stop=True)
        with pytest.raises(ValueError):
            check_node_local(digraph, 3, early_stop=True)
        concrete = grow_digraph(ProblemInstance.concrete(8, [1, 2, 4], [1, 6]))
        with pytest.raises(ValueError):
            check_node_local(concrete, 1, early_stop=True)

    @pytest.mark.parametrize("malform", ["root tag out of range", "root node missing", "parents first"])
    @pytest.mark.parametrize("early_stop", [False, True])
    def test_refuses_a_malformed_digraph(self, malform, early_stop):
        """A root tag whose children do not exist, a root with no node, or
        nodes stored parents first fail the check and give no exponents
        and no certificate; none of them raises."""
        digraph = fresh(grow_digraph(ProblemInstance.generic(2, 1)))
        root = digraph.root
        if malform == "root tag out of range":
            digraph.nodes[root] = replace(digraph.nodes[root], tag=CaseTag.branch(5, 5))
        elif malform == "root node missing":
            del digraph.nodes[root]
        else:
            digraph = replace(digraph, nodes=dict(reversed(digraph.nodes.items())))
        assert check_node_local(digraph, 1, 2, early_stop=early_stop) is False
        assert checked_exponents(digraph, 1, 2, early_stop=early_stop) is None
        assert certify(digraph, 1, 2, early_stop=early_stop) is None

    @pytest.mark.parametrize("tamper", ["claims a target", "wider than n", "negative"])
    def test_rejects_tampered_closed_a_bits(self, tamper):
        """With early_stop the walk reads the stored closed a-bits to find
        where each target stops.  A bit that claims a_i0 where the label's
        closure lacks it, or closed bits that are no mask of n bits, fail
        the check and give no certificate; none raises."""
        digraph = grow_digraph(ProblemInstance.generic(3, 2))
        seen = 0
        for at, node in digraph.nodes.items():
            closed_bits = helpers.bits(node.closed_a, 3)
            missing = [i0 for i0 in (1, 2, 3) if not closed_bits[i0 - 1]]
            if not missing:
                continue
            if tamper == "wider than n":
                closed_a = node.closed_a | 1 << 3
            elif tamper == "negative":
                closed_a = node.closed_a - (1 << 3)
            else:
                closed_a = helpers.pack([1 if i0 == missing[0] else bit for i0, bit in enumerate(closed_bits, 1)])
            tampered = fresh(digraph)
            tampered.nodes[at] = replace(node, closed_a=closed_a)
            assert check_node_local(tampered, 1, 2, 3, early_stop=True) is False, at
            assert certify(tampered, 1, 2, 3, early_stop=True) is None, at
            # The plain check does not read the closed bits.
            assert check_node_local(tampered, 1, 2, 3)
            seen += 1
        assert seen > 5

    def test_early_stop_rejects_a_perturbed_coefficient(self):
        """Every witness of every target's --early-stop proof, perturbed
        once, fails the one walk over the plain digraph (n+m <= 5)."""
        one = MultiPoly.one()
        bump = lambda witness: replace(witness, unit_coeff=witness.unit_coeff + one)  # noqa: E731
        seen = 0
        for total in range(1, 6):
            for n in range(1, total + 1):
                digraph = grow_digraph(ProblemInstance.generic(n, total - n))
                targets = range(1, n + 1)
                reached = {label for i0 in targets for label in early_stop_cut(digraph, i0).nodes}
                for at in digraph.nodes:
                    verdict = check_node_local(digraph, *targets, early_stop=True, source=with_local(at, bump))
                    assert verdict is (at not in reached), (n, total - n, at)
                    seen += at in reached
        assert seen >= 80

    def test_a_product_witness_edited_in_place_is_checked_again(self):
        """The check keeps no verdict: after a passing check, a product
        witness that the source hands out again, made false in place,
        fails the next check."""
        digraph = grow_digraph(ProblemInstance.generic(3, 2))
        kept = {}
        source = keeping_products(kept)
        assert check_node_local(digraph, 1, source=source)
        assert len(kept) == sum(not node.tag.is_leaf for node in digraph.nodes.values())
        for at, (witness,) in kept.items():
            unit_coeff = witness.unit_coeff
            witness.unit_coeff = unit_coeff + MultiPoly.one()
            assert not check_node_local(digraph, 2, source=source), at
            witness.unit_coeff = unit_coeff
            assert check_node_local(digraph, 3, source=source), at

    def test_a_replaced_product_witness_is_checked_again(self):
        """A false witness put in after a passing check fails the next
        target."""
        digraph = grow_digraph(ProblemInstance.generic(3, 2))
        kept = {}
        source = keeping_products(kept)
        assert check_node_local(digraph, 1, source=source)
        for at, (witness,) in list(kept.items()):
            kept[at] = [replace(witness, unit_coeff=witness.unit_coeff + MultiPoly.one())]
            assert not check_node_local(digraph, 2, source=source), at
            kept[at] = [witness]
            assert check_node_local(digraph, 3, source=source), at

    def test_a_witness_is_its_coefficients(self):
        """A witness stores no subject and no label, so the check can only
        expand it against the ones it expects itself."""
        assert [f.name for f in dataclasses.fields(MembershipWitness)] == ["gen_coeffs", "rel_coeffs", "unit_coeff"]

    def test_rejects_a_perturbed_coefficient(self):
        def perturbations(witness):
            one = MultiPoly.one()
            for d, c in witness.gen_coeffs.items():
                yield replace(witness, gen_coeffs={**witness.gen_coeffs, d: c + one})
            for k, c in witness.rel_coeffs.items():
                yield replace(witness, rel_coeffs={**witness.rel_coeffs, k: c + one})
            yield replace(witness, unit_coeff=witness.unit_coeff + one)

        for digraph, i0 in small_generic_runs():
            for at, node in digraph.nodes.items():
                (witness,) = local_witnesses(at, node.tag, [i0])
                for mutated in perturbations(witness):
                    tampered = with_local(at, lambda _: mutated)
                    assert not check_node_local(digraph, i0, source=tampered), (digraph.n, digraph.m, i0, at)

    def test_rejects_the_witness_of_a_neighbouring_product(self):
        """A witness of a_i*b_(j-1), built where it exists (at label + b_j),
        in place of the branch's a_i*b_j."""
        seen = 0
        for digraph, i0 in small_generic_runs():
            for at, node in digraph.nodes.items():
                if node.tag.is_leaf:
                    continue
                i, j = node.tag.i, node.tag.j
                neighbour = WitnessBuilder(node.children[1]).isolate(i, j - 1)
                tampered = with_local(at, lambda _: neighbour)
                assert not check_node_local(digraph, i0, source=tampered), (digraph.n, digraph.m, i0, at)
                seen += 1
        assert seen > 100

    def test_rejects_the_leaf_witness_of_another_target(self):
        """Valid at the leaf, with the leaf's own generators, but for a
        different subject."""
        seen = 0
        for digraph, i0 in small_generic_runs():
            if digraph.n == 1:
                continue
            other = Indeterminate.a(i0 % digraph.n + 1)
            for at, node in digraph.nodes.items():
                if not node.tag.is_leaf:
                    continue
                try:
                    substitute = WitnessBuilder(at).witness(other)
                except NotInClosure:
                    continue
                tampered = with_local(at, lambda _: substitute)
                assert not check_node_local(digraph, i0, source=tampered), (digraph.n, digraph.m, i0, at)
                seen += 1
        assert seen > 50

    def test_rejects_a_generator_key_outside_the_label(self):
        """subject = 1 * subject holds as an identity; it proves nothing
        when the subject is not a generator of the label."""
        seen = 0
        for digraph, i0 in small_generic_runs():
            for at, node in digraph.nodes.items():
                tag = node.tag
                if tag.is_leaf:
                    key, coeff = Indeterminate.a(i0), MultiPoly.one()
                else:
                    key, coeff = Indeterminate.a(tag.i), bvar(tag.j)
                if helpers.leq(helpers.label(digraph.n, digraph.m, str(key)), at):
                    continue
                trivial = MembershipWitness({key: coeff})
                tampered = with_local(at, lambda _: trivial)
                assert not check_node_local(digraph, i0, source=tampered), (digraph.n, digraph.m, i0, at)
                seen += 1
        assert seen > 100

    def test_rejects_relation_c0(self):
        """u = u*c_0 - u*r0 holds, but c_0 = a0*b0 is 1, not 0, modulo the
        relations, so index 0 is refused."""
        digraph = grow_digraph(ProblemInstance.generic(2, 1))
        u = avar(1)
        leaf = next(label for label, node in digraph.nodes.items() if node.tag.is_leaf)
        c0_witness = MembershipWitness(rel_coeffs={0: u}, unit_coeff=-u)
        assert expansion(c0_witness, 2, 1) == u
        assert not check_node_local(digraph, 1, source=with_local(leaf, lambda _: c0_witness))

    def test_rejects_an_altered_child_or_tag(self):
        for digraph, i0 in small_generic_runs():
            n, m = digraph.n, digraph.m
            for at, node in digraph.nodes.items():
                tags = [CaseTag.leaf()] + [
                    CaseTag.branch(i, j) for i in range(1, n + 1) for j in range(1, m + 1)
                ]
                for tag in tags:
                    if tag == node.tag:
                        continue
                    # The tag alone, then the tag with its own children.
                    for children in (node.children, tag.children(at)):
                        d = fresh(digraph)
                        source = with_node(d, at, tag=tag, children=children)
                        assert not check_node_local(d, i0, source=source), (n, m, i0, at, tag)
                if node.children:
                    left, right = node.children
                    for children in ((right, left), (left, left), (left,), ()):
                        d = fresh(digraph)
                        source = with_node(d, at, children=children)
                        assert not check_node_local(d, i0, source=source), (n, m, i0, at, children)

    def test_rejects_an_exponent_off_by_one(self):
        for digraph, i0 in small_generic_runs():
            for at, node in digraph.nodes.items():
                for delta in (-1, 1):
                    d = fresh(digraph)
                    source = with_node(d, at, exponent=node.exponent + delta)
                    assert not check_node_local(d, i0, source=source), (digraph.n, digraph.m, i0, at, delta)

    def test_rejects_a_nonempty_root_and_unchecked_children(self):
        digraph = grow_digraph(ProblemInstance.generic(3, 2))
        child = digraph.nodes[digraph.root].children[0]
        leaf = next(label for label, node in digraph.nodes.items() if node.tag.is_leaf)
        assert not check_node_local(replace(digraph, root=child), 1)
        assert not check_node_local(replace(digraph, nodes=dict(reversed(digraph.nodes.items()))), 1)
        # A parent may not count a leaf that is never checked.
        assert not check_node_local(replace(digraph, nodes={k: v for k, v in digraph.nodes.items() if k != leaf}), 1)

    def test_rejects_a_missing_witness(self):
        digraph = grow_digraph(ProblemInstance.generic(2, 2), early_stop_target=2)
        # a1 is not in the closure at every leaf of a2's early-stop digraph.
        assert not check_node_local(digraph, 1)
        assert check_node_local(digraph, 2)
        assert not check_node_local(digraph, 2, 1)
        # A failed check has one outcome: no certificate, never NotInClosure.
        assert certify(digraph, 2, 1) is None
        with pytest.raises(ValueError):
            extract_certificate(digraph, 1)

    def test_extraction_combines_the_checked_witnesses(self):
        """One walk for three targets checks each node's witnesses and
        combines the root certificate of each target, equal to the one
        extracted for that target alone."""
        digraph = grow_digraph(ProblemInstance.generic(3, 2))
        alone = [extract_certificate(digraph, i0) for i0 in (1, 2, 3)]
        together = certify(digraph, 1, 2, 3)
        assert [cert.target_index for cert in together] == [1, 2, 3]
        assert [cert.root_witness for cert in together] == [cert.root_witness for cert in alone]
        assert all(cert.exponent == digraph.nodes[digraph.root].exponent for cert in together)
        # Nothing is combined from a proof that fails its check.
        tampered = fresh(digraph)
        tampered.nodes[digraph.root] = replace(digraph.nodes[digraph.root], exponent=digraph.nodes[digraph.root].exponent + 1)
        assert certify(tampered, 1, 2, 3) is None
        with pytest.raises(ValueError):
            extract_certificate(tampered, 1)


SCALE_RUNS = {(n, m): grow_digraph(ProblemInstance.generic(n, m)) for n, m in [(4, 3), (10, 10)]}


def bumped(kind: str):
    """The witness with one coefficient of the given kind raised by 1:
    its first generator or relation coefficient, or the unit coefficient."""
    one = MultiPoly.one()

    def change(witness: MembershipWitness) -> MembershipWitness:
        if kind == "unit":
            return replace(witness, unit_coeff=witness.unit_coeff + one)
        field = "gen_coeffs" if kind == "gen" else "rel_coeffs"
        coeffs = dict(getattr(witness, field))
        key = next(iter(coeffs))
        coeffs[key] = coeffs[key] + one
        return replace(witness, **{field: coeffs})

    return change


def proof_node(digraph, target: int, early_stop: bool, location: str, kind: str) -> IdealLabel:
    """The first label of the target's proof, children first, where the
    proof ends ("leaf") or goes on ("branch"), whose own witness there has
    a coefficient of the kind to perturb; every witness has a unit
    coefficient, if only 0."""
    proof = early_stop_cut(digraph, target) if early_stop else digraph
    for at, node in proof.nodes.items():
        if node.tag.is_leaf == (location == "leaf"):
            (witness,) = local_witnesses(at, node.tag, [target])
            if kind not in ("gen", "rel") or (witness.gen_coeffs if kind == "gen" else witness.rel_coeffs):
                return at
    raise AssertionError(f"no {location} whose witness has a {kind} coefficient")


class TestSoundnessAtScale:
    """A false node-local identity fails the check at n+m >= 7 as well:
    one perturbed generator, relation or unit coefficient at a leaf or a
    branch of the (4,3) and (10,10) proofs, plain and --early-stop, and a
    source that gives one witness too few or one too many there.  Each
    makes ``check_node_local`` false and ``certify`` give None."""

    @pytest.mark.parametrize("location", ["leaf", "branch"])
    @pytest.mark.parametrize("early_stop", [False, True], ids=["plain", "early-stop"])
    @pytest.mark.parametrize("size", list(SCALE_RUNS), ids=lambda size: f"{size[0]}x{size[1]}")
    def test_a_false_node_fails(self, monkeypatch, size, early_stop, location):
        digraph, target = SCALE_RUNS[size], 2
        assert check_node_local(digraph, target, early_stop=early_stop)
        sources = {kind: lambda at, kind=kind: with_local(at, bumped(kind)) for kind in ("gen", "rel", "unit")}
        sources["one too few"] = lambda at: with_list(at, lambda witnesses: witnesses[:-1])
        sources["one too many"] = lambda at: with_list(at, lambda witnesses: witnesses + witnesses[:1])
        for kind, make in sources.items():
            at = proof_node(digraph, target, early_stop, location, kind)
            source = make(at)
            assert not check_node_local(digraph, target, early_stop=early_stop, source=source), (kind, at)
            monkeypatch.setattr(certificates, "local_witnesses", source)
            assert certify(digraph, target, early_stop=early_stop) is None, (kind, at)
            monkeypatch.undo()


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
            monos = sorted(helpers.reference_terms(poly), key=str) + [()]
            bump = helpers.reference_poly({rng.choice(monos): 1})
            if slot == "unit":
                witness.unit_coeff = witness.unit_coeff + bump
            else:
                witness.rel_coeffs[slot] = poly + bump
            assert not verify_symbolic(cert).ok

    def test_rejects_generator_coefficients(self):
        w = WitnessBuilder(label(2, 1, "b1")).witness(A(1))
        from nilcert import NilpotencyCertificate

        bogus = NilpotencyCertificate(2, 1, 1, 1, w)
        with pytest.raises(ValueError):
            verify_symbolic(bogus)

    def test_rejects_witness_of_another_size(self):
        """The relations are those of the certificate's (n, m), so a root
        witness built at another size fails the expansion."""
        from nilcert import NilpotencyCertificate

        cert = extract_certificate(grow_digraph(ProblemInstance.generic(2, 1)), 1)
        bogus = NilpotencyCertificate(3, 1, 1, cert.exponent, cert.root_witness)
        assert verify_symbolic(bogus).ok is False


def operator_expansion(witness: MembershipWitness, n: int, m: int) -> MultiPoly:
    """sum c*x_d + sum c*c_k + u*r0, built with the MultiPoly operators,
    with c_k the relations of size (n, m)."""
    total = witness.unit_coeff * UNIT_RELATION
    for d, coeff in witness.gen_coeffs.items():
        total = total + coeff * MultiPoly.variable(d)
    for k, coeff in witness.rel_coeffs.items():
        total = total + coeff * relation_poly(n, m, k)
    return total


def random_poly(rng: random.Random, n: int, m: int) -> MultiPoly:
    names = [A(i) for i in range(n + 1)] + [B(j) for j in range(m + 1)]
    terms = {}
    for _ in range(rng.randrange(0, 6)):
        factors = rng.sample(names, rng.randrange(0, 4))
        terms[tuple(sorted((ind, rng.randrange(1, 4)) for ind in factors))] = rng.randrange(-3, 4)
    return helpers.reference_poly(terms)


class TestFusedExpansion:
    """The expansion of ``verify_symbolic`` and the node-local check adds
    every product into one sum; the reference adds polynomials built by the
    operators."""

    def test_random_witnesses(self):
        rng = random.Random(20261018)
        for _ in range(300):
            n, m = rng.randrange(1, 5), rng.randrange(0, 4)
            generators = [A(i) for i in range(1, n + 1)] + [B(j) for j in range(1, m + 1)]
            gens = rng.sample(generators, rng.randrange(0, min(3, len(generators)) + 1))
            rels = rng.sample(range(1, n + m + 1), rng.randrange(0, n + m + 1))
            subject = random_poly(rng, n, m)
            witness = MembershipWitness(
                gen_coeffs={d: random_poly(rng, n, m) for d in gens},
                rel_coeffs={k: random_poly(rng, n, m) for k in rels},
                unit_coeff=random_poly(rng, n, m),
            )
            assert expansion(witness, n, m) == operator_expansion(witness, n, m)
            assert gap(witness, subject, n, m) == operator_expansion(witness, n, m) - subject

    def test_cancelling_terms_leave_no_zero_coefficients(self):
        witness = MembershipWitness(rel_coeffs={1: bvar(0)}, unit_coeff=-bvar(1))
        # b0*(a0*b1 + a1*b0) - b1*(a0*b0 - 1) = a1*b0^2 + b1
        assert expansion(witness, 1, 1) == avar(1) * bvar(0) ** 2 + bvar(1)

    def test_overflow_guard_kept(self):
        big = avar(0) ** (2**FIELD_BITS - 2)
        for fields in ({"rel_coeffs": {1: big}}, {"unit_coeff": big}):
            witness = MembershipWitness(**fields)
            with pytest.raises(OverflowError):
                expansion(witness, 2, 1)
            with pytest.raises(OverflowError):
                verify_symbolic(NilpotencyCertificate(2, 1, 1, 1, witness))

    def test_overflow_guard_on_generator_coefficients(self):
        """A generator's factor has exponent bound 1: a coefficient whose
        bound is 2**FIELD_BITS - 2 expands as the operators do, filling a
        field to its top, and one more overflows instead of carrying."""
        fits = MembershipWitness({A(1): avar(1) ** (2**FIELD_BITS - 2)})
        assert expansion(fits, 2, 1) == operator_expansion(fits, 2, 1) == avar(1) ** (2**FIELD_BITS - 1)
        over = MembershipWitness({A(1): avar(1) ** (2**FIELD_BITS - 1)})
        with pytest.raises(OverflowError):
            expansion(over, 2, 1)

    def test_mutated_dump_difference(self):
        cert = extract_certificate(grow_digraph(ProblemInstance.generic(3, 3)), 2)
        doc = json.loads(dump_certificate(cert))
        bump = 5 * avar(1) ** 2 * bvar(0)
        doc["rel_coeffs"]["3"] = (MultiPoly.parse(doc["rel_coeffs"]["3"]) + bump).render()
        loaded = load_certificate(json.dumps(doc))
        check = verify_symbolic(loaded)
        assert not check.ok
        assert check.diff == operator_expansion(loaded.root_witness, 3, 3) - avar(2) ** loaded.exponent
        assert check.diff == bump * relation_poly(3, 3, 3)


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

    @pytest.mark.parametrize("f", [[1, 3], [1, 2, 4]], ids=["invertible u", "non-invertible u"])
    def test_refuses_a_negative_exponent(self, f):
        """pow(u, -1, N) is the inverse of an invertible u and Python's own
        error for any other; neither is a power of u."""
        with pytest.raises(ValueError, match="exponent must be >= 0"):
            power_check(ProblemInstance.concrete(8, f, [1]), 1, -1)

    @pytest.mark.parametrize("target_index", [0, -1, 3])
    def test_refuses_a_target_outside_1_to_n(self, target_index):
        """a_0 is the unit and -1 would wrap round to a_n; neither, nor
        a_(n+1), is a nonconstant coefficient of f."""
        instance = ProblemInstance.concrete(8, [1, 2, 4], [1, 6])
        with pytest.raises(ValueError):
            power_check(instance, target_index, 3)

    def test_huge_exponent_returns_at_once(self):
        """u = 1 never dies in Z/6; the scan for a minimal exponent stops
        at the bit length of the modulus, not at e."""
        check = power_check(ProblemInstance.concrete(6, [1, 1], [1]), 1, 2**32 - 1)
        assert (check.ok, check.minimal_exponent) == (False, None)

    def test_minimal_exponent_matches_a_full_scan(self):
        """Every u modulo every N <= 64, every exponent up to N + 1."""
        for modulus in range(2, 65):
            for u in range(modulus):
                instance = ProblemInstance.concrete(modulus, [1, u], [1])
                least = next((e for e in range(1, modulus + 2) if pow(u, e, modulus) == 0), None)
                for exponent in range(modulus + 2):
                    full = least if least is not None and least <= exponent else None
                    got = power_check(instance, 1, exponent).minimal_exponent
                    assert got == full, (modulus, u, exponent)

    def test_refuses_a_generic_instance(self):
        instance = ProblemInstance.generic(2, 1)
        with pytest.raises(ValueError):
            power_check(instance, 1, 3)
        with pytest.raises(ValueError):
            verify_concrete(extract_certificate(grow_digraph(instance), 1), instance)

    def test_dimension_mismatch(self):
        instance = ProblemInstance.concrete(8, [1, 2, 4], [1, 6])
        d = grow_digraph(ProblemInstance.generic(1, 1))
        with pytest.raises(ValueError):
            verify_concrete(extract_certificate(d, 1), instance)

    def test_specialized_expansion_vanishes(self):
        """Evaluating the full right-hand side at the Z/8 coefficients gives
        the same value as u^e, namely zero (homomorphism argument)."""
        instance = ProblemInstance.concrete(8, [1, 2, 4], [1, 6])
        assignment = helpers.assignment(instance.a, instance.b)
        modulus = instance.modulus

        def evaluate(p: MultiPoly) -> int:
            return helpers.reference_evaluate(p, assignment, modulus)

        d = grow_digraph(ProblemInstance.generic(2, 1))
        for i0 in (1, 2):
            cert = extract_certificate(d, i0)
            witness = cert.root_witness
            total = 0
            for k, coeff in witness.rel_coeffs.items():
                c_k = relation_poly(2, 1, k)
                total = (total + evaluate(coeff) * evaluate(c_k)) % modulus
            total = (total + evaluate(witness.unit_coeff) * evaluate(UNIT_RELATION)) % modulus
            assert total == 0
            assert evaluate(avar(i0) ** cert.exponent) == 0

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


_VALID = extract_certificate(grow_digraph(ProblemInstance.generic(2, 1)), 1)

OUT_OF_RANGE = {
    # u = u*c_0 - u*r0 expands exactly (see test_rejects_relation_c0), but
    # c_0 = a0*b0 is 1, not 0, modulo the relations: this claims a1 = 0.
    "relation c_0": NilpotencyCertificate(2, 1, 1, 1, MembershipWitness(rel_coeffs={0: avar(1)}, unit_coeff=-avar(1))),
    "e = 0": replace(_VALID, exponent=0),
    "i0 = 0": replace(_VALID, target_index=0),
    "i0 = n + 1": replace(_VALID, target_index=3),
}


@pytest.mark.parametrize("certificate", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_verify_and_dump_refuse_what_load_refuses(certificate):
    with pytest.raises(ValueError):
        verify_symbolic(certificate)
    with pytest.raises(ValueError):
        dump_certificate(certificate)


def _dump_fields(*drop, **changes):
    """A valid (2, 1) dump with keys dropped or replaced."""
    doc = json.loads(dump_certificate(extract_certificate(grow_digraph(ProblemInstance.generic(2, 1)), 1)))
    for key in drop:
        del doc[key]
    doc.update(changes)
    return json.dumps(doc)


_VALID_REL = json.loads(_dump_fields())["rel_coeffs"]

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
    "rel keys 1 and 01": _dump_fields(rel_coeffs={**_VALID_REL, "01": "1*a0"}),
    "rel key 01": _dump_fields(rel_coeffs={"01": "1*a0"}),
    "rel key with a space": _dump_fields(rel_coeffs={" 1": "1*a0"}),
    "rel key with a plus sign": _dump_fields(rel_coeffs={"+1": "1*a0"}),
    "repeated top-level key": _dump_fields()[:-1] + ', "e": 3}',
    "repeated rel key": _dump_fields().replace('"rel_coeffs": {', '"rel_coeffs": {"1": "1*a0", '),
    "deeply nested array": "[" * 100_000 + "]" * 100_000,
    "deeply nested object": '{"a": ' * 100_000 + "1" + "}" * 100_000,
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


def test_verify_expands_only_the_relations_a_dump_names():
    cert = load_certificate(_dump_fields(n=MAX_INDEX, m=MAX_INDEX, rel_coeffs={}))
    before = relation_poly.cache_info()
    assert not verify_symbolic(cert).ok
    after = relation_poly.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert after.maxsize is not None


@pytest.mark.parametrize("k", [4, -1])
def test_relation_poly_refuses_an_index_outside_0_to_n_plus_m(k):
    with pytest.raises(ValueError):
        relation_poly(2, 1, k)
