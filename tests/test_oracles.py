"""Membership oracles: the exact modular one and the rule closure."""

from __future__ import annotations

from itertools import product

import pytest

import helpers
from nilcert import (
    IdealLabel,
    Indeterminate,
    RingHandle,
    generic_closure,
    generic_membership,
    mod_membership,
)
from nilcert.oracles import Derivation


def label(n: int, m: int, *names: str) -> IdealLabel:
    elems = [Indeterminate(name[0], int(name[1:])) for name in names]
    return IdealLabel.from_elements(n, m, elems)


def reference_closure(label: IdealLabel) -> dict[Indeterminate, Derivation]:
    """The rule closure as a plain fixed point: every round scans the
    a-family, then the b-family, admitting each element whose full premise
    tuple is already in."""
    n, m = label.n, label.m
    derivs = {gen: Derivation(gen, "generator", ()) for gen in label.generators()}
    changed = True
    while changed:
        changed = False
        for i in range(1, n + 1):
            element = Indeterminate.a(i)
            if element in derivs:
                continue
            premises = tuple(Indeterminate.b(q) for q in range(1, min(i, m) + 1))
            if all(p in derivs for p in premises):
                derivs[element] = Derivation(element, "relation", premises)
                changed = True
        for j in range(1, m + 1):
            element = Indeterminate.b(j)
            if element in derivs:
                continue
            premises = tuple(Indeterminate.a(p) for p in range(1, min(j, n) + 1))
            if all(p in derivs for p in premises):
                derivs[element] = Derivation(element, "relation", premises)
                changed = True
    return derivs


class TestModMembership:
    def test_six_generates_two_mod_eight(self):
        ring = RingHandle.mod(8)
        decision = mod_membership(ring, [6], 2)
        assert decision.member
        # brute force: (6) = {0, 2, 4, 6} in Z/8
        assert helpers.ideal_elements(8, (6,)) == frozenset({0, 2, 4, 6})

    def test_zero_ideal_contains_zero(self):
        decision = mod_membership(RingHandle.mod(8), [], 0)
        assert decision.member
        assert decision.witness == ()

    def test_zero_ideal_misses_nonzero(self):
        assert not mod_membership(RingHandle.mod(8), [], 4).member

    def test_four_does_not_generate_two(self):
        assert not mod_membership(RingHandle.mod(8), [4], 2).member
        assert helpers.ideal_elements(8, (4,)) == frozenset({0, 4})

    def test_requires_modular_ring(self):
        with pytest.raises(ValueError):
            mod_membership(RingHandle.integers(), [2], 4)

    def test_exhaustive_against_brute_force(self):
        """Decisions agree with ideal enumeration and witnesses reproduce r,
        for every modulus <= 30 and every generator set of size <= 2."""
        for n in range(2, 31):
            ring = RingHandle.mod(n)
            gen_sets = [()]
            gen_sets += [(g,) for g in range(n)]
            gen_sets += [(g1, g2) for g1 in range(n) for g2 in range(n)]
            for gens in gen_sets:
                ideal = helpers.ideal_elements(n, tuple(sorted(set(gens))))
                for r in range(n):
                    decision = mod_membership(ring, list(gens), r)
                    assert decision.member == (r in ideal), (n, gens, r)
                    if decision.member:
                        combo = sum(w * g for w, g in zip(decision.witness, gens)) % n
                        assert combo == r, (n, gens, r, decision.witness)


class TestGenericClosure:
    def test_b1_forces_everything(self):
        cl = generic_closure(label(2, 1, "b1"))
        assert set(cl) == {Indeterminate.a(1), Indeterminate.a(2), Indeterminate.b(1)}

    def test_a2_forces_nothing_else(self):
        cl = generic_closure(label(2, 1, "a2"))
        assert set(cl) == {Indeterminate.a(2)}

    def test_empty_premises_when_m_is_zero(self):
        cl = generic_closure(IdealLabel.root(3, 0))
        assert {Indeterminate.a(i) for i in (1, 2, 3)} <= set(cl)

    def test_closure_of_everything_is_everything(self):
        full = IdealLabel((1, 1), (1, 1, 1))
        assert set(generic_closure(full)) == set(full.generators())

    def test_derivations_are_well_founded(self):
        cl = generic_closure(label(3, 2, "b1", "b2"))
        order = {element: k for k, element in enumerate(cl)}
        for element, derivation in cl.items():
            for premise in derivation.premises:
                assert order[premise] < order[element]

    def test_monotone_and_idempotent(self):
        for n, m in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]:
            labels = [
                IdealLabel(a_bits, b_bits)
                for a_bits in product((0, 1), repeat=n)
                for b_bits in product((0, 1), repeat=m)
            ]
            for lab in labels:
                closed = set(generic_closure(lab))
                again = set(generic_closure(IdealLabel.from_elements(n, m, closed)))
                assert again == closed, lab
            for small in labels:
                for big in labels:
                    if small.issubset(big):
                        assert set(generic_closure(small)) <= set(generic_closure(big))

    def test_root_closure_full_iff_m_zero(self):
        for n in range(1, 5):
            for m in range(0, 4):
                cl = generic_closure(IdealLabel.root(n, m))
                all_a = {Indeterminate.a(i) for i in range(1, n + 1)}
                assert (all_a <= set(cl)) == (m == 0)

    def test_leaf_symmetry(self):
        """All a's are forced in exactly when all b's are, n, m >= 1."""
        for n in range(1, 8):
            for m in range(1, 8):
                if n + m > 8:
                    continue
                all_a = {Indeterminate.a(i) for i in range(1, n + 1)}
                all_b = {Indeterminate.b(j) for j in range(1, m + 1)}
                for a_bits in product((0, 1), repeat=n):
                    for b_bits in product((0, 1), repeat=m):
                        cl = set(generic_closure(IdealLabel(a_bits, b_bits)))
                        assert (all_a <= cl) == (all_b <= cl), (a_bits, b_bits)


    def test_matches_reference_fixed_point(self):
        """Same keys in the same admission order, with equal derivation
        records, for every label with n + m <= 8."""
        for n in range(1, 9):
            for m in range(0, 9 - n):
                for a_bits in product((0, 1), repeat=n):
                    for b_bits in product((0, 1), repeat=m):
                        lab = IdealLabel(a_bits, b_bits)
                        assert list(generic_closure(lab).items()) == list(
                            reference_closure(lab).items()
                        ), lab


class TestGenericMembership:
    def test_outside(self):
        assert not generic_membership(label(2, 1, "a2"), Indeterminate.a(1)).member

    def test_generator(self):
        assert generic_membership(label(2, 1, "a1", "a2"), Indeterminate.a(1)).member

    def test_via_rule(self):
        decision = generic_membership(label(2, 1, "a2", "b1"), Indeterminate.a(1))
        assert decision.member
        assert decision.witness is None


class TestIdealLabel:
    def test_render(self):
        assert label(2, 1, "a2", "b1").render() == "(01,1)"
        assert IdealLabel.root(1, 0).render() == "(0)"

    def test_meet_and_subset(self):
        k = label(2, 1, "a1", "a2")
        l = label(2, 1, "a2", "b1")
        parent = label(2, 1, "a2")
        assert k.meet(l) == parent
        assert parent.issubset(k) and parent.issubset(l)
        assert not k.issubset(l)

    def test_add(self):
        assert label(2, 1, "a2").add(Indeterminate.b(1)) == label(2, 1, "a2", "b1")

    def test_bad_bits(self):
        with pytest.raises(ValueError):
            IdealLabel((0, 2), ())
        for bad in (2, -1, 0.5):
            with pytest.raises(ValueError):
                IdealLabel((0, 1), (1, bad))
