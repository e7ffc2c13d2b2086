"""Membership oracles: the exact modular one and the rule closure."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from nilcert import IdealLabel, mod_membership
from nilcert.oracles import closure_bits

label = helpers.label


def closure(lab: IdealLabel) -> tuple[list[int], list[int]]:
    """closure_bits as one bit list per family, x_1's first."""
    a_in, b_in = closure_bits(lab)
    return helpers.bits(a_in, lab.n), helpers.bits(b_in, lab.m)


class TestModMembership:
    def test_six_generates_two_mod_eight(self):
        decision = mod_membership(8, [6], 2)
        assert decision.member
        # brute force: (6) = {0, 2, 4, 6} in Z/8
        assert helpers.ideal_elements(8, (6,)) == frozenset({0, 2, 4, 6})

    def test_zero_ideal_contains_zero(self):
        decision = mod_membership(8, [], 0)
        assert decision.member
        assert decision.witness == ()

    def test_zero_ideal_misses_nonzero(self):
        assert not mod_membership(8, [], 4).member

    def test_four_does_not_generate_two(self):
        assert not mod_membership(8, [4], 2).member
        assert helpers.ideal_elements(8, (4,)) == frozenset({0, 4})

    def test_requires_modular_ring(self):
        with pytest.raises(ValueError):
            mod_membership(1, [2], 4)

    def test_exhaustive_against_brute_force(self):
        """Decisions agree with ideal enumeration and witnesses reproduce r,
        for every modulus <= 30 and every generator set of size <= 2."""
        for n in range(2, 31):
            gen_sets = [()]
            gen_sets += [(g,) for g in range(n)]
            gen_sets += [(g1, g2) for g1 in range(n) for g2 in range(n)]
            for gens in gen_sets:
                ideal = helpers.ideal_elements(n, tuple(sorted(set(gens))))
                for r in range(n):
                    decision = mod_membership(n, list(gens), r)
                    assert decision.member == (r in ideal), (n, gens, r)
                    if decision.member:
                        combo = sum(w * g for w, g in zip(decision.witness, gens)) % n
                        assert combo == r, (n, gens, r, decision.witness)


class TestGenericClosure:
    """``closure_bits`` against the element-wise fixed point of helpers."""

    def test_b1_forces_everything(self):
        assert closure(label(2, 1, "b1")) == ([1, 1], [1])

    def test_a2_forces_nothing_else(self):
        assert closure(label(2, 1, "a2")) == ([0, 1], [0])

    def test_empty_premises_when_m_is_zero(self):
        assert closure(IdealLabel.root(3, 0)) == ([1, 1, 1], [])

    def test_closure_of_everything_is_everything(self):
        assert closure(helpers.from_bits((1, 1), (1, 1, 1))) == ([1, 1], [1, 1, 1])

    def test_monotone_and_idempotent(self):
        for n, m in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]:
            labels = helpers.all_labels(n, m)
            for lab in labels:
                closed = closure(lab)
                assert closure(helpers.from_bits(*closed)) == closed, lab
            for small in labels:
                for big in labels:
                    if helpers.leq(small, big):
                        (a_small, b_small), (a_big, b_big) = closure(small), closure(big)
                        assert helpers.leq(
                            helpers.from_bits(a_small, b_small), helpers.from_bits(a_big, b_big)
                        ), (small, big)

    def test_root_closure_full_iff_m_zero(self):
        for n in range(1, 5):
            for m in range(0, 4):
                a_in, _ = closure(IdealLabel.root(n, m))
                assert all(a_in) == (m == 0)

    def test_leaf_symmetry(self):
        """All a's are forced in exactly when all b's are, n, m >= 1."""
        for n in range(1, 8):
            for m in range(1, 8):
                if n + m > 8:
                    continue
                for a_bits in product((0, 1), repeat=n):
                    for b_bits in product((0, 1), repeat=m):
                        a_in, b_in = closure(helpers.from_bits(a_bits, b_bits))
                        assert all(a_in) == all(b_in), (a_bits, b_bits)

    def test_matches_reference_fixed_point(self):
        """Same bits as the element-wise fixed point, for every label with
        n + m <= 8."""
        for n in range(1, 9):
            for m in range(0, 9 - n):
                for a_bits in product((0, 1), repeat=n):
                    for b_bits in product((0, 1), repeat=m):
                        lab = helpers.from_bits(a_bits, b_bits)
                        assert closure(lab) == helpers.reference_closure_bits(lab), lab

    @given(st.data())
    @settings(deadline=None)
    def test_matches_reference_at_random_densities(self, data):
        """Sizes up to 200 + 200, each family with its own bit density."""
        rng = data.draw(st.randoms(use_true_random=False))
        bits = []
        for size in (data.draw(st.integers(1, 200)), data.draw(st.integers(0, 200))):
            density = data.draw(st.floats(0, 1))
            bits.append(tuple(int(rng.random() < density) for _ in range(size)))
        lab = helpers.from_bits(*bits)
        assert closure(lab) == helpers.reference_closure_bits(lab), lab

    def test_matches_reference_on_alternating_labels(self):
        """a = 0101.., b = 1010..: each round admits a bit or two, so the
        runs take about n rounds to stop growing."""
        for size in range(1, 61):
            for n, m in ((size, size), (size, size - 1), (size + 1, size)):
                lab = helpers.from_bits([k % 2 for k in range(n)], [1 - k % 2 for k in range(m)])
                assert closure(lab) == helpers.reference_closure_bits(lab), lab

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
    @settings(deadline=None)
    def test_matches_reference_at_m_zero(self, a_bits):
        lab = helpers.from_bits(a_bits, ())
        assert closure(lab) == helpers.reference_closure_bits(lab) == ([1] * len(a_bits), [])


class TestIdealLabel:
    def test_render(self):
        assert label(2, 1, "a2", "b1").render() == "(01,1)"
        assert IdealLabel.root(1, 0).render() == "(0)"

    def test_order_is_render_order(self):
        """Within one size, int order of the masks is the order of the
        rendered bit strings, which the DOT output is sorted by."""
        for total in range(1, 7):
            for n in range(1, total + 1):
                labels = helpers.all_labels(n, total - n)
                assert sorted(labels) == sorted(labels, key=IdealLabel.render), (n, total - n)

    def test_meet_and_subset(self):
        k = label(2, 1, "a1", "a2")
        l = label(2, 1, "a2", "b1")
        parent = label(2, 1, "a2")
        assert helpers.meet(k, l) == parent
        assert helpers.leq(parent, k) and helpers.leq(parent, l)
        assert not helpers.leq(k, l)

    def test_bad_bits(self):
        """A negative mask, or one of 1 << n (1 << m) or more, is refused,
        for every size with n + m <= 6; a mask that is no int raises too."""
        for total in range(1, 7):
            for n in range(1, total + 1):
                m = total - n
                for bad in (-1, -(1 << n), 1 << n, (1 << n + 1) - 1):
                    with pytest.raises(ValueError):
                        IdealLabel(n, m, bad, 0)
                for bad in (-1, -(1 << m) - 1, 1 << m, (1 << m + 1) - 1):
                    with pytest.raises(ValueError):
                        IdealLabel(n, m, (1 << n) - 1, bad)
        with pytest.raises(TypeError):
            IdealLabel(2, 1, 1, 0.5)
