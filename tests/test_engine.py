"""Digraph construction: convolution, the unit check, case analysis,
growth, exponents and structural metrics."""

from __future__ import annotations

import random
from itertools import product
from math import comb

import pytest

import helpers
from nilcert import (
    CaseTag,
    IdealLabel,
    InternalInconsistency,
    NotAUnit,
    ProblemInstance,
    avar,
    bvar,
    case_split,
    check_unit,
    mod_membership,
    convolution,
    emit_dot,
    grow_digraph,
    structural_metrics,
)
from nilcert.certificates import checked_exponents, relation_poly
from nilcert.engine import early_stop_cut

Indeterminate = helpers.Indeterminate


label = helpers.label


Z8_INSTANCE = ProblemInstance.concrete(8, [1, 2, 4], [1, 6])


class TestConvolution:
    def test_worked_example_mod8(self):
        # (1 + 2T + 4T^2)(1 + 6T) = 1 + 8T + 16T^2 + 24T^3 = 1 mod 8
        assert convolution((1, 2, 4), (1, 6), 8) == [1, 0, 0, 0]

    def test_constants(self):
        assert convolution((1,), (1,), 5) == [1]

    def test_generic_degree_one(self):
        c = [relation_poly(1, 1, k) for k in range(3)]
        assert c[0] == avar(0) * bvar(0)
        assert c[1] == avar(0) * bvar(1) + avar(1) * bvar(0)
        assert c[2] == avar(1) * bvar(1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            convolution((), (1,), 5)


class TestCheckUnit:
    def test_accepts_unit(self):
        check_unit([1, 0, 0, 0])

    def test_rejects_nonzero_tail(self):
        with pytest.raises(NotAUnit) as info:
            check_unit([1, 1])
        assert info.value.k == 1

    def test_rejects_bad_constant(self):
        with pytest.raises(NotAUnit) as info:
            check_unit([0])
        assert info.value.k == 0


class TestCaseTagChildren:
    def test_leaf_has_none(self):
        assert CaseTag.leaf().children(IdealLabel.root(2, 1)) == ()

    def test_branch_children_match_add(self):
        for n in range(1, 6):
            for m in range(1, 7 - n):
                for a_bits in product((0, 1), repeat=n):
                    for b_bits in product((0, 1), repeat=m):
                        lab = helpers.from_bits(a_bits, b_bits)
                        for i in range(1, n + 1):
                            for j in range(1, m + 1):
                                assert CaseTag.branch(i, j).children(lab) == (
                                    helpers.add(lab, Indeterminate.a(i)),
                                    helpers.add(lab, Indeterminate.b(j)),
                                ), (lab, i, j)

    @pytest.mark.parametrize("i, j", [(3, 1), (1, 2)])
    def test_out_of_range(self, i, j):
        with pytest.raises(ValueError):
            CaseTag.branch(i, j).children(IdealLabel.root(2, 1))


def _small_labels():
    """Every label with n, m <= 4."""
    return [lab for n in range(1, 5) for m in range(5) for lab in helpers.all_labels(n, m)]


class TestTupleSemantics:
    """Labels and case tags are tuples of their fields, built through the
    same checks as before."""

    def test_labels_built_apart_are_equal_and_hash_alike(self):
        for lab in _small_labels():
            again = IdealLabel(lab.n, lab.m, lab.a, lab.b)
            fields = (lab.n, lab.m, lab.a, lab.b)
            assert again == lab == fields and again is not lab
            assert hash(again) == hash(lab) == hash(fields)
            assert {again: 1}[lab] == 1
        assert CaseTag.branch(2, 1) == CaseTag(2, 1) == (2, 1)
        assert hash(CaseTag.leaf()) == hash(CaseTag()) == hash((None, None))

    def test_refusals(self):
        """Tags refuse a missing or nonpositive index, and _replace goes
        through the same checks (the label's own refusals are
        test_oracles' test_bad_bits, and its order test_order_is_render_order)."""
        with pytest.raises(ValueError):
            IdealLabel.root(2, 1)._replace(a=4)
        for i, j in ((1, None), (None, 1), (0, 1), (1, 0), (-1, 2)):
            with pytest.raises(ValueError):
                CaseTag(i, j)
        with pytest.raises(ValueError):
            CaseTag.branch(1, 1)._replace(j=None)
        assert IdealLabel.root(2, 1)._replace(a=3) == IdealLabel(2, 1, 3, 0)

    def test_children_equal_checked_construction(self):
        for lab in _small_labels():
            n, m, a, b = lab
            for i in range(1, n + 1):
                for j in range(1, m + 1):
                    children = CaseTag.branch(i, j).children(lab)
                    assert children == (
                        IdealLabel(n, m, a | lab.bit("a", i), b),
                        IdealLabel(n, m, a, b | lab.bit("b", j)),
                    ), (lab, i, j)
                    assert all(type(child) is IdealLabel for child in children)
            for i, j in ((n + 1, 1), (1, m + 1)):
                with pytest.raises(ValueError):
                    CaseTag.branch(i, j).children(lab)


class TestCaseSplit:
    def test_generic_root(self):
        assert case_split(IdealLabel.root(2, 1), ProblemInstance.generic(2, 1)) == (CaseTag.branch(2, 1), 0b00)

    def test_generic_interior(self):
        assert case_split(label(2, 1, "a2"), ProblemInstance.generic(2, 1)) == (CaseTag.branch(1, 1), 0b01)

    def test_generic_leaf(self):
        assert case_split(label(2, 1, "b1"), ProblemInstance.generic(2, 1)) == (CaseTag.leaf(), 0b11)

    def test_early_stop_leaf(self):
        # at (a2) the studied coefficient a2 is a generator, so early
        # stopping declares a leaf where the uniform run still branches
        lab = label(2, 1, "a2")
        instance = ProblemInstance.generic(2, 1)
        assert case_split(lab, instance, early_stop_target=2)[0].is_leaf
        assert not case_split(lab, instance)[0].is_leaf

    def test_concrete_matches_mod_membership(self):
        """Every label of every inverse pair over Z/N (N <= 12, degrees <=
        3), with and without early stopping, classified, and its closed
        a-bits given, as by per-coefficient mod_membership decisions."""

        def reference(lab, instance, early_stop_target):
            def value(ind):
                return instance.a[ind.index] if ind.kind == "a" else instance.b[ind.index]

            gens = [value(ind) for ind in helpers.generators(lab)]

            def member(ind):
                return mod_membership(instance.modulus, gens, value(ind)).member

            closed_a = helpers.pack([int(member(Indeterminate.a(i))) for i in range(1, instance.n + 1)])
            if early_stop_target is not None and member(Indeterminate.a(early_stop_target)):
                return CaseTag.leaf(), closed_a
            missing_a = [i for i in range(1, instance.n + 1) if not member(Indeterminate.a(i))]
            if not missing_a:
                return CaseTag.leaf(), closed_a
            missing_b = [j for j in range(1, instance.m + 1) if not member(Indeterminate.b(j))]
            return CaseTag.branch(max(missing_a), max(missing_b)), closed_a

        for modulus in range(2, 13):
            for f, g in helpers.unit_pairs(modulus, max_deg_f=3, max_deg_g=3):
                instance = ProblemInstance.concrete(modulus, f, g)
                for a_bits in product((0, 1), repeat=instance.n):
                    for b_bits in product((0, 1), repeat=instance.m):
                        lab = helpers.from_bits(a_bits, b_bits)
                        for stop in (None, *range(1, instance.n + 1)):
                            assert case_split(lab, instance, stop) == reference(
                                lab, instance, stop
                            ), (modulus, f, g, lab, stop)

    def test_generic_matches_closure(self):
        """Every bit pattern with n + m <= 8, reached by a digraph or not,
        with and without early stopping, classified, and its closed a-bits
        given, as by membership in the element-wise reference closure."""

        def reference(lab, early_stop_target):
            closure = helpers.reference_closure(lab)
            closed_a = helpers.pack([int(Indeterminate.a(i) in closure) for i in range(1, lab.n + 1)])
            if early_stop_target is not None and Indeterminate.a(early_stop_target) in closure:
                return CaseTag.leaf(), closed_a
            missing_a = [i for i in range(1, lab.n + 1) if Indeterminate.a(i) not in closure]
            if not missing_a:
                return CaseTag.leaf(), closed_a
            missing_b = [j for j in range(1, lab.m + 1) if Indeterminate.b(j) not in closure]
            return CaseTag.branch(max(missing_a), max(missing_b)), closed_a

        for n in range(1, 9):
            for m in range(0, 9 - n):
                instance = ProblemInstance.generic(n, m)
                for a_bits in product((0, 1), repeat=n):
                    for b_bits in product((0, 1), repeat=m):
                        lab = helpers.from_bits(a_bits, b_bits)
                        for stop in (None, *range(1, n + 1)):
                            assert case_split(lab, instance, stop) == reference(lab, stop), (lab, stop)

    @pytest.mark.parametrize("stop", [0, -1, 3])
    def test_early_stop_target_out_of_range(self, stop):
        with pytest.raises(ValueError):
            case_split(IdealLabel.root(2, 1), ProblemInstance.generic(2, 1), stop)

    def test_inconsistency_without_unit_condition(self):
        # f = 1 + T, g = 1 over Z/8 is not an inverse pair: a1 = 1 is
        # outside the zero ideal and there is no b to blame
        bogus = ProblemInstance.concrete(8, [1, 1], [1])
        with pytest.raises(InternalInconsistency):
            case_split(IdealLabel.root(1, 0), bogus)


class TestGrowDigraphGeneric:
    def test_worked_digraph_2_1(self):
        d = grow_digraph(ProblemInstance.generic(2, 1))
        expected_labels = {
            IdealLabel.root(2, 1),
            label(2, 1, "a2"),
            label(2, 1, "b1"),
            label(2, 1, "a1", "a2"),
            label(2, 1, "a2", "b1"),
        }
        assert set(d.nodes) == expected_labels
        assert set(d.edges()) == {
            (IdealLabel.root(2, 1), label(2, 1, "a2")),
            (IdealLabel.root(2, 1), label(2, 1, "b1")),
            (label(2, 1, "a2"), label(2, 1, "a1", "a2")),
            (label(2, 1, "a2"), label(2, 1, "a2", "b1")),
        }
        exponents = {lab: node.exponent for lab, node in d.nodes.items()}
        assert exponents[IdealLabel.root(2, 1)] == 3
        assert exponents[label(2, 1, "a2")] == 2
        assert all(
            exponents[lab] == 1
            for lab in (label(2, 1, "b1"), label(2, 1, "a1", "a2"), label(2, 1, "a2", "b1"))
        )

    def test_single_leaf_when_m_zero(self):
        d = grow_digraph(ProblemInstance.generic(1, 0))
        assert set(d.nodes) == {IdealLabel.root(1, 0)}
        assert d.nodes[d.root].tag.is_leaf

    def test_labels_strictly_grow(self):
        d = grow_digraph(ProblemInstance.generic(3, 3))
        for parent, child in d.edges():
            assert helpers.leq(parent, child) and parent != child

    def test_suffix_shaped_labels(self):
        for n, m in [(2, 1), (3, 2), (4, 3), (1, 4)]:
            d = grow_digraph(ProblemInstance.generic(n, m))
            for lab in d.nodes:
                for bits in (helpers.bits(lab.a, lab.n), helpers.bits(lab.b, lab.m)):
                    text = "".join(map(str, bits))
                    assert "10" not in text, lab

    def test_grid_children_of_suffix_labels(self):
        d = grow_digraph(ProblemInstance.generic(3, 2))
        for lab, node in d.nodes.items():
            if node.tag.is_leaf:
                continue
            k = lab.n - sum(helpers.bits(lab.a, lab.n))
            p = lab.m - sum(helpers.bits(lab.b, lab.m))
            assert node.tag == CaseTag.branch(k, p)

    def test_determinism(self):
        first = grow_digraph(ProblemInstance.generic(3, 2))
        second = grow_digraph(ProblemInstance.generic(3, 2))
        assert first.nodes == second.nodes
        assert emit_dot(first) == emit_dot(second)

    def test_early_stop_shrinks_tree_for_high_target(self):
        uniform = grow_digraph(ProblemInstance.generic(2, 1))
        stopped = grow_digraph(ProblemInstance.generic(2, 1), early_stop_target=2)
        assert len(stopped.nodes) < len(uniform.nodes)
        assert stopped.nodes[stopped.root].exponent <= uniform.nodes[uniform.root].exponent


class TestGrowDigraphConcrete:
    def test_worked_example_z8(self):
        d = grow_digraph(Z8_INSTANCE)
        assert set(d.nodes) == {
            IdealLabel.root(2, 1),
            label(2, 1, "a2"),
            label(2, 1, "b1"),
            label(2, 1, "a1", "a2"),
            label(2, 1, "a2", "b1"),
        }
        assert d.nodes[d.root].tag == CaseTag.branch(2, 1)
        assert d.nodes[label(2, 1, "a2")].tag == CaseTag.branch(1, 1)
        for leaf in (label(2, 1, "b1"), label(2, 1, "a1", "a2"), label(2, 1, "a2", "b1")):
            assert d.nodes[leaf].tag.is_leaf
        assert d.nodes[d.root].exponent == 3

    def test_case_tags_match_ideal_enumeration(self):
        """Cross-check every node's tag against brute-force ideals in Z/8."""
        d = grow_digraph(Z8_INSTANCE)
        values = {Indeterminate.a(1): 2, Indeterminate.a(2): 4, Indeterminate.b(1): 6}
        for lab, node in d.nodes.items():
            gens = tuple(sorted({values[g] for g in helpers.generators(lab)}))
            ideal = helpers.ideal_elements(8, gens)
            missing_a = [i for i in (1, 2) if values[Indeterminate.a(i)] not in ideal]
            if not missing_a:
                assert node.tag.is_leaf
            else:
                missing_b = [j for j in (1,) if values[Indeterminate.b(j)] not in ideal]
                assert node.tag == CaseTag.branch(max(missing_a), max(missing_b))

    def test_concrete_exponent_never_exceeds_generic(self):
        for modulus in range(2, 13):
            for f, g in helpers.unit_pairs(modulus):
                instance = ProblemInstance.concrete(modulus, f, g)
                d = grow_digraph(instance)
                concrete_e = d.nodes[d.root].exponent
                generic_e = helpers.grid_exponent(instance.n, instance.m)
                assert concrete_e <= generic_e, (modulus, f, g)


def _generic_digraphs():
    for n in range(1, 7):
        for m in range(0, 7 - n):
            yield grow_digraph(ProblemInstance.generic(n, m))
            for i0 in range(1, n + 1):
                yield grow_digraph(ProblemInstance.generic(n, m), early_stop_target=i0)


class TestPostOrder:
    """Digraph.nodes lists every child before its parent and the root last."""

    @staticmethod
    def assert_post_order(d):
        position = {lab: k for k, lab in enumerate(d.nodes)}
        assert list(d.nodes)[-1] == d.root
        for lab, node in d.nodes.items():
            assert all(position[child] < position[lab] for child in node.children), lab

    def test_generic_small_sweep(self):
        for d in _generic_digraphs():
            self.assert_post_order(d)

    def test_concrete_worked_example(self):
        self.assert_post_order(grow_digraph(Z8_INSTANCE))
        for i0 in range(1, Z8_INSTANCE.n + 1):
            self.assert_post_order(grow_digraph(Z8_INSTANCE, early_stop_target=i0))


class TestExponents:
    @staticmethod
    def root_exponent(n: int, m: int) -> int:
        d = grow_digraph(ProblemInstance.generic(n, m))
        return d.nodes[d.root].exponent

    def test_root_exponent_examples(self):
        assert self.root_exponent(2, 1) == 3
        assert self.root_exponent(1, 1) == 2

    def test_matches_grid_dp(self):
        for total in range(1, 9):
            for n in range(1, total + 1):
                m = total - n
                assert self.root_exponent(n, m) == helpers.grid_exponent(n, m), (n, m)

    def test_binomial_closed_form_observed(self):
        for n, m in [(2, 1), (3, 2), (2, 4)]:
            assert self.root_exponent(n, m) == comb(n + m, n)

    def test_early_stop_closed_form(self):
        """The early-stop proof of a_i0 has exponent binomial(n+m+1-i0, m),
        and the plain digraph binomial(n+m, n): an oracle independent of the
        grid DP, met by the grown early-stop digraph, the cut and the one
        checking walk over the plain digraph alike."""
        for n in range(1, 9):
            for m in range(0, 9):
                instance = ProblemInstance.generic(n, m)
                plain = grow_digraph(instance)
                assert plain.nodes[plain.root].exponent == comb(n + m, n), (n, m)
                expected = {i0: comb(n + m + 1 - i0, m) for i0 in range(1, n + 1)}
                assert checked_exponents(plain, *expected, early_stop=True) == expected, (n, m)
                for i0, exponent in expected.items():
                    grown = grow_digraph(instance, early_stop_target=i0)
                    cut = early_stop_cut(plain, i0)
                    assert grown.nodes[grown.root].exponent == exponent, (n, m, i0)
                    assert cut.nodes[cut.root].exponent == exponent, (n, m, i0)


class TestEarlyStopCut:
    """A target's cut of the plain digraph is its early-stop digraph, node
    for node and in the same post-order."""

    @staticmethod
    def assert_cuts_match(instance):
        plain = grow_digraph(instance)
        for i0 in range(1, instance.n + 1):
            grown = grow_digraph(instance, early_stop_target=i0)
            cut = early_stop_cut(plain, i0)
            assert list(cut.nodes.items()) == list(grown.nodes.items()), (instance, i0)
            assert cut.root == grown.root and (cut.n, cut.m, cut.generic) == (grown.n, grown.m, grown.generic)
            TestPostOrder.assert_post_order(cut)
            # Cutting the early-stop digraph for its own target changes nothing.
            assert list(early_stop_cut(grown, i0).nodes.items()) == list(grown.nodes.items())

    def test_every_generic_run_up_to_8(self):
        for total in range(1, 9):
            for n in range(1, total + 1):
                self.assert_cuts_match(ProblemInstance.generic(n, total - n))

    def test_concrete_worked_example(self):
        self.assert_cuts_match(Z8_INSTANCE)

    def test_random_concrete_pairs(self):
        rng = random.Random(20261019)
        for _ in range(200):
            modulus, f, g = helpers.random_inverse_pair(rng, rng.randint(1, 8))
            self.assert_cuts_match(ProblemInstance.concrete(modulus, f, g))

    def test_plain_leaves_stay_leaves(self):
        """Every plain leaf holds every a, so it ends every cut there."""
        plain = grow_digraph(ProblemInstance.generic(3, 3))
        for i0 in (1, 2, 3):
            cut = early_stop_cut(plain, i0)
            for lab, node in cut.nodes.items():
                if plain.nodes[lab].tag.is_leaf:
                    assert node == plain.nodes[lab]

    def test_refuses_another_targets_digraph_and_bad_targets(self):
        instance = ProblemInstance.generic(2, 2)
        # a2's early-stop digraph ends at leaves that a1 is not in.
        with pytest.raises(ValueError, match="a1 is not in the ideal"):
            early_stop_cut(grow_digraph(instance, early_stop_target=2), 1)
        for target in (0, 3):
            with pytest.raises(ValueError):
                early_stop_cut(grow_digraph(instance), target)


class TestStructuralMetrics:
    def test_worked_example(self):
        metrics = structural_metrics(grow_digraph(ProblemInstance.generic(2, 1)))
        assert metrics == {
            "height": 2,
            "shortest_path": 1,
            "vertex_count": 5,
            "leaf_count": 3,
            "tree_leaf_count": 3,
        }

    def test_vertex_count_formula(self):
        metrics = structural_metrics(grow_digraph(ProblemInstance.generic(3, 2)))
        assert metrics["vertex_count"] == 3 * 2 + 3 + 2

    def test_single_node(self):
        metrics = structural_metrics(grow_digraph(ProblemInstance.generic(1, 0)))
        assert metrics["height"] == 0
        assert metrics["vertex_count"] == 1
        assert metrics["tree_leaf_count"] == 1

    def test_bounds_small_sweep(self):
        for n in range(1, 5):
            for m in range(1, 5):
                metrics = structural_metrics(grow_digraph(ProblemInstance.generic(n, m)))
                assert metrics["height"] <= n + m - 1
                assert metrics["vertex_count"] == n * m + n + m
                assert metrics["tree_leaf_count"] <= 2 ** (n + m - 1)
                assert metrics["shortest_path"] <= min(n, m)


class TestProblemInstance:
    def test_concrete_reduces_coefficients(self):
        instance = ProblemInstance.concrete(8, [9, -6, 4], [1, 14])
        assert instance.a == (1, 2, 4)
        assert instance.b == (1, 6)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemInstance.generic(0, 1)
        with pytest.raises(ValueError):
            grow_digraph(ProblemInstance.generic(2, 1), early_stop_target=3)
        with pytest.raises(ValueError):
            ProblemInstance.concrete(8, [1], [1])
        for modulus in (1, 0, -4):
            with pytest.raises(ValueError):
                ProblemInstance.concrete(modulus, [1, 2], [1])
        with pytest.raises(ValueError):
            ProblemInstance(1, 0, modulus=1, a=(0, 0), b=(0,))
        with pytest.raises(ValueError):
            ProblemInstance(1, 0, modulus=8, a=(1, 8), b=(1,))
