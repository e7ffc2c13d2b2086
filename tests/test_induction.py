"""The poset runner, the strong primality test, radicals, the prime
decomposition over Z/n, the key-lemma checker and the label-poset
cross-validation."""

from __future__ import annotations

from math import isqrt, lcm

import pytest

import helpers
from nilcert import (
    BadInput,
    CompositeWitness,
    FinitePoset,
    Holds,
    Indeterminate,
    NotReducible,
    PrimeIdeal,
    ProblemInstance,
    Reduce,
    UnitIdeal,
    avar,
    check_key_lemma,
    extract_certificate,
    grow_digraph,
    label_poset,
    ln_decompose,
    nc_run_induction,
    radical_ideal_poset,
    radical_modn,
    run_induction,
    spt_modn,
)
from nilcert import induction
from nilcert.certificates import _expansion_minus
from nilcert.induction import _ideal_elements, _radical_of_ideal


class TestRunInduction:
    def test_singleton_holds(self):
        poset = FinitePoset(("x",), leq=lambda a, b: a == b, meet=lambda a, b: a)
        result = run_induction(poset, lambda x: Holds("done"), lambda *args: None)
        assert result == {"x": "done"}

    def test_chain_reduction(self):
        # 0 is the meet of 1 and 2 in the poset {0, 1, 2} ordered by
        # divisibility-style inclusion 0 <= 1, 0 <= 2
        elements = (0, 1, 2)

        def leq(x, y):
            return x == y or x == 0

        def meet(y, z):
            return y if y == z else 0

        def goodness(x):
            return Reduce(1, 2) if x == 0 else Holds({x})

        def merge(x, y, z, ev_y, ev_z):
            return ev_y | ev_z

        result = run_induction(FinitePoset(elements, leq, meet), goodness, merge)
        assert result[0] == {1, 2}

    def test_not_reducible_on_meet_mismatch(self):
        elements = (0, 1)
        poset = FinitePoset(elements, leq=lambda x, y: x <= y, meet=lambda y, z: max(y, z))

        def goodness(x):
            return Reduce(1, 1) if x == 0 else Holds(None)

        with pytest.raises(NotReducible):
            run_induction(poset, goodness, lambda *a: None)

    def test_not_reducible_on_non_strict_component(self):
        poset = FinitePoset((0, 1), leq=lambda x, y: x <= y, meet=min)

        def goodness(x):
            return Reduce(0, 1) if x == 0 else Holds(None)

        with pytest.raises(NotReducible):
            run_induction(poset, goodness, lambda *a: None)


class TestSpt:
    def test_unit(self):
        assert spt_modn(12, 1) == UnitIdeal()

    def test_prime(self):
        assert spt_modn(12, 2) == PrimeIdeal()

    def test_composite_witness(self):
        assert spt_modn(12, 12) == CompositeWitness(4, 3)

    def test_prime_power_witness(self):
        assert spt_modn(8, 8) == CompositeWitness(4, 2)

    def test_bad_input(self):
        with pytest.raises(BadInput):
            spt_modn(12, 5)

    def test_witness_conditions_exhaustive(self):
        """For every n <= 30 and d | n, a composite witness satisfies
        x*y in (d), x not in (d), y not in (d)."""
        for n in range(2, 31):
            for d in range(1, n + 1):
                if n % d:
                    continue
                outcome = spt_modn(n, d)
                if isinstance(outcome, UnitIdeal):
                    assert d == 1
                elif isinstance(outcome, PrimeIdeal):
                    ideal = helpers.ideal_elements(n, (d % n,))
                    for a in range(n):
                        for b in range(n):
                            if (a * b) % n in ideal:
                                assert a in ideal or b in ideal, (n, d, a, b)
                else:
                    ideal = helpers.ideal_elements(n, (d % n,))
                    assert (outcome.x * outcome.y) % n in ideal
                    assert outcome.x % n not in ideal
                    assert outcome.y % n not in ideal


class TestRadical:
    def test_zero_ideal_mod8(self):
        assert radical_modn(8, 8) == 2

    def test_interior_ideal_mod8(self):
        assert radical_modn(8, 4) == 2
        assert helpers.radical_elements(8, (4,)) == frozenset({0, 2, 4, 6})

    def test_zero_ideal_mod12(self):
        assert radical_modn(12, 12) == 6
        assert helpers.radical_elements(12, (0,)) == helpers.ideal_elements(12, (6,))

    def test_unit_ideal(self):
        assert radical_modn(12, 1) == 1

    def test_bad_input(self):
        with pytest.raises(BadInput):
            radical_modn(12, 7)

    def test_against_brute_force(self):
        for n in range(2, 41):
            for d in range(1, n + 1):
                if n % d:
                    continue
                r = radical_modn(n, d)
                assert helpers.radical_elements(n, (d % n,)) == helpers.ideal_elements(n, (r % n,))


class TestModIdeal:
    """Radical ideals of Z/n given by their generators: the order and meet
    of radical_ideal_poset."""

    def test_order(self):
        leq = radical_ideal_poset(12).leq
        assert leq(12, 6)
        assert not leq(6, 4)

    @pytest.mark.parametrize("modulus", [12, 16, 30, 2310, 999983])
    def test_radical_poset_laws(self, modulus):
        poset = radical_ideal_poset(modulus)
        for x in poset.elements:
            assert poset.leq(x, x)
            for y in poset.elements:
                if poset.leq(x, y) and poset.leq(y, x):
                    assert x == y
                for z in poset.elements:
                    if poset.leq(x, y) and poset.leq(y, z):
                        assert poset.leq(x, z)
                meet = poset.meet(y, x)
                assert meet in poset.elements
                assert poset.leq(meet, x) and poset.leq(meet, y)
                for below in poset.elements:
                    if poset.leq(below, x) and poset.leq(below, y):
                        assert poset.leq(below, meet)

    def test_radical_poset_elements_against_brute_force(self):
        for n in range(2, 3001):
            squarefree = [
                d
                for d in range(1, n + 1)
                if n % d == 0 and all(d % (p * p) for p in range(2, isqrt(d) + 1))
            ]
            assert radical_ideal_poset(n).elements == tuple(squarefree), n


class TestLnDecompose:
    def test_mod12_zero_ideal(self):
        primes = ln_decompose(12, 12)
        assert primes == [2, 3]
        intersection = helpers.ideal_elements(12, (2,)) & helpers.ideal_elements(12, (3,))
        assert intersection == helpers.radical_elements(12, (0,))

    def test_already_prime(self):
        assert ln_decompose(8, 2) == [2]

    def test_three_primes(self):
        assert ln_decompose(30, 30) == [2, 3, 5]

    def test_unit_ideal(self):
        assert ln_decompose(12, 1) == []

    def test_bad_input(self):
        with pytest.raises(BadInput):
            ln_decompose(8, 3)

    def test_walks_only_the_divisors_of_the_radical(self, monkeypatch):
        """The answer is the evidence at rad, so the walk splits only the
        squarefree divisors of rad, not every radical ideal of Z/N."""
        split = []
        spt = induction.spt_modn
        monkeypatch.setattr(induction, "spt_modn", lambda modulus, r: split.append(r) or spt(modulus, r))
        for d, walked in ((2, [1, 2]), (6, [1, 2, 3, 6]), (510510, radical_ideal_poset(510510).elements)):
            split.clear()
            assert ln_decompose(510510, d) == [p for p in (2, 3, 5, 7, 11, 13, 17) if d % p == 0]
            assert sorted(split) == sorted(walked), d

    def test_sweep_against_radical(self):
        for n in range(2, 41):
            for d in range(1, n + 1):
                if n % d:
                    continue
                primes = ln_decompose(n, d)
                assert all(n % p == 0 for p in primes)
                assert lcm(*primes) == radical_modn(n, d)


class TestKeyLemma:
    def test_zero_ideal_mod8(self):
        assert check_key_lemma(8, 8, 2, 4)
        # both sides are (2)
        assert helpers.radical_elements(8, (0, 2)) == helpers.ideal_elements(8, (2,))

    def test_mod12_interior(self):
        assert check_key_lemma(12, 6, 2, 3)

    def test_unit_factor(self):
        for n in (6, 8, 12):
            for b in range(n):
                assert check_key_lemma(n, n, 1, b)

    def test_bound_enforced(self):
        with pytest.raises(BadInput):
            check_key_lemma(1024, 1024, 2, 4)

    def test_caches_are_bounded(self):
        for cache in (_ideal_elements, _radical_of_ideal):
            assert cache.cache_info().maxsize is not None


class TestLabelPosetCrossValidation:
    def test_worked_example(self):
        instance = ProblemInstance.generic(2, 1)
        evidence, tags = nc_run_induction(instance, 1)
        digraph = grow_digraph(instance)
        for lab, node in digraph.nodes.items():
            assert tags[lab] == node.tag
        assert len(evidence) == 2 ** 3
        exponent, witness = evidence[digraph.root]
        assert exponent == 3
        assert _expansion_minus(witness, avar(1) ** 3, 2, 1).is_zero

    def test_reachable_labels_match(self):
        for n, m in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]:
            instance = ProblemInstance.generic(n, m)
            evidence, tags = nc_run_induction(instance, 1)
            digraph = grow_digraph(instance)
            reachable = set()
            frontier = [digraph.root]
            while frontier:
                lab = frontier.pop()
                if lab in reachable:
                    continue
                reachable.add(lab)
                tag = tags[lab]
                if not tag.is_leaf:
                    frontier.append(helpers.add(lab, Indeterminate.a(tag.i)))
                    frontier.append(helpers.add(lab, Indeterminate.b(tag.j)))
            assert reachable == set(digraph.nodes)
            for lab in reachable:
                assert evidence[lab][0] == digraph.nodes[lab].exponent

    def test_witnesses_match_certificate_extraction(self):
        for n in range(1, 6):
            for m in range(0, 6 - n):
                instance = ProblemInstance.generic(n, m)
                digraph = grow_digraph(instance)
                for i0 in range(1, n + 1):
                    evidence, _ = nc_run_induction(instance, i0)
                    k, got = evidence[digraph.root]
                    certificate = extract_certificate(digraph, i0)
                    want = certificate.root_witness
                    assert k == certificate.exponent, (n, m, i0)
                    assert got.gen_coeffs == want.gen_coeffs == {}, (n, m, i0)
                    assert got.rel_coeffs == want.rel_coeffs, (n, m, i0)
                    assert got.unit_coeff == want.unit_coeff, (n, m, i0)

    def test_poset_size(self):
        assert len(label_poset(2, 2).elements) == 16

    def test_matches_certificate_exponent(self):
        instance = ProblemInstance.generic(2, 2)
        evidence, _ = nc_run_induction(instance, 2)
        digraph = grow_digraph(instance)
        assert evidence[digraph.root][0] == digraph.nodes[digraph.root].exponent
