"""Acceptance suite.

One test per criterion, each printing a PASS line with its runtime (run
pytest with -s to see them on passing runs).  All expected values are
exact; brute-force oracles live in helpers.py and are independent of the
package internals, except the label-poset runner, which reruns the
package's own per-label step on purpose.
"""

from __future__ import annotations

import json
import random
import time
from math import comb, lcm

import helpers
from nilcert import (
    ProblemInstance,
    avar,
    extract_certificate,
    grow_digraph,
    ln_decompose,
    radical_modn,
    power_check,
    structural_metrics,
    verify_concrete,
    verify_symbolic,
)
from nilcert.cli import main


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _report(number: int, name: str, timer: _Timer, budget: float | None = None) -> None:
    line = f"ACCEPTANCE {number:02d} {name}: PASS ({timer.elapsed:.2f}s"
    if budget is not None:
        line += f" < {budget:g}s"
    print(line + ")")


def test_criterion_01_worked_example_mod8(capsys):
    with _Timer() as timer:
        code = main(["concrete", "--modulus", "8", "--f", "1,2,4", "--g", "1,6", "--minimal"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["targets"] == [
            {"i0": 1, "e": 3, "minimal": 3},
            {"i0": 2, "e": 3, "minimal": 2},
        ]
        assert report["certificate"] == "verified"
        instance = ProblemInstance.concrete(8, [1, 2, 4], [1, 6])
        assert power_check(instance, 1, 3).ok
        assert power_check(instance, 2, 3).ok
    assert timer.elapsed < 1.0
    with capsys.disabled():
        _report(1, "worked example over Z/8", timer, 1.0)


def test_criterion_02_generic_2_1_digraph(capsys):
    with _Timer() as timer:
        digraph = grow_digraph(ProblemInstance.generic(2, 1))
        assert len(digraph.nodes) == 5
        assert len(digraph.edges()) == 4
        exponents = sorted(node.exponent for node in digraph.nodes.values())
        assert exponents == [1, 1, 1, 2, 3]
        assert digraph.nodes[digraph.root].exponent == 3
        renders = {lab.render() for lab in digraph.nodes}
        assert renders == {"(00,0)", "(01,0)", "(00,1)", "(11,0)", "(01,1)"}
        expected_edges = {
            ("(00,0)", "(01,0)"),
            ("(00,0)", "(00,1)"),
            ("(01,0)", "(11,0)"),
            ("(01,0)", "(01,1)"),
        }
        assert {(p.render(), c.render()) for p, c in digraph.edges()} == expected_edges
    with capsys.disabled():
        _report(2, "generic (2,1) digraph", timer)


def test_criterion_03_certificate_soundness_sweep(capsys):
    budget = 120.0
    with _Timer() as timer:
        checked = 0
        for total in range(1, 8):
            for n in range(1, total + 1):
                m = total - n
                digraph = grow_digraph(ProblemInstance.generic(n, m))
                for i0 in range(1, n + 1):
                    certificate = extract_certificate(digraph, i0)
                    check = verify_symbolic(certificate)
                    assert check.ok, (n, m, i0, check.diff.render())
                    checked += 1
        assert checked == sum(n for total in range(1, 8) for n in range(1, total + 1))
    assert timer.elapsed < budget
    with capsys.disabled():
        _report(3, f"symbolic soundness of {checked} certificates (n+m <= 7)", timer, budget)


def test_criterion_04_structural_bounds(capsys):
    with _Timer() as timer:
        for n in range(1, 7):
            for m in range(1, 7):
                metrics = structural_metrics(grow_digraph(ProblemInstance.generic(n, m)))
                assert metrics["height"] <= n + m - 1, (n, m)
                assert metrics["vertex_count"] == n * m + n + m, (n, m)
                assert metrics["tree_leaf_count"] <= 2 ** (n + m - 1), (n, m)
                assert metrics["shortest_path"] <= min(n, m), (n, m)
    with capsys.disabled():
        _report(4, "structural bounds for 1 <= n, m <= 6", timer)


def test_criterion_05_root_exponent_dp(capsys):
    with _Timer() as timer:
        binomial_agrees = True
        for total in range(1, 13):
            for n in range(1, total + 1):
                m = total - n
                digraph = grow_digraph(ProblemInstance.generic(n, m))
                value = digraph.nodes[digraph.root].exponent
                assert value == helpers.grid_exponent(n, m), (n, m)
                if value != comb(n + m, n):
                    binomial_agrees = False
    with capsys.disabled():
        _report(5, "root exponent = grid DP for n+m <= 12", timer)
        print(
            "            binomial(n+m, n) closed form: "
            + ("agrees on all cases (reported, not asserted)" if binomial_agrees else "DISAGREES")
        )


def test_criterion_06_key_lemma_exhaustive(capsys):
    budget = 60.0
    with _Timer() as timer:
        checked = 0
        for n in range(2, 31):
            for d in range(1, n + 1):
                if n % d:
                    continue
                for a in range(n):
                    for b in range(n):
                        assert helpers.key_lemma_holds(n, d, a, b), (n, d, a, b)
                        checked += 1
    assert timer.elapsed < budget
    with capsys.disabled():
        _report(6, f"key lemma on {checked} triples (n <= 30, exhaustive)", timer, budget)


def test_criterion_07_ln_decomposition(capsys):
    with _Timer() as timer:
        for n in range(2, 61):
            for d in range(1, n + 1):
                if n % d:
                    continue
                primes = ln_decompose(n, d)
                radical = radical_modn(n, d)
                assert lcm(*primes) == radical, (n, d)
                # the radical generator itself is validated by exhaustive
                # enumeration, and the prime ideals intersect to its ideal
                radical_set = helpers.radical_elements(n, (d % n,))
                assert radical_set == helpers.ideal_elements(n, (radical % n,)), (n, d)
                intersection = frozenset(range(n))
                for p in primes:
                    intersection &= helpers.ideal_elements(n, (p,))
                assert intersection == radical_set, (n, d)
    with capsys.disabled():
        _report(7, "prime decomposition of radicals (n <= 60, all d | n)", timer)


def test_criterion_08_specialization_end_to_end(capsys):
    budget = 300.0
    with _Timer() as timer:
        certificates: dict[tuple[int, int, int], object] = {}
        pairs = 0
        checks = 0
        for modulus in range(2, 13):
            for f, g in helpers.unit_pairs(modulus, max_deg_f=3, max_deg_g=3):
                pairs += 1
                instance = ProblemInstance.concrete(modulus, f, g)
                modulus = instance.modulus
                assignment = helpers.assignment(instance.a, instance.b)
                for i0 in range(1, instance.n + 1):
                    key = (instance.n, instance.m, i0)
                    certificate = certificates.get(key)
                    if certificate is None:
                        digraph = grow_digraph(ProblemInstance.generic(instance.n, instance.m))
                        certificate = extract_certificate(digraph, i0)
                        assert verify_symbolic(certificate).ok
                        certificates[key] = certificate
                    check = verify_concrete(certificate, instance)
                    assert check.ok, (modulus, f, g, i0)
                    assert helpers.reference_evaluate(avar(i0) ** certificate.exponent, assignment, modulus) == 0
                    checks += 1
        assert pairs > 0
    assert timer.elapsed < budget
    with capsys.disabled():
        _report(
            8,
            f"specialization of generic certificates on {pairs} unit pairs ({checks} targets)",
            timer,
            budget,
        )


def test_criterion_09_cross_validation(capsys):
    with _Timer() as timer:
        for total in range(1, 7):
            for n in range(1, total + 1):
                m = total - n
                instance = ProblemInstance.generic(n, m)
                evidence, tags = helpers.nc_run_induction(instance, 1)
                digraph = grow_digraph(instance)
                for lab, node in digraph.nodes.items():
                    assert tags[lab] == node.tag, (n, m, lab)
                    assert evidence[lab][0] == node.exponent, (n, m, lab)
                assert set(digraph.nodes) <= set(tags)
    with capsys.disabled():
        _report(9, "poset runner reproduces the digraph (n+m <= 6)", timer)


def test_criterion_10_mutation_detection(capsys):
    with _Timer() as timer:
        rng = random.Random(1905)
        digraphs = {
            (2, 1): grow_digraph(ProblemInstance.generic(2, 1)),
            (3, 2): grow_digraph(ProblemInstance.generic(3, 2)),
        }
        detected = 0
        for _ in range(100):
            n, m = rng.choice(sorted(digraphs))
            certificate = extract_certificate(digraphs[(n, m)], rng.randrange(1, n + 1))
            witness = certificate.root_witness
            slots = sorted(witness.rel_coeffs) + ["unit"]
            slot = rng.choice(slots)
            poly = witness.unit_coeff if slot == "unit" else witness.rel_coeffs[slot]
            monomials = sorted(helpers.reference_terms(poly), key=str) + [()]
            bump = helpers.reference_poly({rng.choice(monomials): 1})
            if slot == "unit":
                witness.unit_coeff = witness.unit_coeff + bump
            else:
                witness.rel_coeffs[slot] = poly + bump
            if not verify_symbolic(certificate).ok:
                detected += 1
        assert detected == 100
    with capsys.disabled():
        _report(10, "100/100 single-coefficient mutations detected", timer)
