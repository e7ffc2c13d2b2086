"""The benchmark's own tests.

    python3 perfbench/selftest.py

The file name keeps pytest's default discovery (test_*.py) away from it,
so the project's test suite does not run these slow checks.  The smoke
runs execute one whole pass of every workload (about 80 s in total).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import algebra  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

import nilcert  # noqa: E402
import nilcert.cli  # noqa: E402


def dumps_for(n: int, m: int) -> list[str]:
    """Certificate dumps for every target of generic (n, m), as the CLI writes them."""
    texts = []
    for i0 in range(1, n + 1):
        certificate = nilcert.extract_certificate(
            nilcert.grow_digraph(nilcert.ProblemInstance.generic(n, m)), i0
        )
        texts.append(nilcert.dump_certificate(certificate))
    return texts


class GeneratorTests(unittest.TestCase):
    def test_inverse_pairs_over_several_seeds(self):
        for seed in range(40):
            rng = random.Random(seed)
            degree = 1 + seed % 8
            modulus, f, g = algebra.inverse_pair(rng, degree)
            self.assertEqual(len(f), degree + 1)
            self.assertNotEqual(f[-1], 0)
            self.assertTrue(algebra.is_one(algebra.convolve_mod(f, g, modulus)))
            self.assertNotEqual(algebra.radical(modulus), modulus)
            for u in f[1:]:
                self.assertIsNotNone(algebra.nilpotency_index(u, modulus))

    def test_generator_is_seeded(self):
        first = algebra.inverse_pair(random.Random("x"), 5)
        self.assertEqual(first, algebra.inverse_pair(random.Random("x"), 5))

    def test_op_lists_are_seeded(self):
        for workload in (workloads.GenericCert(), workloads.Lattice()):
            workload.setup(ROOT / "unused", nilcert)
            tags = [op.tag for op in workload.ops(7, 0)]
            self.assertEqual(tags, [op.tag for op in workload.ops(7, 0)])
            self.assertNotEqual(tags, [op.tag for op in workload.ops(8, 0)])

    def test_generic_exponent_closed_form(self):
        for n in range(1, 7):
            for m in range(0, 7):
                self.assertEqual(algebra.generic_exponent(n, m), algebra.comb(n + m, n))


class MutationTests(unittest.TestCase):
    def test_single_coefficient_mutation_always_rejected(self):
        for n, m in ((1, 1), (2, 1), (2, 2), (3, 2), (2, 4)):
            for text in dumps_for(n, m):
                ok = nilcert.verify_symbolic(nilcert.load_certificate(text)).ok
                self.assertTrue(ok)
                for seed in range(10):
                    mutated = algebra.mutate_dump(text, random.Random(seed))
                    changed = [
                        (a, b) for a, b in zip(text.split(" + "), mutated.split(" + ")) if a != b
                    ]
                    self.assertEqual(len(changed), 1, changed)
                    check = nilcert.verify_symbolic(nilcert.load_certificate(mutated))
                    self.assertFalse(check.ok, f"({n},{m}) seed {seed} accepted")


class MetricNameTests(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER)
        )
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))


class TracerTests(unittest.TestCase):
    def test_self_times_cover_the_traced_calls(self):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(nilcert.cli.grow_digraph, nilcert.engine.grow_digraph.__wrapped__)
            start = time.perf_counter()
            for argv in (["generic", "--n", "3", "--m", "2"], ["ln", "--modulus", "360", "--ideal", "60"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    self.assertEqual(nilcert.cli.main(argv), 0)
            wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        self.assertFalse(hasattr(nilcert.cli.grow_digraph, "__wrapped__"))
        self.assertEqual(tracer.calls_of("cli.main"), 2)
        self.assertGreater(tracer.calls_of("poly.mul"), 0)
        self.assertEqual(tracer.calls_of("induction.ln_decompose"), 1)
        self.assertGreater(tracer.counters["engine.nodes"], 0)
        self.assertGreaterEqual(min(tracer.self_s), 0.0)
        top = [i for i, parent in enumerate(tracer.parent) if parent < 0]
        covered = sum(tracer.end[i] - tracer.start[i] for i in top)
        self.assertAlmostEqual(sum(tracer.self_s), covered, delta=1e-6)
        self.assertLessEqual(covered, wall)

        path = run.WORK / "selftest-spans.bin"
        run.WORK.mkdir(exist_ok=True)
        try:
            tracer.write(path)
            names, columns = tracing.load(path)
        finally:
            path.unlink(missing_ok=True)
        self.assertEqual(names, tracer.names)
        self.assertEqual(columns["start"], tracer.start)
        self.assertEqual(columns["parent"], tracer.parent)


class SmokeTests(unittest.TestCase):
    def test_every_workload_passes_at_this_commit(self):
        for name in sorted(workloads.WORKLOADS):
            with self.subTest(workload=name):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", "1", "--seconds", "0", "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, timeout=180,
                )
                self.assertEqual(proc.returncode, 0, proc.stderr)
                lines = proc.stdout.splitlines()
                result = json.loads(lines[-1])
                self.assertTrue(result["correct"], proc.stderr)
                self.assertEqual(result["failed"], 0)
                self.assertIn(f"failure_ratio 0.0 ratio (0/{result['attempted']})", lines)
                self.assertEqual(sorted(result["metrics"]), sorted(n for n, _ in run.END_TO_END))


if __name__ == "__main__":
    unittest.main()
