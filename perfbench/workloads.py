"""The three workloads: seeded op lists and the checks of their answers.

An op is one call into nilcert's public entry points: ``cli.main(argv)``
with stdout and stderr captured, or ``load_certificate`` followed by
``verify_symbolic`` on one dump.  Every workload builds its op list for a
pass from ``(seed, pass index)`` alone; the expected answers come from
``algebra``, never from nilcert.

A check returns None when the op's answer is right, else a message.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from math import comb, prod
from pathlib import Path

import algebra


class SetupError(RuntimeError):
    """The program failed while the benchmark was building its inputs."""


class CliOp:
    """``nilcert.cli.main(argv)``; ``check(out, tally)`` judges the report
    of a run that exited 0 without an ``ERROR:`` line."""

    def __init__(self, tag: str, argv: list, check):
        self.tag = tag
        self.argv = [str(a) for a in argv]
        self._check = check

    def execute(self, nilcert):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = nilcert.cli.main(self.argv)
        return rc, out.getvalue(), err.getvalue()

    def check(self, result, tally) -> str | None:
        rc, out, err = result
        tally["report_bytes"] += len(out)
        if rc != 0:
            return f"exit code {rc}: {err.strip()[:200]}"
        if "ERROR:" in err:
            return f"error line: {err.strip()[:200]}"
        return self._check(out, tally)


class VerifyOp:
    """``verify_symbolic(load_certificate(text))``, which must return
    ``accept``; the loaded exponent must be ``exponent``."""

    def __init__(self, tag: str, text: str, accept: bool, exponent: int):
        self.tag = tag
        self.text = text
        self.accept = accept
        self.exponent = exponent

    def execute(self, nilcert):
        certificate = nilcert.load_certificate(self.text)
        return certificate.exponent, nilcert.verify_symbolic(certificate).ok

    def check(self, result, tally) -> str | None:
        exponent, ok = result
        if exponent != self.exponent:
            return f"loaded e = {exponent}, expected {self.exponent}"
        if ok != self.accept:
            return "mutated dump accepted" if ok else "dump as written rejected"
        return None


def _report(out: str, mode: str) -> dict:
    report = json.loads(out)
    if report.get("mode") != mode:
        raise ValueError(f"report mode {report.get('mode')!r}, expected {mode!r}")
    return report


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


# ----------------------------------------------------------------------
# generic-cert
# ----------------------------------------------------------------------

HEADLINE = (4, 3)
GRID_REPEATS = 12


def generic_grid() -> list[tuple[int, int, int]]:
    """Every (n, m, i0) with 2 <= n+m <= 6, n >= 1, m >= 0, 1 <= i0 <= n."""
    return [
        (n, total - n, i0)
        for total in range(2, 7)
        for n in range(1, total + 1)
        for i0 in range(1, n + 1)
    ]


def _generic_check(n: int, m: int, targets: list[int], early_stop: bool):
    expected = [
        {"i0": i0, "e": algebra.generic_exponent(n, m, i0 if early_stop else None)}
        for i0 in targets
    ]

    def check(out: str, tally) -> str | None:
        report = _report(out, "generic")
        if report.get("certificate") != "verified":
            return f"certificate {report.get('certificate')!r}"
        got = [{"i0": t["i0"], "e": t["e"]} for t in report["targets"]]
        if got != expected:
            return f"targets {got}, expected {expected}"
        files = report.get("files", {})
        for path in files.get("certificates", []):
            text = Path(path).read_text(encoding="utf-8")
            doc = json.loads(text)
            if (doc["n"], doc["m"]) != (n, m) or doc["i0"] not in targets:
                return f"dump {path} is for ({doc['n']}, {doc['m']}, {doc['i0']})"
            if doc["e"] != algebra.generic_exponent(n, m, doc["i0"] if early_stop else None):
                return f"dump {path} has e = {doc['e']}"
            tally["cert_bytes"] += len(text.encode())
            Path(path).unlink()
        for path in files.get("dot", []):
            if not Path(path).read_text(encoding="utf-8").startswith("digraph induction {"):
                return f"{path} is not a DOT digraph"
            Path(path).unlink()
        return None

    return check


def generic_op(n: int, m: int, i0: int | None, early_stop: bool, emit: Path | None) -> CliOp:
    argv = ["generic", "--n", n, "--m", m]
    targets = list(range(1, n + 1)) if i0 is None else [i0]
    if i0 is not None:
        argv += ["--target", i0]
    if early_stop:
        argv.append("--early-stop")
    if emit is not None:
        argv += ["--emit-cert", emit.with_suffix(".json"), "--emit-dot", emit.with_suffix(".dot")]
    tag = f"generic {n} {m} {i0 or 'all'}{' early' if early_stop else ''}{' emit' if emit else ''}"
    return CliOp(tag, argv, _generic_check(n, m, targets, early_stop))


class GenericCert:
    """Writes certificates: GRID_REPEATS times the generic grid with
    n+m <= 6, both with and without --early-stop, in seeded order, then
    one full generic --n 4 --m 3."""

    name = "generic-cert"

    def setup(self, workdir: Path, nilcert) -> None:
        self.workdir = workdir

    def warmup(self) -> CliOp:
        return generic_op(1, 1, 1, False, None)

    def ops(self, seed: int, pass_index: int) -> list:
        ops = []
        for n, m, i0 in generic_grid() * GRID_REPEATS:
            for early_stop in (False, True):
                emit = None
                if i0 == n:
                    emit = self.workdir / f"g{n}_{m}_{i0}{'_es' if early_stop else ''}"
                ops.append(generic_op(n, m, i0, early_stop, emit))
        _rng(self.name, seed, pass_index).shuffle(ops)
        # The headline op runs last: small ops that follow it run about 10%
        # slower (a larger, fragmented heap), so a seeded position for it
        # would make the grid ops' times depend on the seed.
        n, m = HEADLINE
        ops.append(generic_op(n, m, None, False, self.workdir / f"g{n}_{m}_all"))
        return ops


# ----------------------------------------------------------------------
# cert-verify
# ----------------------------------------------------------------------

CERT_VERIFY_ROUNDS = 8


class CertVerify:
    """Reads certificates: every dump of n+m <= 6 plus (4,3) at i0 = 2,
    each checked as written (accept) and with one seeded coefficient
    mutation (reject), CERT_VERIFY_ROUNDS times per pass."""

    name = "cert-verify"

    def setup(self, workdir: Path, nilcert) -> None:
        builds = [(n, total - n, None) for total in range(1, 7) for n in range(1, total + 1)]
        builds.append((HEADLINE[0], HEADLINE[1], 2))
        self.dumps = []
        for n, m, i0 in builds:
            base = workdir / f"c{n}_{m}_{i0 or 'all'}.json"
            argv = ["generic", "--n", str(n), "--m", str(m), "--emit-cert", str(base)]
            if i0 is not None:
                argv += ["--target", str(i0)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = nilcert.cli.main(argv)
            if rc != 0:
                raise SetupError(f"building dumps with {argv} exited {rc}: {err.getvalue()}")
            for path in json.loads(out.getvalue())["files"]["certificates"]:
                text = Path(path).read_text(encoding="utf-8")
                doc = json.loads(text)
                self.dumps.append((f"{n} {m} {doc['i0']}", text, comb(n + m, n)))
                Path(path).unlink()

    def warmup(self) -> VerifyOp:
        tag, text, exponent = self.dumps[0]
        return VerifyOp(tag, text, True, exponent)

    def ops(self, seed: int, pass_index: int) -> list:
        rng = _rng(self.name, seed, pass_index)
        ops = []
        for _ in range(CERT_VERIFY_ROUNDS):
            for tag, text, exponent in self.dumps:
                ops.append(VerifyOp(f"verify {tag}", text, True, exponent))
                mutated = algebra.mutate_dump(text, rng)
                ops.append(VerifyOp(f"verify {tag} mutated", mutated, False, exponent))
        rng.shuffle(ops)
        return ops


# ----------------------------------------------------------------------
# lattice
# ----------------------------------------------------------------------

CONCRETE_OPS = 3600
CONCRETE_MAX_DEGREE = 8
LN_OPS = 360
LN_MAX_MODULUS = 10**6
# Pascal sizes: PASCAL_PER_BANDS ops for every pair of bands, n drawn
# uniformly from the first band and m from the second.  The bands are
# narrow so that the slowest ops of a pass (where latency_tail_s falls)
# have nearly the same size in every seed.
PASCAL_BANDS = ((3, 5), (8, 10), (13, 15), (18, 20), (23, 25), (28, 30))
PASCAL_PER_BANDS = 2


def concrete_op(rng: random.Random, degree: int, early_stop: bool) -> CliOp:
    modulus, f, g = algebra.inverse_pair(rng, degree)
    targets = list(range(1, degree + 1))
    minimal = {i0: algebra.nilpotency_index(f[i0], modulus) for i0 in targets}

    def check(out: str, tally) -> str | None:
        report = _report(out, "concrete")
        if report.get("certificate") != "verified":
            return f"certificate {report.get('certificate')!r}"
        if report["f"] != f or report["g"] != g:
            return "report echoes other coefficients"
        if [t["i0"] for t in report["targets"]] != targets:
            return f"targets {report['targets']}"
        for entry in report["targets"]:
            u = f[entry["i0"]]
            if pow(u, entry["e"], modulus) != 0:
                return f"a{entry['i0']}^{entry['e']} = {pow(u, entry['e'], modulus)} mod {modulus}"
            if entry.get("minimal") != minimal[entry["i0"]]:
                return f"minimal {entry.get('minimal')} for a{entry['i0']}, expected {minimal[entry['i0']]}"
        return None

    argv = ["concrete", "--modulus", modulus, "--f", ",".join(map(str, f)),
            "--g", ",".join(map(str, g)), "--minimal"]
    if early_stop:
        argv.append("--early-stop")
    tag = f"concrete deg {degree}/{len(g) - 1} mod {modulus}{' early' if early_stop else ''}"
    return CliOp(tag, argv, check)


def ln_op(modulus: int, ideal: int) -> CliOp:
    primes = [p for p, _ in algebra.trial_division(algebra.radical(ideal))]
    expected_radical = prod(primes)

    def check(out: str, tally) -> str | None:
        report = _report(out, "ln")
        if report["primes"] != primes or report["radical"] != expected_radical:
            return f"primes {report['primes']} radical {report['radical']}, expected {primes}"
        if report.get("certificate") != "verified":
            return f"certificate {report.get('certificate')!r}"
        return None

    return CliOp(f"ln {modulus} {ideal}", ["ln", "--modulus", modulus, "--ideal", ideal], check)


def pascal_op(n: int, m: int) -> CliOp:
    expected = algebra.pascal_grid(n, m)

    def check(out: str, tally) -> str | None:
        rows = [line.split() for line in out.splitlines()]
        if rows != expected:
            return f"grid differs from the expected {n}x{m} Pascal fragment"
        return None

    return CliOp(f"pascal {n} {m}", ["pascal", "--n", n, "--m", m], check)


class Lattice:
    """No certificates: concrete --minimal over composite Z/N, ln over
    N <= 10^6, and pascal with n, m <= 30."""

    name = "lattice"

    def setup(self, workdir: Path, nilcert) -> None:
        pass

    def warmup(self) -> CliOp:
        return concrete_op(random.Random(self.name), 2, False)

    def ops(self, seed: int, pass_index: int) -> list:
        rng = _rng(self.name, seed, pass_index)
        ops = [
            concrete_op(rng, 1 + k % CONCRETE_MAX_DEGREE, (k // CONCRETE_MAX_DEGREE) % 2 == 1)
            for k in range(CONCRETE_OPS)
        ]
        width = (LN_MAX_MODULUS - 1) / LN_OPS
        for k in range(LN_OPS):
            modulus = rng.randrange(2 + int(k * width), 2 + int((k + 1) * width))
            ops.append(ln_op(modulus, algebra.random_divisor(rng, modulus)))
        for lo_n, hi_n in PASCAL_BANDS:
            for lo_m, hi_m in PASCAL_BANDS * PASCAL_PER_BANDS:
                ops.append(pascal_op(rng.randint(lo_n, hi_n), rng.randint(lo_m, hi_m)))
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (GenericCert, CertVerify, Lattice)}
