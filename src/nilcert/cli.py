"""Command-line front end.

Subcommands:

  generic   --n N --m M [--target I0] [--emit-dot PATH] [--emit-cert PATH]
            [--early-stop]
  concrete  --modulus N --f c0,c1,.. --g c0,c1,.. [--target I0] [--minimal]
            [--emit-dot PATH] [--early-stop]
  ln        --modulus N --ideal D
  pascal    --n N --m M

Results go to stdout as a JSON report (the pascal grid as plain text);
notices and errors go to stderr.  Error lines start with a machine-parsable
ERROR:<class>: prefix.  Exit codes: 0 success, 1 usage or bad input,
2 not-a-unit, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .certificates import dump_certificate, extract_certificate, power_check, verify_symbolic
from .dot import emit_dot
from .engine import (
    NotAUnit,
    ProblemInstance,
    check_unit,
    convolution,
    grow_digraph,
    root_exponent,
    structural_metrics,
)
from .induction import BadInput, ln_decompose, radical_modn
from .oracles import IdealLabel

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_A_UNIT = 2
EXIT_VERIFICATION = 3


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code and error prefix."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        print(f"ERROR:usage:{message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _usage_error(message: str) -> int:
    print(f"ERROR:usage:{message}", file=sys.stderr)
    return EXIT_USAGE


def _parse_coeffs(text: str, what: str) -> list[int]:
    try:
        return [int(piece) for piece in text.split(",")]
    except ValueError:
        raise BadInput(f"{what} must be a comma-separated integer list, got {text!r}") from None


def _target_path(path: str, target: int, multiple: bool) -> Path:
    p = Path(path)
    if not multiple:
        return p
    return p.with_name(f"{p.stem}.a{target}{p.suffix}")


def _emit(path: Path, text: str, emitted: list[str]) -> None:
    path.write_text(text, encoding="utf-8")
    emitted.append(str(path))


def _run_generic(args: argparse.Namespace) -> int:
    if args.n < 1 or args.m < 0:
        return _usage_error("generic mode needs --n >= 1 and --m >= 0")
    if args.target is not None and not 1 <= args.target <= args.n:
        return _usage_error(f"--target must lie in 1..{args.n}")
    instance = ProblemInstance.generic(args.n, args.m, target=args.target)
    targets = instance.targets()
    multiple = len(targets) > 1

    dot_files: list[str] = []
    cert_files: list[str] = []
    target_reports = []
    all_verified = True
    shared_digraph = None
    if not args.early_stop:
        shared_digraph = grow_digraph(instance)
        if args.emit_dot:
            _emit(Path(args.emit_dot), emit_dot(shared_digraph), dot_files)

    for i0 in targets:
        if args.early_stop:
            per_target = ProblemInstance.generic(args.n, args.m, target=i0)
            digraph = grow_digraph(per_target, early_stop=True)
            if args.emit_dot:
                _emit(_target_path(args.emit_dot, i0, multiple), emit_dot(digraph), dot_files)
        else:
            digraph = shared_digraph
        certificate = extract_certificate(digraph, i0)
        check = verify_symbolic(certificate)
        all_verified = all_verified and check.ok
        entry = {"i0": i0, "e": certificate.exponent}
        if args.early_stop:
            entry["metrics"] = structural_metrics(digraph)
        target_reports.append(entry)
        if args.emit_cert:
            _emit(
                _target_path(args.emit_cert, i0, multiple),
                dump_certificate(certificate),
                cert_files,
            )

    report = {
        "mode": "generic",
        "n": args.n,
        "m": args.m,
        "targets": target_reports,
    }
    if shared_digraph is not None:
        report["metrics"] = structural_metrics(shared_digraph)
    report["certificate"] = "verified" if all_verified else "failed"
    files = {}
    if dot_files:
        files["dot"] = dot_files
    if cert_files:
        files["certificates"] = cert_files
    if files:
        report["files"] = files
    print(json.dumps(report, indent=2))
    if not all_verified:
        print("ERROR:verification:symbolic certificate check failed", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _run_concrete(args: argparse.Namespace) -> int:
    if args.modulus < 2:
        return _usage_error("--modulus must be >= 2")
    f = _parse_coeffs(args.f, "--f")
    g = _parse_coeffs(args.g, "--g")
    if len(f) < 2:
        return _usage_error("--f needs at least two coefficients (degree >= 1)")
    reduced = [v % args.modulus for v in f + g]
    if reduced != f + g:
        print(
            f"notice: coefficients reduced mod {args.modulus}",
            file=sys.stderr,
        )
    if args.target is not None and not 1 <= args.target <= len(f) - 1:
        return _usage_error(f"--target must lie in 1..{len(f) - 1}")
    instance = ProblemInstance.concrete(args.modulus, f, g, target=args.target)
    check_unit(convolution(instance.a, instance.b, instance.ring))

    targets = instance.targets()
    multiple = len(targets) > 1
    dot_files: list[str] = []
    target_reports = []
    all_verified = True
    shared_digraph = None
    if not args.early_stop:
        shared_digraph = grow_digraph(instance)
        if args.emit_dot:
            _emit(Path(args.emit_dot), emit_dot(shared_digraph), dot_files)

    for i0 in targets:
        if args.early_stop:
            per_target = ProblemInstance.concrete(args.modulus, f, g, target=i0)
            digraph = grow_digraph(per_target, early_stop=True)
            if args.emit_dot:
                _emit(_target_path(args.emit_dot, i0, multiple), emit_dot(digraph), dot_files)
        else:
            digraph = shared_digraph
        exponent, _ = root_exponent(digraph)
        check = power_check(instance, i0, exponent)
        all_verified = all_verified and check.ok
        entry = {"i0": i0, "e": exponent}
        if args.minimal:
            entry["minimal"] = check.minimal_exponent
        if args.early_stop:
            entry["metrics"] = structural_metrics(digraph)
        target_reports.append(entry)

    report = {
        "mode": "concrete",
        "n": instance.n,
        "m": instance.m,
        "modulus": args.modulus,
        "f": list(instance.a),
        "g": list(instance.b),
        "targets": target_reports,
    }
    if shared_digraph is not None:
        report["metrics"] = structural_metrics(shared_digraph)
    report["certificate"] = "verified" if all_verified else "failed"
    if dot_files:
        report["files"] = {"dot": dot_files}
    print(json.dumps(report, indent=2))
    if not all_verified:
        print("ERROR:verification:u^e did not vanish in the ring", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _run_ln(args: argparse.Namespace) -> int:
    primes = ln_decompose(args.modulus, args.ideal)
    radical = radical_modn(args.modulus, args.ideal)
    intersection = 1
    for p in primes:
        intersection *= p
    verified = intersection == radical
    report = {
        "mode": "ln",
        "modulus": args.modulus,
        "ideal": args.ideal,
        "radical": radical,
        "primes": primes,
        "certificate": "verified" if verified else "failed",
    }
    print(json.dumps(report, indent=2))
    if not verified:
        print("ERROR:verification:primes do not intersect to the radical", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _run_pascal(args: argparse.Namespace) -> int:
    if args.n < 1 or args.m < 0:
        return _usage_error("pascal needs --n >= 1 and --m >= 0")
    digraph = grow_digraph(ProblemInstance.generic(args.n, args.m))
    _, exponents = root_exponent(digraph)
    rows: list[list[str]] = []
    for added_a in range(args.n + 1):
        row = []
        for added_b in range(args.m + 1):
            label = IdealLabel(
                (0,) * (args.n - added_a) + (1,) * added_a,
                (0,) * (args.m - added_b) + (1,) * added_b,
            )
            row.append(str(exponents[label]) if label in exponents else ".")
        rows.append(row)
    width = max(len(cell) for row in rows for cell in row)
    for row in rows:
        print(" ".join(cell.rjust(width) for cell in row))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="nilcert",
        description=(
            "Compute a nilpotency exponent e with u^e = 0 for the nonconstant "
            "coefficients u of an invertible polynomial, together with a "
            "checkable polynomial-identity certificate."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_generic = sub.add_parser("generic", help="indeterminate coefficients, with certificate")
    p_generic.add_argument("--n", type=int, required=True, help="degree of f")
    p_generic.add_argument("--m", type=int, required=True, help="degree of g")
    p_generic.add_argument("--target", type=int, help="index i0 of u = a_i0 (default: all)")
    p_generic.add_argument("--emit-dot", metavar="PATH", help="write the digraph as DOT")
    p_generic.add_argument("--emit-cert", metavar="PATH", help="write certificate dump(s)")
    p_generic.add_argument(
        "--early-stop",
        action="store_true",
        help="stop a branch as soon as u itself enters the ideal",
    )
    p_generic.set_defaults(func=_run_generic)

    p_concrete = sub.add_parser("concrete", help="coefficients in Z/modulus")
    p_concrete.add_argument("--modulus", type=int, required=True)
    p_concrete.add_argument("--f", required=True, help="coefficients of f, lowest degree first")
    p_concrete.add_argument("--g", required=True, help="coefficients of g, lowest degree first")
    p_concrete.add_argument("--target", type=int, help="index i0 of u = a_i0 (default: all)")
    p_concrete.add_argument(
        "--minimal",
        action="store_true",
        help="also report the least exponent that already kills each target",
    )
    p_concrete.add_argument("--emit-dot", metavar="PATH", help="write the digraph as DOT")
    p_concrete.add_argument(
        "--early-stop",
        action="store_true",
        help="stop a branch as soon as u itself enters the ideal",
    )
    p_concrete.set_defaults(func=_run_concrete)

    p_ln = sub.add_parser("ln", help="radical decomposition into primes over Z/modulus")
    p_ln.add_argument("--modulus", type=int, required=True)
    p_ln.add_argument("--ideal", type=int, required=True, help="generator d of the ideal (d | modulus)")
    p_ln.set_defaults(func=_run_ln)

    p_pascal = sub.add_parser("pascal", help="print the exponent grid for n, m")
    p_pascal.add_argument("--n", type=int, required=True)
    p_pascal.add_argument("--m", type=int, required=True)
    p_pascal.set_defaults(func=_run_pascal)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except NotAUnit as exc:
        print(f"ERROR:not-a-unit:{exc}", file=sys.stderr)
        return EXIT_NOT_A_UNIT
    except (BadInput, OSError) as exc:
        print(f"ERROR:bad-input:{exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
