"""Command-line front end.

Subcommands:

  generic   --n N --m M [--target I0] [--emit-dot PATH] [--emit-cert PATH]
            [--early-stop]
  concrete  --modulus N --f c0,c1,.. --g c0,c1,.. [--target I0] [--minimal]
            [--emit-dot PATH] [--early-stop]
  ln        --modulus N --ideal D
  pascal    --n N --m M

generic and concrete run one pipeline over (digraph, targets) pairs: the
shared digraph with every target, or with --early-stop one digraph per
target.  Each digraph is grown, its DOT file written and its targets
checked; then the report is printed.  Only the check differs.  Generic
mode checks the digraph's proof node by node for all its targets in one
walk, each node's own witness built, expanded exactly and dropped; with
--emit-cert the same walk also combines each target's root certificate
from the witnesses it checked, and each is verified by full expansion and
dumped only if it holds.  Concrete mode evaluates u^e in Z/modulus.  The
argument parser is built once per process.

Refused before any digraph is grown: --n or --m above 4095 (generic and
pascal) and f or g of degree above 4095 (concrete), with ERROR:usage:;
an --emit-dot or --emit-cert path that names no file (such as "/", ".",
"", ".." or any existing directory, or a per-target name such as
"c.a2.json" that is one), and an --emit-dot path whose DOT
file a certificate dump would overwrite (such as "out.txt" and
"./out.txt" with one target), with ERROR:bad-input:.

Results go to stdout as a JSON report (the pascal grid as plain text);
notices and errors go to stderr.  Error lines start with a machine-parsable
ERROR:<class>: prefix.  Exit codes: 0 success, 1 usage or bad input,
2 not-a-unit, 3 verification failure, 4 an unexpected internal error
(ERROR:internal:<ExceptionClass>: <message>, never a traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from math import prod
from pathlib import Path
from typing import Callable

from .certificates import certify, check_node_local, dump_certificate, power_check, verify_symbolic
from .dot import emit_dot
from .engine import (
    NotAUnit,
    ProblemInstance,
    check_unit,
    convolution,
    grow_digraph,
    structural_metrics,
)
from .induction import BadInput, ln_decompose
from .oracles import IdealLabel
from .poly import MAX_INDEX

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_A_UNIT = 2
EXIT_VERIFICATION = 3
EXIT_INTERNAL = 4


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


def _run_digraph(
    args: argparse.Namespace,
    instance: ProblemInstance,
    head: dict,
    check: Callable[..., tuple[list[dict], bool]],
    failure: str,
) -> int:
    """The pipeline shared by generic and concrete mode.

    Refuses an output path that names a directory, not a file, or whose
    per-target name does, and a DOT file that a certificate dump would
    overwrite.  Then takes each digraph
    in turn with the targets it serves: the shared one with every target,
    or with --early-stop one per target.  Each is grown, its DOT file
    written, and ``check(digraph, i0s, emit)`` returns the report entries
    of its targets and whether their checks passed; then the report is
    printed.
    ``emit(kind, path, i0, text)`` writes a file, named per target when
    there are several targets and i0 is given.
    """
    dot, cert = args.emit_dot, getattr(args, "emit_cert", None)
    for flag, path in (("--emit-dot", dot), ("--emit-cert", cert)):
        if path is not None and (Path(path).name in ("", "..") or Path(path).is_dir()):
            raise BadInput(f"{flag} path {path!r} names no file")
    targets = list(range(1, instance.n + 1)) if args.target is None else [args.target]
    runs = [(i0, [i0]) for i0 in targets] if args.early_stop else [(None, targets)]
    files: dict[str, list[str]] = {}

    def named(path: str, i0: int | None) -> Path:
        target_path = Path(path)
        if i0 is not None and len(targets) > 1:
            target_path = target_path.with_name(f"{target_path.stem}.a{i0}{target_path.suffix}")
        return target_path

    # So is a per-target name of a file the run will write.
    writes = [("--emit-dot", named(dot, stop)) for stop, _ in runs if dot]
    writes += [("--emit-cert", named(cert, i0)) for i0 in targets if cert]
    for flag, target_path in writes:
        if target_path.is_dir():
            raise BadInput(f"{flag} path {str(target_path)!r} names no file")

    # Per-target naming keeps a path's directory, so file names are
    # compared first and the directories resolved only if two coincide.
    if dot and cert:
        names = {named(dot, stop).name for stop, _ in runs}
        if not names.isdisjoint(named(cert, i0).name for i0 in targets) and (
            Path(dot).parent.resolve() == Path(cert).parent.resolve()
        ):
            raise BadInput(f"--emit-dot path {dot!r} and --emit-cert path {cert!r} would write the same file")

    def emit(kind: str, path: str, i0: int | None, text: str) -> None:
        target_path = named(path, i0)
        target_path.write_text(text, encoding="utf-8")
        files.setdefault(kind, []).append(str(target_path))

    target_reports = []
    all_verified = True
    for stop, i0s in runs:
        digraph = grow_digraph(instance, early_stop_target=stop)
        if dot:
            emit("dot", dot, stop, emit_dot(digraph))
        entries, ok = check(digraph, i0s, emit)
        all_verified = all_verified and ok
        if args.early_stop:
            for entry in entries:
                entry["metrics"] = structural_metrics(digraph)
        target_reports += entries

    report = {**head, "targets": target_reports}
    if not args.early_stop:
        report["metrics"] = structural_metrics(digraph)
    report["certificate"] = "verified" if all_verified else "failed"
    if files:
        report["files"] = files
    print(json.dumps(report, indent=2))
    if not all_verified:
        print(f"ERROR:verification:{failure}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _run_generic(args: argparse.Namespace) -> int:
    if args.n < 1 or args.m < 0:
        return _usage_error("generic mode needs --n >= 1 and --m >= 0")
    if max(args.n, args.m) > MAX_INDEX:
        return _usage_error(f"generic mode needs --n and --m <= {MAX_INDEX}")
    if args.target is not None and not 1 <= args.target <= args.n:
        return _usage_error(f"--target must lie in 1..{args.n}")

    def check(digraph, i0s, emit):
        exponent = digraph.nodes[digraph.root].exponent
        entries = [{"i0": i0, "e": exponent} for i0 in i0s]
        if not args.emit_cert:
            return entries, check_node_local(digraph, *i0s)
        certificates = certify(digraph, *i0s)
        if certificates is None:
            return entries, False
        verified = [certificate for certificate in certificates if verify_symbolic(certificate).ok]
        for certificate in verified:
            emit("certificates", args.emit_cert, certificate.target_index, dump_certificate(certificate))
        return entries, len(verified) == len(certificates)

    return _run_digraph(
        args,
        ProblemInstance.generic(args.n, args.m),
        {"mode": "generic", "n": args.n, "m": args.m},
        check,
        "symbolic certificate check failed",
    )


def _run_concrete(args: argparse.Namespace) -> int:
    if args.modulus < 2:
        return _usage_error("--modulus must be >= 2")
    f = _parse_coeffs(args.f, "--f")
    g = _parse_coeffs(args.g, "--g")
    if len(f) < 2:
        return _usage_error("--f needs at least two coefficients (degree >= 1)")
    if max(len(f), len(g)) - 1 > MAX_INDEX:
        return _usage_error(f"concrete mode needs --f and --g of degree <= {MAX_INDEX}")
    instance = ProblemInstance.concrete(args.modulus, f, g)
    if list(instance.a + instance.b) != f + g:
        print(f"notice: coefficients reduced mod {args.modulus}", file=sys.stderr)
    if args.target is not None and not 1 <= args.target <= instance.n:
        return _usage_error(f"--target must lie in 1..{instance.n}")
    check_unit(convolution(instance.a, instance.b, instance.modulus))

    def check(digraph, i0s, emit):
        exponent = digraph.nodes[digraph.root].exponent
        entries, ok = [], True
        for i0 in i0s:
            result = power_check(instance, i0, exponent)
            minimal = {"minimal": result.minimal_exponent} if args.minimal else {}
            entries.append({"i0": i0, "e": exponent, **minimal})
            ok = ok and result.ok
        return entries, ok

    head = {
        "mode": "concrete",
        "n": instance.n,
        "m": instance.m,
        "modulus": args.modulus,
        "f": list(instance.a),
        "g": list(instance.b),
    }
    return _run_digraph(args, instance, head, check, "u^e did not vanish in the ring")


def _run_ln(args: argparse.Namespace) -> int:
    primes = ln_decompose(args.modulus, args.ideal)
    report = {
        "mode": "ln",
        "modulus": args.modulus,
        "ideal": args.ideal,
        "radical": prod(primes),
        "primes": primes,
        "certificate": "verified",
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _run_pascal(args: argparse.Namespace) -> int:
    if args.n < 1 or args.m < 0:
        return _usage_error("pascal needs --n >= 1 and --m >= 0")
    if max(args.n, args.m) > MAX_INDEX:
        return _usage_error(f"pascal needs --n and --m <= {MAX_INDEX}")
    nodes = grow_digraph(ProblemInstance.generic(args.n, args.m)).nodes
    rows: list[list[str]] = []
    for added_a in range(args.n + 1):
        row = []
        for added_b in range(args.m + 1):
            label = IdealLabel(
                (0,) * (args.n - added_a) + (1,) * added_a,
                (0,) * (args.m - added_b) + (1,) * added_b,
            )
            row.append(str(nodes[label].exponent) if label in nodes else ".")
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


# Built once per process: parsing leaves the parser unchanged, and building
# it costs about as much as the rest of a small generic run.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
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
    except Exception as exc:
        print(f"ERROR:internal:{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
