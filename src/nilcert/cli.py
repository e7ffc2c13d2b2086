"""Command-line front end.

Subcommands:

  generic   --n N --m M [--target I0] [--emit-dot PATH] [--emit-cert PATH]
            [--early-stop]
  concrete  --modulus N --f c0,c1,.. --g c0,c1,.. [--target I0] [--minimal]
            [--emit-dot PATH] [--early-stop]
  ln        --modulus N --ideal D
  pascal    --n N --m M

generic and concrete run one pipeline that grows one digraph per run: the
plain one, which serves every target, or with --early-stop and --target
the one early-stopped for that target.  With --early-stop over every
target it is the plain one too, since stopping once every target is in
is the plain leaf rule; each target's early-stop digraph is cut from it,
one at a time, only for its DOT file, metrics and e.  Then every target
is checked in one call and the report is printed.  Only the check
differs.  Generic mode checks the proofs node by node for all targets in
one walk over the grown digraph, each node's own witnesses built,
expanded exactly and dropped, each branch identity once however many
targets go on past it, and each reported e must be the exponent the walk
proves; with --emit-cert the same walk also combines each target's root
certificate from the witnesses it checked, and each is verified by full
expansion and dumped only if it holds.  Concrete mode evaluates u^e in
Z/modulus.

The argument parser is built once per process.  A canonical argument
vector (the subcommand, then exact option strings, each value one that
does not start with "-" and that the option's type converts) is read
from a table built from that parser's own actions; every other form,
--help and every usage error go to argparse itself.

Refused before any digraph is grown: --n or --m above 4095 (generic and
pascal) and f or g of degree above 4095 (concrete), with ERROR:usage:;
an --emit-dot or --emit-cert path that names no file (such as "/", ".",
"", ".." or any existing directory, or a per-target name such as
"c.a2.json" that is one) or that lies in a missing directory, and an
--emit-dot path whose DOT file a certificate dump would overwrite (such
as "out.txt" and "./out.txt" with one target), with ERROR:bad-input:.

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
from json.encoder import encode_basestring_ascii
from math import prod
from pathlib import Path
from typing import Callable

from .certificates import certify, checked_exponents, dump_certificate, power_check, verify_symbolic
from .dot import emit_dot
from .engine import (
    NotAUnit,
    ProblemInstance,
    check_unit,
    convolution,
    early_stop_cut,
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


def _render(value: object, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, without the
    pure-Python encoder that ``indent`` selects: strings, ints, and
    nonempty dicts with str keys and lists of such values are written
    here, every other value by ``json.dumps``.  ``newline`` is a line
    break followed by the indent of the value's own line."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    inner = newline + "  "
    if kind is dict and value and all(type(key) is str for key in value):
        items = [encode_basestring_ascii(key) + ": " + _render(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list and value:
        return "[" + inner + ("," + inner).join([_render(item, inner) for item in value]) + newline + "]"
    # json writes no raw line break inside a string: each one is indent.
    return json.dumps(value, indent=2).replace("\n", newline)


def _run_digraph(
    args: argparse.Namespace,
    instance: ProblemInstance,
    head: dict,
    check: Callable[..., tuple[list[dict], bool]],
    failure: str,
) -> int:
    """The pipeline shared by generic and concrete mode.

    Refuses an output path that names a directory, not a file, or whose
    per-target name does, or that lies in a missing directory, and a DOT
    file that a certificate dump would overwrite.  Then grows one digraph,
    and cuts each target's early-stop digraph from it, one at a time, when
    --early-stop runs over every target: each target's digraph gives its
    DOT file, metrics and e.  ``check(digraph, exponents, early_stop,
    emit)``, with ``exponents`` mapping each target to its e and
    ``early_stop`` true when the targets' digraphs are cuts, returns the
    report entries and whether every target's check passed; then the
    report is printed.  ``emit(kind, path, i0, text)`` writes a file,
    named per target when there are several targets and i0 is given.
    """
    dot, cert = args.emit_dot, getattr(args, "emit_cert", None)
    for flag, path in (("--emit-dot", dot), ("--emit-cert", cert)):
        if path is None:
            continue
        if Path(path).name in ("", "..") or Path(path).is_dir():
            raise BadInput(f"{flag} path {path!r} names no file")
        parent = Path(path).parent
        if not parent.is_dir():
            raise BadInput(f"{flag} path {path!r}: {str(parent)!r} is not a directory")
    targets = list(range(1, instance.n + 1)) if args.target is None else [args.target]
    # The target each DOT file is named for: every one with --early-stop.
    stops = targets if args.early_stop else [None]
    files: dict[str, list[str]] = {}

    def named(path: str, i0: int | None) -> Path:
        target_path = Path(path)
        if i0 is not None and len(targets) > 1:
            target_path = target_path.with_name(f"{target_path.stem}.a{i0}{target_path.suffix}")
        return target_path

    # So is a per-target name of a file the run will write.
    writes = [("--emit-dot", named(dot, stop)) for stop in stops if dot]
    writes += [("--emit-cert", named(cert, i0)) for i0 in targets if cert]
    for flag, target_path in writes:
        if target_path.is_dir():
            raise BadInput(f"{flag} path {str(target_path)!r} names no file")

    # Per-target naming keeps a path's directory, so file names are
    # compared first and the directories resolved only if two coincide.
    if dot and cert:
        names = {named(dot, stop).name for stop in stops}
        if not names.isdisjoint(named(cert, i0).name for i0 in targets) and (
            Path(dot).parent.resolve() == Path(cert).parent.resolve()
        ):
            raise BadInput(f"--emit-dot path {dot!r} and --emit-cert path {cert!r} would write the same file")

    def emit(kind: str, path: str, i0: int | None, text: str) -> None:
        target_path = named(path, i0)
        target_path.write_text(text, encoding="utf-8")
        files.setdefault(kind, []).append(str(target_path))

    digraph = grow_digraph(instance, early_stop_target=args.target if args.early_stop else None)
    cut = args.early_stop and args.target is None
    if dot and not args.early_stop:
        emit("dot", dot, None, emit_dot(digraph))
    exponents, metrics = {}, []
    for i0 in targets:
        proof = early_stop_cut(digraph, i0) if cut else digraph
        if dot and args.early_stop:
            emit("dot", dot, i0, emit_dot(proof))
        exponents[i0] = proof.nodes[proof.root].exponent
        if args.early_stop:
            metrics.append(structural_metrics(proof))
    target_reports, all_verified = check(digraph, exponents, cut, emit)
    for entry, target_metrics in zip(target_reports, metrics):
        entry["metrics"] = target_metrics

    report = {**head, "targets": target_reports}
    if not args.early_stop:
        report["metrics"] = structural_metrics(digraph)
    report["certificate"] = "verified" if all_verified else "failed"
    if files:
        report["files"] = files
    print(_render(report))
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

    def check(digraph, exponents, early_stop, emit):
        """Each reported e must be the one the walk proves."""
        entries = [{"i0": i0, "e": e} for i0, e in exponents.items()]
        if not args.emit_cert:
            return entries, checked_exponents(digraph, *exponents, early_stop=early_stop) == exponents
        certificates = certify(digraph, *exponents, early_stop=early_stop)
        if certificates is None:
            return entries, False
        verified = [c for c in certificates if c.exponent == exponents[c.target_index] and verify_symbolic(c).ok]
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

    def check(digraph, exponents, early_stop, emit):
        entries, ok = [], True
        for i0, exponent in exponents.items():
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
    print(_render(report))
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
            label = IdealLabel.tail(args.n, args.m, added_a, added_b)
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


def _fast_table(parser: argparse.ArgumentParser) -> dict[str, tuple[dict, dict, frozenset]]:
    """Per subcommand, from the parser's own actions: its option strings
    mapped to their actions, the namespace argparse starts from (every
    default and ``set_defaults`` value) and its required dests.  A
    subcommand with any action other than help, a plain store and
    store_true, or with a mutually exclusive group, is left out."""
    top = [action for action in parser._actions if type(action) is not argparse._HelpAction]
    if len(top) != 1 or not isinstance(top[0], argparse._SubParsersAction):
        return {}
    commands, table = top[0], {}
    for name, sub in commands.choices.items():
        options, defaults, required = {}, {**parser._defaults, commands.dest: name, **sub._defaults}, set()
        for action in sub._actions:
            kind = type(action)
            if kind is argparse._HelpAction:
                continue
            plain = kind is argparse._StoreAction and action.nargs is None and action.choices is None
            # A str default (SUPPRESS is one) argparse would convert or omit.
            if not (plain or kind is argparse._StoreTrueAction) or isinstance(action.default, str):
                break
            options.update(dict.fromkeys(action.option_strings, action))
            defaults[action.dest] = action.default
            if action.required:
                required.add(action.dest)
        else:
            if not sub._mutually_exclusive_groups:
                table[name] = (options, defaults, frozenset(required))
    return table


def _fast_args(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``_PARSER.parse_args(argv)`` returns, for the
    canonical form only: a subcommand, then exact option strings, each
    store option followed by a value that does not start with "-" and that
    its type converts, and every required option present.  Anything else
    returns None and is left to argparse."""
    entry = _FAST_TABLE.get(argv[0]) if argv else None
    if entry is None:
        return None
    options, defaults, required = entry
    values = {}
    index, count = 1, len(argv)
    while index < count:
        action = options.get(argv[index])
        if action is None:
            return None
        if action.nargs == 0:
            values[action.dest] = action.const
            index += 1
            continue
        if index + 1 == count or argv[index + 1].startswith("-"):
            return None
        try:
            values[action.dest] = action.type(argv[index + 1]) if action.type else argv[index + 1]
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        index += 2
    if not required <= values.keys():
        return None
    return argparse.Namespace(**{**defaults, **values})


# Built once per process: parsing leaves the parser unchanged, and building
# it costs about as much as the rest of a small generic run.  Canonical
# argument vectors are read from its action table by _fast_args; every
# other form, with --help and every usage error, goes to argparse.
_PARSER = build_parser()
_FAST_TABLE = _fast_table(_PARSER)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv)
    if args is None:
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
