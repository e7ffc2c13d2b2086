"""End-to-end command-line behaviour: JSON reports, emitted files,
determinism and exit codes."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from collections import Counter
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcert import (
    MultiPoly,
    ProblemInstance,
    certificates,
    grow_digraph,
    load_certificate,
    structural_metrics,
    verify_symbolic,
)
import helpers
from nilcert import cli
from nilcert.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConcreteCommand:
    def test_worked_example(self, capsys):
        code, out, err = run(
            capsys, "concrete", "--modulus", "8", "--f", "1,2,4", "--g", "1,6", "--minimal"
        )
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "concrete"
        assert report["n"] == 2 and report["m"] == 1
        assert report["targets"] == [
            {"i0": 1, "e": 3, "minimal": 3},
            {"i0": 2, "e": 3, "minimal": 2},
        ]
        assert report["metrics"]["vertex_count"] == 5
        assert report["certificate"] == "verified"

    def test_not_a_unit(self, capsys):
        code, out, err = run(capsys, "concrete", "--modulus", "8", "--f", "1,1", "--g", "1,1")
        assert code == 2
        assert err.startswith("ERROR:not-a-unit:")
        assert "c[1]" in err

    def test_coefficients_reduced_with_notice(self, capsys):
        code, out, err = run(capsys, "concrete", "--modulus", "8", "--f", "9,-6,4", "--g", "1,14")
        assert code == 0
        assert "notice" in err
        report = json.loads(out)
        assert report["f"] == [1, 2, 4]
        assert report["g"] == [1, 6]

    def test_single_target(self, capsys):
        code, out, _ = run(
            capsys, "concrete", "--modulus", "8", "--f", "1,2,4", "--g", "1,6", "--target", "2"
        )
        assert code == 0
        report = json.loads(out)
        assert [t["i0"] for t in report["targets"]] == [2]

    def test_target_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "concrete", "--modulus", "8", "--f", "1,2,4", "--g", "1,6", "--target", "5"
        )
        assert code == 1
        assert err.startswith("ERROR:usage:")

    def test_bad_coefficient_list(self, capsys):
        code, _, err = run(capsys, "concrete", "--modulus", "8", "--f", "1,x", "--g", "1")
        assert code == 1
        assert err.startswith("ERROR:bad-input:")

    def test_degree_past_max_index(self):
        """The convolution is quadratic in the degree: degree 30 000 ran
        for 142 s before degrees past 4095 were refused."""
        src = Path(__file__).resolve().parent.parent / "src"
        f = "1" + ",0" * 4096
        for argv in (["--f", f, "--g", "1"], ["--f", "1,0", "--g", f]):
            done = subprocess.run(
                [sys.executable, "-m", "nilcert", "concrete", "--modulus", "8", *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": str(src)},
                timeout=10,
            )
            assert (done.returncode, done.stdout) == (1, "")
            assert done.stderr == "ERROR:usage:concrete mode needs --f and --g of degree <= 4095\n"

    def test_early_stop_per_target(self, capsys, tmp_path):
        path = tmp_path / "run.dot"
        code, out, _ = run(
            capsys,
            "concrete", "--modulus", "8", "--f", "1,2,4", "--g", "1,6",
            "--early-stop", "--minimal", "--emit-dot", str(path),
        )
        assert code == 0
        report = json.loads(out)
        # stopping at u=a2 collapses the a-branch immediately
        assert report["targets"][0]["e"] == 3 and report["targets"][0]["minimal"] == 3
        assert report["targets"][1]["e"] == 2 and report["targets"][1]["minimal"] == 2
        assert report["targets"][1]["metrics"]["vertex_count"] == 3
        assert report["files"]["dot"] == [
            str(tmp_path / "run.a1.dot"),
            str(tmp_path / "run.a2.dot"),
        ]


class TestGenericCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "generic", "--n", "2", "--m", "1")
        assert code == 0
        report = json.loads(out)
        assert report["targets"] == [{"i0": 1, "e": 3}, {"i0": 2, "e": 3}]
        assert report["metrics"] == {
            "height": 2,
            "shortest_path": 1,
            "vertex_count": 5,
            "leaf_count": 3,
            "tree_leaf_count": 3,
        }
        assert report["certificate"] == "verified"

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "generic", "--n", "3", "--m", "2")
        _, second, _ = run(capsys, "generic", "--n", "3", "--m", "2")
        assert first == second

    def test_emit_dot(self, capsys, tmp_path):
        path = tmp_path / "digraph.dot"
        code, out, _ = run(
            capsys, "generic", "--n", "2", "--m", "1", "--emit-dot", str(path)
        )
        assert code == 0
        text = path.read_text(encoding="utf-8")
        assert text.count("->") == 4
        assert text.count("doublecircle") == 3
        for name in ("(00,0)", "(01,0)", "(00,1)", "(11,0)", "(01,1)"):
            assert f'"{name}"' in text
        report = json.loads(out)
        assert report["files"]["dot"] == [str(path)]
        # byte-identical on a second run
        run(capsys, "generic", "--n", "2", "--m", "1", "--emit-dot", str(path))
        assert path.read_text(encoding="utf-8") == text

    def test_emit_dot_single_node(self, capsys, tmp_path):
        path = tmp_path / "single.dot"
        code, _, _ = run(capsys, "generic", "--n", "1", "--m", "0", "--emit-dot", str(path))
        assert code == 0
        text = path.read_text(encoding="utf-8")
        assert '"(0)"' in text
        assert "->" not in text

    def test_emit_dot_vertex_count_3_2(self, capsys, tmp_path):
        path = tmp_path / "big.dot"
        code, _, _ = run(capsys, "generic", "--n", "3", "--m", "2", "--emit-dot", str(path))
        assert code == 0
        text = path.read_text(encoding="utf-8")
        node_lines = [line for line in text.splitlines() if "[label=" in line]
        assert len(node_lines) == 3 * 2 + 3 + 2

    def test_emit_cert_round_trip(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, out, _ = run(
            capsys,
            "generic", "--n", "2", "--m", "1", "--target", "1", "--emit-cert", str(path),
        )
        assert code == 0
        loaded = load_certificate(path.read_text(encoding="utf-8"))
        assert loaded.exponent == 3
        assert verify_symbolic(loaded).ok

    def test_emit_cert_all_targets(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, out, _ = run(
            capsys, "generic", "--n", "2", "--m", "1", "--emit-cert", str(path)
        )
        assert code == 0
        report = json.loads(out)
        emitted = report["files"]["certificates"]
        assert emitted == [str(tmp_path / "cert.a1.json"), str(tmp_path / "cert.a2.json")]
        for file_name in emitted:
            with open(file_name, encoding="utf-8") as handle:
                assert verify_symbolic(load_certificate(handle.read())).ok

    def test_unverified_certificates_are_not_written(self, capsys, monkeypatch, tmp_path):
        """Each dump is re-verified by full expansion before it is written,
        and one that fails is neither written nor listed."""
        build = certificates.combine

        def off_by_one(*args):
            coefficients = build(*args)
            coefficients[helpers.UNIT] = coefficients.get(helpers.UNIT, MultiPoly.zero()) + MultiPoly.one()
            return coefficients

        monkeypatch.setattr(certificates, "combine", off_by_one)
        code, out, err = run(capsys, "generic", "--n", "2", "--m", "1", "--emit-cert", str(tmp_path / "c.json"))
        assert code == 3
        assert err.startswith("ERROR:verification:")
        report = json.loads(out)
        assert report["certificate"] == "failed"
        assert "files" not in report
        assert list(tmp_path.iterdir()) == []

    def test_early_stop_reports_per_target_metrics(self, capsys):
        code, out, _ = run(capsys, "generic", "--n", "2", "--m", "1", "--early-stop")
        assert code == 0
        report = json.loads(out)
        assert "metrics" not in report
        assert report["targets"][0]["metrics"]["vertex_count"] >= 1
        # a2 is added first on the a-branch, so its early-stopped run is smaller
        assert (
            report["targets"][1]["metrics"]["vertex_count"]
            <= report["targets"][0]["metrics"]["vertex_count"]
        )

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "generic", "--n", "2")
        assert code == 1
        assert err.startswith("ERROR:usage:")

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, "generic", "--n", "0", "--m", "1")
        assert code == 1
        assert err.startswith("ERROR:usage:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("generic", "--n", "4096", "--m", "0", "--target", "4096"),
            ("generic", "--n", "1", "--m", "4096"),
            ("pascal", "--n", "4096", "--m", "0"),
            ("pascal", "--n", "1", "--m", "4096"),
        ],
        ids=["n past MAX_INDEX", "m past MAX_INDEX", "pascal n past MAX_INDEX", "pascal m past MAX_INDEX"],
    )
    def test_sizes_past_max_index(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("ERROR:usage:")

    def test_largest_size(self, capsys):
        code, out, _ = run(capsys, "generic", "--n", "4095", "--m", "0", "--target", "4095")
        assert code == 0
        assert json.loads(out)["targets"] == [{"i0": 4095, "e": 1}]


def bumped_unit(witness, label):
    """The keyed witness with its unit coefficient raised by 1."""
    field = helpers.field_form(witness, label)
    return helpers.keyed(dataclasses.replace(field, unit_coeff=field.unit_coeff + MultiPoly.one()), label)


class TestNodeLocalVerdict:
    """Without --emit-cert a generic run checks each target node by node
    and never builds the root identity."""

    def test_no_root_expansion_without_emit_cert(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("root identity built without --emit-cert")

        for name in (
            "nilcert.certificates.combine",
            "nilcert.certificates.node_witness",
            "nilcert.certificates.extract_certificate",
            "nilcert.certificates.certify",
            "nilcert.certificates.verify_symbolic",
            "nilcert.cli.certify",
            "nilcert.cli.verify_symbolic",
        ):
            monkeypatch.setattr(name, forbidden)
        for argv in (
            ("--n", "3", "--m", "2"),
            ("--n", "3", "--m", "2", "--early-stop"),
            ("--n", "2", "--m", "3", "--target", "2"),
        ):
            code, out, err = run(capsys, "generic", *argv)
            assert (code, err) == (0, ""), argv
            assert json.loads(out)["certificate"] == "verified"

    @pytest.mark.parametrize("emit", [False, True], ids=["node-local", "with --emit-cert"])
    def test_rejected_proof_fails_verification(self, capsys, monkeypatch, tmp_path, emit):
        build = certificates.gauss_product_witness

        def perturbed(i, j, label):
            """One coefficient of the root's product witness is off by one."""
            witness = build(i, j, label)
            if not (label.a or label.b):
                witness = bumped_unit(witness, label)
            return witness

        monkeypatch.setattr(certificates, "gauss_product_witness", perturbed)
        argv = ["generic", "--n", "2", "--m", "1"]
        if emit:
            argv += ["--emit-cert", str(tmp_path / "cert.json")]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert json.loads(out)["certificate"] == "failed"
        assert err == "ERROR:verification:symbolic certificate check failed\n"

    @pytest.mark.parametrize("emit", [False, True], ids=["node-local", "with --emit-cert"])
    def test_false_shared_product_fails_early_stop_run(self, capsys, monkeypatch, tmp_path, emit):
        """A false product witness at a branch that several targets'
        --early-stop digraphs share fails the run, and no dump is written."""
        instance = ProblemInstance.generic(3, 3)
        sharing = Counter(
            label
            for i0 in (1, 2, 3)
            for label, node in grow_digraph(instance, early_stop_target=i0).nodes.items()
            if node.children
        )
        at = next(label for label, count in sharing.items() if count > 1 and (label.a or label.b))
        build = certificates.gauss_product_witness

        def perturbed(i, j, label):
            witness = build(i, j, label)
            if label == at:
                witness = bumped_unit(witness, label)
            return witness

        monkeypatch.setattr(certificates, "gauss_product_witness", perturbed)
        argv = ["generic", "--n", "3", "--m", "3", "--early-stop"]
        if emit:
            argv += ["--emit-cert", str(tmp_path / "cert.json")]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert json.loads(out)["certificate"] == "failed"
        assert err == "ERROR:verification:symbolic certificate check failed\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("emit", [False, True], ids=["node-local", "with --emit-cert"])
    def test_one_walk_checks_every_early_stop_target(self, capsys, monkeypatch, tmp_path, emit):
        """An --early-stop run over every target makes one walk, which
        builds one product witness per distinct branch identity of the
        targets' early-stop digraphs."""
        walk, build, walks, products = certificates._walk, certificates.gauss_product_witness, [], []
        monkeypatch.setattr(certificates, "_walk", lambda *args: walks.append(args[1]) or walk(*args))
        monkeypatch.setattr(certificates, "gauss_product_witness", lambda *args: products.append(args) or build(*args))
        argv = ["generic", "--n", "3", "--m", "3", "--early-stop"]
        if emit:
            argv += ["--emit-cert", str(tmp_path / "c.json")]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert walks == [(1, 2, 3)]
        instance = ProblemInstance.generic(3, 3)
        branches = {
            (node.tag.i, node.tag.j, label)
            for i0 in (1, 2, 3)
            for label, node in grow_digraph(instance, early_stop_target=i0).nodes.items()
            if node.children
        }
        assert sorted(products) == sorted(branches)

    @pytest.mark.parametrize("emit", [False, True], ids=["node-local", "with --emit-cert"])
    def test_an_unchecked_exponent_fails_the_run(self, capsys, monkeypatch, tmp_path, emit):
        """A cut whose root exponent is off by one reports an e that the
        walk does not prove: the run fails, and no dump is written."""
        cut = cli.early_stop_cut

        def off_by_one(digraph, target):
            proof = cut(digraph, target)
            root = proof.nodes[proof.root]
            proof.nodes[proof.root] = dataclasses.replace(root, exponent=root.exponent + (target == 2))
            return proof

        monkeypatch.setattr(cli, "early_stop_cut", off_by_one)
        argv = ["generic", "--n", "3", "--m", "2", "--early-stop"]
        if emit:
            argv += ["--emit-cert", str(tmp_path / "c.json")]
        code, out, err = run(capsys, *argv)
        assert code == 3
        report = json.loads(out)
        assert [entry["e"] for entry in report["targets"]] == [10, 7, 3]
        assert report["certificate"] == "failed"
        assert err == "ERROR:verification:symbolic certificate check failed\n"
        if emit:
            assert sorted(path.name for path in tmp_path.iterdir()) == ["c.a1.json", "c.a3.json"]

    @pytest.mark.parametrize("extra", [[], ["--early-stop"]], ids=["shared", "early-stop"])
    def test_each_node_witness_built_once_with_emit_cert(self, capsys, monkeypatch, tmp_path, extra):
        """With --emit-cert, the one walk that checks the run's digraphs
        also combines their root certificates: the witness source builds
        each distinct identity the digraphs' proofs read once, for all
        targets, however many of the --early-stop digraphs share it: one
        product witness per distinct branch, and each target's leaf
        identity once per form (generator or relation) its proof ends in."""
        build, calls, products = certificates.gauss_product_witness, [], []
        source = certificates.local_witnesses
        monkeypatch.setattr(certificates, "local_witnesses", lambda *args: calls.append(args) or source(*args))
        monkeypatch.setattr(certificates, "gauss_product_witness", lambda *args: products.append(args) or build(*args))
        code, out, _ = run(capsys, "generic", "--n", "3", "--m", "2", *extra, "--emit-cert", str(tmp_path / "c.json"))
        assert code == 0 and json.loads(out)["certificate"] == "verified"
        instance = ProblemInstance.generic(3, 2)
        stops = (1, 2, 3) if extra else (None,)
        digraphs = {stop: grow_digraph(instance, early_stop_target=stop) for stop in stops}
        nodes = {(label, node.tag) for digraph in digraphs.values() for label, node in digraph.nodes.items()}
        assert Counter(products) == Counter((tag.i, tag.j, label) for label, tag in nodes if not tag.is_leaf)
        built = Counter((i0, label.has("a", i0)) for label, tag, targets in calls if tag.is_leaf for i0 in targets)
        read = {
            (i0, label.has("a", i0))
            for stop, digraph in digraphs.items()
            for label, node in digraph.nodes.items()
            if node.tag.is_leaf
            for i0 in ((stop,) if stop else (1, 2, 3))
        }
        assert set(built) == read and max(built.values()) == 1

    @pytest.mark.parametrize("n, m", [(4, 4), (10, 10), (15, 15)])
    def test_large_runs_finish(self, n, m):
        """(4,4) ran for more than 300 s when every target's root identity
        was expanded; all three sizes now take well under a second."""
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "nilcert", "generic", "--n", str(n), "--m", str(m)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=30,
        )
        report = {
            "mode": "generic",
            "n": n,
            "m": m,
            "targets": [{"i0": i0, "e": comb(n + m, n)} for i0 in range(1, n + 1)],
            "metrics": structural_metrics(grow_digraph(ProblemInstance.generic(n, m))),
            "certificate": "verified",
        }
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == json.dumps(report, indent=2) + "\n"


    @pytest.mark.parametrize(
        "argv",
        [["generic", "--n", "200", "--m", "1"], ["pascal", "--n", "1", "--m", "4095"]],
        ids=["generic 200 1", "pascal 1 4095"],
    )
    def test_peak_memory_of_a_deep_run(self, argv):
        """Each run stays under 40 MB peak RSS.  generic (200,1) keeps only
        each checked node's exponent, where keeping every node's witness
        took 130 MB.  pascal (1,4095) holds 8 191 labels of 4 096 bits,
        which took 150 MB as tuples of 0/1 ints and takes about 21 MB as
        int masks.  An intermediate process runs each, so RUSAGE_CHILDREN
        (KiB on Linux) covers that one run and not every earlier child of
        this test process."""
        src = Path(__file__).resolve().parent.parent / "src"
        probe = (
            "import resource, subprocess, sys; "
            "code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, timeout=120).returncode; "
            "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe, sys.executable, "-m", "nilcert", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=150,
        )
        code, peak_kib = map(int, done.stdout.split())
        assert (code, done.stderr) == (0, "")
        assert peak_kib < 40 * 1024


# Strings with the characters json escapes, or may: quote, backslash,
# control characters, DEL, non-ASCII and a lone surrogate.
_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\\n\t\x00\x1f\x7f\xe9\u2028\ud800\U0001f600')), max_size=8)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=10**60),
    st.integers(min_value=-(10**60), max_value=-(2**64)),
    _TEXT,
)
_REPORTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.dictionaries(_TEXT, inner, max_size=5)),
    max_leaves=30,
)


class TestRender:
    """The report writer is json.dumps(value, indent=2), byte for byte."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_REPORTS)
    def test_matches_json_dumps(self, value):
        assert cli._render(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            {"x": {}, "y": [[], {}], "z": [{"": None}]},
            {1: "int key", None: [True, False], 2.5: {"nested": (1, "tuple")}},
            [1.0, -0.0, float("inf"), float("nan"), 10**30, -(10**30)],
            {"s": "\"\\\n\u00e9\U0001f600", "t": (), "b": True},
        ],
    )
    def test_values_it_hands_to_json(self, value):
        """Empty containers, non-str keys, tuples and floats go through
        json.dumps and keep the indent of their place."""
        assert cli._render(value) == json.dumps(value, indent=2)

    def test_real_reports(self, capsys):
        for argv in (CONCRETE_Z8 + ["--minimal"], ["ln", "--modulus", "510510", "--ideal", "510510"]):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestParserReuse:
    def test_emit_dot_does_not_carry_over_to_the_next_run(self, capsys, tmp_path):
        argv = ["generic", "--n", "2", "--m", "1"]
        code, out, _ = run(capsys, *argv, "--emit-dot", str(tmp_path / "d.dot"))
        assert code == 0
        assert json.loads(out)["files"] == {"dot": [str(tmp_path / "d.dot")]}
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "files" not in json.loads(out)


GENERIC_2_1 = ["generic", "--n", "2", "--m", "1"]
CONCRETE_Z8 = ["concrete", "--modulus", "8", "--f", "1,2,4", "--g", "1,6"]


def _grammar() -> dict[str, list[argparse.Action]]:
    """Each subcommand of cli.build_parser() with its actions, help included."""
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: sub._actions for name, sub in commands.choices.items()}


_GRAMMAR = _grammar()
# Half are sizes, a tenth of them negative; the rest are the unusual ones.
_VALUES = st.one_of(
    st.integers(-5, 40).map(str),
    st.sampled_from(["0", "-7", "", "--", "x", "1,2,4", "-7,2,4", "1,6", " 3", "1_0", "+3", "-h", "generic", "a b"]),
)
_FORMS = st.sampled_from(["canonical"] * 6 + ["equals", "abbrev", "bare", "stray"])
# Per subcommand: its required options, each with a value, and lists of
# (option string, takes a value, form, value, abbreviation length).
_REQUIRED = {
    name: st.tuples(*[st.tuples(st.just(a.option_strings[0]), _VALUES) for a in actions if a.required])
    for name, actions in _GRAMMAR.items()
}
_OPTIONS = {
    name: st.lists(
        st.tuples(
            st.sampled_from([(option, a.nargs != 0) for a in actions for option in a.option_strings]),
            _FORMS,
            _VALUES,
            st.integers(2, 12),
        ),
        max_size=2,
    )
    for name, actions in _GRAMMAR.items()
}


def _tokens(items) -> list[str]:
    tokens = []
    for (option, takes), form, value, length in items:
        if form == "equals":
            tokens.append(f"{option}={value}")
        elif form == "stray":
            tokens.append(value)
        else:
            tokens.append(option[:length] if form == "abbrev" else option)
            tokens += [value] if takes and form != "bare" else []
    return tokens


@st.composite
def _argvs(draw) -> list[str]:
    """A subcommand (or an unknown one, or -h), options, then optionally
    its required options, each with a value, then more options.  Each
    option is in one of five forms: canonical, --flag=value, an
    abbreviation, without its value, or a stray value."""
    name = draw(st.sampled_from([*_GRAMMAR] * 3 + ["frobnicate", "-h"]))
    grammar = name if name in _GRAMMAR else "generic"
    required = draw(_REQUIRED[grammar]) if draw(st.integers(0, 3)) else ()
    before, after = draw(_OPTIONS[grammar]), draw(_OPTIONS[grammar])
    return [name, *_tokens(before), *[token for pair in required for token in pair], *_tokens(after)]


class TestFastArgs:
    """cli._fast_args reads the canonical form from the parser's own action
    table and leaves every other form to argparse."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_argvs())
    def test_agrees_with_argparse(self, argv):
        fast = cli._fast_args(argv)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                expected = cli._PARSER.parse_args(argv)
        except SystemExit:
            assert fast is None
            return
        if fast is not None:
            assert vars(fast) == vars(expected)

    @pytest.mark.parametrize(
        "argv",
        [
            ["generic", "--n", "2", "--m", "1", "--target", "1", "--emit-dot", "d.dot", "--emit-cert", "c.json", "--early-stop"],
            [*CONCRETE_Z8, "--target", "2", "--minimal", "--emit-dot", "d.dot", "--early-stop"],
            [*CONCRETE_Z8, "--minimal", "--early-stop"],
            ["ln", "--modulus", "12", "--ideal", "6"],
            ["pascal", "--n", "2", "--m", "1"],
        ],
        ids=["generic", "concrete", "concrete lattice", "ln", "pascal"],
    )
    def test_canonical_argv_is_accepted(self, argv):
        fast = cli._fast_args(argv)
        assert fast is not None
        assert vars(fast) == vars(cli._PARSER.parse_args(argv))

    def test_every_subcommand_and_option_is_in_the_table(self):
        options = {
            name: {o for action in actions if not isinstance(action, argparse._HelpAction) for o in action.option_strings}
            for name, actions in _GRAMMAR.items()
        }
        assert {name: set(entry[0]) for name, entry in cli._FAST_TABLE.items()} == options


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv, flag, path",
        [
            pytest.param(GENERIC_2_1, "--emit-dot", None, id="argv0---emit-dot"),
            pytest.param(GENERIC_2_1, "--emit-cert", None, id="argv1---emit-cert"),
            pytest.param(CONCRETE_Z8, "--emit-dot", None, id="argv2---emit-dot"),
            # Paths that name no file, refused before any digraph is grown,
            # so the DOT file named first is not written either.  The run
            # starts in tmp_path/work, so ".." and "../work" are existing
            # directories.
            *(
                pytest.param([*GENERIC_2_1, *extra, "--emit-dot", "d.dot"], "--emit-cert", path, id=name + tag)
                for path, name in (
                    ("/", "--emit-cert-root"),
                    (".", "--emit-cert-dot"),
                    ("", "--emit-cert-empty"),
                    ("..", "--emit-cert-parent"),
                    ("../work", "--emit-cert-directory"),
                    ("sub/", "--emit-cert-trailing-slash"),
                    ("sub/.", "--emit-cert-trailing-dot"),
                )
                for extra, tag in (([], ""), (["--target", "1"], "-target1"))
            ),
            pytest.param([*GENERIC_2_1, "--early-stop"], "--emit-dot", "/", id="early-stop--emit-dot-root"),
            pytest.param([*CONCRETE_Z8, "--target", "2"], "--emit-dot", ".", id="concrete--emit-dot-dot"),
            pytest.param([*GENERIC_2_1, "--early-stop"], "--emit-dot", "..", id="early-stop--emit-dot-parent"),
            pytest.param([*GENERIC_2_1, "--target", "1"], "--emit-dot", "new/.", id="target1--emit-dot-trailing-dot"),
            # A certificate dump that would overwrite the DOT file, also
            # refused before any digraph is grown.
            *(
                pytest.param([*GENERIC_2_1, *extra, "--emit-dot", dot], "--emit-cert", cert, id=name)
                for extra, dot, cert, name in (
                    (["--target", "1"], "out.txt", "./out.txt", "same-file-target1"),
                    (["--early-stop"], "out.txt", "./out.txt", "same-file-early-stop"),
                    ([], "out.a1.txt", "out.txt", "same-file-per-target-name"),
                )
            ),
        ],
    )
    def test_missing_directory(self, capsys, tmp_path, monkeypatch, argv, flag, path):
        """A file in a missing directory, or a path that names no file, is
        bad input: exit 1, no report and no file written."""
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        shown = repr(path)
        if path is None:
            path = str(tmp_path / "missing" / "out.txt")
            shown = str(tmp_path / "missing")
        code, out, err = run(capsys, *argv, flag, path)
        assert code == 1
        assert out == ""
        assert err.startswith("ERROR:bad-input:")
        assert shown in err
        assert list(tmp_path.iterdir()) == [work]
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--emit-dot", "--emit-cert"])
    def test_missing_directory_refused_before_growth(self, capsys, tmp_path, monkeypatch, flag):
        """A path in a missing directory is refused before any digraph is
        grown, so the other flag's file is not written either."""

        def forbidden(*args, **kwargs):
            raise AssertionError("digraph grown for a run that cannot write its files")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "grow_digraph", forbidden)
        paths = {"--emit-dot": "ok.dot", "--emit-cert": "ok.json", flag: "nodir/out.txt"}
        code, out, err = run(capsys, "generic", "--n", "3", "--m", "2", *(x for pair in paths.items() for x in pair))
        assert code == 1
        assert out == ""
        assert err == f"ERROR:bad-input:{flag} path 'nodir/out.txt': 'nodir' is not a directory\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, directory",
        [
            pytest.param(["generic", "--n", "3", "--m", "2", "--emit-cert", "c.json"], "c.a2.json", id="generic-cert"),
            pytest.param([*CONCRETE_Z8, "--early-stop", "--emit-dot", "d.dot"], "d.a1.dot", id="concrete-dot"),
        ],
    )
    def test_per_target_name_is_a_directory(self, capsys, tmp_path, monkeypatch, argv, directory):
        """A per-target file name that is an existing directory is refused
        before any digraph is grown: no report and no other file written."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / directory).mkdir()
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"ERROR:bad-input:{argv[-2]} path {directory!r} names no file\n"
        assert [path.name for path in tmp_path.iterdir()] == [directory]


class TestLnCommand:
    def test_mod12(self, capsys):
        code, out, _ = run(capsys, "ln", "--modulus", "12", "--ideal", "12")
        assert code == 0
        report = json.loads(out)
        assert report["primes"] == [2, 3]
        assert report["radical"] == 6
        assert report["certificate"] == "verified"

    def test_bad_ideal(self, capsys):
        code, _, err = run(capsys, "ln", "--modulus", "12", "--ideal", "7")
        assert code == 1
        assert err.startswith("ERROR:bad-input:")


class TestPascalCommand:
    def test_grid_2_1(self, capsys):
        code, out, _ = run(capsys, "pascal", "--n", "2", "--m", "1")
        assert code == 0
        assert out == "3 1\n2 1\n1 .\n"

    def test_grid_2_2(self, capsys):
        code, out, _ = run(capsys, "pascal", "--n", "2", "--m", "2")
        assert code == 0
        assert out == "6 3 1\n3 2 1\n1 1 .\n"

    def test_grid_matches_binomials(self, capsys):
        """Row x, column y is the label with the last x a's and the last y
        b's added.  A reached cell holds binomial(x', y') for the x' a's and
        y' b's still missing; a cell with both counts positive branches to
        its two neighbours with one fewer, the others are leaves."""
        for n in range(1, 13):
            for m in range(0, 13):
                reached = {(n, m)}
                for missing_a in range(n, 0, -1):
                    for missing_b in range(m, 0, -1):
                        if (missing_a, missing_b) in reached:
                            reached |= {(missing_a - 1, missing_b), (missing_a, missing_b - 1)}
                rows = [
                    [
                        str(comb(n - x + m - y, n - x)) if (n - x, m - y) in reached else "."
                        for y in range(m + 1)
                    ]
                    for x in range(n + 1)
                ]
                width = max(len(cell) for row in rows for cell in row)
                expected = "".join(" ".join(c.rjust(width) for c in row) + "\n" for row in rows)
                code, out, _ = run(capsys, "pascal", "--n", str(n), "--m", str(m))
                assert code == 0
                assert out == expected, (n, m)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, err",
        [
            (("generic", "--n", "2", "--m", "1", "--target", "0"), "--target must lie in 1..2"),
            (("generic", "--n", "2", "--m", "1", "--target", "3"), "--target must lie in 1..2"),
            (("concrete", "--modulus", "1", "--f", "1,2", "--g", "1"), "--modulus must be >= 2"),
            (("concrete", "--modulus", "8", "--f", "5", "--g", "1"), "--f needs at least two coefficients (degree >= 1)"),
            (
                ("concrete", "--modulus", "8", "--f", "1" + ",0" * 4096, "--g", "1"),
                "concrete mode needs --f and --g of degree <= 4095",
            ),
            (("pascal", "--n", "0", "--m", "1"), "pascal needs --n >= 1 and --m >= 0"),
            (("pascal", "--n", "1", "--m", "-1"), "pascal needs --n >= 1 and --m >= 0"),
            (("generic", "--n", "2", "--m"), "argument --m: expected one argument"),
            (("concrete", "--modulus", "8", "--f", "-7,2,4", "--g", "1,6"), "argument --f: expected one argument"),
            (("generic", "--n", "x", "--m", "1"), "argument --n: invalid int value: 'x'"),
            (("generic", "--n", "2", "--m", "1", "extra"), "unrecognized arguments: extra"),
            (("generic", "--n", "2"), "the following arguments are required: --m"),
        ],
        ids=[
            "target 0",
            "target past n",
            "modulus 1",
            "degree 0",
            "degree past MAX_INDEX",
            "pascal n 0",
            "pascal m -1",
            "missing value",
            "list with a leading minus",
            "invalid int",
            "unrecognized argument",
            "missing required",
        ],
    )
    def test_exit_code_and_message(self, capsys, argv, err):
        assert run(capsys, *argv) == (1, "", f"ERROR:usage:{err}\n")

    @pytest.mark.parametrize(
        "argv, canonical",
        [
            (["generic", "--n=2", "--m", "1"], GENERIC_2_1),
            ([*GENERIC_2_1, "--targ", "1"], [*GENERIC_2_1, "--target", "1"]),
            (["generic", "--n", "5", *GENERIC_2_1[1:]], GENERIC_2_1),
        ],
        ids=["--n=2", "abbreviation", "repeated --n"],
    )
    def test_argparse_forms_print_the_canonical_report(self, capsys, argv, canonical):
        assert run(capsys, *argv) == run(capsys, *canonical)

    def test_list_with_a_leading_minus_after_equals(self, capsys):
        code, out, err = run(capsys, "concrete", "--modulus", "8", "--f=-7,2,4", "--g", "1,6")
        assert (code, out, err) == (0, run(capsys, *CONCRETE_Z8)[1], "notice: coefficients reduced mod 8\n")


# `nilcert [COMMAND] --help` at COLUMNS=80; the same bytes on Python 3.10 to 3.13.
HELP = {
    "": """\
usage: nilcert [-h] {generic,concrete,ln,pascal} ...

Compute a nilpotency exponent e with u^e = 0 for the nonconstant coefficients
u of an invertible polynomial, together with a checkable polynomial-identity
certificate.

positional arguments:
  {generic,concrete,ln,pascal}
    generic             indeterminate coefficients, with certificate
    concrete            coefficients in Z/modulus
    ln                  radical decomposition into primes over Z/modulus
    pascal              print the exponent grid for n, m

options:
  -h, --help            show this help message and exit
""",
    "generic": """\
usage: nilcert generic [-h] --n N --m M [--target TARGET] [--emit-dot PATH]
                       [--emit-cert PATH] [--early-stop]

options:
  -h, --help        show this help message and exit
  --n N             degree of f
  --m M             degree of g
  --target TARGET   index i0 of u = a_i0 (default: all)
  --emit-dot PATH   write the digraph as DOT
  --emit-cert PATH  write certificate dump(s)
  --early-stop      stop a branch as soon as u itself enters the ideal
""",
    "concrete": """\
usage: nilcert concrete [-h] --modulus MODULUS --f F --g G [--target TARGET]
                        [--minimal] [--emit-dot PATH] [--early-stop]

options:
  -h, --help         show this help message and exit
  --modulus MODULUS
  --f F              coefficients of f, lowest degree first
  --g G              coefficients of g, lowest degree first
  --target TARGET    index i0 of u = a_i0 (default: all)
  --minimal          also report the least exponent that already kills each
                     target
  --emit-dot PATH    write the digraph as DOT
  --early-stop       stop a branch as soon as u itself enters the ideal
""",
    "ln": """\
usage: nilcert ln [-h] --modulus MODULUS --ideal IDEAL

options:
  -h, --help         show this help message and exit
  --modulus MODULUS
  --ideal IDEAL      generator d of the ideal (d | modulus)
""",
    "pascal": """\
usage: nilcert pascal [-h] --n N --m M

options:
  -h, --help  show this help message and exit
  --n N
  --m M
""",
}


class TestHelp:
    @pytest.mark.parametrize("command", list(HELP))
    def test_bytes(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, *command.split(), "--help") == (0, HELP[command], "")


class TestUnknownCommand:
    def test_rejected(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert err.startswith("ERROR:usage:")


class TestInternalErrors:
    def test_unexpected_exception_maps_to_internal(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise OverflowError("a product exponent could reach 2**32")

        monkeypatch.setattr("nilcert.cli.checked_exponents", explode)
        code, out, err = run(capsys, "generic", "--n", "2", "--m", "1")
        assert code == 4
        assert out == ""
        assert err == "ERROR:internal:OverflowError: a product exponent could reach 2**32\n"


class TestEntryPoint:
    """``python -m nilcert`` in a subprocess, so exit codes must reach the
    operating system through ``__main__``."""

    @pytest.mark.parametrize(
        "argv, code, out, err_prefix",
        [
            (["pascal", "--n", "2", "--m", "1"], 0, "3 1\n2 1\n1 .\n", ""),
            (["generic", "--n", "0", "--m", "1"], 1, "", "ERROR:usage:"),
            (["concrete", "--modulus", "8", "--f", "1,1", "--g", "1"], 2, "", "ERROR:not-a-unit:"),
            (["ln", "--modulus", "12", "--ideal", "5"], 1, "", "ERROR:bad-input:"),
            (["concrete", "--modulus", "1", "--f", "1,1", "--g", "1"], 1, "", "ERROR:usage:"),
            (["concrete", "--modulus", "0", "--f", "1,1", "--g", "1"], 1, "", "ERROR:usage:"),
        ],
    )
    def test_exit_code_and_output(self, argv, code, out, err_prefix):
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "nilcert", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert done.returncode == code
        assert done.stdout == out
        assert done.stderr.startswith(err_prefix)
        assert "Traceback" not in done.stdout + done.stderr
