"""End-to-end command-line behaviour: JSON reports, emitted files,
determinism and exit codes."""

from __future__ import annotations

import json

import pytest

from nilcert import load_certificate, verify_symbolic
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


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["generic", "--n", "2", "--m", "1"], "--emit-dot"),
            (["generic", "--n", "2", "--m", "1"], "--emit-cert"),
            (["concrete", "--modulus", "8", "--f", "1,2,4", "--g", "1,6"], "--emit-dot"),
        ],
    )
    def test_missing_directory(self, capsys, tmp_path, argv, flag):
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, *argv, flag, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("ERROR:bad-input:")
        assert str(path.parent) in err


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


class TestUnknownCommand:
    def test_rejected(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert err.startswith("ERROR:usage:")


class TestInternalErrors:
    def test_unexpected_exception_maps_to_internal(self, capsys, monkeypatch):
        def explode(digraph, target_index):
            raise OverflowError("a product exponent could reach 2**32")

        monkeypatch.setattr("nilcert.cli.extract_certificate", explode)
        code, out, err = run(capsys, "generic", "--n", "2", "--m", "1")
        assert code == 4
        assert out == ""
        assert err == "ERROR:internal:OverflowError: a product exponent could reach 2**32\n"
