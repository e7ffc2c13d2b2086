"""Golden bytes of CLI runs past the golden grid of test_golden.py.

That grid stops at n+m <= 6.  The runs below reach labels with long
leading runs and deep closures, where the case split and the element
witnesses take paths the small sizes never take.  Each digest covers the
exit code, stdout, stderr and every emitted file of one run, with the run's
directory written as "{tmp}"; they were recorded from the per-bit closure
loop that the closed form on leading runs replaced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from nilcert.cli import main

# name -> (argv, sha256 of the run's record); "{tmp}" is the run's directory.
CASES = {
    "generic 1x120 dot": (
        ["generic", "--n", "1", "--m", "120", "--emit-dot", "{tmp}/d.dot"],
        "ef20ba67aebe9bcff4ea6b9c68206c91dbaacec106f6eb28c731306d8ab96473",
    ),
    "generic 2x9 early-stop": (
        ["generic", "--n", "2", "--m", "9", "--target", "2", "--early-stop"],
        "34b4c908b9956b05aefa2d02b9c2a35b1255483210a93dfb3c80c5a8ce1b8308",
    ),
    "pascal 1x300": (
        ["pascal", "--n", "1", "--m", "300"],
        "43905d069aa524044159d1a59e8c59cf6d314bd16db14acdad1621019574bc70",
    ),
    "pascal 30x30": (
        ["pascal", "--n", "30", "--m", "30"],
        "60a07384fab8289b56f9156c772e0a03fdf9524bf71429ae41b3f7acdf31f56d",
    ),
}


def run_digest(argv: list[str], workdir) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace("{tmp}", str(workdir)) for arg in argv])
    files = [[path.name, path.read_text(encoding="utf-8")] for path in sorted(workdir.iterdir())]
    record = json.dumps([argv, code, out.getvalue(), err.getvalue(), files])
    return hashlib.sha256(record.replace(str(workdir), "{tmp}").encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_large_runs_match_golden_bytes(name, tmp_path):
    argv, expected = CASES[name]
    assert run_digest(argv, tmp_path) == expected
