"""Golden bytes of CLI runs past the golden grid of test_golden.py.

That grid stops at n+m <= 6.  The runs below reach labels with long
leading runs and deep closures, where the case split and the element
witnesses take paths the small sizes never take.  Each digest covers the
exit code, stdout, stderr and every emitted file of one run, with the run's
directory written as "{tmp}"; they were recorded from the per-bit closure
loop that the closed form on leading runs replaced.  The (4,3) root
certificates, every target plain and with --early-stop, are where
``certificates.combine`` does most of its work (a_1's plain root witness
has 54 171 terms); their digests were recorded while each checked node
witness was still converted into generator-keyed field witnesses before
it was combined.
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
    "generic 4x3 emit-cert": (
        ["generic", "--n", "4", "--m", "3", "--emit-cert", "{tmp}/c.json"],
        "037a696b70fd9ce7254c9461ae6b540ec4b01f7e63d36c54e7b27c8045d91fdb",
    ),
    "generic 4x3 early-stop emit-cert": (
        ["generic", "--n", "4", "--m", "3", "--early-stop", "--emit-cert", "{tmp}/c.json"],
        "138ab6fe304ed5c7741dc5fbba07e85c2ec61a0845ac450afd074f3ad911009e",
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


# ln over every divisor of 510510 = 2*3*5*7*11*13*17 (a 128-element radical
# lattice), of 720720 = 2^4*3^2*5*7*11*13 (prime powers), and of the moduli
# 2, 999983 (prime) and 10^6 = 2^6*5^6; one sha256 over every run's exit
# code, stdout and stderr, recorded from the lattice of ModIdeal values that
# plain divisors replaced.
LN_MODULI = (510510, 720720, 2, 999983, 10**6)
LN_SHA256 = "3b9bb8846ae6afcab199cfb9f3d5f9eacefd20c2c9c649af3c5987d59541ed1a"


def test_ln_runs_match_golden_bytes():
    records = []
    for modulus, d in ((N, d) for N in LN_MODULI for d in range(1, N + 1) if N % d == 0):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["ln", "--modulus", str(modulus), "--ideal", str(d)])
        records.append([modulus, d, code, out.getvalue(), err.getvalue()])
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == LN_SHA256
