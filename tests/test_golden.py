"""Byte-identity of CLI output against committed SHA-256 hashes.

`golden_hashes.json` holds, per CLI call, its exit code and the SHA-256 of
its stdout: `certify --i 1`, `dims --levels 3` and `check all --trials 100
--seed 0` for the four suite presentations, one dims table over Q, and three
certificates beyond the suite: (2; 2,3) at D=14, with unequal exponents,
the VERIFIED i=2 certificate of (2; 2,2) at D=41, and `certify --i 1` of
(3; 2,2,2) at D=11, where [A, A] has 5701 rows, and at D=10, the
benchmark's tower job, whose level 2 is built only through degree 6; and `check all
--trials 20 --seed 1` over Q for (2; 3,3) at D=7 and (3; 2,2,2) at D=5,
which pin the Fraction path of the bracket generator and of the element
operations. Three more pin orbit shapes of the letter permutations that
the suite lacks: `dims --levels 3` of (3; 2,2,3) at D=9, where only x1
and x2 swap, and of (4; 2,2,2,2) at D=8, and `check all --trials 20
--seed 1` of (3; 2,2,3) at D=8. A refactor that changes any certificate,
dimension table or check report byte fails here. Regenerate the file only
for an intended output change, and say why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from nilpow.cli import main

from conftest import SUITE_PARAMS

CASES = json.loads(Path(__file__).with_name("golden_hashes.json").read_text())


def test_golden_cases_cover_suite_specs():
    specs = {f"--generators {m} --nil {','.join(map(str, nil))} --max-degree {d}" for m, nil, d in SUITE_PARAMS}
    for cmd in ("certify --i 1", "dims --levels 3", "check all --trials 100 --seed 0"):
        covered = {c["argv"][len(cmd) + 1 :] for c in CASES if c["argv"].startswith(cmd)}
        assert specs <= covered
    assert any(c["argv"].endswith("--field q") for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=[c["argv"] for c in CASES])
def test_golden_output(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(case["argv"].split())
    assert code == case["exit"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == case["sha256"]
