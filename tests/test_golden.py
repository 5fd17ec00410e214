"""Byte-for-byte golden outputs of the CLI's ``--json`` reports.

Each case runs one command on one fixture and compares stdout and the exit
code with the recorded ones.  The files under ``tests/golden/`` were written
by ``python -m fwdflat COMMAND fixtures/FIXTURE.sys --json >
tests/golden/COMMAND-FIXTURE.json``; a change that alters a verdict, a
basis, a warning or the JSON layout shows up here as a diff.
"""

from pathlib import Path

import pytest

from fwdflat import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = [
    ("analyze", "nonflat", cli.EXIT_NEGATIVE),
    ("analyze", "running", cli.EXIT_OK),
    ("analyze", "academic", cli.EXIT_OK),
    ("analyze", "vtol", cli.EXIT_OK),
    ("verify-flat-output", "running", cli.EXIT_OK),
    ("verify-decomposition", "running", cli.EXIT_OK),
    ("verify-decomposition", "academic", cli.EXIT_OK),
]


@pytest.mark.parametrize("command,fixture,code", CASES,
                         ids=[f"{c}-{f}" for c, f, _ in CASES])
def test_json_output_matches_golden(command, fixture, code, capsys):
    rc = cli.run([command, str(ROOT / "fixtures" / f"{fixture}.sys"), "--json"])
    out = capsys.readouterr().out
    assert rc == code
    assert out == (GOLDEN / f"{command}-{fixture}.json").read_text()
