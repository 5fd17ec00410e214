"""Byte-for-byte golden outputs of the CLI's ``--json`` reports and of
``analyze --trace``.

Each case runs one command on one fixture and compares stdout and the exit
code with the recorded ones.  The files under ``tests/golden/`` were written
by ``python -m fwdflat COMMAND fixtures/FIXTURE.sys --json >
tests/golden/COMMAND-FIXTURE.json`` and ``python -m fwdflat analyze
fixtures/FIXTURE.sys --trace > tests/golden/analyze-trace-FIXTURE.txt``; a
change that alters a verdict, a basis, a warning, the per-iteration progress
or the JSON layout shows up here as a diff.

Every ``NAME.sys`` under ``tests/golden/systems/`` is a further ``analyze``
case, compared with ``NAME.json`` beside it; these systems exercise the
equilibrium rank warnings.  Adding a case means adding a system file and
recording its output with ``python -m fwdflat analyze
tests/golden/systems/NAME.sys --json > tests/golden/systems/NAME.json``.
"""

import json
from pathlib import Path

import pytest

from fwdflat import cli
from fwdflat.flatness import NOT_FORWARD_FLAT

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SYSTEMS = sorted((GOLDEN / "systems").glob("*.sys"))

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


TRACE_CASES = [
    ("nonflat", cli.EXIT_NEGATIVE),
    ("running", cli.EXIT_OK),
    ("academic", cli.EXIT_OK),
    ("vtol", cli.EXIT_OK),
]


@pytest.mark.parametrize("fixture,code", TRACE_CASES,
                         ids=[f for f, _ in TRACE_CASES])
def test_trace_output_matches_golden(fixture, code, capsys):
    rc = cli.run(["analyze", str(ROOT / "fixtures" / f"{fixture}.sys"), "--trace"])
    out = capsys.readouterr().out
    assert rc == code
    assert out == (GOLDEN / f"analyze-trace-{fixture}.txt").read_text()


@pytest.mark.parametrize("path", SYSTEMS, ids=[p.stem for p in SYSTEMS])
def test_system_output_matches_golden(path, capsys):
    rc = cli.run(["analyze", str(path), "--json"])
    out = capsys.readouterr().out
    golden = path.with_suffix(".json").read_text()
    assert out == golden
    negative = json.loads(golden)["verdict"] == NOT_FORWARD_FLAT
    assert rc == (cli.EXIT_NEGATIVE if negative else cli.EXIT_OK)
