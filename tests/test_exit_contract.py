"""The exit-code contract of README, on mutated fixture texts.

Each example drops or duplicates lines of a fixture, swaps two tokens of a
line, or changes a number or a name, and runs all three commands on the
result in-process.  Whatever the input, the exit code is 0-4, no traceback
is printed, and 0 or 1 comes only with a printed verdict that agrees with
it.  The hypothesis profile of conftest.py draws the same examples on every
run.
"""

import contextlib
import io
import re

from hypothesis import event, given, settings, strategies as st

from conftest import FIXTURES
from fwdflat import cli

TEXTS = [p.read_text() for p in sorted(FIXTURES.glob("*.sys"))]
VERDICTS = {
    "analyze": {0: ("verdict: ForwardFlat", "verdict: StaticFeedbackLinearizable"),
                1: ("verdict: NotForwardFlat",)},
    "verify-flat-output": {0: ("flat output verified: True",),
                           1: ("flat output verified: False",)},
    "verify-decomposition": {0: ("decomposition verified: True",),
                             1: ("decomposition verified: False",)},
}
NAMES = ["x1", "x2", "x3", "x6", "u1", "u2", "u3", "th1", "xi1", "y1", "y1_1",
         "y2_2", "Ts", "eps", "p", "sin", "cos", "f", "h", "states", "inputs"]
NUMBERS = ["0", "1", "2", "3", "7", "10", "25", "-1", "1/2", "0/0"]
TOKEN = re.compile(r"\w+|\s+|[^\w\s]")


@st.composite
def mutants(draw):
    lines = draw(st.sampled_from(TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(
            ["drop", "duplicate", "swap", "number", "name"]))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            toks = TOKEN.findall(lines[i])
            spots = [k for k, t in enumerate(toks) if not t.isspace() and (
                kind == "swap" or (t.isdigit() if kind == "number"
                                   else t[0].isalpha()))]
            if not spots:
                continue
            k = draw(st.sampled_from(spots))
            if kind == "swap":
                j = draw(st.sampled_from(spots))
                toks[k], toks[j] = toks[j], toks[k]
            else:
                toks[k] = draw(st.sampled_from(
                    NUMBERS if kind == "number" else NAMES))
            lines[i] = "".join(toks)
        if not lines:
            break
    return "\n".join(lines) + "\n"


@settings(max_examples=300)
@given(text=mutants())
def test_exit_code_contract_under_mutation(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "mutant.sys"
    path.write_text(text)
    for command, verdicts in VERDICTS.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([command, str(path)])
        printed = out.getvalue() + err.getvalue()
        event(f"{command}: exit {code}")
        assert code in range(5), printed
        assert "Traceback" not in printed
        if code in (0, 1):
            lines = out.getvalue().splitlines()
            assert any(v in lines for v in verdicts[code]), printed
