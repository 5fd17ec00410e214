import pytest
import sympy as sp

from fwdflat.errors import SystemFileError
from fwdflat.sysfile import (
    SystemFile,
    parse_system_file,
    parse_system_text,
)

MINIMAL = """
states: x1 x2
inputs: u1
f: x2
f: u1
x0: 0 0
u0: 0
"""


class TestParse:
    def test_minimal(self):
        sf = parse_system_text(MINIMAL, name="mini")
        s = sf.system
        assert s.name == "mini"
        assert (s.n, s.m) == (2, 1)
        assert s.f == (sp.Symbol("x2"), sp.Symbol("u1"))
        assert s.x0 == (0, 0) and s.u0 == (0,)
        assert sf.flat_output is None and sf.decomposition is None

    def test_comments_and_blank_lines_ignored(self):
        sf = parse_system_text("# header\n" + MINIMAL + "\n# trailing\n")
        assert sf.system.n == 2

    def test_name_key_overrides_default(self):
        sf = parse_system_text("name: custom\n" + MINIMAL, name="mini")
        assert sf.system.name == "custom"

    def test_fixture_running(self, running):
        s = running.system
        assert s.name == "running"
        assert running.flat_output is not None
        assert running.flat_output.R == (2, 2)
        assert running.decomposition.split == (1, 2, 1, 1)

    def test_fixture_with_params_and_inverse(self, vtol):
        s = vtol.system
        assert {p.name for p in s.params} == {"Ts", "eps"}
        assert s.inverse_chart is not None and len(s.inverse_chart) == 8

    def test_missing_required_key(self):
        with pytest.raises(SystemFileError):
            parse_system_text("states: x1\ninputs: u1\nf: u1\nx0: 0\n")

    def test_wrong_f_count(self):
        bad = MINIMAL.replace("f: u1\n", "")
        with pytest.raises(SystemFileError):
            parse_system_text(bad)

    def test_unknown_key(self):
        with pytest.raises(SystemFileError):
            parse_system_text(MINIMAL + "bogus: 1\n")

    def test_unknown_symbol_in_f(self):
        with pytest.raises(Exception):
            parse_system_text(MINIMAL.replace("f: x2", "f: zz"))

    def test_malformed_line(self):
        with pytest.raises(SystemFileError):
            parse_system_text(MINIMAL + "just some text\n")

    def test_non_rational_equilibrium(self):
        with pytest.raises(SystemFileError):
            parse_system_text(MINIMAL.replace("x0: 0 0", "x0: 0 a"))

    def test_wrong_equilibrium_arity(self):
        with pytest.raises(SystemFileError):
            parse_system_text(MINIMAL.replace("x0: 0 0", "x0: 0"))

    def test_duplicate_scalar_key(self):
        with pytest.raises(SystemFileError):
            parse_system_text(MINIMAL + "x0: 0 0\n")

    def test_incomplete_flat_output(self):
        with pytest.raises(SystemFileError):
            parse_system_text(MINIMAL + "phi: x1\n")

    def test_incomplete_decomposition(self):
        with pytest.raises(SystemFileError):
            parse_system_text(MINIMAL + "state_map: x1\nstate_map: x2\n")

    def test_bad_split(self):
        with pytest.raises(SystemFileError):
            parse_system_text(
                MINIMAL + "state_map: x1\nstate_map: x2\ninput_map: u1\n"
                          "split: 1 1\n")

    def test_param_named_like_adapted_coordinate_with_inverse(self):
        text = ("states: x1 x2\ninputs: u1\nparams: {0}\nf: {0}*x2\nf: u1\n"
                "x0: 0 0\nu0: 0\nh: x1\n"
                "inverse: xi1\ninverse: th1/{0}\ninverse: th2\n")
        assert parse_system_text(text.format("xi2")).system.inverse_chart
        for name in ("th1", "xi1"):
            with pytest.raises(SystemFileError, match=name):
                parse_system_text(text.format(name))

    def test_param_named_like_flat_output_symbol(self):
        text = ("states: x1\ninputs: u1\nparams: {0}\nf: {0}*u1\nx0: 0\n"
                "u0: 0\nphi: x1\nFx: y1\nFu: y1_1/{0}\n")
        assert parse_system_text(text.format("y2")).flat_output is not None
        for name in ("y1", "y1_3"):
            with pytest.raises(SystemFileError, match=name):
                parse_system_text(text.format(name))

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemFileError):
            parse_system_file(tmp_path / "nope.sys")
