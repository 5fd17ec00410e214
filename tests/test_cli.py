import json
import os
import subprocess
import sys

import pytest
import sympy as sp

from conftest import FIXTURES
from fwdflat import cli, dtsys, flatness

RUNNING = str(FIXTURES / "running.sys")
ACADEMIC = str(FIXTURES / "academic.sys")
NONFLAT = str(FIXTURES / "nonflat.sys")


class TestAnalyze:
    def test_flat_exit_zero(self, capsys):
        assert cli.run(["analyze", RUNNING]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "ForwardFlat" in out
        assert "dims: [3, 2, 0]" in out

    def test_nonflat_exit_one(self, capsys):
        assert cli.run(["analyze", NONFLAT]) == cli.EXIT_NEGATIVE
        out = capsys.readouterr().out
        assert "NotForwardFlat" in out
        assert "obstruction" in out

    def test_missing_file_exit_two(self, capsys):
        assert cli.run(["analyze", "/no/such/file.sys"]) == cli.EXIT_INPUT

    def test_inverse_names_adapted_coordinates_when_a_state_has_the_name(
            self, tmp_path, capsys):
        # the chart renames its th1 to th1_, since the state th1 has the
        # name; 'inverse:' still writes th1 for the adapted coordinate
        sysfile = tmp_path / "th1.sys"
        sysfile.write_text(
            "states: th1 x2\ninputs: u1\nf: x2\nf: u1\nx0: 0 0\nu0: 0\n"
            "h: th1\ninverse: xi1\ninverse: th1\ninverse: th2\n")
        assert cli.run(["analyze", str(sysfile), "--json"]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "StaticFeedbackLinearizable"
        assert payload["dims"] == [2, 1, 0]

    def test_irrational_complement_at_the_equilibrium_keeps_rank_checks(
            self, tmp_path, capsys):
        # h = x1*cos(x2) is cos(1) at the equilibrium; the rank checks run in
        # (x, u) at the rational (x0, u0), so they are not skipped
        sysfile = tmp_path / "cos_complement.sys"
        sysfile.write_text(
            "states: x1 x2\ninputs: u1\nf: x2\nf: u1\nx0: 1 1\nu0: 1\n"
            "h: x1*cos(x2)\ninverse: xi1/cos(th1)\ninverse: th1\n"
            "inverse: th2\n")
        assert cli.run(["analyze", str(sysfile), "--json"]) == cli.EXIT_OK
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["verdict"] == "StaticFeedbackLinearizable"
        assert payload["dims"] == [2, 1, 0]
        assert payload["warnings"] == []
        assert captured.err == ""

    def test_bad_usage_exit_two(self, capsys):
        assert cli.run(["analyze"]) == cli.EXIT_INPUT

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_numeric_samples_below_one_exit_two(self, samples, capsys):
        # with no sample drawn, the cross-check of every nonzero pivot
        # would fail and report an internal inconsistency
        assert cli.run(["analyze", RUNNING, "--numeric-samples",
                        samples]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--numeric-samples: must be at least 1" in captured.err

    @pytest.mark.parametrize("command", ["analyze", "verify-flat-output",
                                         "verify-decomposition"])
    def test_negative_max_shift_exit_two(self, command, capsys):
        assert cli.run([command, RUNNING, "--max-shift", "-1"]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-shift: must be at least 0" in captured.err

    def test_zero_max_shift_keeps_its_behaviour(self, capsys):
        # the cap bounds only the flat-output verifier, whose first shift
        # of the running example already needs order 1
        assert cli.run(["analyze", RUNNING, "--max-shift", "0"]) == cli.EXIT_OK
        assert cli.run(["verify-decomposition", RUNNING,
                        "--max-shift", "0"]) == cli.EXIT_OK
        capsys.readouterr()
        assert cli.run(["verify-flat-output", RUNNING,
                        "--max-shift", "0"]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: forward shift needs input shift "
                                "order 1 > cap 0\n")

    def test_parser_is_built_once(self, monkeypatch, capsys):
        """Two runs build one top-level parser, and a usage error after a
        good run still exits 2 on the stderr that is current then."""
        import argparse
        import functools
        init, built = argparse.ArgumentParser.__init__, []

        def counted(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        monkeypatch.setattr(cli, "_build_parser",
                            functools.cache(cli._build_parser.__wrapped__))
        assert cli.run(["analyze", RUNNING]) == cli.EXIT_OK
        assert cli.run(["analyze", NONFLAT]) == cli.EXIT_NEGATIVE
        assert built.count("fwdflat") == 1, built
        capsys.readouterr()
        assert cli.run(["analyze", RUNNING, "--numeric-samples", "0"]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--numeric-samples: must be at least 1" in captured.err
        assert built.count("fwdflat") == 1, built

    def test_max_shift_defaults_to_the_library_cap(self):
        args = cli._build_parser().parse_args(["verify-flat-output", RUNNING])
        assert args.max_shift == dtsys.DEFAULT_MAX_SHIFT

    @pytest.mark.parametrize("command", ["analyze", "verify-decomposition"])
    def test_help_says_max_shift_is_ignored(self, command, capsys):
        assert cli.run([command, "--help"]) == cli.EXIT_OK
        help_text = " ".join(capsys.readouterr().out.split())
        assert ("analyze and verify-decomposition shift nothing forward, "
                "so they accept it and ignore it") in help_text

    def test_one_numeric_sample_still_analyses(self, capsys):
        assert cli.run(["analyze", RUNNING, "--numeric-samples", "1"]) == cli.EXIT_OK
        assert "dims: [3, 2, 0]" in capsys.readouterr().out

    def test_json_schema(self, capsys):
        assert cli.run(["analyze", RUNNING, "--json"]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["system"] == "running"
        assert payload["verdict"] == "ForwardFlat"
        assert payload["k_bar"] == 3
        assert payload["dims"] == [3, 2, 0]
        assert payload["decomposition_dims"] == [1, 2]
        assert payload["obstruction"] is None
        assert payload["warnings"] == []
        steps = payload["steps"]
        assert [s["k"] for s in steps] == [1, 2, 3]
        assert steps[0]["intersection_dim"] == 1
        assert steps[0]["step2_trivial"] is False
        assert steps[1]["basis"] == ["dx1 - dx3", "dx2"]

    def test_json_nonflat(self, capsys):
        assert cli.run(["analyze", NONFLAT, "--json"]) == cli.EXIT_NEGATIVE
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "NotForwardFlat"
        assert payload["obstruction"] == ["dx1", "dx2"]
        assert payload["decomposition_dims"] is None

    def test_trace(self, capsys):
        assert cli.run(["analyze", RUNNING, "--trace"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "k = 1" in out

    def test_seed_flag_consistent_output(self, capsys):
        cli.run(["analyze", RUNNING, "--json", "--seed", "7"])
        a = capsys.readouterr().out
        cli.run(["analyze", RUNNING, "--json", "--seed", "99"])
        b = capsys.readouterr().out
        assert a == b


class TestVerifyFlatOutput:
    def test_positive(self, capsys):
        assert cli.run(["verify-flat-output", RUNNING]) == cli.EXIT_OK
        assert "flat output verified: True" in capsys.readouterr().out

    def test_json(self, capsys):
        assert cli.run(["verify-flat-output", RUNNING, "--json"]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is True
        assert payload["failing_components"] == []
        assert set(payload["residuals"]) == {"x", "u", "consistency"}

    def test_not_declared(self, capsys):
        assert cli.run(["verify-flat-output", NONFLAT]) == cli.EXIT_INPUT
        assert "no flat output" in capsys.readouterr().err

    def test_wrong_candidate(self, tmp_path, capsys):
        text = (FIXTURES / "running.sys").read_text()
        bad = tmp_path / "bad.sys"
        bad.write_text(text.replace("Fx: y2\n", "Fx: y2 + 1\n"))
        assert cli.run(["verify-flat-output", str(bad)]) == cli.EXIT_NEGATIVE
        out = capsys.readouterr().out
        assert "flat output verified: False" in out
        assert "x2" in out


class TestVerifyDecomposition:
    def test_positive(self, capsys):
        assert cli.run(["verify-decomposition", RUNNING]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "decomposition verified: True" in out
        assert "[3, 2, 0]" in out and "[2, 0]" in out

    def test_json(self, capsys):
        assert cli.run(["verify-decomposition", ACADEMIC, "--json"]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is True
        assert payload["split"] == [1, 4, 1, 1]
        assert payload["sequence_dims"] == [5, 4, 2, 0]
        assert payload["subsystem_sequence_dims"] == [4, 2, 0]

    def test_not_declared(self, capsys):
        assert cli.run(["verify-decomposition", NONFLAT]) == cli.EXIT_INPUT

    def test_verifies_the_decomposition_once(self, monkeypatch, capsys):
        calls = []
        original = dtsys.verify_triangular_decomposition

        def counting(*args):
            calls.append(args)
            return original(*args)

        for module in (dtsys, flatness, cli):
            monkeypatch.setattr(module, "verify_triangular_decomposition",
                                counting, raising=False)
        assert cli.run(["verify-decomposition", RUNNING]) == cli.EXIT_OK
        assert len(calls) == 1

    def test_invalid_split(self, tmp_path, capsys):
        text = (FIXTURES / "running.sys").read_text()
        bad = tmp_path / "bad.sys"
        bad.write_text(text.replace("split: 1 2 1 1", "split: 2 1 1 1"))
        assert cli.run(["verify-decomposition", str(bad)]) == cli.EXIT_NEGATIVE
        assert "decomposition verified: False" in capsys.readouterr().out

    SIN_DROP = ("states: x1 x2\ninputs: u1\n"
                "f: x1 + 2*x2 - 2 + (sin(x1) - sin(x2))*u1\nf: x1\n"
                "x0: 1 1\nu0: 0\nstate_map: x1\nstate_map: x2\n"
                "input_map: u1\nsplit: 1 1 1 0\n")

    def test_rank_drop_at_a_nonzero_angle_exits_one(self, tmp_path, capsys):
        """d f1 / d u1 = sin(x1) - sin(x2) vanishes at (1, 1): the rank
        there is exact, so the check fails instead of being skipped, as it
        fails with x1 - x2 in place of the sines."""
        for f1 in ("(sin(x1) - sin(x2))", "(x1 - x2)"):
            sysfile = tmp_path / "drop.sys"
            sysfile.write_text(self.SIN_DROP.replace("(sin(x1) - sin(x2))", f1))
            assert cli.run(["verify-decomposition", str(sysfile)]) == cli.EXIT_NEGATIVE
            out = capsys.readouterr().out
            assert "decomposition verified: False" in out
            assert "rank of d f1 / d u1 at the equilibrium is 0" in out

    def test_rank_drop_at_a_nonzero_angle_warns_as_sympy_ranks(self, tmp_path,
                                                               capsys):
        """analyze's warnings give the intersections' dimensions at the
        equilibrium, rk P_k + rk J_f - rk [P_k; J_f], as sympy's ranks of
        the matrices at the point give them."""
        from reference import numeric_rank
        sysfile = tmp_path / "drop.sys"
        sysfile.write_text(self.SIN_DROP)
        assert cli.run(["analyze", str(sysfile), "--json"]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        x1, x2, u1 = sp.symbols("x1 x2 u1")
        f = sp.Matrix([x1 + 2 * x2 - 2 + (sp.sin(x1) - sp.sin(x2)) * u1, x1])
        J = f.jacobian([x1, x2, u1])
        point = {x1: 1, x2: 1, u1: 0}
        dims = []
        for P in (sp.Matrix([[1, 0, 0], [0, 1, 0]]), sp.Matrix([[0, 1, 0]])):
            dims.append(numeric_rank(P, point) + numeric_rank(J, point)
                        - numeric_rank(P.col_join(J), point))
        assert dims == [2, 1]
        assert payload["warnings"] == [
            f"k = 1, intersection: generic dimension 1 becomes {dims[0]} at the equilibrium",
            f"k = 2, intersection: generic dimension 0 becomes {dims[1]} at the equilibrium"]

    def test_angle_with_a_pole_at_the_equilibrium_exits_two(self, tmp_path, capsys):
        """With u1 = ub1/xb1, d f1 / d u1 holds cos(ub1/xb1), whose angle
        has a pole at the transformed equilibrium (0, 0): the one rank at a
        point that is not decided, so there is no verdict."""
        sysfile = tmp_path / "pole.sys"
        sysfile.write_text("states: x1\ninputs: u1\nf: sin(u1)\nx0: 0\nu0: 0\n"
                           "state_map: x1\ninput_map: x1*u1\nsplit: 1 0 1 0\n")
        assert cli.run(["verify-decomposition", str(sysfile)]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: an angle of d f1 / d u1 has a pole where "
                                "state_map gives (0,) and input_map (0,): no rank there\n")

    @pytest.mark.parametrize("split", ["1 2 -1 3", "-1 4 1 1"])
    def test_negative_block_size_exits_two(self, tmp_path, capsys, split):
        # the first sums to (n, m) and would slice ubar[:-1]
        text = (FIXTURES / "running.sys").read_text()
        bad = tmp_path / "bad.sys"
        bad.write_text(text.replace("split: 1 2 1 1", f"split: {split}"))
        assert cli.run(["verify-decomposition", str(bad)]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "negative block size" in captured.err

    IRRATIONAL = ("states: x1 x2 x3\ninputs: u1\nf: x2\nf: x3\nf: u1\n"
                  "x0: 1 1 1\nu0: 1\nstate_map: x3\nstate_map: x1\n"
                  "state_map: x2 + sin(x1)\ninput_map: u1\n")

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_irrational_transformed_equilibrium_exits_two(self, tmp_path,
                                                          capsys, mode):
        """x2 + sin(x1) is 1 + sin(1) at the equilibrium: neither the rank
        there nor the subsystem, whose equilibrium must be rational, can be
        checked, so there is no verdict."""
        sysfile = tmp_path / "irrational.sys"
        sysfile.write_text(self.IRRATIONAL + "split: 1 2 1 0\n")
        assert cli.run(["verify-decomposition", str(sysfile)] + mode) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: transformed equilibrium is not rational: state_map gives "
            "(1, 1, sin(1) + 1) and input_map (1,) at (x0, u0)")
        assert "Traceback" not in captured.err

    def test_irrational_transformed_equilibrium_keeps_other_reasons(
            self, tmp_path, capsys):
        """Another reason keeps the negative verdict, and the skipped rank
        check is not listed as one."""
        sysfile = tmp_path / "irrational.sys"
        sysfile.write_text(self.IRRATIONAL + "split: 2 1 1 0\n")
        assert cli.run(["verify-decomposition", str(sysfile), "--json"]) == cli.EXIT_NEGATIVE
        payload = json.loads(capsys.readouterr().out)
        assert payload["reasons"] == ["rank of d f1 / d u1 is 1, need dim(x1) = 2"]


class TestErrorMapping:
    def test_inversion_failure_exit_three(self, tmp_path, capsys):
        """The sequence reads the inverse at k = 2, and no complement of
        full rank inverts: the message names each one tried."""
        bad = tmp_path / "read3b.sys"
        bad.write_text(
            "states: x1 x2\ninputs: u1\n"
            "f: x2^3 + x2 + x1*u1\nf: u1^3 + u1 + x1^3 + x1\n"
            "x0: 0 0\nu0: 0\n")
        assert cli.run(["analyze", str(bad)]) == cli.EXIT_INVERSION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "inversion failed: no invertible adapted chart found; supply an "
            "explicit complement (h) and, if needed, the inverse chart map. Tried:\n"
            "  h = (u1,): no equation is linear in x2; unsolved: "
            "th2 - u1**3 - u1 - x1**3 - x1 = 0\n"
            "  h = (x1,): no equation is linear in x2; unsolved: "
            "th2 - u1**3 - u1 - x1**3 - x1 = 0\n"
            "  h = (x2,): no equation is linear in u1; unsolved: "
            "th2 - u1**3 - u1 - x1**3 - x1 = 0\n")

    @pytest.mark.parametrize("f, why", [
        # (f, h) = (x2, u1, u1) has rank 2 < 3
        (["x2", "u1"], "(f, h) Jacobian rank deficient"),
        # read3b: the sequence reads the inverse, and h = u1 does not invert
        (["x2^3 + x2 + x1*u1", "u1^3 + u1 + x1^3 + x1"],
         "no equation is linear in x2; unsolved: th2 - u1**3 - u1 - x1**3 - x1 = 0"),
    ], ids=["rank-deficient", "read3b"])
    def test_supplied_complement_without_a_chart_exits_three(
            self, tmp_path, capsys, f, why):
        """A supplied h: that gives no chart is named as supplied, and the
        message points to inverse: instead of asking for an h."""
        bad = tmp_path / "supplied_h.sys"
        bad.write_text("states: x1 x2\ninputs: u1\n" + "".join(f"f: {e}\n" for e in f)
                       + "h: u1\nx0: 0 0\nu0: 0\n")
        assert cli.run(["analyze", str(bad)]) == cli.EXIT_INVERSION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "inversion failed: the supplied complement (h) gives no invertible "
            "adapted chart; supply its inverse chart map (inverse:) or another "
            f"complement. Tried:\n  h = (u1,): {why}\n")

    def test_main_raises_systemexit(self):
        with pytest.raises(SystemExit) as exc:
            import sys
            old = sys.argv
            sys.argv = ["fwdflat", "analyze", NONFLAT]
            try:
                cli.main()
            finally:
                sys.argv = old
        assert exc.value.code == cli.EXIT_NEGATIVE


RUNNING_TEXT = (FIXTURES / "running.sys").read_text()


@pytest.mark.parametrize("text", [
    RUNNING_TEXT.replace("split: 1 2 1 1", "split: a b c d"),
    "states: x1 x2\ninputs: x2\nf: x2\nf: x1\nx0: 0 0\nu0: 0\n",
    "states: x1\ninputs: u1\nf: x1 + u1\nx0: 0\nu0: 1\n",
    # the residual sin(1) is a number, not a rational
    "states: x1 x2\ninputs: u1\nf: sin(x2)\nf: x2 + u1\nx0: 0 1\nu0: 0\n",
    "states: x1\ninputs: u1\nf: u1\nx0: 1/0\nu0: 0\n",
    "states: x1\ninputs: u1\nf: u1\nx0: 0\nu0: 0/0\n",
    "states: x1\ninputs: u1\nf: u1/x1\nx0: 0\nu0: 0\n",
    "states: x1\ninputs: u1\nf: x1 + 1/u1\nx0: 1\nu0: 0\n",
], ids=["split-not-integers", "state-named-like-input", "not-an-equilibrium",
        "trig-residual-not-an-equilibrium", "x0-divides-by-zero",
        "u0-zero-over-zero", "f-zero-over-zero-at-the-equilibrium",
        "f-pole-at-the-equilibrium"])
def test_input_errors_exit_two_without_traceback(tmp_path, capsys, text):
    bad = tmp_path / "bad.sys"
    bad.write_text(text)
    assert cli.run(["analyze", str(bad)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def _one_state(expr):
    return f"states: x1\ninputs: u1\nf: {expr}\nx0: 0\nu0: 0\n"


@pytest.mark.parametrize("expr,message", [
    ("+".join(["x1"] * 20000), "cannot parse"),
    ("-" * 3000 + "u1", "cannot parse"),
    ("(" * 300 + "u1" + ")" * 300, "cannot parse"),
    ("u1\0", "cannot parse"),
    ("0x" + "f" * 5000 + " % 2 + u1", "cannot parse"),
    ("1e400*x1", "floating point literals are not supported"),
    ("u1 if 1 else u1", "unsupported construct"),
    ("[u1][0]", "unsupported construct"),
    ("S(1)/2*u1", "unsupported construct"),
    ("Integer(2)*u1", "unsupported construct"),
], ids=["sum-of-20000-terms", "3000-unary-minuses", "300-nested-parentheses",
        "nul-byte", "literal-too-long-to-print", "float-overflow",
        "conditional", "subscript", "sympy-S", "sympy-Integer"])
def test_expressions_outside_the_fragment_exit_two(tmp_path, capsys, expr,
                                                    message):
    bad = tmp_path / "bad.sys"
    bad.write_text(_one_state(expr))
    assert cli.run(["analyze", str(bad)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_no_code_in_an_input_file_runs(tmp_path, capsys):
    ran = tmp_path / "ran"
    bad = tmp_path / "bad.sys"
    bad.write_text(_one_state(
        f"__import__('pathlib').Path({str(ran)!r}).touch() or u1"))
    assert cli.run(["analyze", str(bad)]) == cli.EXIT_INPUT
    assert "unsupported construct" in capsys.readouterr().err
    assert not ran.exists()


def test_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    bad = tmp_path / "latin1.sys"
    bad.write_bytes("# \xe9tat\nstates: x1\ninputs: u1\nf: u1\nx0: 0\nu0: 0\n"
                    .encode("latin-1"))
    for command in ("analyze", "verify-flat-output", "verify-decomposition"):
        assert cli.run([command, str(bad)]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {bad}: ")
        assert "Traceback" not in err


@pytest.mark.parametrize("text,code", [
    ("states: x1 x2\ninputs: u1\nf: x1 + sin(x2)^2 + cos(x2)^2 - 1\n"
     "f: x2 + u1\nx0: 0 1\nu0: 0\n", cli.EXIT_NEGATIVE),
    ("states: x1 x2\ninputs: u1\nf: x2 + sin(x1)^2 + cos(x1)^2\nf: u1\n"
     "x0: 1 0\nu0: 0\n", cli.EXIT_OK),
], ids=["x1-uncontrolled", "flat"])
def test_pythagorean_residual_at_a_nonzero_point_is_zero(tmp_path, capsys,
                                                         text, code):
    # at the equilibrium the residual holds sin(1)**2 + cos(1)**2 - 1,
    # which is zero; the first system leaves x1 uncontrolled
    sysfile = tmp_path / "pythagoras.sys"
    sysfile.write_text(text)
    assert cli.run(["analyze", str(sysfile)]) == code
    assert capsys.readouterr().err == ""


def test_identically_undefined_map_exit_four(tmp_path, capsys):
    # sin(x2)^2 + cos(x2)^2 - 1 is the zero function, so f1 is nowhere
    # defined; the zero test refuses it instead of guessing
    bad = tmp_path / "undefined.sys"
    bad.write_text("states: x1 x2\ninputs: u1\n"
                   "f: x2 + x1/(sin(x2)^2 + cos(x2)^2 - 1)\nf: u1\n"
                   "x0: 0 0\nu0: 0\n")
    assert cli.run(["analyze", str(bad)]) == cli.EXIT_INTERNAL
    assert "Traceback" not in capsys.readouterr().err


def test_flat_output_residual_with_a_pole_is_printed(tmp_path, capsys):
    # x1+ = x1 makes y1_1 - y1 vanish, so Fu has a pole: the input residual
    # holds zoo and is reported as failing, not refused as inconsistent
    sysfile = tmp_path / "pole.sys"
    sysfile.write_text("states: x1 x2\ninputs: u1\nf: x1\nf: u1\n"
                       "x0: 0 0\nu0: 0\nphi: x1\nFx: y1\nFx: y1_1\n"
                       "Fu: y1_2 + 1/(y1_1 - y1)\n")
    code = cli.run(["verify-flat-output", str(sysfile), "--json"])
    assert code == cli.EXIT_NEGATIVE
    payload = json.loads(capsys.readouterr().out)
    assert payload["residuals"]["u"] == ["-u1 + x1 + zoo"]
    assert payload["failing_components"] == [
        "x2", "u1", "shift-consistency 1", "shift-consistency 2"]


def test_residual_with_cos_inside_a_trig_argument_exits_one(tmp_path, capsys):
    # substituting Fu into sin(u1) leaves cos(y1) inside a sin argument,
    # which the Expr-level cos-power reduction once failed on with a traceback
    sysfile = tmp_path / "nested.sys"
    sysfile.write_text("states: x1 x2\ninputs: u1\nf: x2\nf: sin(u1)\n"
                       "x0: 0 0\nu0: 0\nphi: x1\nFx: y1\n"
                       "Fx: y1_1 + cos(y1)^2 + sin(y1)^2 - 1\n"
                       "Fu: y1_2 + (cos(y1)^2 - 1)/(cos(y1) + 1)^2\n")
    code = cli.run(["verify-flat-output", str(sysfile), "--json"])
    assert code == cli.EXIT_NEGATIVE
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["failing_components"] == [
        "u1", "shift-consistency 2"]


def test_residual_with_a_zero_summand_inside_a_trig_argument_is_zero(
        tmp_path, capsys):
    # F_x2 = y1_1 + (sin(y1)^2 + cos(y1)^2 - 1) is y1_1, so sin(F_x2) in the
    # shift-consistency residual must cancel against sin(y1_1)
    sysfile = tmp_path / "summand.sys"
    sysfile.write_text("states: x1 x2\ninputs: u1\nf: x2\nf: u1 + sin(x2)\n"
                       "x0: 0 0\nu0: 0\nphi: x1\nFx: y1\n"
                       "Fx: y1_1 + sin(y1)^2 + cos(y1)^2 - 1\n"
                       "Fu: y1_2 - sin(y1_1)\n")
    assert cli.run(["verify-flat-output", str(sysfile)]) == cli.EXIT_OK
    assert "flat output verified: True" in capsys.readouterr().out


def test_multiple_angles_in_a_residual_cancel(tmp_path, capsys):
    # phi = x1/2 puts sin(x1/2)*cos(x1/2) beside sin(x1) in the residual,
    # and Fu's 2*sin(y1)*cos(y1) meets sin(2*y1) in the shift consistency
    sysfile = tmp_path / "double_angle.sys"
    sysfile.write_text("states: x1 x2\ninputs: u1\nf: x2\nf: u1 + sin(x1)\n"
                       "x0: 0 0\nu0: 0\nphi: x1/2\nFx: 2*y1\nFx: 2*y1_1\n"
                       "Fu: 2*y1_2 - 2*sin(y1)*cos(y1)\n")
    assert cli.run(["verify-flat-output", str(sysfile)]) == cli.EXIT_OK
    assert "flat output verified: True" in capsys.readouterr().out


def test_angle_sum_residual_that_vanishes_numerically_exits_four(tmp_path, capsys):
    # a correct flat output whose input residual is the angle-sum identity
    # sin(a)*cos(x1) + sin(x1)*cos(a) - sin(a + x1): the exact domain finds
    # it nonzero, but it vanishes at every sampled point, so the run refuses
    # a negative verdict
    sysfile = tmp_path / "angle_sum.sys"
    sysfile.write_text("states: x1\ninputs: u1\nparams: a\n"
                       "f: u1 + sin(x1)*cos(a) + cos(x1)*sin(a) - sin(a)\n"
                       "x0: 0\nu0: 0\nphi: x1 + a\nFx: y1 - a\n"
                       "Fu: y1_1 - a - sin(y1) + sin(a)\nR: 1\n")
    assert cli.run(["verify-flat-output", str(sysfile)]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("residual u[1] = sin(a)*cos(x1) + sin(x1)*cos(a) - sin(a + x1) "
            "is not zero in the exact domain but vanishes numerically") in captured.err


def test_backstop_tells_identities_from_nonzero_residuals():
    x, y = sp.symbols("x y")
    vanishes = dtsys._vanishes_numerically
    assert vanishes(sp.sin(x + y), sp.sin(x) * sp.cos(y) + sp.cos(x) * sp.sin(y))
    assert vanishes((x**2 - 1) / (x - 1), x + 1)
    assert not vanishes(sp.sin(x + y), sp.sin(x) * sp.cos(y))
    assert not vanishes(x + sp.Rational(1, 10**20), x)


PARAM_NAMED_LIKE_ADAPTED_COORDINATE = (
    "states: x1 x2\ninputs: u1\nparams: th1\nf: th1*x2\nf: u1\n"
    "x0: 0 0\nu0: 0\nh: x1\n"
    "inverse: xi1\ninverse: th1/th1\ninverse: th2\n")
PARAM_NAMED_LIKE_FLAT_OUTPUT = (
    "states: x1\ninputs: u1\nparams: y1\nf: y1*u1\nx0: 0\nu0: 0\n"
    "phi: x1\nFx: y1\nFu: y1_1/y1\nR: 1\n")


@pytest.mark.parametrize("command,text,name", [
    ("analyze", PARAM_NAMED_LIKE_ADAPTED_COORDINATE, "th1"),
    ("verify-flat-output", PARAM_NAMED_LIKE_FLAT_OUTPUT, "y1"),
], ids=["th1-in-inverse", "y1-in-flat-output"])
def test_parameter_named_like_a_reserved_symbol_exit_two(
        tmp_path, capsys, command, text, name):
    # in 'inverse:' th<i>/xi<j> mean the adapted coordinates, and in Fx/Fu
    # y<j>/y<j>_<k> mean the flat output, so such a parameter would be
    # read as one of them and give a wrong verdict
    bad = tmp_path / "bad.sys"
    bad.write_text(text)
    assert cli.run([command, str(bad)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{name}'" in err
    renamed = tmp_path / "renamed.sys"
    renamed.write_text(text.replace(f"params: {name}", "params: p")
                       .replace(f"{name}*", "p*").replace(f"/{name}\n", "/p\n"))
    assert cli.run([command, str(renamed)]) == cli.EXIT_OK


SHIFT_NAMED = ("states: x1\ninputs: u1 u1_1\nf: u1\nx0: 0\nu0: 0 0\n"
               "phi: x1\nphi: u1\nFx: y1\nFu: y1_1\nFu: y1_2\n")


def test_input_named_like_a_shifted_input_exits_two(tmp_path, capsys):
    """With a flat output the verifier reads the input u1_1 as the shift of
    u1: this file once verified with exit 0, where naming the input v1
    gives exit 1."""
    bad = tmp_path / "bad.sys"
    bad.write_text(SHIFT_NAMED)
    assert cli.run(["verify-flat-output", str(bad)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: states, inputs or parameters named like flat-output symbols or "
        "shifted inputs: ['u1_1']; rename them\n")
    renamed = tmp_path / "renamed.sys"
    renamed.write_text(SHIFT_NAMED.replace("u1_1\n", "v1\n"))
    assert cli.run(["verify-flat-output", str(renamed)]) == cli.EXIT_NEGATIVE
    assert "residual u[2] = u1_1 - v1" in capsys.readouterr().out


@pytest.mark.parametrize("old,new,clash", [
    ("states: x1", "states: y1", "y1"),
    ("states: x1", "states: x1\nparams: y3_2", "y3_2"),
    ("inputs: u1 u1_1", "inputs: u1 u1_12", "u1_12"),
    ("inputs: u1 u1_1", "inputs: u1_1 u1", "u1_1"),
], ids=["state-named-like-the-flat-output", "param-named-like-a-shifted-flat-output",
        "input-named-like-a-shift-of-order-12", "shifted-input-declared-first"])
def test_names_read_as_shifts_exit_two(tmp_path, capsys, old, new, clash):
    bad = tmp_path / "bad.sys"
    bad.write_text(SHIFT_NAMED.replace(old, new))
    assert cli.run(["verify-flat-output", str(bad)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: states, inputs or parameters named like")
    assert f"'{clash}'" in err


@pytest.mark.parametrize("power", ["2^20000", "2^999999999", "(-1/3)^-20000",
                                   "2^2^2^2^2^2"])
def test_power_of_numbers_beyond_4300_digits_exits_two(tmp_path, capsys, power):
    """A power of numbers whose result would print in more than 4300
    digits is refused by the parser, which names the text, before it is
    computed."""
    bad = tmp_path / "big.sys"
    bad.write_text(f"states: x1\ninputs: u1\nf: u1 + {power}\nx0: 0\nu0: 0\n")
    assert cli.run(["analyze", str(bad)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse 'u1 + {power}': ")
    assert err.endswith(" has more than 4300 digits\n")


@pytest.mark.parametrize("f,shown", [
    ("u1 + 10^2200*10^2200", "10^2200*10^2200"),
    ("u1 + 10^2200*10^2200 - 10^2200*10^2200", "10^2200*10^2200"),
    ("u1 + 1/10^2200/(1/10^2200)^-1", "1/10^2200/(1/10^2200)^(-1)"),
], ids=["product", "small-sum-of-large-products", "quotient"])
def test_number_built_beyond_4300_digits_exits_two(tmp_path, capsys, f, shown):
    """A number that the parser builds from literals, not only by a power,
    is refused with the parser's message once it has more than 4300 digits,
    also where the whole sum would be small."""
    bad = tmp_path / "big.sys"
    bad.write_text(f"states: x1\ninputs: u1\nf: {f}\nx0: 0\nu0: 0\n")
    assert cli.run(["analyze", str(bad)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: cannot parse '{f}': {shown} has more than 4300 digits\n")


def test_python_m_fwdflat_help():
    r = _python_m_fwdflat("--help")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("usage: fwdflat")


def _python_m_fwdflat(*args):
    src = str(FIXTURES.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "fwdflat", *args],
                          capture_output=True, text=True, env=env, timeout=60)


def _trig_chain(n: int) -> str:
    """x_i+ = x_{i+1} + a*sin(x_i), x_n+ = u1, at 0."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    return (f"states: {' '.join(xs)}\ninputs: u1\nparams: a\n"
            + "".join(f"f: {xs[i + 1]} + a*sin({xs[i]})\n" for i in range(n - 1))
            + f"f: u1\nx0: {' '.join('0' * n)}\nu0: 0\n")


@pytest.mark.parametrize("text, dims", [
    # chart inversion once ran for minutes on this system
    ("states: x1 x2 x3\ninputs: u1\n"
     "f: x2 + x1^3\nf: x3 + x2^3*x1\nf: u1^3 + u1 + x3^2\n"
     "x0: 0 0 0\nu0: 0\n", [3, 2, 1, 0]),
    ("states: x1\ninputs: u1\nf: x1 + u1 + (x1 + u1)^5\nx0: 0\nu0: 0\n", [1, 0]),
    ("states: x1 x2\ninputs: u1\n"
     "f: x2^3 + x2 + u1^3 + u1 + x1\nf: u1^3 + u1 + x1^3 + 2*x1\n"
     "x0: 0 0\nu0: 0\n", [2, 1, 0]),
    *[(_trig_chain(n), list(range(n, -1, -1))) for n in range(2, 7)],
], ids=["cubic", "quintic", "read3", *[f"trig-chain-{n}" for n in range(2, 7)]])
def test_decided_without_inverting_the_chart(tmp_path, capsys, monkeypatch,
                                              text, dims):
    """No complement of these systems inverts by elimination, and no row of
    their sequences needs the inverse: each is decided, and no inversion is
    attempted."""
    calls, solve = [], dtsys._solve_inverse
    monkeypatch.setattr(dtsys, "_solve_inverse",
                        lambda *a: calls.append(a) or solve(*a))
    sysfile = tmp_path / "system.sys"
    sysfile.write_text(text)
    assert cli.run(["analyze", str(sysfile)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "verdict: StaticFeedbackLinearizable\n" in out
    assert f"dims: {dims}\n" in out
    assert calls == []


def test_transformed_running_example_is_flat(tmp_path):
    """The running example after x2 = z2 + z1^2, u1 = v1 + z1*z3,
    u2 = v2 + z2.  (v1, v2), its first complement of full rank, does not
    invert; the first read of the inverse, at k = 1, adopts (v1, z1), which
    the trace prints.  Inverting its chart once ran for minutes."""
    sysfile = tmp_path / "transformed.sys"
    sysfile.write_text(
        "states: z1 z2 z3\ninputs: v1 v2\n"
        "f: v1 + z1*z3 - z2 - z1^2\n"
        "f: z1*(v1 + z1*z3 - v2 - z2) - (v1 + z1*z3 - z2 - z1^2)^2\n"
        "f: v2 + z2\n"
        "x0: 1/2 1/4 0\nu0: 1 -1/4\n")
    r = _python_m_fwdflat("analyze", "--trace", str(sysfile))
    assert r.returncode == cli.EXIT_OK, r.stderr
    assert r.stdout.startswith("adapted chart complement: ('v1', 'v2')\n"
                               "adapted chart complement: ('v1', 'z1')\n"
                               "k = 1: dim P = 3, intersection 1, extension added 1\n")
    assert "verdict: ForwardFlat\n" in r.stdout
    assert "dims: [3, 2, 0]\n" in r.stdout
