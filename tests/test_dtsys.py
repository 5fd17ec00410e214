import dataclasses
import itertools
import random

import pytest
import sympy as sp
from sympy.polys.domains import QQ

from conftest import random_affine_system, random_poly
from fwdflat import domain, dtsys, flatness, symcore
from fwdflat.dtsys import (
    DiscreteTimeSystem,
    FlatOutputCandidate,
    TriangularDecomposition,
    _solve_inverse,
    backward_shift,
    backward_shift_oneform,
    build_adapted_chart,
    check_submersivity,
    flat_output_symbol,
    forward_shift,
    verify_flat_output,
    verify_triangular_decomposition,
)
from fwdflat.errors import (
    ExprSyntaxError,
    InternalInconsistency,
    InversionFailed,
    ShiftBudgetExceeded,
)
from fwdflat.extcalc import (
    Codistribution,
    Distribution,
    OneForm,
    annihilator,
    basis_oneform,
    basis_vectorfield,
)
from fwdflat.symcore import Rows, is_zero


def _sys(states, inputs, f, x0, u0, **kw):
    return DiscreteTimeSystem(
        states=tuple(sp.Symbol(s) for s in states),
        inputs=tuple(sp.Symbol(s) for s in inputs),
        f=tuple(f), x0=tuple(x0), u0=tuple(u0), **kw)


class TestSystemBasics:
    def test_equilibrium_validated(self):
        x1, u1 = sp.symbols("x1 u1")
        with pytest.raises(ValueError):
            _sys(["x1"], ["u1"], [x1 + u1 + 1], [0], [0])

    @pytest.mark.parametrize("f,x0", [("u1/x1", 0), ("x1 + 1/u1", 1),
                                      ("x1 + u1/(x1 - 1)**2", 1)])
    def test_pole_at_the_equilibrium_is_an_input_error(self, f, x0):
        x1, u1 = sp.symbols("x1 u1")
        with pytest.raises(ValueError, match=r"f has a pole at \(x0, u0\), component 0"):
            _sys(["x1"], ["u1"], [sp.sympify(f, locals={"x1": x1, "u1": u1})], [x0], [0])

    def test_dimensions(self, running):
        s = running.system
        assert (s.n, s.m) == (3, 2)
        assert s.chart.dim == 5

    def test_jacobian(self, running):
        s = running.system
        x1, u1, u2 = sp.symbols("x1 u1 u2")
        J = s.jacobian_rows().to_matrix()
        assert J.shape == (3, 5)
        assert J.row(1) == sp.Matrix([[u1 - u2, 0, 0, x1, -x1]]).row(0)

    def test_input_shift_symbol_names(self, running):
        s = running.system
        assert s.input_shift_symbol(0, 0).name == "u1"
        assert s.input_shift_symbol(1, 3).name == "u2_3"


class TestSubmersivity:
    def test_running_ok(self, running):
        r = check_submersivity(running.system)
        assert r.ok and r.generic_rank == 3 and r.rank_at_equilibrium == 3

    def test_input_independent_map(self):
        x1, x2 = sp.symbols("x1 x2")
        s = _sys(["x1", "x2"], ["u1"], [x1, x2], [0, 0], [0])
        r = check_submersivity(s)
        assert r.ok  # the map itself is a submersion onto the state space
        assert any("d f / d u" in note for note in r.notes)

    def test_rank_deficient(self):
        x1, u1 = sp.symbols("x1 u1")
        s = _sys(["x1", "x2"], ["u1"], [x1 + u1, x1 + u1], [0, 0], [0])
        r = check_submersivity(s)
        assert not r.ok and r.generic_rank == 1


class TestRankAtPoint:
    def test_the_point_is_built_once_and_only_for_field_rows(self, monkeypatch):
        """No rows rank 0 and rows of numbers take the generic rank, with no
        point built; the first rows with a field entry build it, drawing
        each parameter once, and every later rank reuses it."""
        x1, a = sp.symbols("x1 a")
        built, init = [], symcore.Substitution.__init__
        monkeypatch.setattr(symcore.Substitution, "__init__", lambda S, mapping: (
            built.append(dict(mapping)) or init(S, mapping)))
        at = dtsys._point({x1: 1}, (a,))
        assert dtsys._rank_at_point(Rows(None, [], 2), 5, at) == 0
        assert dtsys._rank_at_point(Rows.of([[1, 2], [2, 4]]), 1, at) == 1
        assert built == []
        # at x1 = 1 the first row vanishes; the second has a pole, and
        # clearing it leaves [x1 - 1, a], which is [0, a] there
        M = Rows.of([[x1 - 1, x1**2 - 1], [1, a / (x1 - 1)]])
        assert dtsys._rank_at_point(M, 2, at) == 1
        assert dtsys._rank_at_point(Rows.of([[x1, a]]), 1, at) == 1
        (point,) = built
        assert point[x1] == 1 and point[a].is_Rational and point[a] != 0


def _assert_inverts(ac):
    """(x, u) = from_adapted(theta, xi), with theta -> f and xi -> h
    substituted, is the identity on (x, u)."""
    sys = ac.system
    to_xu = dict(zip(ac.theta + ac.xi, sys.f + ac.h))
    for sym, e in zip(sys.chart.symbols, ac.from_adapted):
        assert is_zero(e.xreplace(to_xu) - sym)


class TestAdaptedChart:
    def test_auto_complement_running(self, running):
        ac = build_adapted_chart(running.system)
        assert len(ac.theta) == 3 and len(ac.xi) == 2
        _assert_inverts(ac)

    def test_annihilator_of_dtheta_is_xi_directions(self, running):
        ac = build_adapted_chart(running.system)
        ch, n = ac.chart, len(ac.theta)
        dtheta = Codistribution.span(ch, [basis_oneform(ch, i) for i in range(n)])
        dxi = Distribution.span(
            ch, [basis_vectorfield(ch, n + j) for j in range(len(ac.xi))])
        assert annihilator(dtheta).equals(dxi)

    def test_explicit_complement_academic(self, academic):
        s = academic.system
        assert s.complement_h is not None
        ac = build_adapted_chart(s)
        x1, x3 = sp.symbols("x1 x3")
        assert ac.h == (x1, x3)
        _assert_inverts(ac)

    def test_supplied_inverse_vtol(self, vtol):
        s = vtol.system
        assert s.inverse_chart is not None
        _assert_inverts(build_adapted_chart(s))

    def test_inversion_failure(self):
        """The chart is accepted on its rank; its first read raises."""
        x1, u1 = sp.symbols("x1 u1")
        s = _sys(["x1"], ["u1"], [x1 + u1 + (x1 + u1) ** 5], [0], [0])
        ac = build_adapted_chart(s)
        assert ac.h == (u1,)
        with pytest.raises(InversionFailed):
            ac.from_adapted

    def test_wrong_supplied_inverse(self):
        x1, u1 = sp.symbols("x1 u1")
        th1, xi1 = sp.symbols("th1 xi1")
        s = _sys(["x1"], ["u1"], [x1 + u1], [0], [0],
                 complement_h=(u1,), inverse_chart=(th1, xi1 + 1))
        with pytest.raises(InversionFailed):
            build_adapted_chart(s)


    def test_automatic_chart_keeps_trig_arguments_symbols(self, vtol):
        # x5 sits inside sin/cos, so it is eliminated only as the bare xi1
        import dataclasses
        s = dataclasses.replace(vtol.system, complement_h=None, inverse_chart=None)
        ac = build_adapted_chart(s)
        x5, u1, u2 = sp.symbols("x5 u1 u2")
        # accepted on its rank; its first read falls back to a later one
        assert ac.h == (u1, u2)
        ac.from_adapted
        assert ac.h == (u1, x5)
        assert ac.from_adapted[4] == ac.xi[1]
        _assert_inverts(ac)

    def test_inversion_failure_names_unsolved_equations(self):
        x1, u1 = sp.symbols("x1 u1")
        s = _sys(["x1"], ["u1"], [x1 + u1 + (x1 + u1) ** 5], [0], [0])
        ac = build_adapted_chart(s)
        with pytest.raises(InversionFailed) as exc:
            ac.from_adapted
        msg = str(exc.value)
        # one line per complement tried, each naming its unsolved equation
        assert "h = (u1,): no equation is linear in x1; unsolved: th1 - " in msg
        assert "h = (x1,): no equation is linear in u1; unsolved: th1 - " in msg


def _inverse(back: dict, unknowns) -> symcore.Substitution:
    """_solve_inverse of back's symbols = back's expressions, converted
    once, as a chart's maps are."""
    return _solve_inverse(list(back), dtsys._row_of(list(back.values())), list(unknowns),
                          lambda: list(back.values()))


class TestSolveInverse:
    """_solve_inverse eliminates one unknown per step and checks the round
    trip; these cases have a known inverse to compare with exactly."""

    def test_random_triangular_maps(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 4)
            z = sp.symbols(f"z1:{n + 1}")
            x = sp.symbols(f"x1:{n + 1}")
            # x_i = z_i + p_i(z_<i); its inverse is z_i = x_i - p_i(z_<i)
            ps = [random_poly(rng, z[:i], 3, 3, 2) if i else sp.Integer(0)
                  for i in range(n)]
            back = {x[i]: z[i] + ps[i] for i in range(n)}
            known: dict = {}
            for i in range(n):
                known[z[i]] = sp.expand(x[i] - ps[i].xreplace(known))
            eqs = list(back.items())
            rng.shuffle(eqs)
            got = _inverse(dict(eqs), z).exprs
            assert all(is_zero(got[zi] - known[zi]) for zi in z), (eqs, got)

    def test_coefficients_depending_on_another_unknown(self):
        x1, x2, th1, th2 = sp.symbols("x1 x2 th1 th2")
        cases = [
            # solved first for x1 = th1*(1 + x2)
            ((x1 / (1 + x2), x2 / (1 + x1)),
             (th1 * (1 + th2) / (1 - th1 * th2), th2 * (1 + th1) / (1 - th1 * th2))),
            # every linear coefficient depends on the other unknown
            ((x1 * x2, x2 + x1 * x2), (th1 / (th2 - th1), th2 - th1)),
        ]
        for (f1, f2), known in cases:
            got = _inverse({th1: f1, th2: f2}, [x1, x2]).exprs
            assert all(is_zero(got[x] - k) for x, k in zip((x1, x2), known)), got

    def test_nonlinear_equation_is_named(self):
        x1, x2, a, b = sp.symbols("x1 x2 a b")
        back = {a: x1 + x2 ** 2, b: x2 ** 3}
        with pytest.raises(InversionFailed,
                           match=r"linear in x2; unsolved: b - x2\*\*3 = 0$"):
            _inverse(back, [x1, x2])

    @staticmethod
    def _corrupting_one_step(monkeypatch, k, by):
        """solve_by_elimination with by(F, g, h), for the field's last two
        generators g and h, added to the solution of step k only: the
        back-substituted solutions stay correct."""
        solve = symcore.solve_by_elimination

        def corrupted(*args):
            F, steps, solved = solve(*args)
            u, s = steps[k]
            steps[k] = (u, F.add(s, by(F, *F.field.gens[-2:])))
            return F, steps, solved
        monkeypatch.setattr(symcore, "solve_by_elimination", corrupted)

    def test_a_corrupted_step_is_refused(self, monkeypatch):
        """The round trip checks each step: a step's solution off by a
        constant is refused, although the flattened solutions invert."""
        x1, x2, th1, th2 = sp.symbols("x1 x2 th1 th2")
        back = {th1: x1 + x2 ** 2, th2: x2}
        assert _inverse(back, [x1, x2]).exprs == {x1: th1 - th2 ** 2, x2: th2}
        for k in range(2):
            with monkeypatch.context() as m:
                self._corrupting_one_step(m, k, lambda F, *_: QQ.one)
                with pytest.raises(InversionFailed, match=r" does not invert the map$"):
                    _inverse(back, [x1, x2])

    def test_a_nonzero_difference_is_cross_checked(self, monkeypatch):
        """A nonzero difference of the round trip passes through
        check_nonzero, the last check before InversionFailed is raised."""
        x1, x2, th1, th2 = sp.symbols("x1 x2 th1 th2")
        back = {th1: x1 + x2 ** 2, th2: x2}
        checked, check = [], domain._Field.check_nonzero
        monkeypatch.setattr(domain._Field, "check_nonzero", lambda F, x: (
            checked.append(F.to_expr(x)) or check(F, x)))
        # x1 = th1 - x2**2 becomes th1 - x2**2 + x1 + x2, which gives 2*x1 + x2
        self._corrupting_one_step(monkeypatch, 0, lambda F, a, b: F.add(a, b))
        with pytest.raises(InversionFailed, match=r"^x1 = .* does not invert the map$"):
            _inverse(back, [x1, x2])
        assert checked[-1] == x1 + x2

    @pytest.mark.parametrize("name", ["running", "academic", "vtol", "nonflat"])
    def test_a_solved_inverse_is_converted_nowhere(self, name, request, monkeypatch):
        """The chart's to_adapted is the Substitution that _solve_inverse
        returns, and once the elimination has solved an inverse, of the
        chart or of a decomposition's maps, none of its solutions passes
        through domain._convert, in the sequence or in the decomposition
        verifier."""
        fixture = request.getfixturevalue(name)
        returned, solutions, late = [], set(), []
        solve, eliminate = dtsys._solve_inverse, symcore.solve_by_elimination
        convert, charts, chart = domain._convert, [], flatness.build_adapted_chart

        def eliminating(*args):
            F, steps, solved = eliminate(*args)
            solutions.update(e for e in map(F.to_expr, solved) if not e.is_Symbol)
            return F, steps, solved

        def converting(exprs):
            exprs = list(exprs)
            late.extend(e for e in exprs if e in solutions)
            return convert(exprs)

        monkeypatch.setattr(symcore, "solve_by_elimination", eliminating)
        monkeypatch.setattr(dtsys, "_solve_inverse",
                            lambda *a: returned.append(solve(*a)) or returned[-1])
        for module in (domain, symcore):
            monkeypatch.setattr(module, "_convert", converting)
        monkeypatch.setattr(flatness, "build_adapted_chart",
                            lambda s: charts.append(chart(s)) or charts[-1])
        flatness.compute_sequence(fixture.system)
        (ac,) = charts
        # vtol supplies its inverse chart
        assert returned == [] if name == "vtol" else ac.to_adapted is returned[0]
        if fixture.decomposition is not None:
            verify_triangular_decomposition(fixture.system, fixture.decomposition)
            assert len(returned) == 3  # the chart's, the state map's, the input map's
        assert bool(solutions) == bool(returned)
        assert late == []

    def test_fragment_is_checked_on_generators(self):
        """_leaves_fragment, read off an element's generators, refuses
        exactly the elements whose expression _validate_tree refuses:
        seeded elements over allowed symbols a, b and an unknown x, with
        sin/cos of an allowed symbol, of the unknown, of a number and of
        compound arguments."""
        a, b, x = sp.symbols("a b x")
        inside = [a, b, sp.sin(a), sp.cos(a), sp.sin(2 * a), sp.cos(b)]
        outside = [x, sp.sin(x), sp.cos(x), sp.sin(1), sp.cos(1), sp.sin(a * b),
                   sp.cos(a + b)]
        allowed, seen = {a, b}, {True: 0, False: 0}
        rng = random.Random(2828)

        def atom():
            return rng.choice(outside if rng.random() < 0.15 else inside)

        for e in outside + [None] * 300:
            if e is None:
                e = sp.Add(*(sp.Mul(rng.choice((-3, -1, 1, 2)), atom(), atom())
                             for _ in range(rng.randint(1, 3))))
                if rng.random() < 0.3:
                    e /= 1 + atom()
            F, (el,) = domain._convert([e])
            if F is None:
                continue
            try:
                symcore._validate_tree(F.to_expr(el), allowed, "")
                refused = False
            except ExprSyntaxError:
                refused = True
            assert dtsys._leaves_fragment(F, el, allowed) == refused, e
            seen[refused] += 1
        assert min(seen.values()) >= 50

    def test_a_refused_solution_names_the_fragment(self):
        """A solution that leaves the fragment is refused with its
        expression: sin of a number here, and sin of a compound argument,
        which the state map's inverse puts into the input map."""
        x1, x2, u1, th1 = sp.symbols("x1 x2 u1 th1")
        with pytest.raises(InversionFailed,
                           match=r"^x1 = th1 - sin\(1\) leaves the expression fragment$"):
            _inverse({th1: x1 + sp.sin(1)}, [x1])
        s = _sys(["x1", "x2"], ["u1"], [x2, u1 + sp.sin(x1)], [0, 0], [0])
        v = verify_triangular_decomposition(s, TriangularDecomposition(
            (x1 + x2, x2), (u1 + sp.sin(x1),), (1, 1, 1, 0)))
        assert v.reasons == ["input map could not be inverted: u1 = ub1 - sin(xb1 - xb2) "
                             "leaves the expression fragment"]

    @staticmethod
    def _count_conversions(monkeypatch) -> tuple[list, list]:
        """Record every domain._convert call, as (phase, expressions), the
        phase being "inversion" inside dtsys._solve_inverse, and every
        _solve_inverse call."""
        conversions, inversions, phase = [], [], ["run"]
        convert, solve = domain._convert, dtsys._solve_inverse

        def counting(exprs):
            exprs = list(exprs)
            conversions.append((phase[0], exprs))
            return convert(exprs)

        def inverting(*args):
            inversions.append(args)
            phase[0] = "inversion"
            try:
                return solve(*args)
            finally:
                phase[0] = "run"

        for module in (domain, symcore):
            monkeypatch.setattr(module, "_convert", counting)
        monkeypatch.setattr(dtsys, "_solve_inverse", inverting)
        return conversions, inversions

    @pytest.mark.parametrize("name", ["running", "academic", "nonflat"])
    def test_f_is_converted_once_per_run(self, name, request, monkeypatch):
        """One compute_sequence converts f once, and inverting the chart
        converts nothing: its equations and its round trip are built from
        the elements of f and of h.  The chart takes f's elements off the
        system, which keeps only its Jacobian, so a second run converts f
        once more, for its own inversion, and not for the Jacobian."""
        sys = dataclasses.replace(request.getfixturevalue(name).system)
        conversions, inversions = self._count_conversions(monkeypatch)
        for run in (1, 2):
            conversions.clear()
            flatness.compute_sequence(sys)
            assert len(inversions) == run
            assert [c for _, c in conversions].count(list(sys.f)) == 1
            assert [c for phase, c in conversions if phase == "inversion"] == []
            assert "f_row" not in vars(sys) and "_jacobian_rows" in vars(sys)

    @pytest.mark.parametrize("name", ["running", "academic"])
    def test_decomposition_maps_are_converted_once(self, name, request, monkeypatch):
        """The decomposition verifier converts state_map + input_map once,
        for its Jacobian ranks and both inversions, whose equations and
        round trips convert nothing."""
        fixture = request.getfixturevalue(name)
        dec = fixture.decomposition
        conversions, inversions = self._count_conversions(monkeypatch)
        assert verify_triangular_decomposition(fixture.system, dec).ok
        assert len(inversions) == 2
        assert [c for _, c in conversions].count(list(dec.state_map + dec.input_map)) == 1
        assert [c for phase, c in conversions if phase == "inversion"] == []


def _counting_solve_inverse(monkeypatch) -> list:
    """Record every call of dtsys._solve_inverse."""
    calls, solve = [], dtsys._solve_inverse
    monkeypatch.setattr(dtsys, "_solve_inverse",
                        lambda *a: calls.append(a) or solve(*a))
    return calls


class TestDeferredInverse:
    """No chart without a supplied inverse is inverted while the
    complements are tried: the first read of from_adapted inverts its
    complement, and then each later one of full rank in turn, until one
    inverts."""

    def test_affine_charts_invert_on_first_access(self, monkeypatch):
        rng = random.Random(1212)
        calls = _counting_solve_inverse(monkeypatch)
        supplied = with_params = 0
        for _ in range(60):
            sys = random_affine_system(rng, rng.randint(2, 6), rng.randint(1, 2))
            supplied += sys.complement_h is not None
            with_params += bool(sys.params)
            ac = build_adapted_chart(sys)
            assert calls == [] and ac._to_adapted is None
            # the chosen h is the first candidate of full rank, as before
            if sys.complement_h is None:
                first = next(h for h in itertools.combinations(
                    sys.inputs + sys.states, sys.m)
                    if sp.Matrix(sys.f + h).jacobian(sys.chart.symbols).det() != 0)
                assert ac.h == first
            eager = _inverse(dict(zip(ac.theta + ac.xi, sys.f + ac.h)), sys.chart.symbols)
            assert ac.from_adapted == tuple(eager.exprs.values())
            assert ac.to_adapted is ac.to_adapted and len(calls) == 1
            _assert_inverts(ac)
            calls.clear()
        assert supplied >= 10 and with_params >= 20

    @pytest.mark.parametrize("h", [None, ("x1 + x2**2",)])
    def test_other_charts_invert_while_searching(self, monkeypatch, h):
        """A parameter in the coefficients of f, or a nonlinear h, makes
        the Jacobian non-constant. The complement search accepts the chart
        on its rank test alone; the search for a complement that inverts
        runs on the first read of from_adapted, which inverts this one."""
        x1, x2, u1, a = sp.symbols("x1 x2 u1 a")
        f = [x2, u1 + (a * x1 if h is None else x1)]
        s = _sys(["x1", "x2"], ["u1"], f, [0, 0], [0], params=(a,),
                 complement_h=None if h is None else tuple(map(sp.sympify, h)))
        calls = _counting_solve_inverse(monkeypatch)
        ac = build_adapted_chart(s)
        assert calls == [] and ac._to_adapted is None
        assert ac.h == ((u1,) if h is None else (x1 + x2 ** 2,))
        inverse = ac.to_adapted
        assert len(calls) == 1 and ac.to_adapted is inverse
        _assert_inverts(ac)

    def test_first_read_falls_back_to_later_complements(self, monkeypatch):
        """The running example in z and v: (v1, v2) has full rank but does
        not invert, so the first read tries (v1, z1) next and adopts it,
        the complement and inverse that the old eager search picked."""
        z1, z2, z3, v1, v2 = sp.symbols("z1 z2 z3 v1 v2")
        s = _sys(["z1", "z2", "z3"], ["v1", "v2"],
                 [v1 + z1 * z3 - z2 - z1 ** 2,
                  z1 * (v1 + z1 * z3 - v2 - z2) - (v1 + z1 * z3 - z2 - z1 ** 2) ** 2,
                  v2 + z2], [sp.Rational(1, 2), sp.Rational(1, 4), 0],
                 [1, sp.Rational(-1, 4)])
        calls = _counting_solve_inverse(monkeypatch)
        ac = build_adapted_chart(s)
        assert calls == [] and ac._to_adapted is None and ac.h == (v1, v2)
        inverse = ac.to_adapted
        assert ac.h == (v1, z1) and len(calls) == 2
        back = dict(zip(ac.theta + ac.xi, s.f + ac.h))
        assert inverse.exprs == _inverse(back, s.chart.symbols).exprs
        assert ac.to_adapted is inverse and len(calls) == 2
        _assert_inverts(ac)

    def test_academic_inverse_is_built_only_when_read(self, academic, monkeypatch):
        """compute_sequence composes with academic's solved inverse chart
        on its elements alone: no expression is built, of a solution or of
        anything else, until from_adapted is read, which gives the inverse
        solved by hand."""
        sys = dataclasses.replace(academic.system)
        charts, chart = [], flatness.build_adapted_chart
        monkeypatch.setattr(flatness, "build_adapted_chart",
                            lambda s: charts.append(chart(s)) or charts[-1])
        built, to_expr = [], domain._Field.to_expr
        monkeypatch.setattr(domain._Field, "to_expr",
                            lambda F, x: built.append(x) or to_expr(F, x))
        flatness.compute_sequence(sys)
        (ac,) = charts
        assert ac._to_adapted is not None  # the sequence read the inverse
        assert built == [] and "exprs" not in vars(ac.to_adapted)
        th1, th2, th3, th4, th5, xi1, xi2 = ac.theta + ac.xi
        assert ac.from_adapted == (
            xi1,
            th1 / (th2 + 1),
            xi2,
            (th1 + th2 * th3 - th2 * th5 + th2 + th3 - th5 + 1) / (th2 + 1),
            (th1 * th4 - th1 + th2 ** 2 * xi1 + th2 * th4 + 2 * th2 * xi1 - th2 + th4
             + xi1 - 1) / (th1 + th2 + 1),
            th2,
            (-th1 + th2 * th5 + th5) / (th2 + 1))
        assert len(built) == 7
        _assert_inverts(ac)


class TestForwardShift:
    def test_state_substitution(self, running):
        s = running.system
        x1, x2, u1, u2 = sp.symbols("x1 x2 u1 u2")
        assert is_zero(forward_shift(x2, s) - x1 * (u1 - u2))

    def test_input_shift(self, running):
        s = running.system
        u1 = sp.Symbol("u1")
        assert forward_shift(u1, s) == sp.Symbol("u1_1")

    def test_second_shift_of_state(self, running):
        s = running.system
        x3 = sp.Symbol("x3")
        assert forward_shift(forward_shift(x3, s), s) == sp.Symbol("u2_1")

    def test_matches_normalize(self, running, monkeypatch):
        """delta(phi) and delta^2(phi), left in the domain's form, are the
        functions that normalize's printed form gives."""
        s = running.system
        for phi in running.flat_output.phi:
            shifts = [forward_shift(phi, s)]
            shifts.append(forward_shift(shifts[0], s))
            with monkeypatch.context() as m:
                m.setattr(dtsys, "domain_form", symcore.normalize)
                printed = [forward_shift(phi, s)]
                printed.append(forward_shift(printed[0], s))
            assert all(is_zero(a - b) for a, b in zip(shifts, printed))

    def test_pole_is_returned_unchanged(self):
        """A shift with a pole holds zoo and passes through unchanged."""
        s = _sys(["x1"], ["u1"], [sp.Integer(0)], [0], [0])
        assert forward_shift(1 / sp.Symbol("x1"), s) is sp.zoo

    def test_budget(self, running):
        s = running.system
        g = s.input_shift_symbol(0, 24)
        with pytest.raises(ShiftBudgetExceeded):
            forward_shift(g, s, max_shift=24)
        assert forward_shift(g, s, max_shift=25) == sp.Symbol("u1_25")


class TestBackwardShift:
    def test_theta_form(self, running):
        ac = build_adapted_chart(running.system)
        ch = ac.chart
        th1, th2 = ac.theta[0], ac.theta[1]
        w = OneForm(ch, (th2, -th1, 0, 0, 0))
        back = backward_shift_oneform(w, ac)
        x1, x2 = sp.symbols("x1 x2")
        assert back.chart == running.system.chart
        assert back.coeffs == (x2, -x1, 0, 0, 0)

    def test_rejects_xi_component(self, running):
        from fwdflat.errors import NotShiftable
        ac = build_adapted_chart(running.system)
        ch = ac.chart
        w = OneForm(ch, (0, 0, 0, 1, 0))
        with pytest.raises(NotShiftable):
            backward_shift_oneform(w, ac)

    def test_rejects_xi_coefficient(self, running):
        from fwdflat.errors import NotShiftable
        ac = build_adapted_chart(running.system)
        ch = ac.chart
        w = OneForm(ch, (ac.xi[0], 0, 0, 0, 0))
        with pytest.raises(NotShiftable):
            backward_shift_oneform(w, ac)

    def test_input_columns_stay_exact_zeros(self, running):
        """The shift's input columns are QQ.zero, and Rows.reduced, which
        writes into no column that is zero in every row, keeps them so: the
        sequence needs no check for input-differential components."""
        ac = build_adapted_chart(running.system)
        n, m = running.system.n, running.system.m
        atoms = list(ac.theta) + [sp.sin(ac.theta[0])]
        rng = random.Random(23)
        for i in range(30):
            rows = [[random_poly(rng, atoms, 2, 3, 2) if i % 3 else rng.randint(-3, 3)
                     for _ in range(n)] + [0] * m for _ in range(rng.randint(1, 3))]
            shifted = backward_shift(Rows.of(rows), ac)
            for R in (shifted, shifted.reduced()[0]):
                assert all(type(c) is type(QQ.zero) and c == QQ.zero
                           for row in R.rows for c in row[n:])

    def test_round_trip_randomized(self, running):
        # sigma_i(theta) dtheta^i backward-shifts to sigma_i(x) dx^i
        ac = build_adapted_chart(running.system)
        ch = ac.chart
        thsyms = list(ac.theta)
        xsyms = list(running.system.states)
        rng = random.Random(21)
        for _ in range(100):
            sigmas = [random_poly(rng, thsyms, 2, 3, 2) for _ in range(3)]
            w = OneForm(ch, tuple(sigmas) + (0, 0))
            back = backward_shift_oneform(w, ac)
            ren = {t: x for t, x in zip(thsyms, xsyms)}
            for c, sgm in zip(back.coeffs[:3], sigmas):
                assert is_zero(c - sgm.xreplace(ren))
            assert all(c == 0 for c in back.coeffs[3:])


class TestFlatOutput:
    def test_running_positive(self, running):
        v = verify_flat_output(running.system, running.flat_output)
        assert v.ok
        assert v.failing_components() == []

    def test_identity_system(self):
        x1, u1 = sp.symbols("x1 u1")
        s = _sys(["x1"], ["u1"], [u1], [0], [0])
        cand = FlatOutputCandidate(
            phi=(x1,), F_x=(sp.Symbol("y1"),), F_u=(sp.Symbol("y1_1"),), R=(1,))
        v = verify_flat_output(s, cand)
        assert v.ok

    def test_identity_perturbed(self):
        x1, u1 = sp.symbols("x1 u1")
        s = _sys(["x1"], ["u1"], [u1], [0], [0])
        cand = FlatOutputCandidate(
            phi=(x1,), F_x=(sp.Symbol("y1") + 1,), F_u=(sp.Symbol("y1_1"),), R=(1,))
        v = verify_flat_output(s, cand)
        assert not v.ok
        assert "x1" in v.failing_components()

    def test_wrong_arity(self, running):
        with pytest.raises(ValueError):
            verify_flat_output(running.system,
                               FlatOutputCandidate(phi=(sp.Symbol("x1"),),
                                                   F_x=(0, 0, 0), F_u=(0, 0)))

    def test_flat_output_symbol_names(self):
        assert flat_output_symbol(0, 0).name == "y1"
        assert flat_output_symbol(1, 2).name == "y2_2"


class TestTriangularDecomposition:
    def test_running_positive(self, running):
        assert running.decomposition is not None
        v = verify_triangular_decomposition(running.system, running.decomposition)
        assert v.ok, v.reasons
        assert v.fbar is not None and len(v.fbar) == 3
        # x2-block rows contain no ubar1
        u1b = v.ubar[0]
        for row in v.fbar[1:]:
            assert is_zero(sp.diff(row, u1b))

    def test_academic_positive(self, academic):
        v = verify_triangular_decomposition(academic.system, academic.decomposition)
        assert v.ok, v.reasons

    @pytest.mark.parametrize("name", ["running", "academic"])
    def test_fbar_matches_normalize(self, name, request, monkeypatch):
        """fbar, left in the domain's form, is the function that
        normalize's printed form gives, with the same verdict."""
        fx = request.getfixturevalue(name)
        v = verify_triangular_decomposition(fx.system, fx.decomposition)
        monkeypatch.setattr(dtsys, "domain_form", symcore.normalize)
        w = verify_triangular_decomposition(fx.system, fx.decomposition)
        assert v.ok and w.ok and len(v.fbar) == len(w.fbar) == fx.system.n
        assert all(is_zero(a - b) for a, b in zip(v.fbar, w.fbar))

    def test_degenerate_split_rejected(self, running):
        dec = running.decomposition
        bad = TriangularDecomposition(dec.state_map, dec.input_map, (0, 3, 1, 1))
        v = verify_triangular_decomposition(running.system, bad)
        assert not v.ok
        assert any("dim(x1)" in r for r in v.reasons)

    def test_wrong_split_sum(self, running):
        dec = running.decomposition
        bad = TriangularDecomposition(dec.state_map, dec.input_map, (2, 2, 1, 1))
        v = verify_triangular_decomposition(running.system, bad)
        assert not v.ok

    def test_state_map_must_not_use_inputs(self, running):
        x1, x2, x3, u1 = sp.symbols("x1 x2 x3 u1")
        dec = running.decomposition
        bad = TriangularDecomposition((x3 + u1, x1 - x3, x2),
                                      dec.input_map, dec.split)
        v = verify_triangular_decomposition(running.system, bad)
        assert not v.ok
        assert any("x alone" in r for r in v.reasons)

    def test_uninvertible_state_map_names_the_unsolved_equation(self, running):
        x1, x2, x3 = sp.symbols("x1 x2 x3")
        dec = running.decomposition
        bad = TriangularDecomposition((x3 ** 3, x1 - x3, x2), dec.input_map, dec.split)
        v = verify_triangular_decomposition(running.system, bad)
        assert not v.ok
        assert v.reasons == ["state map could not be inverted: no equation is "
                             "linear in x3; unsolved: -x3**3 + xb1 = 0"]

    def test_x2_row_depending_on_u1_through_a_trig_argument_rejected(self):
        # fbar2 = xb2 - sin(xb1) + sin(xb1 + ub1): the u1-block enters the
        # x2-row only inside the compound argument of a sine
        x1, x2, u1 = sp.symbols("x1 x2 u1")
        sys = _sys(["x1", "x2"], ["u1"], [x1 + u1, x2], [0, 0], [0])
        dec = TriangularDecomposition((x1, x2 + sp.sin(x1)), (u1,), (1, 1, 1, 0))
        v = verify_triangular_decomposition(sys, dec)
        assert not v.ok
        assert "x2-row 1 depends on the u1-block" in v.reasons

    def test_non_triangular_structure_detected(self, running):
        # swapping the input blocks breaks the structure: with ubar1 = u1 - u2
        # demoted and u2 promoted, the x2-rows pick up the promoted block
        x1, x2, x3, u1, u2 = sp.symbols("x1 x2 x3 u1 u2")
        dec = running.decomposition
        bad = TriangularDecomposition(dec.state_map, (u1 - u2, u2), dec.split)
        v = verify_triangular_decomposition(running.system, bad)
        assert not v.ok
