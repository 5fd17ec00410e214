import dataclasses
import random
from operator import methodcaller
from types import SimpleNamespace

import pytest
import sympy as sp
from sympy.matrices.matrixbase import MatrixBase
from sympy.polys.domains import QQ

import reference
from conftest import (
    ENTRY_KINDS,
    random_affine_system,
    random_entry,
    random_poly,
    random_reduced_rows,
    transformed_linear_systems,
)
from fwdflat import domain, dtsys, extcalc, flatness, symcore
from fwdflat.dtsys import DiscreteTimeSystem, TriangularDecomposition
from fwdflat.errors import FwdflatError, InternalInconsistency
from fwdflat.extcalc import (
    Codistribution,
    Distribution,
    OneForm,
    basis_oneform,
    basis_vectorfield,
    closure,
    intersect,
    invariant_extension,
    parse_oneform,
    pullback,
)
from fwdflat.flatness import (
    FORWARD_FLAT,
    NOT_FORWARD_FLAT,
    STATIC_FEEDBACK_LINEARIZABLE,
    _intersect_df,
    compute_sequence,
    decomposability,
    subsystem_consistency_check,
)
from fwdflat.symcore import Rows, Substitution, domain_form, is_zero


def _sys(states, inputs, f, x0, u0, **kw):
    return DiscreteTimeSystem(
        states=tuple(sp.Symbol(s) for s in states),
        inputs=tuple(sp.Symbol(s) for s in inputs),
        f=tuple(f), x0=tuple(x0), u0=tuple(u0), **kw)


def _span(sys, texts):
    ch = sys.chart
    return Codistribution.span(ch, [parse_oneform(t, ch) for t in texts])


class TestRunningSequence:
    def test_dims_and_verdict(self, running):
        r = compute_sequence(running.system)
        assert r.dims == [3, 2, 0]
        assert r.k_bar == 3
        assert r.verdict == FORWARD_FLAT
        assert r.obstruction is None
        assert r.warnings == []

    def test_bases(self, running):
        s = running.system
        r = compute_sequence(s)
        assert r.steps[0].P.equals(_span(s, ["dx1", "dx2", "dx3"]))
        assert r.steps[1].P.equals(_span(s, ["dx1 - dx3", "dx2"]))
        assert r.steps[2].P.dim == 0

    def test_step_diagnostics(self, running):
        r = compute_sequence(running.system)
        s1 = r.steps[0]
        assert s1.intersection_dim == 1
        assert s1.lie_derivatives_added == 1
        assert s1.step2_trivial is False
        s3 = r.steps[2]
        assert s3.intersection_dim is None  # terminal step, no iteration ran

    def test_decomposability(self, running):
        r = compute_sequence(running.system)
        assert decomposability(r) == (1, 2)


class TestAcademicSequence:
    def test_dims_and_verdict(self, academic):
        r = compute_sequence(academic.system)
        assert r.dims == [5, 4, 2, 0]
        assert r.verdict == FORWARD_FLAT
        assert r.warnings == []
        assert decomposability(r) == (1, 4)

    def test_bases(self, academic):
        s = academic.system
        r = compute_sequence(s)
        assert r.steps[1].P.equals(
            _span(s, ["dx1", "dx2", "dx3 - dx5", "dx4"]))
        assert r.steps[2].P.equals(
            _span(s, ["(x2 + 1)*dx1 - x1*dx2", "dx3 - dx5"]))


class TestVtolSequence:
    def test_dims_verdict_and_nontrivial_steps(self, vtol):
        r = compute_sequence(vtol.system)
        assert r.dims == [6, 5, 4, 2, 0]
        assert r.verdict == FORWARD_FLAT
        trivial = [s.step2_trivial for s in r.steps[:-1]]
        assert trivial == [False, False, True, True]


class TestNegativeControl:
    def test_not_forward_flat(self, nonflat):
        s = nonflat.system
        r = compute_sequence(s)
        assert r.verdict == NOT_FORWARD_FLAT
        assert r.k_bar == 1
        assert r.dims == [2]
        assert r.obstruction is not None
        P = Codistribution.span(s.chart, r.obstruction)
        assert P.equals(_span(s, ["dx1", "dx2"]))
        assert decomposability(r) is None

    def test_uncontrollable_linear(self):
        x1, x2, u1 = sp.symbols("x1 x2 u1")
        s = _sys(["x1", "x2"], ["u1"], [x1 + u1, 2 * x2], [0, 0], [0])
        r = compute_sequence(s)
        assert r.verdict == NOT_FORWARD_FLAT
        assert r.dims == [2, 1]


class TestStaticFeedbackLinearizable:
    def test_brunovsky_chain(self):
        x1, x2, x3, u1 = sp.symbols("x1 x2 x3 u1")
        s = _sys(["x1", "x2", "x3"], ["u1"], [x2, x3, u1], [0, 0, 0], [0])
        r = compute_sequence(s)
        assert r.verdict == STATIC_FEEDBACK_LINEARIZABLE
        assert r.dims == [3, 2, 1, 0]
        assert all(st.step2_trivial for st in r.steps[:-1])

    def test_forward_flat_is_not_sfl(self, running):
        # step 2 is nontrivial at k = 1, so the verdict stays ForwardFlat
        r = compute_sequence(running.system)
        assert r.verdict == FORWARD_FLAT


class TestPreconditionsAndBounds:
    def test_non_submersive_rejected(self):
        x1, u1 = sp.symbols("x1 u1")
        s = _sys(["x1", "x2"], ["u1"], [x1 + u1, x1 + u1], [0, 0], [0])
        with pytest.raises(FwdflatError):
            compute_sequence(s)

    def test_iteration_bound(self, running, academic, vtol, nonflat):
        for fx in (running, academic, vtol, nonflat):
            r = compute_sequence(fx.system)
            assert len(r.steps) <= fx.system.n + 1

    def test_strictly_decreasing_until_stall(self, running, academic, vtol):
        for fx in (running, academic, vtol):
            d = compute_sequence(fx.system).dims
            assert all(a > b for a, b in zip(d, d[1:]))


class TestDeterminism:
    def test_report_independent_of_seed(self, running, academic):
        for fx in (running, academic):
            symcore.configure(seed=0, samples=8)
            a = compute_sequence(fx.system).to_json_dict()
            symcore.configure(seed=12345, samples=8)
            b = compute_sequence(fx.system).to_json_dict()
            assert a == b


class TestComplementIndependence:
    def test_running_alternative_complement(self, running):
        s = running.system
        x1, x3 = sp.symbols("x1 x3")
        alt = DiscreteTimeSystem(
            states=s.states, inputs=s.inputs, f=s.f, x0=s.x0, u0=s.u0,
            complement_h=(x1, x3), name=s.name)
        a = compute_sequence(s).to_json_dict()
        b = compute_sequence(alt).to_json_dict()
        assert a == b

    def test_academic_alternative_complement(self, academic):
        s = academic.system
        x3, x5 = sp.symbols("x3 x5")
        alt = DiscreteTimeSystem(
            states=s.states, inputs=s.inputs, f=s.f, x0=s.x0, u0=s.u0,
            complement_h=(x3, x5), name=s.name)
        a = compute_sequence(s).to_json_dict()
        b = compute_sequence(alt).to_json_dict()
        assert a == b


class TestSubsystemConsistency:
    def test_running(self, running):
        c = subsystem_consistency_check(running.system, running.decomposition)
        assert c.ok, c.reasons
        assert c.main_dims == [3, 2, 0]
        assert c.subsystem_dims == [2, 0]

    def test_academic(self, academic):
        c = subsystem_consistency_check(academic.system, academic.decomposition)
        assert c.ok, c.reasons
        assert c.main_dims == [5, 4, 2, 0]
        assert c.subsystem_dims == [4, 2, 0]

    def test_invalid_decomposition_reported(self, running):
        dec = running.decomposition
        bad = TriangularDecomposition(dec.state_map, dec.input_map, (2, 1, 1, 1))
        c = subsystem_consistency_check(running.system, bad)
        assert not c.ok
        assert any("invalid" in r for r in c.reasons)

    def test_x2_row_on_the_u1_block_is_the_verifiers_reason(self, running):
        """An x2-row of fbar that holds a u1-block symbol has a nonzero
        derivative by it, so the verifier refuses the decomposition, and
        the check reports the verifier's reason and runs no sequence."""
        x1, x2, x3 = running.system.states
        u1, u2 = running.system.inputs
        dec = TriangularDecomposition((x1, x3, x2), (u1 - u2, u2), (1, 2, 1, 1))
        c = subsystem_consistency_check(running.system, dec)
        assert sp.Symbol("ub1") in c.decomposition.fbar[2].free_symbols
        assert c.decomposition.reasons == ["x2-row 2 depends on the u1-block"]
        assert c.reasons == ["decomposition invalid: x2-row 2 depends on the u1-block"]
        assert c.main_dims is None and c.subsystem_dims is None


class TestTrace:
    def test_trace_lines_emitted(self, running):
        lines = []
        compute_sequence(running.system, trace=lines.append)
        assert any("k = 1" in ln for ln in lines)
        assert any("zero codistribution" in ln or "fixed point" in ln
                   for ln in lines)


def _random_adapted_chart(rng, n, m):
    """A system with f(0, 0) = 0 and its adapted chart, built from a random
    triangular polynomial map (x, u) = G(θ, ξ) in shuffled variable orders:
    each output is one input plus a polynomial without constant term in the
    inputs before it, so (f, h) = G⁻¹ is polynomial too."""
    xu = [sp.Symbol(f"x{i}") for i in range(1, n + 1)] + [
        sp.Symbol(f"u{j}") for j in range(1, m + 1)]
    th_xi = [sp.Symbol(f"th{i}") for i in range(1, n + 1)] + [
        sp.Symbol(f"xi{j}") for j in range(1, m + 1)]
    ins, outs = rng.sample(th_xi, n + m), rng.sample(xu, n + m)
    G, inv = {}, {}
    for k, (v, w) in enumerate(zip(ins, outs)):
        p = sp.Add(*(rng.choice((-2, -1, 1, 2)) * rng.choice(ins[:k])
                     * rng.choice((1, *ins[:k]))
                     for _ in range(rng.randint(0, 2) if k else 0)))
        G[w] = v + p
        inv[v] = sp.expand(w - p.xreplace(inv))
    sys = DiscreteTimeSystem(
        states=tuple(xu[:n]), inputs=tuple(xu[n:]),
        f=tuple(inv[t] for t in th_xi[:n]), x0=(0,) * n, u0=(0,) * m)
    return sys, dtsys.AdaptedChart(sys, tuple(th_xi[:n]), tuple(th_xi[n:]),
                                   tuple(inv[x] for x in th_xi[n:]),
                                   Substitution({w: G[w] for w in xu}))


class TestAdaptedCoordinateShortcuts:
    def test_match_general_routines_randomized(self):
        """The intersection with span{df} taken on rows in (x, u) equals
        the old route, intersect with span{dθ} after pulling P back into
        (θ, ξ), and the loop's closure of rows under ∂/∂ξ equals the
        invariant extension along ∂ξ, both the package's and the sympy
        reference's, on random adapted charts and codistributions with
        polynomial coefficients."""
        rng = random.Random(4242)
        nontrivial = 0
        for _ in range(50):
            n, m = rng.choice(((2, 1), (2, 2), (3, 1)))
            sys, ac = _random_adapted_chart(rng, n, m)
            xu, ch = sys.chart, ac.chart
            forms = [OneForm(xu, tuple(
                random_poly(rng, xu.symbols, 2, 3, 1) if rng.random() < 0.5 else 0
                for _ in range(xu.dim)))
                for _ in range(rng.randint(m, n + m - 1))]
            P = Codistribution.span(xu, forms)
            P_ad = pullback(ac.from_adapted, ch)(P)
            dtheta = Codistribution.span(
                ch, [basis_oneform(ch, i) for i in range(n)])
            dxi = Distribution.span(
                ch, [basis_vectorfield(ch, n + j) for j in range(m)])
            d_xi = [methodcaller("derivative", v) for v in ac.xi]
            Q_rows = _intersect_df(P.rows, sys.jacobian_rows(), ac)
            Q = Codistribution(ch, Q_rows)
            assert Q.equals(intersect(P_ad, dtheta))
            assert Q.equals(reference.intersect(P_ad, dtheta))
            closed = Codistribution(ch, closure(Q_rows, d_xi))
            assert closed.equals(reference.invariant_extension(Q, dxi))
            assert closed == invariant_extension(Q, dxi)
            # the same polynomial forms, written on (θ, ξ)
            rename = dict(zip(xu.symbols, ch.symbols))
            P_th = Codistribution.span(ch, [OneForm(ch, tuple(
                c.xreplace(rename) for c in w.coeffs)) for w in forms])
            closed = Codistribution(ch, closure(P_th.rows, d_xi))
            assert closed.equals(reference.invariant_extension(P_th, dxi))
            assert closed == invariant_extension(P_th, dxi)
            nontrivial += Q.dim > 0
        assert nontrivial >= 10

    def test_composed_reduced_rows_stay_reduced(self):
        """Rows in reduced row echelon form, composed through either map of
        an adapted chart (a symcore.Substitution), stay in that form with
        the same pivots: every QQ entry is returned as it is, so the unit
        pivots and the zeros beside and before them stay, and _intersect_df
        reduces the intersection only once.  Seeded rows with polynomial
        and trig entries, on random adapted charts."""
        rng = random.Random(6161)
        composed = 0
        for _ in range(30):
            n, m = rng.choice(((2, 1), (2, 2), (3, 1)))
            sys, ac = _random_adapted_chart(rng, n, m)
            xu = sys.chart.symbols

            def entry():
                c = random_poly(rng, xu, 2, 2, 1) if rng.random() < 0.6 else 0
                if rng.random() < 0.4:
                    c += rng.choice((sp.sin, sp.cos))(rng.choice(xu)) * random_poly(
                        rng, xu, 1, 2, 1)
                return c

            R, pivots = Rows.of(sp.Matrix(rng.randint(1, n), n + m,
                                          lambda i, j: entry())).reduced()
            for S in (ac.to_adapted, ac.to_x):
                C = S(R)
                assert C.width == R.width and len(C.rows) == len(R.rows)
                assert C.reduced()[1] == pivots
                for i, (row, p) in enumerate(zip(C.rows, pivots)):
                    assert all(type(a) is type(QQ.zero) and not a for a in row[:p])
                    for r, other in enumerate(C.rows):
                        assert other[p] is R.rows[r][p]
                        assert other[p] == (1 if r == i else 0)
                R = C
            composed += R.F is not None
        assert composed >= 10

    @pytest.mark.parametrize("name", ["running", "vtol"])
    def test_no_codistribution_passes_through_the_inverse_chart(
            self, name, request, monkeypatch):
        """compute_sequence composes only the intersection's coefficients
        with the inverse chart: it pulls no form back, never
        differentiates the inverse chart, and passes only rows of n
        coefficients through it, at most once per iteration and never rows
        of QQ numbers."""
        sys = request.getfixturevalue(name).system
        from_adapted = dtsys.build_adapted_chart(sys).from_adapted
        pullbacks, inverse_jacobians, composed_widths = [], [], []
        jacobian_rows, substitute = symcore.jacobian_rows, Substitution.__call__

        def counting_jacobian(exprs, symbols):
            shown = (tuple(map(exprs.to_expr, exprs.rows[0])) if isinstance(exprs, Rows)
                     else tuple(exprs))
            if shown == from_adapted:
                inverse_jacobians.append(symbols)
            return jacobian_rows(exprs, symbols)

        def counting_substitution(subs, R):
            if tuple(subs.exprs.values()) == from_adapted:
                composed_widths.append(R.width)
                assert any(type(a) is not type(QQ.zero) for row in R.rows for a in row)
            return substitute(subs, R)

        monkeypatch.setattr(symcore, "jacobian_rows", counting_jacobian)
        monkeypatch.setattr(Substitution, "__call__", counting_substitution)
        for module in (extcalc, flatness):
            monkeypatch.setattr(module, "pullback",
                                lambda *a: pullbacks.append(a) or pullback(*a))
        report = compute_sequence(sys)
        assert pullbacks == []
        assert inverse_jacobians == []
        assert composed_widths == [sys.n] * len(composed_widths)
        assert 0 < len(composed_widths) <= report.k_bar - 1


class TestDeferredInverse:
    """compute_sequence solves and converts the inverse chart, and converts
    θ -> x, only for the first rows with a non-constant entry that need
    them; the adapted chart holds both maps."""

    @staticmethod
    def _count(monkeypatch):
        """Record every _solve_inverse call and every Substitution built."""
        inversions, substitutions = [], []
        solve, init = dtsys._solve_inverse, Substitution.__init__

        def counting_init(S, mapping, F=None):
            init(S, mapping, F)
            substitutions.append(S)

        monkeypatch.setattr(dtsys, "_solve_inverse",
                            lambda *a: inversions.append(a) or solve(*a))
        monkeypatch.setattr(Substitution, "__init__", counting_init)
        return inversions, substitutions

    def test_affine_charts_are_never_inverted(self, monkeypatch):
        """Every row of an affine system holds QQ numbers only, so neither
        map is built."""
        rng = random.Random(3434)
        inversions, substitutions = self._count(monkeypatch)
        for _ in range(50):
            sys = random_affine_system(rng, rng.randint(2, 6), rng.randint(1, 2))
            compute_sequence(sys)
            assert inversions == []
            assert substitutions == []

    @pytest.mark.parametrize("name", ["running", "academic", "vtol", "nonflat"])
    def test_each_chart_map_is_built_once(self, name, request, monkeypatch):
        """One run builds the chart's to_adapted and to_x once each, the
        equilibrium's point once, for the ranks there, the Substitution of
        (f, h)'s elements once for the round trip of each solved inverse,
        and no other Substitution."""
        sys = request.getfixturevalue(name).system
        charts, chart = [], flatness.build_adapted_chart
        monkeypatch.setattr(flatness, "build_adapted_chart",
                            lambda s: charts.append(chart(s)) or charts[-1])
        inversions, substitutions = self._count(monkeypatch)
        compute_sequence(sys)
        built, (ac,) = list(substitutions), charts
        back = dict(zip(ac.theta + ac.xi, sys.f + ac.h))
        round_trips = [S for S in built if S.values.keys() == back.keys()]
        assert all(is_zero(S.exprs[y] - e) for S in round_trips for y, e in back.items())
        assert len(round_trips) == len(inversions) == (sys.inverse_chart is None)
        point, *maps = [S for S in built if S not in round_trips]
        assert point.exprs == {**sys.equilibrium_subs(),
                               **{p: point.exprs[p] for p in sys.params}}
        assert all(point.exprs[p].is_Rational and point.exprs[p] for p in sys.params)
        assert {id(S) for S in maps} == {id(ac.to_adapted), id(ac.to_x)}
        assert substitutions == built  # read from the chart, not built again

    @pytest.mark.parametrize("name, h, count", [
        ("running", ("u1", "x3"), 1), ("academic", ("x1", "x3"), 1),
        ("vtol", ("x5", "u1"), 0), ("nonflat", ("u1",), 1)])
    def test_nonlinear_charts_invert_as_before(self, name, h, count, request,
                                               monkeypatch):
        """On the fixtures the chosen complement and the number of
        inversions are those of the eager search (vtol supplies its
        inverse chart)."""
        sys = request.getfixturevalue(name).system
        inversions, _ = self._count(monkeypatch)
        lines = []
        compute_sequence(sys, trace=lines.append)
        assert lines[0] == f"adapted chart complement: {h}"
        assert len(inversions) == count


def _kalman_dims(A: sp.Matrix, B: sp.Matrix) -> list[int]:
    """[n, n - rank R_1, n - rank R_2, ...] until it reaches 0 or repeats,
    with R_k = [B, AB, ..., A^(k-1) B]."""
    dims, blocks = [A.rows], [B]
    while dims[-1] > 0:
        d = A.rows - sp.Matrix.hstack(*blocks).rank()
        if d == dims[-1]:
            break
        dims.append(d)
        blocks.append(A * blocks[-1])
    return dims


def test_transformed_linear_systems_match_the_kalman_oracle():
    """x+ = Ax + Bu written in z and v, with x_i = z_i + p_i(z_<i) and
    u_j = v_j + q_j(z) for polynomials p, q of degree at most 2 with at most
    2 terms and no constant term: a state transformation and a static
    feedback, which keep the equilibrium at 0 and leave the dims, k_bar and
    the verdict of the Kalman oracle.  The charts of these systems are not
    affine, so every run inverts its chart."""
    for A, B, sys in transformed_linear_systems(random.Random(2718), 16):
        report = compute_sequence(sys)
        dims = _kalman_dims(A, B)
        assert report.dims == dims, (A, B, sys.f)
        assert report.k_bar == len(dims)
        assert report.verdict == (STATIC_FEEDBACK_LINEARIZABLE if dims[-1] == 0
                                  else NOT_FORWARD_FLAT)


def _chain(n):
    """x_i+ = x_{i+1} + x_i x_{i+1}, x_n+ = u1."""
    x = sp.symbols(f"x1:{n + 1}")
    f = [x[i + 1] + x[i] * x[i + 1] for i in range(n - 1)] + [sp.Symbol("u1")]
    return _sys([s.name for s in x], ["u1"], f, [0] * n, [0])


def test_nonlinear_chain_of_ten_states():
    """The nonlinear chain whose pullback through the inverse chart once
    took 18 s at n = 10."""
    r = compute_sequence(_chain(10))
    assert r.verdict == STATIC_FEEDBACK_LINEARIZABLE
    assert r.dims == list(range(10, -1, -1))


def test_report_refuses_a_non_integrable_row_set(running, monkeypatch):
    """compute_sequence checks each accepted P_{k+1} on its rows, and turns
    no row entry into an expression before that check: a backward shift
    that gives the contact form dx2 + x1 dx3 raises InternalInconsistency."""
    sys = running.system
    contact = Rows.of([[0, 1, sys.states[0], 0, 0]])
    shifts, expressions = [], []
    to_expr = Rows.to_expr
    monkeypatch.setattr(flatness, "backward_shift",
                        lambda Q, ac: shifts.append(Q) or contact)
    monkeypatch.setattr(Rows, "to_expr", lambda R, x: (
        expressions.append(x) or to_expr(R, x)))
    with pytest.raises(InternalInconsistency, match="P_2 is not integrable"):
        compute_sequence(sys)
    assert len(shifts) == 1
    assert expressions == []


class TestEquilibriumChecksPerRun:
    @pytest.mark.parametrize("name", ["running", "vtol"])
    def test_jacobian_once_and_ranks_bounded(self, name, request, monkeypatch):
        """One compute_sequence differentiates f once and takes at most
        3 + 2 k_bar ranks at the equilibrium: J_f's and P_k's ranks there
        are not recomputed at every k, and J_f's, the only n-row matrix, is
        taken once, by the submersivity check."""
        # a fresh instance, without the Jacobian cached by other tests
        sys = dataclasses.replace(request.getfixturevalue(name).system)
        jacobians, ranks = [], []
        jacobian_rows, rank_at_point = symcore.jacobian_rows, dtsys._rank_at_point

        def counting_jacobian(exprs, symbols):
            jacobians.append(tuple(map(exprs.to_expr, exprs.rows[0]))
                             if isinstance(exprs, Rows) else tuple(exprs))
            return jacobian_rows(exprs, symbols)

        def counting_rank(*args):
            ranks.append(args)
            return rank_at_point(*args)

        monkeypatch.setattr(symcore, "jacobian_rows", counting_jacobian)
        monkeypatch.setattr(dtsys, "_rank_at_point", counting_rank)
        monkeypatch.setattr(flatness, "_rank_at_point", counting_rank)
        report = compute_sequence(sys)
        assert jacobians.count(tuple(map(domain_form, sys.f))) == 1
        assert len(ranks) <= 3 + 2 * report.k_bar
        assert [len(M.rows) for M, *_ in ranks].count(sys.n) == 1

    @pytest.mark.parametrize("name", ["running", "academic"])
    def test_jacobian_cleared_once(self, name, request, monkeypatch):
        """J_f's rows are cleared of their denominators once per run, for
        the submersivity check and the intersections' ranks alike."""
        sys = dataclasses.replace(request.getfixturevalue(name).system)
        J, cleared, calls = sys.jacobian_rows(), Rows.cleared, []

        def counting(self):
            calls.append(self is J)
            return cleared(self)

        monkeypatch.setattr(Rows, "cleared", counting)
        report = compute_sequence(sys)
        assert calls.count(True) == 1 and report.k_bar >= 2


class TestNestingChecksPerRun:
    @pytest.mark.parametrize("name", ["running", "vtol"])
    def test_nesting_checked_once_per_iteration(self, name, request, monkeypatch):
        """P_{k+1} ⊂ P_k is one rank of P_k's rows stacked over all rows of
        P_{k+1} per iteration, not one per form."""
        calls = []
        spans = Rows.spans

        def counting(P, other):
            calls.append(len(other.rows))
            return spans(P, other)

        monkeypatch.setattr(Rows, "spans", counting)
        report = compute_sequence(request.getfixturevalue(name).system)
        assert report.dims[-1] == 0  # no fixed point
        assert calls == report.dims[1:]

    def test_fixed_point_takes_the_nesting_rank_alone(self, nonflat, monkeypatch):
        """At a fixed point, nested and of the same dimension is equal: the
        one iteration of nonflat takes exactly one nesting rank, on 2 + 2
        rows, and compares no codistributions."""
        calls, compared = [], []
        spans, contains = Rows.spans, Codistribution.contains

        def counting(P, other):
            calls.append((len(P.rows), len(other.rows)))
            return spans(P, other)

        def comparing(P, *elements):
            compared.append(len(elements))
            return contains(P, *elements)

        monkeypatch.setattr(Rows, "spans", counting)
        monkeypatch.setattr(Codistribution, "contains", comparing)
        report = compute_sequence(nonflat.system)
        assert report.dims == [2] and report.k_bar == 1
        assert calls == [(2, 2)]
        assert compared == []


def _linear_six():
    """x+ = Ax + Bu with n = 6 and m = 2, static feedback linearizable in
    four iterations."""
    x = sp.symbols("x1:7")
    u1, u2 = sp.symbols("u1 u2")
    f = [x[1] + x[3], x[2], u1, x[4], x[5] - x[0], u2]
    return _sys([s.name for s in x], ["u1", "u2"], f, [0] * 6, [0, 0])


class TestRowsStayExact:
    @pytest.mark.parametrize("name", ["running", "vtol", "linear6"])
    def test_conversions_do_not_grow_with_k_bar(self, name, request, monkeypatch):
        """Between building the adapted chart and building the report,
        compute_sequence converts only θ -> x, plus two conversions (its
        normal form, then cos and sin) per trig angle of f that passes
        through the chart's maps; the chart's inversion converts nothing,
        and no row entry turns back into an expression.  The inverse chart
        is converted only where it is supplied, once, when the chart is
        built: a solved one stays in the domain.  On a linear
        system every row is constant, so neither map is solved or
        converted."""
        sys = _linear_six() if name == "linear6" else request.getfixturevalue(name).system
        inverse = dtsys.build_adapted_chart(sys).from_adapted
        # a fresh instance, whose chart takes the elements of f that its
        # Jacobian was taken from: the chart above took sys's
        sys = dataclasses.replace(sys)
        phase, conversions, expressions = ["setup"], [], []
        convert, chart, report, solve = (domain._convert, flatness.build_adapted_chart,
                                         flatness.SequenceReport, dtsys._solve_inverse)

        def counting_convert(exprs):
            exprs = list(exprs)
            conversions.append(phase[0])
            if tuple(exprs) == inverse:
                conversions.append(f"inverse chart in {phase[0]}")
            return convert(exprs)

        def chart_then_loop(s):
            ac = chart(s)
            phase[0] = "loop"
            return ac

        def report_phase(*args):
            phase[0] = "report"
            return report(*args)

        def inversion_phase(*args):
            before, phase[0] = phase[0], "inversion"
            try:
                return solve(*args)
            finally:
                phase[0] = before

        for module in (domain, symcore):
            monkeypatch.setattr(module, "_convert", counting_convert)
        monkeypatch.setattr(flatness, "build_adapted_chart", chart_then_loop)
        monkeypatch.setattr(flatness, "SequenceReport", report_phase)
        monkeypatch.setattr(dtsys, "_solve_inverse", inversion_phase)
        for label in ("to_expr", "to_matrix"):
            method = getattr(Rows, label)
            monkeypatch.setattr(Rows, label, lambda R, *a, method=method: (
                expressions.append(phase[0]) or method(R, *a)))
        r = compute_sequence(sys)
        angles = {t.args[0] for e in sys.f for t in e.atoms(sp.sin, sp.cos)}
        assert r.k_bar >= 3
        # running inverts its chart on the first read, in the loop, from
        # the elements of f and h; vtol supplies its inverse
        assert "inversion" not in conversions
        assert [c for c in conversions if c.startswith("inverse chart")] == (
            ["inverse chart in setup"] if name == "vtol" else [])
        if name == "linear6":
            assert conversions.count("loop") == 0
        else:
            assert conversions.count("loop") == 1 + 2 * len(angles)
        assert "loop" not in expressions and "report" not in expressions

    def test_linear_six(self):
        r = compute_sequence(_linear_six())
        assert r.verdict == STATIC_FEEDBACK_LINEARIZABLE
        assert r.k_bar == 4

    @staticmethod
    def _count_round_trips(monkeypatch, phase):
        """Count, by phase, Rows.of, Rows.to_matrix and sympy Jacobian
        calls, and record the expressions of every jacobian_rows call."""
        round_trips, jacobians = [], []
        of, to_matrix, jacobian_rows = Rows.of.__func__, Rows.to_matrix, symcore.jacobian_rows
        jacobian = MatrixBase.jacobian

        def counting_of(cls, M):
            round_trips.append(("of", phase[0]))
            return of(cls, M)

        def counting_to_matrix(R):
            round_trips.append(("to_matrix", phase[0]))
            return to_matrix(R)

        def counting_jacobian(exprs, symbols):
            jacobians.append(tuple(map(exprs.to_expr, exprs.rows[0]))
                             if isinstance(exprs, Rows) else tuple(exprs))
            return jacobian_rows(exprs, symbols)

        def counting_matrix_jacobian(M, X):
            round_trips.append(("jacobian", phase[0]))
            return jacobian(M, X)

        monkeypatch.setattr(Rows, "of", classmethod(counting_of))
        monkeypatch.setattr(Rows, "to_matrix", counting_to_matrix)
        monkeypatch.setattr(symcore, "jacobian_rows", counting_jacobian)
        monkeypatch.setattr(MatrixBase, "jacobian", counting_matrix_jacobian)
        return round_trips, jacobians

    def test_chart_search_takes_no_round_trip(self, monkeypatch):
        """With an automatic chart on a linear system with n = 5 and m = 2,
        compute_sequence, chart search included, ranks every candidate
        complement on rows: no sympy matrix becomes rows or comes back, and
        f's Jacobian is taken once."""
        x = sp.symbols("x1:6")
        u1, u2 = sp.symbols("u1 u2")
        sys = _sys([s.name for s in x], ["u1", "u2"],
                   [x[1] + x[2], x[3], u1, x[4] - x[0], u2], [0] * 5, [0, 0])
        round_trips, jacobians = self._count_round_trips(monkeypatch, ["run"])
        compute_sequence(sys)
        assert round_trips == []
        assert jacobians.count(sys.f) == 1
        assert len(jacobians) - 1 >= 2  # complements ranked: more than one

    @pytest.mark.parametrize("name", ["running", "academic"])
    def test_decomposition_verifier_takes_no_round_trip(
            self, name, request, monkeypatch):
        """verify-decomposition's check, the decomposition verifier, both
        sequences and the pullback of the subsystem's included, converts no
        sympy matrix into rows or back and builds no sympy Jacobian, and
        the Jacobian of the system's map, of the decomposition's maps, of
        the subsystem's and of the map that pulls the subsystem's sequence
        back is taken once each."""
        sf = request.getfixturevalue(name)
        sys = dataclasses.replace(sf.system)  # without a cached Jacobian
        phase = ["check"]
        round_trips, jacobians = self._count_round_trips(monkeypatch, phase)
        verify = flatness.verify_triangular_decomposition

        def verify_phase(*args):
            phase[0] = "verifier"
            try:
                return verify(*args)
            finally:
                phase[0] = "check"

        monkeypatch.setattr(flatness, "verify_triangular_decomposition", verify_phase)
        c = subsystem_consistency_check(sys, sf.decomposition)
        assert c.ok
        assert round_trips == []
        n1, dec = sf.decomposition.split[0], sf.decomposition
        # the rows of the system's map and of the decomposition's maps, by
        # their elements' expressions
        assert jacobians.count(tuple(map(domain_form, sys.f))) == 1
        assert jacobians.count(tuple(map(domain_form, dec.state_map + dec.input_map))) == 1
        assert jacobians.count(c.decomposition.fbar[n1:]) == 1
        assert jacobians.count(tuple(sf.decomposition.state_map[n1:])) == 1


def _same_rows(A: Rows, B: Rows) -> bool:
    """Whether A and B hold the same elements, entry by entry, once both are
    moved into one field."""
    S = Rows.stack(A, B)
    return (A.width == B.width and len(A.rows) == len(B.rows)
            and S.rows[:len(A.rows)] == S.rows[len(A.rows):])


class TestIntersectionThroughTheKernel:
    """_intersect_df reads P's kernel off its reduced rows and eliminates
    only (J_f K)ᵀ; it must return, element by element, the rows of the one
    elimination of [[P, 0], [J_f, I_n]] (reference.intersect_df), and those
    rows must be reduced."""

    @staticmethod
    def _check(P, J, ac):
        Q = _intersect_df(P, J, ac)
        assert _same_rows(Q, reference.intersect_df(P, J, ac))
        assert _same_rows(Q, Q.reduced()[0])
        return Q

    @pytest.mark.parametrize("name", ["running", "academic", "vtol", "nonflat",
                                      "chain3", "chain4", "chain5", "chain6",
                                      "linear6"])
    def test_every_step_matches_the_reference(self, name, request):
        if name == "linear6":
            sys = _linear_six()
        elif name.startswith("chain"):
            sys = _chain(int(name[5:]))
        else:
            sys = request.getfixturevalue(name).system
        report = compute_sequence(sys)
        ac, J = dtsys.build_adapted_chart(sys), sys.jacobian_rows()
        steps = [s for s in report.steps if s.intersection_dim is not None]
        assert steps
        for step in steps:
            assert len(self._check(step.P.rows, J, ac).rows) == step.intersection_dim

    def test_random_reduced_rows_of_every_rank(self):
        """Seeded P in reduced row echelon form with zero input columns and
        each rank 0..n, against J with polynomial, sin/cos and parameter
        entries; the chart's map is the identity here, so the rows are
        compared as the eliminations return them."""
        rng = random.Random(1717)
        identity = SimpleNamespace(to_adapted=lambda A: A)
        nonzero = 0
        for _ in range(12):
            n, m = rng.choice(((2, 1), (3, 1), (3, 2)))
            syms = sp.symbols(f"x1:{n + 1}") + sp.symbols(f"u1:{m + 1}")
            a = sp.Symbol("a")

            def entry():
                if rng.random() < 0.3:
                    return sp.Integer(rng.randint(-2, 2))
                e = random_poly(rng, syms + (a,), 2, 2, 1)
                if rng.random() < 0.3:
                    e += rng.choice((sp.sin, sp.cos))(rng.choice(syms + (a,)))
                return e

            J = Rows.of(sp.Matrix(n, n + m, lambda i, j: entry()))
            for r in range(n + 1):
                pivots = sorted(rng.sample(range(n), r))
                P = sp.zeros(r, n + m)
                for i, p in enumerate(pivots):
                    P[i, p] = 1
                    for j in range(p + 1, n):
                        if j not in pivots and rng.random() < 0.7:
                            P[i, j] = entry()
                P_rows, found = Rows.of(P).reduced()
                assert found == pivots
                nonzero += len(self._check(P_rows, J, identity).rows) > 0
        assert nonzero >= 12

    def test_preimage_of_seeded_rows_of_every_kind(self):
        """J.preimage(P), the routine that _intersect_df runs, on P of each
        rank 0..N and J of n rows, both of QQ numbers, of field elements or
        of elements with sin/cos (conftest.random_reduced_rows, the rows that
        Rows.kernel is tested on), against the reference's coefficients."""
        rng = random.Random(1919)
        syms = sp.symbols("x1 x2 u1 a")
        identity = SimpleNamespace(to_adapted=lambda A: A)
        nonzero = 0
        for kind in ENTRY_KINDS:
            for n, m in ((2, 1), (3, 1), (2, 2)):
                N = n + m
                J = Rows.of(sp.Matrix(n, N, lambda i, j: random_entry(rng, kind, syms)))
                for r in range(N + 1):
                    P = random_reduced_rows(rng, kind, N, r, syms)
                    A = J.preimage(P)
                    ref = reference.intersect_df(P, J, identity)
                    assert _same_rows(A, Rows(ref.F, [row[:n] for row in ref.rows], n))
                    assert _same_rows(A, A.reduced()[0])
                    nonzero += len(A.rows) > 0
        assert nonzero >= 20


class TestConstantRowsTakeTheirGenericRank:
    @pytest.mark.parametrize("seeded", [False, True])
    def test_no_rank_at_a_point(self, seeded, monkeypatch):
        """On rows of QQ numbers, J_f's, each P_k's and each [P_k; J_f]'s
        rank at the equilibrium is their generic rank: compute_sequence
        builds no Substitution of the point and draws no parameter value,
        also on a seeded linear system that declares a parameter."""
        if seeded:
            sys = random_affine_system(random.Random(30), 5, 2)
            assert sys.params
        else:
            sys = _linear_six()
        substitutions, init = [], Substitution.__init__
        monkeypatch.setattr(Substitution, "__init__", lambda S, mapping: (
            substitutions.append(mapping) or init(S, mapping)))
        state = domain._session.param_rng.getstate()
        report = compute_sequence(sys)
        assert substitutions == []  # not the point's, nor the chart's
        assert domain._session.param_rng.getstate() == state
        assert report.warnings == []
        assert report.k_bar >= 3
