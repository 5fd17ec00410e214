"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line directly to the terminal (bypassing
pytest's capture), so a full run shows eight acceptance lines.
"""

import random
import time

import sympy as sp

from conftest import random_poly
from fwdflat import symcore
from fwdflat.dtsys import (
    DiscreteTimeSystem,
    FlatOutputCandidate,
    backward_shift_oneform,
    build_adapted_chart,
    verify_flat_output,
)
from fwdflat.extcalc import (
    Chart,
    Codistribution,
    Distribution,
    OneForm,
    VectorField,
    add_oneforms,
    annihilator,
    basis_vectorfield,
    contract,
    exterior_derivative,
    intersect,
    invariant_extension,
    is_cauchy_characteristic,
    is_integrable,
    lie_derivative_form,
    parse_oneform,
    sub_oneforms,
)
from fwdflat.flatness import (
    FORWARD_FLAT,
    NOT_FORWARD_FLAT,
    STATIC_FEEDBACK_LINEARIZABLE,
    compute_sequence,
)
from fwdflat.symcore import is_zero


def _announce(capsys, num, desc, fn):
    try:
        fn()
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: PASS - {desc}")


def _span(sys, texts):
    ch = sys.chart
    return Codistribution.span(ch, [parse_oneform(t, ch) for t in texts])


def test_acceptance_1_running_sequence(capsys, running):
    def check():
        t0 = time.monotonic()
        r = compute_sequence(running.system)
        elapsed = time.monotonic() - t0
        assert r.verdict == FORWARD_FLAT
        assert r.dims == [3, 2, 0]
        assert r.steps[1].P.equals(_span(running.system, ["-dx1 + dx3", "dx2"]))
        assert r.steps[2].P.dim == 0
        assert r.steps[0].step2_trivial is False
        assert elapsed < 5.0
    _announce(capsys, 1, "three-state running example: dims (3,2,0), "
              "published P2 basis, ForwardFlat, step 2 nontrivial at k=1",
              check)


def test_acceptance_2_academic_example(capsys, academic):
    def check():
        t0 = time.monotonic()
        r = compute_sequence(academic.system)
        elapsed = time.monotonic() - t0
        assert r.dims == [5, 4, 2, 0]
        assert r.verdict == FORWARD_FLAT
        assert r.verdict != STATIC_FEEDBACK_LINEARIZABLE
        assert r.steps[1].P.equals(
            _span(academic.system, ["dx1", "dx2", "dx3 - dx5", "dx4"]))
        assert r.steps[2].P.equals(
            _span(academic.system, ["(x2 + 1)*dx1 - x1*dx2", "dx3 - dx5"]))
        assert elapsed < 10.0
    _announce(capsys, 2, "five-state academic example: dims (5,4,2,0), "
              "published P2/P3 bases, ForwardFlat but not SFL", check)


def test_acceptance_3_vtol_example(capsys, vtol):
    def check():
        t0 = time.monotonic()
        r = compute_sequence(vtol.system)
        elapsed = time.monotonic() - t0
        assert r.dims == [6, 5, 4, 2, 0]
        assert r.verdict == FORWARD_FLAT
        trivial = [s.step2_trivial for s in r.steps[:-1]]
        assert trivial == [False, False, True, True]
        assert elapsed < 15.0
    _announce(capsys, 3, "discretized VTOL with symbolic sampling time and "
              "coupling: dims (6,5,4,2,0), step 2 nontrivial exactly at "
              "k in {1,2}", check)


def test_acceptance_4_flat_output_verification(capsys, running):
    def check():
        cand = running.flat_output
        v = verify_flat_output(running.system, cand)
        assert v.ok and v.failing_components() == []
        # five single-entry perturbations, each must fail on that entry
        for i in range(3):
            Fx = list(cand.F_x)
            Fx[i] = Fx[i] + 1
            bad = FlatOutputCandidate(cand.phi, tuple(Fx), cand.F_u, cand.R)
            vb = verify_flat_output(running.system, bad)
            assert not vb.ok
            assert not is_zero(vb.residuals_x[i])
        for j in range(2):
            Fu = list(cand.F_u)
            Fu[j] = Fu[j] + 1
            bad = FlatOutputCandidate(cand.phi, cand.F_x, tuple(Fu), cand.R)
            vb = verify_flat_output(running.system, bad)
            assert not vb.ok
            assert not is_zero(vb.residuals_u[j])
    _announce(capsys, 4, "flat-output parameterization verifies with zero "
              "residuals; all five single-entry perturbations fail on the "
              "perturbed component", check)


def test_acceptance_5_invariant_extension_and_cauchy(capsys):
    def check():
        ch = Chart(tuple(sp.Symbol(f"x{i}") for i in range(1, 5)))
        x1, x2, x3, x4 = ch.symbols
        w1 = OneForm(ch, (0, x3, 0, 0))
        w2 = OneForm(ch, (-x2 * x4, 0, 0, x4 ** 2))
        P = Codistribution.span(ch, [w1, w2])
        v2 = basis_vectorfield(ch, 3)
        D = Distribution.span(ch, [basis_vectorfield(ch, 2), v2])
        Phat = invariant_extension(P, D)
        assert Phat.dim == 3  # exactly one 1-form added
        expected = Codistribution.span(
            ch, [w1, w2, lie_derivative_form(v2, w2)])
        assert Phat.equals(expected)
        # Cauchy-characteristic membership
        ch3 = Chart(tuple(sp.Symbol(f"x{i}") for i in range(1, 4)))
        a1 = ch3.symbols[0]
        Pc = Codistribution.span(ch3, [OneForm(ch3, (0, 1, a1)),
                                       OneForm(ch3, (1, 0, -1))])
        vc = VectorField(ch3, (1, -a1, 1))
        assert is_cauchy_characteristic(vc, Pc)
    _announce(capsys, 5, "invariant extension adds exactly the published "
              "Lie derivative; Cauchy-characteristic membership holds", check)


def test_acceptance_6_property_suites(capsys, running, academic, vtol, nonflat):
    def check():
        # nestedness and integrability of every computed sequence
        for fx in (running, academic, vtol, nonflat):
            r = compute_sequence(fx.system)
            for a, b in zip(r.steps, r.steps[1:]):
                for w in b.P.basis:
                    assert a.P.contains(w)
            for s in r.steps:
                assert is_integrable(s.P)

        ch = Chart(tuple(sp.Symbol(f"x{i}") for i in range(1, 5)))
        syms = list(ch.symbols)
        rng = random.Random(42)

        def sparse_form():
            coeffs = [sp.Integer(0)] * ch.dim
            for i in rng.sample(range(ch.dim), rng.randint(1, 2)):
                coeffs[i] = random_poly(rng, syms, 2, 2, 1)
            return OneForm(ch, tuple(coeffs))

        # annihilator duality, 100 instances
        for _ in range(100):
            P = Codistribution.span(ch, [sparse_form()
                                         for _ in range(rng.randint(1, 2))])
            assert annihilator(annihilator(P)).equals(P)

        # intersection duality (P cap Q)_perp = P_perp + Q_perp, 100 instances
        for _ in range(100):
            P = Codistribution.span(ch, [sparse_form()])
            Q = Codistribution.span(ch, [sparse_form()])
            lhs = annihilator(intersect(P, Q))
            dp = annihilator(P)
            dq = annihilator(Q)
            assert lhs.equals(Distribution.span(ch, dp.basis + dq.basis))

        # Cartan identity, 100 instances
        for _ in range(100):
            v = VectorField(ch, tuple(random_poly(rng, syms, 2, 2, 1)
                                      for _ in range(4)))
            w = OneForm(ch, tuple(random_poly(rng, syms, 2, 2, 1)
                                  for _ in range(4)))
            lhs = lie_derivative_form(v, w)
            rhs = add_oneforms(contract(v, exterior_derivative(w)),
                               exterior_derivative(contract(v, w), ch))
            assert sub_oneforms(lhs, rhs).is_zero_form()

        # shift round trip on 1-forms in span{dx}, 100 instances
        ac = build_adapted_chart(running.system)
        ach = ac.chart
        thsyms = list(ac.theta)
        xsyms = list(running.system.states)
        ren = dict(zip(thsyms, xsyms))
        for _ in range(100):
            sigmas = [random_poly(rng, thsyms, 2, 3, 2) for _ in range(3)]
            back = backward_shift_oneform(
                OneForm(ach, tuple(sigmas) + (0, 0)), ac)
            for c, sgm in zip(back.coeffs[:3], sigmas):
                assert is_zero(c - sgm.xreplace(ren))

        # determinism across RNG seeds
        symcore.configure(seed=0, samples=8)
        a = compute_sequence(running.system).to_json_dict()
        symcore.configure(seed=991, samples=8)
        b = compute_sequence(running.system).to_json_dict()
        assert a == b
        symcore.configure(seed=0, samples=8)

        # complement-independence with two distinct h choices
        for fx, h in ((running, ("x1", "x3")), (academic, ("x3", "x5"))):
            s = fx.system
            alt = DiscreteTimeSystem(
                states=s.states, inputs=s.inputs, f=s.f, x0=s.x0, u0=s.u0,
                complement_h=tuple(sp.Symbol(nm) for nm in h), name=s.name)
            assert compute_sequence(alt).to_json_dict() \
                == compute_sequence(s).to_json_dict()
    _announce(capsys, 6, "property suites (nestedness, integrability, "
              "dualities, Cartan identity, shift round trip, determinism, "
              "complement independence), 100+ instances each", check)


def _linsys(A, B):
    n, m = A.rows, B.cols
    states = tuple(sp.Symbol(f"x{i + 1}") for i in range(n))
    inputs = tuple(sp.Symbol(f"u{j + 1}") for j in range(m))
    xs = sp.Matrix(states)
    us = sp.Matrix(inputs)
    f = tuple((A * xs + B * us)[i, 0] for i in range(n))
    return DiscreteTimeSystem(states=states, inputs=inputs, f=f,
                              x0=(0,) * n, u0=(0,) * m, name="linear")


def _kalman_rank(A, B):
    n = A.rows
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A * blocks[-1])
    return sp.Matrix.hstack(*blocks).rank()


def test_acceptance_7_linear_system_oracle(capsys):
    def check():
        rng = random.Random(2026)
        tested = 0
        while tested < 200:
            n = rng.randint(1, 4)
            m = rng.randint(1, 2)
            A = sp.Matrix(n, n, lambda i, j: rng.randint(-2, 2))
            B = sp.Matrix(n, m, lambda i, j: rng.randint(-2, 2))
            if sp.Matrix.hstack(A, B).rank() < n:
                # not a submersion: the algorithm's precondition fails, and
                # such systems are never reachable either
                assert _kalman_rank(A, B) < n
                continue
            verdict = compute_sequence(_linsys(A, B)).verdict
            if _kalman_rank(A, B) == n:
                assert verdict == STATIC_FEEDBACK_LINEARIZABLE
            else:
                assert verdict == NOT_FORWARD_FLAT
            tested += 1
    _announce(capsys, 7, "200 random linear systems: verdict SFL exactly "
              "when the Kalman reachability rank is full", check)


def test_acceptance_8_negative_control(capsys, nonflat):
    def check():
        r = compute_sequence(nonflat.system)
        assert r.verdict == NOT_FORWARD_FLAT
        assert r.obstruction is not None
        P = Codistribution.span(nonflat.system.chart, r.obstruction)
        assert P.equals(_span(nonflat.system, ["dx1", "dx2"]))
        assert r.dims == [2]
    _announce(capsys, 8, "hand-checked non-flat system: NotForwardFlat with "
              "the stalled codistribution reported as obstruction", check)
