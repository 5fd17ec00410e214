"""The forward-flatness test: the unique sequence of integrable
codistributions, the resulting classification, and the consistency check
between a triangular decomposition and the sequence of its subsystem.

Each iteration, starting from a codistribution P_k spanned by exact state
differentials, performs three moves:

1. intersect P_k with the span of the df-differentials, in (x, u);
2. close the intersection under Lie derivatives along the complement
   directions (the smallest invariant extension);
3. shift the result backward, which in adapted coordinates is the
   substitution theta -> x.

In the adapted chart (theta, xi) df is d theta, so only the intersection's
coefficients pass through the inverse chart, never P_k itself; the
complement directions are the constant fields d/d xi.

The sequence is strictly decreasing until it stabilizes; the system is
forward flat exactly when it reaches the zero codistribution, and static
feedback linearizable when, in addition, step 2 never adds anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import sympy as sp

from . import symcore
from .dtsys import (
    AdaptedChart,
    DecompositionVerdict,
    DiscreteTimeSystem,
    TriangularDecomposition,
    _rank_at_point,
    backward_shift_oneform,
    build_adapted_chart,
    check_submersivity,
    verify_triangular_decomposition,
)
from .errors import FwdflatError, InternalInconsistency
from .extcalc import (
    Codistribution,
    OneForm,
    basis_oneform,
    is_integrable,
    pullback,
    render_oneform,
)
from .symcore import is_zero

FORWARD_FLAT = "ForwardFlat"
STATIC_FEEDBACK_LINEARIZABLE = "StaticFeedbackLinearizable"
NOT_FORWARD_FLAT = "NotForwardFlat"


@dataclass
class SequenceStep:
    """P_k together with the diagnostics of the iteration that starts at it.

    The diagnostics are None on the terminal step when the iteration was not
    carried out (the sequence had already reached zero).
    """

    k: int
    P: Codistribution
    dim: int
    intersection_dim: int | None = None
    lie_derivatives_added: int | None = None
    step2_trivial: bool | None = None

    def basis_strings(self) -> list[str]:
        return [render_oneform(w) for w in self.P.basis]


@dataclass
class SequenceReport:
    system_name: str
    steps: list[SequenceStep]
    k_bar: int
    verdict: str
    obstruction: list[OneForm] | None
    warnings: list[str] = field(default_factory=list)

    @property
    def dims(self) -> list[int]:
        return [s.dim for s in self.steps]

    def to_json_dict(self) -> dict:
        d = {
            "system": self.system_name,
            "verdict": self.verdict,
            "k_bar": self.k_bar,
            "dims": self.dims,
            "steps": [
                {
                    "k": s.k,
                    "dim": s.dim,
                    "basis": s.basis_strings(),
                    "intersection_dim": s.intersection_dim,
                    "lie_derivatives_added": s.lie_derivatives_added,
                    "step2_trivial": s.step2_trivial,
                }
                for s in self.steps
            ],
            "obstruction": ([render_oneform(w) for w in self.obstruction]
                            if self.obstruction is not None else None),
            "decomposition_dims": decomposability(self),
            "warnings": list(self.warnings),
        }
        return d


def _intersect_df(P: Codistribution, ac: AdaptedChart) -> Codistribution:
    """P ∩ span{df} in the adapted chart, for P on the (x, u) chart.

    In the rref of [[P, 0], [J_f, I]] the rows with a pivot in the right block
    read [0, a] with a·df ∈ P.  As df = dθ, the intersection is spanned by
    Σ a_i(x(θ, ξ)) dθ_i: only these coefficients pass through the inverse
    chart, which maps independent rows to independent rows.
    """
    J = ac.system.jacobian()
    n, N = J.shape
    M = P.matrix().row_join(sp.zeros(P.dim, n)).col_join(J.row_join(sp.eye(n)))
    R, pivots = symcore.rref(M)
    subs = dict(zip(P.chart.symbols, ac.from_adapted))
    rows = [OneForm(ac.chart, tuple(a.xreplace(subs) for a in R[i, N:])
                    + (0,) * (N - n))
            for i, c in enumerate(pivots) if c >= N]
    Q = Codistribution.span(ac.chart, rows)
    if Q.dim != len(rows):
        raise InternalInconsistency(
            "the inverse chart made independent forms dependent")
    return Q


def _close_under_dxi(Q: Codistribution, n: int) -> Codistribution:
    """Smallest extension of Q invariant under ∂ξ, the coordinate fields
    after the first n: ∂ξ is constant, so L_∂ξ ω is ∂ω/∂ξ coefficientwise.
    The dimension grows every round until it stops, so at most chart.dim
    rounds run."""
    ch = Q.chart
    while True:
        J = symcore.jacobian([c for w in Q.basis for c in w.coeffs], ch.symbols[n:])
        derived = [OneForm(ch, tuple(J[i * ch.dim:(i + 1) * ch.dim, j]))
                   for j in range(J.cols) for i in range(Q.dim)]
        extended = Codistribution.span(ch, list(Q.basis) + derived)
        if extended.dim == Q.dim:
            return Q
        Q = extended


def _dim_at_equilibrium(M: sp.Matrix, eq_subs, params, generic_dim: int,
                        warnings: list[str], label: str
                        ) -> tuple[sp.Matrix, int | None]:
    """M with its row denominators cleared (see symcore.clear_denominators:
    polynomial rows, so no pole at the point) and its rank at the
    equilibrium, warning when that rank is not generic_dim."""
    if M.rows == 0:
        return M, 0
    M = symcore.clear_denominators(M)
    rk = _rank_at_point(M, eq_subs, params)
    if rk is None:
        warnings.append(f"{label}: rank at the equilibrium could not be "
                        "evaluated exactly")
    elif rk != generic_dim:
        warnings.append(f"{label}: generic dimension {generic_dim} drops to "
                        f"{rk} at the equilibrium")
    return M, rk


def _intersection_dim_at_equilibrium(A: sp.Matrix, ra: int | None,
                                     B: sp.Matrix, rb: int | None, eq_subs,
                                     params, generic_dim: int,
                                     warnings: list[str], label: str) -> None:
    """Pointwise dim(rowspace(A) ∩ rowspace(B)) = rk A + rk B − rk [A; B],
    for A and B with cleared row denominators and their ranks ra and rb at
    the equilibrium (None where not exact).

    Evaluating a canonical basis of the intersection at the point is not
    reliable (pivot normalization can degenerate there), so the dimension is
    reconstructed from the evaluated generating matrices instead.
    """
    rab = _rank_at_point(A.col_join(B), eq_subs, params)
    if None in (ra, rb, rab):
        warnings.append(f"{label}: rank at the equilibrium could not be "
                        "evaluated exactly")
        return
    d = ra + rb - rab
    if d != generic_dim:
        warnings.append(f"{label}: generic dimension {generic_dim} becomes "
                        f"{d} at the equilibrium")


def compute_sequence(sys: DiscreteTimeSystem, trace=None) -> SequenceReport:
    """Run the decreasing sequence of codistributions to its fixed point.

    ``trace``, if given, is called with one human-readable line per event.
    """
    def say(msg):
        if trace is not None:
            trace(msg)

    sub = check_submersivity(sys)
    if not sub.ok:
        raise FwdflatError(
            "the system map is not a submersion (precondition of the test): "
            + "; ".join(sub.notes))
    ac = build_adapted_chart(sys)
    say(f"adapted chart complement: {tuple(str(h) for h in ac.h)}")

    # per run: J_f, and P_1 = span{dx_i} of rank n; P_k's cleared matrix
    # and rank come from the previous shifted-codistribution check.
    # Clearing scales each row of J_f by a polynomial that is nonzero where
    # J_f has no pole, so its rank there is the submersivity check's.
    warnings: list[str] = []
    eq_xu = sys.equilibrium_subs()
    J_eq = symcore.clear_denominators(sys.jacobian())
    rank_J = sub.rank_at_equilibrium
    P_eq, rank_P = sp.eye(sys.n, sys.n + sys.m), sys.n

    xu = sys.chart
    P = Codistribution.span(xu, [basis_oneform(xu, i) for i in range(sys.n)])
    steps = [SequenceStep(1, P, P.dim)]
    k_bar = 1
    for k in range(1, sys.n + 2):
        step = steps[-1]
        if step.dim == 0:
            break
        Q = _intersect_df(step.P, ac)
        Qhat = _close_under_dxi(Q, sys.n)
        step.intersection_dim = Q.dim
        step.lie_derivatives_added = Qhat.dim - Q.dim
        step.step2_trivial = Qhat.dim == Q.dim
        say(f"k = {k}: dim P = {step.dim}, intersection {Q.dim}, "
            f"extension added {step.lie_derivatives_added}")

        shifted = [backward_shift_oneform(w, ac) for w in Qhat.basis]
        P_next = Codistribution.span(xu, shifted)

        # runtime invariants of the construction
        if not step.P.contains(*P_next.basis):
            raise InternalInconsistency(f"sequence is not nested at k = {k}")
        if any(c != 0 and not is_zero(c)
               for w in P_next.basis for c in w.coeffs[sys.n:]):
            raise InternalInconsistency(
                f"P_{k + 1} has input-differential components")
        if not is_integrable(P_next):
            raise InternalInconsistency(
                f"P_{k + 1} is not integrable; the backward shift is invalid")

        _intersection_dim_at_equilibrium(
            P_eq, rank_P, J_eq, rank_J, eq_xu, sys.params, Q.dim,
            warnings, f"k = {k}, intersection")
        P_eq, rank_P = _dim_at_equilibrium(
            P_next.matrix(), eq_xu, sys.params, P_next.dim, warnings,
            f"k = {k}, shifted codistribution")

        if P_next.dim == step.dim:
            if not P_next.equals(step.P):
                raise InternalInconsistency(
                    f"dimension stalled at k = {k} but the spans differ")
            k_bar = k
            say(f"fixed point at k = {k}")
            break
        steps.append(SequenceStep(k + 1, P_next, P_next.dim))
        k_bar = k + 1
        if P_next.dim == 0:
            say(f"reached the zero codistribution at k = {k + 1}")
            break
    else:
        raise InternalInconsistency(
            "the sequence did not stabilize within n + 1 iterations")

    final = steps[-1]
    if final.dim == 0:
        trivial = all(s.step2_trivial for s in steps if s.step2_trivial is not None)
        verdict = STATIC_FEEDBACK_LINEARIZABLE if trivial else FORWARD_FLAT
        obstruction = None
    else:
        verdict = NOT_FORWARD_FLAT
        obstruction = list(final.P.basis)
    return SequenceReport(sys.name, steps, k_bar, verdict, obstruction, warnings)


def decomposability(report: SequenceReport) -> tuple[int, int] | None:
    """Block dimensions (dim x1, dim x2) of a triangular decomposition, when
    one exists; None when the first iteration already stalls."""
    dims = report.dims
    if len(dims) >= 2 and dims[1] < dims[0]:
        return (dims[0] - dims[1], dims[1])
    return None


# --------------------------------------------------------------------------
# subsystem consistency

@dataclass
class ConsistencyVerdict:
    ok: bool
    reasons: list[str]
    main_dims: list[int] | None = None
    subsystem_dims: list[int] | None = None
    decomposition: DecompositionVerdict | None = None


def subsystem_consistency_check(sys: DiscreteTimeSystem,
                                dec: TriangularDecomposition) -> ConsistencyVerdict:
    """Check that the sequence of the x2-subsystem, with (x1, u2) acting as
    its inputs, reproduces the tail of the full system's sequence: the k-th
    subsystem codistribution must equal the (k+1)-th of the full system."""
    v = verify_triangular_decomposition(sys, dec)
    if not v.ok:
        return ConsistencyVerdict(False, ["decomposition invalid: "
                                          + "; ".join(v.reasons)],
                                  decomposition=v)
    n1, _, m1, _ = dec.split
    x2_syms = v.xbar[n1:]
    in_syms = v.xbar[:n1] + v.ubar[m1:]
    f2 = v.fbar[n1:]
    forbidden = set(v.ubar[:m1])
    for e in f2:
        if sp.sympify(e).free_symbols & forbidden:
            return ConsistencyVerdict(
                False, ["x2-rows still contain u1-block symbols"],
                decomposition=v)
    sub_sys = DiscreteTimeSystem(
        states=x2_syms,
        inputs=in_syms,
        f=f2,
        x0=v.xbar0[n1:],
        u0=tuple(v.xbar0[:n1]) + tuple(v.ubar0[m1:]),
        params=sys.params,
        name=f"{sys.name}::subsystem",
    )
    main = compute_sequence(sys)
    sub = compute_sequence(sub_sys)

    # the subsystem's sequence in (x, u), through x2bar = state_map[n1:](x);
    # its input components must vanish
    sub_to_xu = pullback(dec.state_map[n1:], sys.chart)
    sub_in_xu = [sub_to_xu(s.P.basis) for s in sub.steps]
    main_tail = [s.P for s in main.steps[1:]]
    reasons: list[str] = []

    if len(sub_in_xu) != len(main_tail):
        reasons.append(
            f"sequence lengths differ: subsystem has {len(sub_in_xu)} "
            f"codistributions, the full system's tail has {len(main_tail)}")
    for k, (a, b) in enumerate(zip(sub_in_xu, main_tail), start=1):
        if not a.equals(b):
            reasons.append(
                f"subsystem codistribution {k} (dim {a.dim}) differs from the "
                f"full system's codistribution {k + 1} (dim {b.dim})")
    return ConsistencyVerdict(not reasons, reasons,
                              main_dims=main.dims, subsystem_dims=sub.dims,
                              decomposition=v)
