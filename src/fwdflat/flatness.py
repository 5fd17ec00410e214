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
complement directions are the constant fields d/d xi.  The chart owns both
maps on rows, to_adapted and to_x, and rows of QQ numbers bypass them.

The sequence is strictly decreasing until it stabilizes; the system is
forward flat exactly when it reaches the zero codistribution, and static
feedback linearizable when, in addition, step 2 never adds anything.

The iteration, its runtime checks, the integrability of every P_{k+1} and
the report run on exact rows (:class:`fwdflat.symcore.Rows`): the report
holds each P_k as a Codistribution of its rows and builds no sympy form,
and k_bar is the length of the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import sympy as sp
from sympy.polys.domains import QQ

from .dtsys import (
    AdaptedChart,
    DecompositionVerdict,
    DiscreteTimeSystem,
    TriangularDecomposition,
    _rank_at_point,
    backward_shift,
    build_adapted_chart,
    check_submersivity,
    verify_triangular_decomposition,
)
from .errors import FwdflatError, InternalInconsistency
from .extcalc import (
    Codistribution,
    OneForm,
    integrable_rows,
    pullback,
    render_oneform,
)
from .symcore import Rows

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
    warnings: list[str] = field(default_factory=list)

    @property
    def dims(self) -> list[int]:
        return [s.dim for s in self.steps]

    @property
    def obstruction(self) -> list[OneForm] | None:
        """The basis of the final codistribution, when it is not zero."""
        final = self.steps[-1].P
        return list(final.basis) if final.dim else None

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


def _intersect_df(P: Rows, J: Rows, ac: AdaptedChart) -> Rows:
    """P ∩ span{df} in the adapted chart ac, in reduced row echelon form,
    for the rows P on the (x, u) chart and J = J_f.

    In the rref of [[P, 0], [J_f, I]] the rows with a pivot in the right block
    read [0, a] with a·df ∈ P.  As df = dθ, the intersection is spanned by
    Σ a_i(x(θ, ξ)) dθ_i: only these coefficients pass through the inverse
    chart (ac.to_adapted), which maps independent rows to independent rows
    and leaves rows of QQ numbers as they are, so those never invert it.
    """
    n, N = len(J.rows), J.width
    zeros = [QQ.zero] * n
    unit = [[QQ.one if i == j else QQ.zero for j in range(n)] for i in range(n)]
    R, pivots = Rows.stack(Rows(P.F, [row + zeros for row in P.rows], N + n),
                           Rows(J.F, [row + e for row, e in zip(J.rows, unit)],
                                N + n)).reduced()
    A = Rows(R.F, [row[N:] for row, c in zip(R.rows, pivots) if c >= N], n)
    if A.F is not None:
        A = ac.to_adapted(A)
    zeros = [QQ.zero] * (N - n)
    Q, pivots = Rows(A.F, [row + zeros for row in A.rows], N).reduced()
    if len(pivots) != len(A.rows):
        raise InternalInconsistency(
            "the inverse chart made independent forms dependent")
    return Q


def _close_under_dxi(Q: Rows, xi) -> Rows:
    """Smallest extension of the rows Q, in reduced row echelon form,
    invariant under ∂ξ for the coordinates xi: ∂ξ is constant, so L_∂ξ ω is
    ∂ω/∂ξ coefficientwise.  The dimension grows every round until it stops,
    so at most chart.dim rounds run."""
    while True:
        extended, pivots = Rows.stack(Q, *(Q.derivative(v) for v in xi)).reduced()
        if len(pivots) == len(Q.rows):
            return Q
        Q = extended


def _dim_at_equilibrium(M: Rows, eq_subs, params, generic_dim: int,
                        warnings: list[str], label: str) -> tuple[Rows, int | None]:
    """M with its row denominators cleared (see Rows.cleared: polynomial
    rows, so no pole at the point) and its rank at the equilibrium, warning
    when that rank is not generic_dim."""
    if not M.rows:
        return M, 0
    M = M.cleared()
    rk = _rank_at_point(M, eq_subs, params)
    if rk is None:
        warnings.append(f"{label}: rank at the equilibrium could not be "
                        "evaluated exactly")
    elif rk != generic_dim:
        warnings.append(f"{label}: generic dimension {generic_dim} drops to "
                        f"{rk} at the equilibrium")
    return M, rk


def _intersection_dim_at_equilibrium(A: Rows, ra: int | None, B: Rows,
                                     rb: int | None, eq_subs, params,
                                     generic_dim: int, warnings: list[str],
                                     label: str) -> None:
    """Pointwise dim(rowspace(A) ∩ rowspace(B)) = rk A + rk B − rk [A; B],
    for A and B with cleared row denominators and their ranks ra and rb at
    the equilibrium (None where not exact).

    Evaluating a canonical basis of the intersection at the point is not
    reliable (pivot normalization can degenerate there), so the dimension is
    reconstructed from the evaluated generating matrices instead.
    """
    rab = _rank_at_point(Rows.stack(A, B), eq_subs, params)
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

    The sequence runs on rows of exact elements (symcore.Rows), and the
    report holds them; it builds no sympy form.  ``trace``, if given, is
    called with one human-readable line per event.
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

    # per run: J_f in the exact domain, and P_1 = span{dx_i} of rank n;
    # P_k's cleared rows and rank at the equilibrium come from the previous
    # iteration.  Clearing scales each row of J_f by a polynomial that is
    # nonzero where J_f has no pole, so its rank there is the submersivity
    # check's.
    warnings: list[str] = []
    eq_xu = sys.equilibrium_subs()
    J = sys.jacobian_rows()
    J_eq, rank_J = J.cleared(), sub.rank_at_equilibrium

    n, N = sys.n, sys.n + sys.m
    P = Rows(None, [[QQ.one if i == j else QQ.zero for j in range(N)]
                    for i in range(n)], N)
    P_eq, rank_P = P, n
    sequence = [P]   # P_1, P_2, ..., each in reduced row echelon form
    extensions = []  # (dim of the intersection, dim added by the closure)
    for k in range(1, n + 2):
        P = sequence[-1]
        if not P.rows:
            break
        Q = _intersect_df(P, J, ac)
        Qhat = _close_under_dxi(Q, ac.xi)
        extensions.append((len(Q.rows), len(Qhat.rows) - len(Q.rows)))
        say(f"k = {k}: dim P = {len(P.rows)}, intersection {len(Q.rows)}, "
            f"extension added {extensions[-1][1]}")
        # the shift's input columns are QQ.zero, and reducing keeps them so
        P_next, _ = backward_shift(Qhat, ac).reduced()

        # runtime invariant of the construction; nested with the same
        # dimension is equal, so the nesting rank also decides the fixed point
        if not P.spans(P_next):
            raise InternalInconsistency(f"sequence is not nested at k = {k}")

        _intersection_dim_at_equilibrium(
            P_eq, rank_P, J_eq, rank_J, eq_xu, sys.params, len(Q.rows),
            warnings, f"k = {k}, intersection")
        P_eq, rank_P = _dim_at_equilibrium(
            P_next, eq_xu, sys.params, len(P_next.rows), warnings,
            f"k = {k}, shifted codistribution")

        if len(P_next.rows) == len(P.rows):
            say(f"fixed point at k = {k}")
            break
        sequence.append(P_next)
        if not P_next.rows:
            say(f"reached the zero codistribution at k = {k + 1}")
            break
    else:
        raise InternalInconsistency(
            "the sequence did not stabilize within n + 1 iterations")
    return _report(sys, sequence, extensions, warnings)


def _report(sys: DiscreteTimeSystem, sequence: list[Rows], extensions: list,
            warnings: list[str]) -> SequenceReport:
    """The report of a sequence: each P_{k+1} must be integrable, which is
    checked on its canonical rows; then each P_k's rows become a
    Codistribution.  k_bar is the length of the sequence."""
    for k, P in enumerate(sequence[1:], start=2):
        if not integrable_rows(P, sys.chart.symbols):
            raise InternalInconsistency(
                f"P_{k} is not integrable; the backward shift is invalid")
    steps = []
    for k, P in enumerate(sequence, start=1):
        step = SequenceStep(k, Codistribution(sys.chart, P), len(P.rows))
        if k <= len(extensions):
            step.intersection_dim, step.lie_derivatives_added = extensions[k - 1]
            step.step2_trivial = step.lie_derivatives_added == 0
        steps.append(step)
    if steps[-1].dim:
        verdict = NOT_FORWARD_FLAT
    elif all(s.step2_trivial for s in steps if s.step2_trivial is not None):
        verdict = STATIC_FEEDBACK_LINEARIZABLE
    else:
        verdict = FORWARD_FLAT
    return SequenceReport(sys.name, steps, len(steps), verdict, warnings)


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
    sub_in_xu = [sub_to_xu(s.P) for s in sub.steps]
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
