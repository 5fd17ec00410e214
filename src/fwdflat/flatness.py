"""The forward-flatness test: the unique sequence of integrable
codistributions, the resulting classification, and the consistency check
between a triangular decomposition and the sequence of its subsystem.

Each iteration, starting from a codistribution P_k spanned by exact state
differentials, performs three moves:

1. intersect P_k with the span of the df-differentials, in (x, u),
   through P_k's kernel, which its reduced rows give without elimination:
   the coefficients are J_f's preimage of P_k (``Rows.preimage``, the
   routine that ``extcalc.intersect`` runs too);
2. close the intersection under Lie derivatives along the complement
   directions (the smallest invariant extension);
3. shift the result backward, which in adapted coordinates is the
   substitution theta -> x.

In the adapted chart (theta, xi) df is d theta, so only the intersection's
coefficients pass through the inverse chart, never P_k itself; the
complement directions are the constant fields d/d xi, along which the
Lie derivative of a 1-form is its coefficients' d/d xi, and step 2 is
extcalc's one closure under those derivatives.  The chart owns both maps
on rows, to_adapted and to_x, and rows of QQ numbers bypass them.

The sequence is strictly decreasing until it stabilizes; the system is
forward flat exactly when it reaches the zero codistribution, and static
feedback linearizable when, in addition, step 2 never adds anything.

The iteration, its runtime checks and the integrability of each P_{k+1},
checked when it is accepted, run on exact rows (:class:`fwdflat.symcore.Rows`).
Each step is recorded once, holding P_k as a Codistribution of its rows,
and no sympy form is built; k_bar, the dims and the verdict are read off
the steps.  The equilibrium rank checks evaluate only rows with an entry
that is not a QQ number: rows of QQ numbers have their generic rank at
every point.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import methodcaller

from sympy.polys.domains import QQ

from .dtsys import (
    AdaptedChart,
    DecompositionVerdict,
    DiscreteTimeSystem,
    TriangularDecomposition,
    _point,
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
    closure,
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
    intersection_dim: int | None = None
    lie_derivatives_added: int | None = None

    @property
    def dim(self) -> int:
        return self.P.dim

    @property
    def step2_trivial(self) -> bool | None:
        """Whether step 2 added nothing; None when it did not run."""
        if self.lie_derivatives_added is None:
            return None
        return self.lie_derivatives_added == 0

    def basis_strings(self) -> list[str]:
        return [render_oneform(w) for w in self.P.basis]


@dataclass
class SequenceReport:
    """The steps P_1, ..., P_{k_bar} of a sequence and its warnings; the
    verdict and every other figure are read off the steps."""

    system_name: str
    steps: list[SequenceStep]
    warnings: list[str]

    @property
    def k_bar(self) -> int:
        return len(self.steps)

    @property
    def dims(self) -> list[int]:
        return [s.dim for s in self.steps]

    @property
    def verdict(self) -> str:
        if self.steps[-1].dim:
            return NOT_FORWARD_FLAT
        if all(s.step2_trivial is not False for s in self.steps):
            return STATIC_FEEDBACK_LINEARIZABLE
        return FORWARD_FLAT

    @property
    def obstruction(self) -> list[OneForm] | None:
        """The basis of the final codistribution, when it is not zero."""
        final = self.steps[-1].P
        return list(final.basis) if final.dim else None

    def to_json_dict(self) -> dict:
        """The report as JSON values; the obstruction is the last step's
        rendered basis, when that step is not zero."""
        steps = [
            {
                "k": s.k,
                "dim": s.dim,
                "basis": s.basis_strings(),
                "intersection_dim": s.intersection_dim,
                "lie_derivatives_added": s.lie_derivatives_added,
                "step2_trivial": s.step2_trivial,
            }
            for s in self.steps
        ]
        return {
            "system": self.system_name,
            "verdict": self.verdict,
            "k_bar": self.k_bar,
            "dims": self.dims,
            "steps": steps,
            "obstruction": list(steps[-1]["basis"]) if steps[-1]["dim"] else None,
            "decomposition_dims": decomposability(self),
            "warnings": list(self.warnings),
        }


def _intersect_df(P: Rows, J: Rows, ac: AdaptedChart) -> Rows:
    """P ∩ span{df} in the adapted chart ac, in reduced row echelon form,
    for the reduced rows P on the (x, u) chart and J = J_f.

    The coefficients a with a·df ∈ P are J's preimage of P (see
    ``Rows.preimage``); the columns of J_f K at P's input columns, which
    are zero, are those of f_u.  (Mᵀ reduced with its columns in reverse
    order would give the reduced a at once, but it pivots first on the
    derivatives of the last component of f, and on systems written in
    triangular coordinates, whose last components are the largest, that
    one elimination ran for minutes.)

    As df = dθ, the intersection is spanned by Σ a_i(x(θ, ξ)) dθ_i: only
    these coefficients pass through the inverse chart (ac.to_adapted).  The
    substitution leaves every QQ number as it is, so the unit pivots and the
    zeros beside them stay and the rows stay reduced; rows of QQ numbers
    never invert the chart.
    """
    A = J.preimage(P)
    if A.F is not None:
        A = ac.to_adapted(A)
    zeros = [QQ.zero] * (J.width - len(J.rows))
    return Rows(A.F, [row + zeros for row in A.rows], J.width)


def compute_sequence(sys: DiscreteTimeSystem, trace=None) -> SequenceReport:
    """Run the decreasing sequence of codistributions to its fixed point.

    The sequence runs on rows of exact elements (symcore.Rows), and each
    step holds its own; no sympy form is built.  ``trace``, if given, is
    called with one human-readable line per event.
    """
    def say(msg):
        if trace is not None:
            trace(msg)

    at = _point(sys.equilibrium_subs(), sys.params)
    sub = check_submersivity(sys, at)
    if not sub.ok:
        raise FwdflatError(
            "the system map is not a submersion (precondition of the test): "
            + "; ".join(sub.notes))
    ac = build_adapted_chart(sys)
    h = ac.h
    say(f"adapted chart complement: {tuple(map(str, h))}")

    # per run: the equilibrium's point, J_f in the exact domain, its rows
    # cleared for the ranks there (once per system, as the submersivity
    # check took them), and P_1 = span{dx_i} of rank n; P_k's rank
    # at the equilibrium comes from the previous iteration.  Clearing scales
    # each row of J_f by a polynomial that is nonzero where J_f has no pole,
    # so its rank there is the submersivity check's.
    warnings: list[str] = []
    J, rank_J = sys.jacobian_rows(), sub.rank_at_equilibrium
    d_xi = [methodcaller("derivative", v) for v in ac.xi]

    n, N = sys.n, sys.n + sys.m
    P = Rows(None, [[QQ.one if i == j else QQ.zero for j in range(N)]
                    for i in range(n)], N)
    rank_P = n
    steps = [SequenceStep(1, Codistribution(sys.chart, P))]
    for k in range(1, n + 2):
        step = steps[-1]
        P = step.P.rows
        if not P.rows:
            break
        Q = _intersect_df(P, J, ac)
        if ac.h != h:  # its first read adopted a later complement
            h = ac.h
            say(f"adapted chart complement: {tuple(map(str, h))}")
        Qhat = closure(Q, d_xi)
        step.intersection_dim = len(Q.rows)
        step.lie_derivatives_added = len(Qhat.rows) - len(Q.rows)
        say(f"k = {k}: dim P = {len(P.rows)}, intersection {len(Q.rows)}, "
            f"extension added {step.lie_derivatives_added}")
        # the shift's input columns are QQ.zero, and reducing keeps them so
        P_next, _ = backward_shift(Qhat, ac).reduced()

        # runtime invariant of the construction; nested with the same
        # dimension is equal, so the nesting rank also decides the fixed point
        if not P.spans(P_next):
            raise InternalInconsistency(f"sequence is not nested at k = {k}")

        # the intersection's dimension at the equilibrium is
        # rk P_k + rk J_f - rk [P_k; J_f]: evaluating its canonical basis
        # there is not reliable, as pivot normalization can degenerate
        rank_PJ = _rank_at_point(Rows.stack(P, sys.jacobian_cleared),
                                 len(P.rows) + n - len(Q.rows), at)
        if None in (rank_P, rank_J, rank_PJ):
            warnings.append(f"k = {k}, intersection: rank at the equilibrium "
                            "could not be evaluated exactly")
        elif rank_P + rank_J - rank_PJ != len(Q.rows):
            warnings.append(f"k = {k}, intersection: generic dimension "
                            f"{len(Q.rows)} becomes {rank_P + rank_J - rank_PJ} "
                            "at the equilibrium")
        rank_P = _rank_at_point(P_next, len(P_next.rows), at)
        if rank_P is None:
            warnings.append(f"k = {k}, shifted codistribution: rank at the "
                            "equilibrium could not be evaluated exactly")
        elif rank_P != len(P_next.rows):
            warnings.append(f"k = {k}, shifted codistribution: generic dimension "
                            f"{len(P_next.rows)} drops to {rank_P} at the equilibrium")

        if len(P_next.rows) == len(P.rows):
            say(f"fixed point at k = {k}")
            break
        if not integrable_rows(P_next, sys.chart.symbols):
            raise InternalInconsistency(
                f"P_{k + 1} is not integrable; the backward shift is invalid")
        steps.append(SequenceStep(k + 1, Codistribution(sys.chart, P_next)))
        if not P_next.rows:
            say(f"reached the zero codistribution at k = {k + 1}")
            break
    else:
        raise InternalInconsistency(
            "the sequence did not stabilize within n + 1 iterations")
    return SequenceReport(sys.name, steps, warnings)


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
