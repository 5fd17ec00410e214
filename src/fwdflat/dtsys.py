"""Discrete-time system model: submersivity, adapted coordinates, shift
operators, flat-output verification and triangular-decomposition verification.

The system is x+ = f(x, u) on the state- and input manifold with chart
(x, u).  Adapted coordinates (theta, xi) = (f(x, u), h(x, u)) make the span
of the df-differentials a pure theta-coordinate object, which is what lets
the backward shift of 1-forms become a plain substitution theta -> x.
"""

from __future__ import annotations

import functools
import itertools
import random
import re
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import mpmath
import sympy as sp
from sympy.polys.domains import QQ

from . import domain, symcore
from .errors import (
    FwdflatError,
    InternalInconsistency,
    InversionFailed,
    NotShiftable,
    PoleAtPoint,
    ShiftBudgetExceeded,
)
from .extcalc import Chart, OneForm
from .symcore import Expr, domain_form, is_zero, normalize

DEFAULT_MAX_SHIFT = 25


def _row_of(exprs: Sequence[Expr]) -> symcore.Rows:
    """The expressions as one row of exact elements (see domain._convert)."""
    F, elements = domain._convert(exprs)
    return symcore.Rows(F, [elements], len(elements))


def _fresh_names(prefix: str, count: int, taken: set[str]) -> list[str]:
    names = []
    for i in range(1, count + 1):
        name = f"{prefix}{i}"
        while name in taken:
            name += "_"
        taken.add(name)
        names.append(name)
    return names


@dataclass(frozen=True)
class DiscreteTimeSystem:
    """x+ = f(x, u) with an equilibrium (x0, u0) and optional chart hints."""

    states: tuple[sp.Symbol, ...]
    inputs: tuple[sp.Symbol, ...]
    f: tuple[Expr, ...]
    x0: tuple
    u0: tuple
    params: tuple[sp.Symbol, ...] = ()
    complement_h: tuple[Expr, ...] | None = None
    inverse_chart: tuple[Expr, ...] | None = None
    name: str = "system"

    def __post_init__(self):
        object.__setattr__(self, "f", tuple(sp.sympify(e) for e in self.f))
        object.__setattr__(self, "x0", tuple(sp.Rational(v) for v in self.x0))
        object.__setattr__(self, "u0", tuple(sp.Rational(v) for v in self.u0))
        if len(self.f) != self.n:
            raise ValueError("need one map component per state")
        if len(self.x0) != self.n or len(self.u0) != self.m:
            raise ValueError("equilibrium dimensions do not match")
        if self.complement_h is not None and len(self.complement_h) != self.m:
            raise ValueError("complement must have one function per input")
        if self.inverse_chart is not None and len(self.inverse_chart) != self.n + self.m:
            raise ValueError("inverse chart must have n+m components")
        for i, fi in enumerate(self.f):
            res = fi.xreplace(self.equilibrium_subs()) - self.x0[i]
            # is_zero converts f, and refuses one that is nowhere defined
            if res.has(sp.nan, sp.zoo, sp.oo, -sp.oo) and not is_zero(fi):
                raise ValueError(f"f has a pole at (x0, u0), component {i}")
            if not is_zero(res):
                raise ValueError(
                    f"(x0, u0) is not an equilibrium: component {i} residual {normalize(res)}")

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def m(self) -> int:
        return len(self.inputs)

    @property
    def chart(self) -> Chart:
        return Chart(self.states + self.inputs)

    def equilibrium_subs(self) -> dict:
        subs = dict(zip(self.states, self.x0))
        subs.update(zip(self.inputs, self.u0))
        return subs

    @functools.cached_property
    def f_row(self) -> symcore.Rows:
        """f as one row of exact elements, converted once for its Jacobian
        and the next adapted chart's inversion.  That chart takes them off
        the system (see build_adapted_chart), so that a system run again,
        whose Jacobian is kept, does not keep f's elements too."""
        return _row_of(self.f)

    def jacobian_rows(self) -> symcore.Rows:
        """d f / d (x, u), n rows of n+m exact elements, computed on first
        use, in the field of the generators that they use (None when every
        entry is a QQ number)."""
        J = self.__dict__.get("_jacobian_rows")
        if J is None:
            J = symcore.Rows.stack(symcore.jacobian_rows(self.f_row, self.chart.symbols))
            object.__setattr__(self, "_jacobian_rows", J)
        return J

    @functools.cached_property
    def jacobian_cleared(self) -> symcore.Rows:
        """jacobian_rows() with each row cleared of its denominators (see
        ``Rows.cleared``), once per system: the submersivity check and the
        sequence's ranks at the equilibrium both take it."""
        return self.jacobian_rows().cleared()

    def input_shift_symbol(self, j: int, order: int) -> sp.Symbol:
        """The order-th forward shift of input j (order 0 is the input itself)."""
        base = self.inputs[j]
        if order == 0:
            return base
        return sp.Symbol(f"{base.name}_{order}")

    def _shift_order_of(self, s: sp.Symbol) -> tuple[int, int] | None:
        """(input index, shift order) if s is an input or a shifted input."""
        for j, u in enumerate(self.inputs):
            if s == u:
                return j, 0
            mt = re.fullmatch(re.escape(u.name) + r"_(\d+)", s.name)
            if mt:
                return j, int(mt.group(1))
        return None


# --------------------------------------------------------------------------
# submersivity

@dataclass
class SubmersivityReport:
    ok: bool
    generic_rank: int
    rank_at_equilibrium: int | None
    notes: list[str] = field(default_factory=list)


def _point(values: Mapping, params: Sequence[sp.Symbol]):
    """The Substitution of a rational point, built on first call: the
    symbols' values, and each parameter's nonzero value drawn then from
    ``_session.param_rng``."""
    @functools.cache
    def at() -> symcore.Substitution:
        rng = domain._session.param_rng
        subs = dict(values)
        for p in params:
            subs[p] = sp.Rational(rng.randint(1, 97) * rng.choice((-1, 1)),
                                  rng.randint(1, 13))
        return symcore.Substitution(subs)
    return at


def _rank_at_point(M: symcore.Rows, generic: int, at) -> int | None:
    """Exact rank of the rows M at the point of ``at`` (see :func:`_point`):
    0 for no rows, the generic rank for rows of QQ numbers, which have it
    at every point, else ``Rows.rank`` of M's rows cleared of their
    denominators (so that no entry has a pole there) with the point
    substituted; None where an angle has a pole at the point.

    There every angle is rational, and cos and sin of all of them become
    polynomials in one pair (c_b, s_b), or numbers where b = 0.  For b != 0,
    e^{ib} is transcendental (Lindemann-Weierstrass), so a polynomial p with
    p(cos b, sin b) = 0, a Laurent polynomial in e^{ib} over Q(i), vanishes
    on the unit circle and lies in the ideal of c_b**2 + s_b**2 - 1: the
    field reduces by the pair's only relation, and a rank over it is the
    rank at the point."""
    if all(type(x) is domain._MPQ for row in M.rows for x in row):
        return generic if M.rows else 0
    try:
        return at()(M.cleared()).rank()
    except PoleAtPoint:
        return None


def check_submersivity(sys: DiscreteTimeSystem, at=None) -> SubmersivityReport:
    """rank of d f / d (x, u), generically and at the equilibrium (see
    _rank_at_point), whose point ``at`` is built here when not given."""
    J = sys.jacobian_rows()
    generic = J.rank()
    at_eq = _rank_at_point(sys.jacobian_cleared, generic,
                           at or _point(sys.equilibrium_subs(), sys.params))
    notes = []
    if generic < sys.n:
        _, pivots = symcore.Rows(J.F, [list(c) for c in zip(*J.rows)], sys.n).reduced()
        deficient = [i for i in range(sys.n) if i not in pivots]
        notes.append(f"generic rank {generic} < n = {sys.n}; "
                     f"dependent rows {deficient}")
    if at_eq is None:
        notes.append("rank at equilibrium could not be evaluated exactly")
    elif at_eq < sys.n:
        notes.append(f"rank at equilibrium {at_eq} < n = {sys.n}")
    ru = symcore.Rows(J.F, [row[sys.n:] for row in J.rows], sys.m).rank()
    if ru < sys.m:
        notes.append(f"rank of d f / d u is {ru} < m = {sys.m} (redundant inputs)")
    ok = generic == sys.n and (at_eq is None or at_eq == sys.n)
    return SubmersivityReport(ok, generic, at_eq, notes)


# --------------------------------------------------------------------------
# adapted coordinates

@dataclass(frozen=True)
class AdaptedChart:
    """(theta, xi) = (f(x, u), h(x, u)) together with its maps on rows:
    to_adapted, the inverse map, which is solved on first access when it is
    not given, and to_x, converted on first access.  The complements that
    build_adapted_chart has not tried yet, and a line for each one it has,
    wait in _candidates and _tried for that access; _h_row holds h as the
    chart search converted it, and _f_row f as the system converted it,
    or None where an earlier chart took those elements."""

    system: DiscreteTimeSystem
    theta: tuple[sp.Symbol, ...]
    xi: tuple[sp.Symbol, ...]
    h: tuple[Expr, ...]
    _to_adapted: symcore.Substitution | None = field(default=None, compare=False)
    _candidates: Iterator = field(default=iter(()), compare=False, repr=False)
    _tried: list[str] = field(default_factory=list, compare=False, repr=False)
    _h_row: symcore.Rows | None = field(default=None, compare=False, repr=False)
    _f_row: symcore.Rows | None = field(default=None, compare=False, repr=False)

    @property
    def chart(self) -> Chart:
        return Chart(self.theta + self.xi)

    @property
    def to_adapted(self) -> symcore.Substitution:
        """(x, u) -> x(theta, xi): coefficients into the adapted chart,
        solved on first access by elimination (see _solve_inverse) from the
        elements of f and h, which are not converted again; f is converted
        here only where an earlier chart took the system's elements.  Where
        h does not invert, the first later complement of full rank that
        inverts takes its place (see build_adapted_chart)."""
        sys, names = self.system, self.theta + self.xi
        while self._to_adapted is None:
            if self._f_row is None:
                object.__setattr__(self, "_f_row", _row_of(sys.f))
            S = symcore.Rows.stack(self._f_row, self._h_row)
            maps = symcore.Rows(S.F, [S.rows[0] + S.rows[1]], len(names))
            try:
                object.__setattr__(self, "_to_adapted", _solve_inverse(
                    names, maps, list(sys.chart.symbols), lambda: sys.f + self.h))
            except InversionFailed as exc:
                self._tried.append(f"{self.h}: {exc}")
                h, h_row = _next_complement(sys, self._candidates, self._tried)
                object.__setattr__(self, "h", h)
                object.__setattr__(self, "_h_row", h_row)
        return self._to_adapted

    @property
    def from_adapted(self) -> tuple[Expr, ...]:
        """(x, u) as expressions in (theta, xi), those of to_adapted."""
        return tuple(self.to_adapted.exprs.values())

    @functools.cached_property
    def to_x(self) -> symcore.Substitution:
        """theta -> x, the backward shift of coefficients."""
        return symcore.Substitution(zip(self.theta, self.system.states))


def _leaves_fragment(F: domain._Field, x, allowed: set) -> bool:
    """Whether the element x of F leaves the expression fragment over the
    allowed symbols, read off the generators that x uses (see
    ``_Field.used``): a symbol must be allowed, and so must the angle of
    sin or cos, which must be a symbol.  This is the rule that
    symcore._validate_tree applies to x's expression, whose tree holds
    exactly those symbols and sin/cos terms."""
    return any((key[1] if isinstance(key, tuple) else key) not in allowed
               for key in F.used([x]))


def _solve_inverse(names: Sequence[sp.Symbol], maps: symcore.Rows,
                   unknowns: Sequence[sp.Symbol], exprs) -> symcore.Substitution:
    """The unknowns as functions of the equations' other symbols, solved
    from names = maps, one row of exact elements, by elimination (see
    symcore.solve_by_elimination), as a Substitution of the solutions'
    elements, which are not converted again.  The equations names[i] -
    maps[i] are built in the field of both; ``exprs()`` gives the maps'
    expressions, built only for the message where no elimination step is
    possible.  Each solution must stay in the expression fragment over the
    equations' other symbols, checked on its generators (see
    _leaves_fragment), and each step must pass the round trip; raises
    InversionFailed otherwise, where the solution's expression is built
    for the message.

    The round trip is checked one step at a time, in the domain.  Step k
    solves x_k = s_k(y, x_later), where y are the names and x_later the
    unknowns solved after x_k.  y = maps(x) is composed into every s_k by
    one Substitution of the maps' elements, and each result must be x_k:
    s_k(y(x), x_later) = x_k.  A result other than x_k's generator is
    refused only after is_zero, whose numeric cross-check then runs on the
    difference.  The flattened inverse G is built in back-substitution
    order, G_k(y) = s_k(y, G_later(y)), so G(y(x)) = x follows by
    induction in that order: the last step has no later unknowns, and
    where G_j(y(x)) = x_j for every later j, G_k(y(x)) = s_k(y(x),
    x_later) = x_k."""
    N = domain._Field.of(names)
    S = symcore.Rows.stack(symcore.Rows(N, [[N.field.gens[N.index[y]] for y in names]],
                                        len(names)), maps)
    F, steps, solved = symcore.solve_by_elimination(
        S.F, [S.F.add(y, -g) for y, g in zip(*S.rows)], unknowns,
        lambda: [y - e for y, e in zip(names, exprs())])
    solution = dict(zip(unknowns, solved))
    allowed = {key for key in F.keys if not isinstance(key, tuple)} - set(unknowns)
    for u, x in solution.items():
        if _leaves_fragment(F, x, allowed):
            raise InversionFailed(f"{u} = {F.to_expr(x)} leaves the expression fragment")
    back = symcore.Substitution(zip(names, maps.rows[0]), maps.F)
    R = back(symcore.Rows.stack(symcore.Rows(F, [[s for _, s in steps]], len(steps))))
    for (u, _), x in zip(steps, R.rows[0]):
        if not (R.F is not None and x == R.F.gen_of.get(u) or is_zero(R.to_expr(x) - u)):
            raise InversionFailed(f"{u} = {F.to_expr(solution[u])} does not invert the map")
    return symcore.Substitution(solution, F)


def _next_complement(sys: DiscreteTimeSystem, candidates: Iterator,
                     tried: list[str]) -> tuple[tuple[Expr, ...], symcore.Rows]:
    """The next of the candidates whose (f, h) Jacobian has full rank, and
    its row of exact elements, with a line in tried for each one passed
    over; InversionFailed, naming every complement tried, when none is
    left."""
    J = sys.jacobian_rows()
    for h in candidates:
        h = tuple(sp.sympify(e) for e in h)
        row = _row_of(h)
        if symcore.Rows.stack(J, symcore.jacobian_rows(row, sys.chart.symbols)
                              ).rank() == sys.n + sys.m:
            return h, row
        tried.append(f"{h}: (f, h) Jacobian rank deficient")
    raise InversionFailed(
        ("the supplied complement (h) gives no invertible adapted chart; supply its inverse "
         "chart map (inverse:) or another complement" if sys.complement_h is not None else
         "no invertible adapted chart found; supply an explicit complement (h) and, if "
         "needed, the inverse chart map") + ". Tried:\n  h = " + "\n  h = ".join(tried))


def inverse_chart_symbols(n: int, m: int) -> tuple[sp.Symbol, ...]:
    """th1..thn, xi1..xim: the adapted coordinates as a supplied inverse
    chart writes them.  The chart's own names get a trailing underscore
    where a state, input or parameter has the name; build_adapted_chart maps
    these names onto the chart's."""
    return (tuple(sp.Symbol(f"th{i + 1}") for i in range(n))
            + tuple(sp.Symbol(f"xi{j + 1}") for j in range(m)))


def build_adapted_chart(sys: DiscreteTimeSystem) -> AdaptedChart:
    """Construct adapted coordinates, completing span{df} automatically when
    no complement was supplied: the complements are tried in turn, the
    supplied one alone or else the m-subsets of the coordinates, inputs
    before states.

    The first complement h whose (f, h) Jacobian has full rank n + m is
    accepted on that rank alone, and a supplied inverse chart is checked
    against it here.  Otherwise h is inverted only when from_adapted is
    first read; where that fails, the later complements are rank-tested
    and inverted in turn, and the first that inverts takes h's place, so
    wherever the inverse is read, the complement is the first of the
    search that inverts.  When none does, InversionFailed lists every
    complement tried, rank-deficient ones included.

    This is sound.  A full-rank (f, h) is a chart near almost every point
    (inverse function theorem), and its inverse is needed only to write
    non-constant coefficients in (theta, xi).  Every step of the sequence
    before the first read holds only QQ rows: its intersection is
    sum a_i d theta_i with constant a_i and theta = f whatever h is, their
    derivatives along d/d xi are zero, and the backward shift is
    theta -> x.  So those steps used no complement, and they stand for
    whichever complement is adopted."""
    taken = {s.name for s in sys.states + sys.inputs + sys.params}
    theta = tuple(sp.Symbol(nm) for nm in _fresh_names("th", sys.n, set(taken)))
    xi = tuple(sp.Symbol(nm) for nm in _fresh_names("xi", sys.m, set(taken)))

    candidates = (iter([sys.complement_h]) if sys.complement_h is not None
                  else itertools.combinations(sys.inputs + sys.states, sys.m))
    tried: list[str] = []
    h, h_row = _next_complement(sys, candidates, tried)
    f_row = sys.__dict__.pop("f_row", None)  # the chart's now, not the system's
    if sys.inverse_chart is None:
        return AdaptedChart(sys, theta, xi, h, None, candidates, tried, h_row, f_row)
    back = dict(zip(theta + xi, sys.f + h))
    to_chart = dict(zip(inverse_chart_symbols(sys.n, sys.m), theta + xi))
    inv = tuple(sp.sympify(e).xreplace(to_chart) for e in sys.inverse_chart)
    if not all(is_zero(e.xreplace(back) - s) for e, s in zip(inv, sys.chart.symbols)):
        raise InversionFailed("supplied inverse chart does not invert (f, h)")
    return AdaptedChart(sys, theta, xi, h, symcore.Substitution(zip(sys.chart.symbols, inv)))


# --------------------------------------------------------------------------
# shift operators

def _max_input_shift(sys: DiscreteTimeSystem, e: sp.Expr) -> int:
    orders = [0]
    for s in sp.sympify(e).free_symbols:
        hit = sys._shift_order_of(s)
        if hit is not None:
            orders.append(hit[1])
    return max(orders)


def forward_shift(g, sys: DiscreteTimeSystem, max_shift: int = DEFAULT_MAX_SHIFT) -> Expr:
    """delta(g): substitute x -> f(x, u) and u_[a] -> u_[a+1], in the
    domain's form (see :func:`symcore.domain_form`)."""
    g = sp.sympify(g)
    top = _max_input_shift(sys, g)
    if top + 1 > max_shift:
        raise ShiftBudgetExceeded(
            f"forward shift needs input shift order {top + 1} > cap {max_shift}")
    subs = dict(zip(sys.states, sys.f))
    for j in range(sys.m):
        for a in range(top + 1):
            subs[sys.input_shift_symbol(j, a)] = sys.input_shift_symbol(j, a + 1)
    return domain_form(g.xreplace(subs))


def backward_shift(Q: symcore.Rows, ac: AdaptedChart) -> symcore.Rows:
    """delta^{-1} of rows of 1-forms written in the adapted chart, as rows
    on the system's chart: theta -> x (ac.to_x, which rows of QQ numbers
    do not need), and the input components QQ.zero.

    Requires zero d-xi components and xi-free coefficients; a violation is
    an internal sequencing bug, not a user error.
    """
    n, xisyms = len(ac.theta), set(ac.xi)
    for row in Q.rows:
        for j, c in enumerate(row[n:]):
            if c:
                raise NotShiftable(f"nonzero d{ac.xi[j].name}-component: "
                                   f"{normalize(Q.to_expr(c))}")
        for c in row[:n]:
            if c and Q.F is not None and Q.F.symbols_of(c) & xisyms:
                raise NotShiftable("coefficient depends on the complement: "
                                   f"{normalize(Q.to_expr(c))}")
    shifted = symcore.Rows(Q.F, [row[:n] for row in Q.rows], n)
    if shifted.F is not None:
        shifted = ac.to_x(shifted)
    zeros = [QQ.zero] * ac.system.m
    return symcore.Rows(shifted.F, [row + zeros for row in shifted.rows],
                        ac.system.chart.dim)


def backward_shift_oneform(w: OneForm, ac: AdaptedChart) -> OneForm:
    """delta^{-1} of a 1-form written in the adapted chart (see
    :func:`backward_shift`)."""
    if w.chart != ac.chart:
        raise ValueError("form is not expressed in the adapted chart")
    F, coeffs = domain._convert(w.coeffs)
    R = backward_shift(symcore.Rows(F, [coeffs], ac.chart.dim), ac)
    return OneForm(ac.system.chart, tuple(R.to_expr(c) for c in R.rows[0]))


# --------------------------------------------------------------------------
# flat-output verification

def flat_output_symbol(j: int, order: int) -> sp.Symbol:
    """Component j (0-based) of the flat output, shifted `order` times.

    Named y{j+1} for order 0 and y{j+1}_{order} above.
    """
    return sp.Symbol(f"y{j + 1}" if order == 0 else f"y{j + 1}_{order}")


@dataclass(frozen=True)
class FlatOutputCandidate:
    """y = phi(x, u, ..., u_[q]) with the claimed parameterization (F_x, F_u)."""

    phi: tuple[Expr, ...]
    F_x: tuple[Expr, ...]
    F_u: tuple[Expr, ...]
    R: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(sp.sympify(e) for e in self.phi))
        object.__setattr__(self, "F_x", tuple(sp.sympify(e) for e in self.F_x))
        object.__setattr__(self, "F_u", tuple(sp.sympify(e) for e in self.F_u))


@dataclass
class FlatOutputVerdict:
    ok: bool
    residuals_x: list[Expr]
    residuals_u: list[Expr]
    residuals_consistency: list[Expr]

    def failing_components(self) -> list[str]:
        bad = [f"x{i + 1}" for i, r in enumerate(self.residuals_x) if r != 0]
        bad += [f"u{j + 1}" for j, r in enumerate(self.residuals_u) if r != 0]
        bad += [f"shift-consistency {i + 1}"
                for i, r in enumerate(self.residuals_consistency) if r != 0]
        return bad


def _y_shift_orders(cand: FlatOutputCandidate, m: int) -> int:
    """Highest shift of a flat-output symbol used in F_x or F_u."""
    top = 0
    pat = re.compile(r"y(\d+)_(\d+)")
    for e in cand.F_x + cand.F_u:
        for s in sp.sympify(e).free_symbols:
            mt = pat.fullmatch(s.name)
            if mt:
                top = max(top, int(mt.group(2)))
    if cand.R is not None:
        top = max(top, max(cand.R))
    return top


def verify_flat_output(sys: DiscreteTimeSystem, cand: FlatOutputCandidate,
                       max_shift: int = DEFAULT_MAX_SHIFT) -> FlatOutputVerdict:
    """Substitute y_[k] = delta^k(phi) into the parameterization and check it
    reproduces x and u; also check delta(F_x) = f(F_x, F_u) over the
    y-coordinates."""
    if len(cand.phi) != sys.m:
        raise ValueError("a flat output must have one component per input")
    top = _y_shift_orders(cand, sys.m)
    shifted: dict[sp.Symbol, sp.Expr] = {}
    for j, phi in enumerate(cand.phi):
        val = sp.sympify(phi)
        shifted[flat_output_symbol(j, 0)] = val
        for k in range(1, top + 1):
            val = forward_shift(val, sys, max_shift=max_shift)
            shifted[flat_output_symbol(j, k)] = val
    res_x = [_residual("x", i, sp.sympify(Fi).xreplace(shifted), x)
             for i, (Fi, x) in enumerate(zip(cand.F_x, sys.states), start=1)]
    res_u = [_residual("u", i, sp.sympify(Fj).xreplace(shifted), u)
             for i, (Fj, u) in enumerate(zip(cand.F_u, sys.inputs), start=1)]
    # delta(F_x) = f(F_x, F_u) as functions of the flat output
    y_shift = {}
    for j in range(sys.m):
        for k in range(top + 1):
            y_shift[flat_output_symbol(j, k)] = flat_output_symbol(j, k + 1)
    into_y = dict(zip(sys.states, cand.F_x))
    into_y.update(zip(sys.inputs, cand.F_u))
    res_c = [_residual("consistency", i, sp.sympify(Fi).xreplace(y_shift),
                       sp.sympify(fi).xreplace(into_y))
             for i, (Fi, fi) in enumerate(zip(cand.F_x, sys.f), start=1)]
    ok = all(r == 0 for r in res_x + res_u + res_c)
    return FlatOutputVerdict(ok, res_x, res_u, res_c)


def _residual(label: str, i: int, lhs: Expr, rhs: Expr) -> Expr:
    """lhs - rhs in canonical form.  A residual that is nonzero in the exact
    domain but vanishes numerically (see :func:`_vanishes_numerically`)
    raises InternalInconsistency: the domain missed an identity, and a
    failed verification would be wrong."""
    r = normalize(lhs - rhs)
    if r != 0 and not r.has(*domain._UNDEFINED) and _vanishes_numerically(lhs, rhs):
        raise InternalInconsistency(
            f"residual {label}[{i}] = {symcore.render(r)} is not zero in "
            "the exact domain but vanishes numerically")
    return r


def _vanishes_numerically(lhs: Expr, rhs: Expr) -> bool:
    """Whether lhs = rhs, to far below mpmath's 50-digit working precision,
    at each of three seeded real points that is no pole of either side (and
    at one at least); the first point where they differ decides.  A backstop
    outside the exact domain, with a random stream of its own, so that
    every other draw stays as it is."""
    syms = sorted(lhs.free_symbols | rhs.free_symbols, key=lambda s: s.name)
    rng, evaluated = random.Random(0), 0
    with mpmath.workdps(50):
        for _ in range(3):
            point = {s: mpmath.mpf(rng.randint(-99, 99)) / rng.randint(1, 30) for s in syms}
            try:
                a, b = _value(lhs, point), _value(rhs, point)
            except ZeroDivisionError:
                continue  # a pole
            if abs(a - b) > mpmath.mpf(10)**-30 * max(1, abs(a), abs(b)):
                return False
            evaluated += 1
    return evaluated > 0


def _value(e: Expr, point: Mapping):
    """e at the point, in mpmath, for e built from symbols, rational numbers,
    sums, products, powers and functions that mpmath has, such as sin and
    cos.  A pole raises ZeroDivisionError."""
    if e.is_Symbol:
        return point[e]
    if e.is_Rational:
        return mpmath.mpf(e.p) / e.q
    args = [_value(a, point) for a in e.args]
    if e.is_Add:
        return mpmath.fsum(args)
    if e.is_Mul:
        return mpmath.fprod(args)
    if e.is_Pow:
        return args[0] ** args[1]
    return getattr(mpmath, e.func.__name__)(*args)


# --------------------------------------------------------------------------
# triangular decompositions

@dataclass(frozen=True)
class TriangularDecomposition:
    """State- and input transformation with the block sizes of the split.

    ``state_map`` lists the x1-block components first, then the x2-block;
    ``input_map`` lists the u1-block first, then the u2-block.
    ``split`` = (dim x1, dim x2, dim u1, dim u2).
    """

    state_map: tuple[Expr, ...]
    input_map: tuple[Expr, ...]
    split: tuple[int, int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "state_map",
                           tuple(sp.sympify(e) for e in self.state_map))
        object.__setattr__(self, "input_map",
                           tuple(sp.sympify(e) for e in self.input_map))
        if any(k < 0 for k in self.split):
            raise ValueError(f"split {self.split} has a negative block size")


@dataclass
class DecompositionVerdict:
    ok: bool
    reasons: list[str]
    # transformed-system data, populated when the transformation inverts
    xbar: tuple[sp.Symbol, ...] | None = None
    ubar: tuple[sp.Symbol, ...] | None = None
    fbar: tuple[Expr, ...] | None = None
    xbar0: tuple | None = None
    ubar0: tuple | None = None


def verify_triangular_decomposition(sys: DiscreteTimeSystem,
                                    dec: TriangularDecomposition) -> DecompositionVerdict:
    """Transform the system and check the triangular structure:
    the x2-rows must not depend on the u1-block, and the u1-block must act
    on the x1-rows with full rank dim(x1)."""
    n1, n2, m1, m2 = dec.split
    reasons: list[str] = []
    if n1 + n2 != sys.n or m1 + m2 != sys.m:
        return DecompositionVerdict(False, [f"split {dec.split} does not match "
                                            f"(n, m) = ({sys.n}, {sys.m})"])
    if n1 < 1:
        reasons.append("dim(x1) must be at least 1")
    if len(dec.state_map) != sys.n or len(dec.input_map) != sys.m:
        return DecompositionVerdict(False, ["transformation has wrong arity"])
    for e in dec.state_map:
        if sp.sympify(e).free_symbols - set(sys.states) - set(sys.params):
            return DecompositionVerdict(False, ["state map must depend on x alone"])

    maps = _row_of(dec.state_map + dec.input_map)
    full = symcore.jacobian_rows(maps, sys.chart.symbols)
    dx = symcore.Rows(full.F, [row[:sys.n] for row in full.rows[:sys.n]], sys.n)
    if dx.rank() < sys.n:
        return DecompositionVerdict(False, ["state map is not invertible"])
    if full.rank() < sys.n + sys.m:
        return DecompositionVerdict(False, ["(state, input) map is not invertible"])

    taken = {s.name for s in sys.states + sys.inputs + sys.params}
    xbar = tuple(sp.Symbol(nm) for nm in _fresh_names("xb", sys.n, set(taken)))
    ubar = tuple(sp.Symbol(nm) for nm in _fresh_names("ub", sys.m, set(taken)))
    state_row, input_row = (symcore.Rows(maps.F, [row], len(row))
                            for row in (maps.rows[0][:sys.n], maps.rows[0][sys.n:]))
    try:
        x_inv = _solve_inverse(xbar, state_row, list(sys.states), lambda: dec.state_map)
    except InversionFailed as exc:
        return DecompositionVerdict(False, [f"state map could not be inverted: {exc}"])
    # the input equations compose input_map with x's inverse, so their
    # round trip gives u(xbar, input_map(x(xbar), u)) = u; at xbar =
    # state_map(x), where x(xbar) = x, that is u(state_map, input_map) = u
    try:
        u_inv = _solve_inverse(ubar, x_inv(input_row), list(sys.inputs), lambda: [
            sp.sympify(e).xreplace(x_inv.exprs) for e in dec.input_map])
    except InversionFailed as exc:
        return DecompositionVerdict(False, [f"input map could not be inverted: {exc}"])
    inv_subs = x_inv.exprs | u_inv.exprs

    f_subbed = [sp.sympify(fi).xreplace(inv_subs) for fi in sys.f]
    fbar = tuple(domain_form(sp.sympify(e).xreplace(dict(zip(sys.states, f_subbed))))
                 for e in dec.state_map)

    B = symcore.jacobian_rows(fbar, ubar[:m1])
    for i in range(n1, sys.n):
        b = next((b for b in B.rows[i] if b), None)
        if b is not None:
            if B.F is not None:
                B.F.check_nonzero(b)  # as is_zero cross-checks a nonzero
            reasons.append(f"x2-row {i - n1 + 1} depends on the u1-block")
    B1 = symcore.Rows(B.F, B.rows[:n1], m1)
    rk = B1.rank() if n1 and m1 else 0
    if rk != n1:
        reasons.append(f"rank of d f1 / d u1 is {rk}, need dim(x1) = {n1}")

    eq = sys.equilibrium_subs()
    xbar0 = tuple(sp.cancel(sp.sympify(e).xreplace(eq)) for e in dec.state_map)
    ubar0 = tuple(sp.cancel(sp.sympify(e).xreplace(eq)) for e in dec.input_map)
    if all(v.is_Rational for v in xbar0 + ubar0):
        rk0 = _rank_at_point(B1, rk, _point(dict(zip(xbar + ubar, xbar0 + ubar0)),
                                            sys.params))
        if rk0 is None and not reasons:
            raise FwdflatError(f"an angle of d f1 / d u1 has a pole where state_map gives "
                               f"{xbar0} and input_map {ubar0}: no rank there")
        if rk0 is not None and rk0 != n1:
            reasons.append(f"rank of d f1 / d u1 at the equilibrium is {rk0}")
    elif reasons:
        xbar0 = ubar0 = None
    else:
        # neither the rank there nor the subsystem, whose equilibrium must
        # be rational, can be checked: no verdict
        raise FwdflatError(f"transformed equilibrium is not rational: state_map "
                           f"gives {xbar0} and input_map {ubar0} at (x0, u0), so "
                           "the decomposition cannot be checked there")

    ok = not reasons
    return DecompositionVerdict(ok, reasons, xbar=xbar, ubar=ubar, fbar=fbar,
                                xbar0=xbar0, ubar0=ubar0)
