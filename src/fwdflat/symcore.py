"""Symbolic expression kernel and exact linear algebra over the expression field.

The field of computation is the rational functions in all declared symbols,
extended by sin(a) and cos(a) subject to the side relation
cos(a)**2 = 1 - sin(a)**2.  Parsed input keeps each a a single symbol;
substituting maps or points into it leaves compound or numeric arguments.
Every rank decision in the package reduces to one elimination, behind
:func:`rref`, :func:`rank` and :func:`rank_at`, or to :func:`is_zero`, and
all of them decide in one exact domain (:class:`_Domain`): sympy's
sparse rational functions over QQ, with a generator pair for cos(a),
sin(a) and numerators and denominators reduced modulo the side relation.
There an element is the zero function iff it is literally zero.  Chart
inversions solve in the same domain (:func:`solve_by_elimination`), and
every derivative is taken there (:func:`jacobian`: the ring's
derivations, with d cos(a)/da = -sin(a) and d sin(a)/da = cos(a), the
chain rule through a compound argument a, and the quotient rule).  The
same domain fixes every canonical form: :func:`normalize` converts an
expression into it and back, for rendering and substitution; no decision
rests on it.

Expressions are plain (immutable) sympy expressions, and coordinates and
parameters are plain ``sympy.Symbol`` objects.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.fields import FracField
from sympy.polys.orderings import lex
from sympy.polys.polyerrors import CoercionFailed
from sympy.parsing.sympy_parser import (
    convert_xor,
    parse_expr as _sympy_parse,
    standard_transformations,
)

from .errors import (
    ExprSyntaxError,
    InternalInconsistency,
    InversionFailed,
    PoleAtPoint,
)

Expr = sp.Expr
ExprMatrix = sp.Matrix


# --------------------------------------------------------------------------
# zero-test session (seeded RNG for the numeric cross-check)

@dataclass
class _Session:
    seed: int = 0
    samples: int = 8
    rng: random.Random = field(default_factory=lambda: random.Random(0))


_session = _Session()


def configure(seed: int = 0, samples: int = 8) -> None:
    """Reset the zero-test RNG and sample count for a new analysis session."""
    global _session
    _session = _Session(seed=seed, samples=samples, rng=random.Random(seed))


# --------------------------------------------------------------------------
# the exact domain of a batch of expressions

# One (c_a, s_a) generator pair per trig argument a for the whole process, so
# that repeated conversions build the same fields.
_TRIG_GENS: dict[sp.Symbol, tuple[sp.Dummy, sp.Dummy]] = {}


@functools.lru_cache(maxsize=256)
def _field(gens: tuple) -> FracField:
    return FracField(gens, QQ, lex)


_UNDEFINED = (sp.nan, sp.zoo, sp.oo, -sp.oo)


def _rational(e):
    try:
        return QQ.from_sympy(e)
    except CoercionFailed:
        # an undefined value (0/0, 1/0) stays an internal inconsistency;
        # any other leaf (exp, sqrt, pi) is outside the supported domain
        raise (InternalInconsistency if e.has(*_UNDEFINED) else ExprSyntaxError)(
            f"{e} is not a rational function of symbols, sin and cos") from None


def _rational_sample(p, k: int, rng: random.Random):
    """Value of the polynomial p at a random rational point: its first k
    generators c_a paired with the next k generators s_a on the unit circle,
    through half-angle rationals, and the other generators nonzero."""
    point = [QQ.zero] * p.ring.ngens
    for i in range(k):
        t = QQ(rng.randint(-99, 99), rng.randint(1, 30))
        point[i] = (1 - t**2) / (1 + t**2)
        point[k + i] = 2 * t / (1 + t**2)
    for i in range(2 * k, len(point)):
        point[i] = QQ(rng.randint(1, 99) * rng.choice((-1, 1)), rng.randint(1, 30))
    return sum((math.prod((x**e for x, e in zip(point, monom) if e), start=c)
                for monom, c in p.iterterms()), QQ.zero)


def _gens_of(p) -> set[int]:
    """Indices of the generators that the polynomial p uses."""
    return {i for m in p.itermonoms() for i, e in enumerate(m) if e}


class _Domain:
    """One exact domain holding a batch of expressions.

    ``QQ`` when no expression has a symbol or sin/cos.  Otherwise sympy's
    sparse rational functions over ``QQ`` in lex order, in the generators
    c_a (one per cos(a)), then s_a (one per sin(a)), then the free symbols
    sorted by ``default_sort_key``.  A number left as a trig argument by
    substituting a point, as in sin(1), gets its own pair like a symbol.
    A compound argument is keyed on its :func:`normalize` form, so that
    sin(y*(y + 1)) and sin(y**2 + y) share a pair; multiple angles such as
    sin(2*y) still get pairs of their own.  Numerators and denominators are
    kept reduced modulo c_a**2 + s_a**2 - 1: with the c_a first in lex
    order this leaves every cos-degree below 2, which is a normal form
    modulo the relations.  The quotient ring is an integral domain, so an
    element is the zero function iff it is falsy.
    """

    def __init__(self, exprs: Iterable):
        exprs = [sp.sympify(e) for e in exprs]
        compound = {t: t.func(normalize(t.args[0]))
                    for e in exprs for t in e.atoms(sp.sin, sp.cos)
                    if not (t.args[0].is_Symbol or t.args[0].is_Number)}
        if compound:
            exprs = [e.xreplace(compound) for e in exprs]
        args = sorted({t.args[0] for e in exprs for t in e.atoms(sp.sin, sp.cos)},
                      key=sp.default_sort_key)
        free = sorted(set().union(*(e.free_symbols for e in exprs)),
                      key=sp.default_sort_key)
        self.k = len(args)
        self.args = args
        self.field = None
        self.relations = []
        if not free and not args:
            self.elements = [_rational(e) for e in exprs]
            return
        for a in args:
            if a not in _TRIG_GENS:
                _TRIG_GENS[a] = (sp.Dummy(f"c_{a}"), sp.Dummy(f"s_{a}"))
        gens = ([_TRIG_GENS[a][0] for a in args] + [_TRIG_GENS[a][1] for a in args]
                + free)
        self.gen_exprs = ([sp.cos(a) for a in args] + [sp.sin(a) for a in args]
                          + free)
        self.field = _field(tuple(gens))
        g = self.field.ring.gens
        self.relations = [g[i]**2 + g[self.k + i]**2 - 1 for i in range(self.k)]
        self._gen_of = dict(zip(self.gen_exprs, g))
        self.elements = [self._new(*self._fraction(e)) for e in exprs]

    def _fraction(self, e):
        """Numerator and denominator of e in the field's polynomial ring,
        combined without cancelling."""
        ring = self.field.ring
        gen = self._gen_of.get(e)
        if gen is not None:
            return gen, ring.one
        if e.is_Add or e.is_Mul:
            num, den = self._fraction(e.args[0])
            for a in e.args[1:]:
                n, d = self._fraction(a)
                if e.is_Mul:
                    num, den = num * n, den * d
                elif d == den:
                    num = num + n
                else:
                    num, den = num * d + n * den, den * d
            return num, den
        if e.is_Pow and e.exp.is_Integer:
            num, den = self._fraction(e.base)
            k = int(e.exp)
            return (num**k, den**k) if k >= 0 else (den**-k, num**-k)
        return ring.ground_new(_rational(e)), ring.one

    def _reducible(self, p) -> bool:
        return any(m[i] >= 2 for m in p.itermonoms() for i in range(self.k))

    def _new(self, num, den):
        """The element num/den, both reduced modulo the relations and their
        gcd cancelled."""
        if self.relations:
            if self._reducible(num):
                num = num.rem(self.relations)
            if self._reducible(den):
                den = den.rem(self.relations)
        if not den:
            raise InternalInconsistency(
                "division by an expression that is zero modulo "
                "cos**2 + sin**2 = 1")
        return self.field.new(num, den)

    def index(self, e) -> int | None:
        """Generator index of a symbol, cos(a) or sin(a); None if absent."""
        gen = self._gen_of.get(e)
        return None if gen is None else self.field.ring.index(gen)

    def _compose(self, p, values: Mapping):
        """p with generator i replaced by the element values[i], as a
        numerator and a denominator: the denominators of the values are
        raised to p's degree in their generator and multiplied out."""
        ring = self.field.ring
        deg = {i: max((m[i] for m in p.itermonoms()), default=0) for i in values}
        den = ring.one
        for i, d in deg.items():
            den *= values[i].denom ** d
        num = ring.zero
        for monom, coeff in p.iterterms():
            t = ring({tuple(0 if i in values else e for i, e in enumerate(monom)): coeff})
            for i, v in values.items():
                if deg[i]:
                    t *= v.numer ** monom[i] * v.denom ** (deg[i] - monom[i])
            num += t
        return num, den

    def substitute(self, x, values: Mapping):
        """The element x with generator i replaced by the element values[i]."""
        n1, d1 = self._compose(x.numer, values)
        n2, d2 = self._compose(x.denom, values)
        return self._new(n1 * d2, d1 * n2)

    def derivation(self, v: sp.Symbol):
        """d/dv on the elements, or None if v is no generator.

        The ring's derivation by v, plus d c_v/dv = -s_v and d s_v/dv = c_v
        when v has a trig pair, applied by the quotient rule; then, by the
        chain rule, d/da times da/dv for every other trig argument a that
        contains v, where d/da maps c_a to -s_a and s_a to c_a.
        """
        i = self.index(v)
        if i is None:
            return None
        g = self.field.ring.gens

        def quotient_rule(D):
            return lambda x: self._new(D(x.numer) * x.denom - x.numer * D(x.denom),
                                       x.denom**2)

        def along(j):
            c, s = g[j], g[self.k + j]
            return lambda p: p.diff(s) * c - p.diff(c) * s

        ic = self.index(sp.cos(v))
        own = along(ic) if ic is not None else None
        explicit = quotient_rule(lambda p: p.diff(g[i]) if own is None
                                 else p.diff(g[i]) + own(p))
        chain = {j: quotient_rule(along(j)) for j, a in enumerate(self.args)
                 if a != v and v in a.free_symbols}
        da = {}

        def d(x):
            y = explicit(x)
            for j, d_along in chain.items():
                dx = d_along(x)
                if dx:
                    if j not in da:  # an argument holds only smaller ones
                        da[j] = d(self._new(*self._fraction(self.args[j])))
                    y = self.reduce(y + dx * da[j])
            return y

        return d

    def reduce(self, x):
        """The result x of a field operation, reduced modulo the relations."""
        if self.relations and (self._reducible(x.numer)
                               or self._reducible(x.denom)):
            return self._new(x.numer, x.denom)
        return x

    def check_nonzero(self, x) -> None:
        """Numeric cross-check of an exactly nonzero element: unless its
        numerator is a single term, it must be nonzero at one of
        ``_session.samples`` random points, or InternalInconsistency."""
        if self.field is None or len(x.numer) <= 1:
            return
        for _ in range(_session.samples):
            if _rational_sample(x.numer, self.k, _session.rng):
                return
        raise InternalInconsistency(
            f"exactly nonzero expression {self.to_expr(x)} vanished at "
            f"{_session.samples} random points")

    def to_expr(self, x) -> Expr:
        if self.field is None:
            return QQ.to_sympy(x)
        return x.numer.as_expr(*self.gen_exprs) / x.denom.as_expr(*self.gen_exprs)


def is_zero(e) -> bool:
    """True iff e represents the zero function.

    The verdict is exact, in the domain of :class:`_Domain`; a nonzero
    result is cross-checked numerically (see ``_Domain.check_nonzero``).
    """
    dom = _Domain([e])
    x = dom.elements[0]
    if not x:
        return True
    dom.check_nonzero(x)
    return False


def normalize(e) -> Expr:
    """Canonical form of e: converted into its :class:`_Domain` and back,
    so numerator and denominator are reduced modulo the side relations and
    their gcd is cancelled; ``sp.cancel`` then fixes the sign and the
    content.  An expression holding nan, zoo or oo is returned unchanged;
    one outside the domain, such as exp(x1), raises ExprSyntaxError."""
    e = sp.sympify(e)
    if e.has(*_UNDEFINED):
        return e
    dom = _Domain([e])
    return sp.cancel(dom.to_expr(dom.elements[0]))


def jacobian(exprs: Sequence, symbols: Sequence[sp.Symbol]) -> ExprMatrix:
    """The matrix of the partial derivatives d exprs[i] / d symbols[j].

    The expressions are converted once into one :class:`_Domain`,
    differentiated there (see ``_Domain.derivation``) and converted back
    once.  A symbol that is not a generator of the domain gives 0; an
    expression outside the domain, such as exp(x1), raises ExprSyntaxError.
    """
    dom = _Domain(exprs)
    J = sp.zeros(len(dom.elements), len(symbols))
    if dom.field is None:
        return J
    for j, v in enumerate(symbols):
        d = dom.derivation(v)
        if d is not None:
            for i, x in enumerate(dom.elements):
                J[i, j] = dom.to_expr(d(x))
    return J


# --------------------------------------------------------------------------
# exact linear algebra over the expression field

def _row_reduce(dom: _Domain, A: list) -> list[int]:
    """Bring the rows A of elements of dom to reduced row echelon form in
    place and return the pivot columns: leftmost column first, then the
    lowest row index whose entry is not the zero function."""
    rows = len(A)
    pivots: list[int] = []
    r = 0
    for c in range(len(A[0]) if A else 0):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if A[i][c]), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        piv = A[r][c]
        dom.check_nonzero(piv)
        A[r] = [dom.reduce(a / piv) if a else a for a in A[r]]
        for i in range(rows):
            factor = A[i][c]
            if i == r or not factor:
                continue
            A[i] = [dom.reduce(a - factor * b) if b else a
                    for a, b in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return pivots


def _rows(elements: list, shape: tuple[int, int]) -> list:
    rows, cols = shape
    return [elements[i * cols:(i + 1) * cols] for i in range(rows)]


def rref(M: ExprMatrix) -> tuple[ExprMatrix, tuple[int, ...]]:
    """Reduced row echelon form over the expression field.

    The entries are converted once into one :class:`_Domain`, eliminated
    there (see :func:`_row_reduce`), and converted back once.
    """
    M = sp.Matrix(M)
    rows, cols = M.shape
    dom = _Domain(M)
    A = _rows(dom.elements, M.shape)
    pivots = _row_reduce(dom, A)
    r = len(pivots)
    entries = [dom.to_expr(a) for row in A[:r] for a in row]
    entries += [sp.Integer(0)] * ((rows - r) * cols)
    return sp.Matrix(rows, cols, entries), tuple(pivots)


def clear_denominators(M: ExprMatrix) -> ExprMatrix:
    """M with each row multiplied by the lcm of its entries' reduced
    denominators, taken in the exact domain, so that every entry is a
    polynomial; the span of each row over the field is unchanged.  A matrix
    of numbers is returned as it is."""
    M = sp.Matrix(M)
    dom = _Domain(M)
    if dom.field is None:
        return M
    entries = []
    for row in _rows(dom.elements, M.shape):
        lcm = dom.field.ring.one
        for x in row:
            if x.denom != lcm:
                lcm = lcm.lcm(x.denom)
        entries += [(x.numer * lcm.exquo(x.denom)).as_expr(*dom.gen_exprs)
                    for x in row]
    return sp.Matrix(*M.shape, entries)


def _pivot_count(dom: _Domain, shape: tuple[int, int]) -> int:
    return len(_row_reduce(dom, _rows(dom.elements, shape)))


def rank(M: ExprMatrix) -> int:
    """Rank over the expression field: the pivot count of :func:`rref`'s
    elimination, without converting the reduced matrix back."""
    M = sp.Matrix(M)
    return _pivot_count(_Domain(M), M.shape)


def rank_at(M: ExprMatrix, point: Mapping) -> int | None:
    """Exact rank of M at a rational point, decided in ``QQ``.

    None if an entry keeps a symbol that the point does not bind, or sin/cos
    of a nonzero number.  Raises PoleAtPoint if an entry has a pole there.
    """
    M = sp.Matrix(M).xreplace(point)
    if M.has(*_UNDEFINED):
        raise PoleAtPoint(f"pole at {dict(point)}")
    dom = _Domain(M)
    if dom.field is not None:
        return None
    return _pivot_count(dom, M.shape)


def nullspace(M: ExprMatrix) -> list[ExprMatrix]:
    """Basis of the right kernel over the expression field."""
    R, pivots = rref(M)
    cols = R.cols
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = sp.zeros(cols, 1)
        v[fc, 0] = sp.Integer(1)
        for r, pc in enumerate(pivots):
            v[pc, 0] = -R[r, fc]
        basis.append(v)
    return basis


# --------------------------------------------------------------------------
# solving by elimination

def _linear_split(p, j: int):
    """(a, b) with p = a*g_j + b, if the polynomial p has degree 1 in its
    generator j; None otherwise."""
    a, b = {}, {}
    for monom, coeff in p.iterterms():
        if monom[j] > 1:
            return None
        (a if monom[j] else b)[monom[:j] + (0,) + monom[j + 1:]] = coeff
    return (p.ring(a), p.ring(b)) if a else None


def _linear_candidates(dom, pending: dict, remaining, own: dict, bare: dict,
                       solutions):
    """(equation index, unknown, coefficient, substitution, free) for each
    pending numerator of degree 1 in a remaining unknown, in equation order
    and then in unknown order.  The substitution maps the unknown's
    generator to its solution, and its sin/cos generators to those of a bare
    symbol; free tells whether the coefficient is free of the other
    remaining unknowns."""
    ring = dom.field.ring
    for i, p in pending.items():
        used = _gens_of(p)
        for u in remaining:
            j = dom.index(u)
            split = _linear_split(p, j) if j in used else None
            if split is None:
                continue
            a, b = split
            trig = own[u] - {j}
            if trig & (_gens_of(a) | _gens_of(b)):
                continue  # u is also inside sin/cos of this equation
            sol = dom._new(-b, a)
            values = {j: sol}
            elsewhere = [q for k, q in pending.items() if k != i]
            elsewhere += [x for s in solutions for x in (s.numer, s.denom)]
            if trig and any(trig & _gens_of(q) for q in elsewhere):
                v = bare.get(sol.numer) if sol.denom == 1 else None
                if v is None:
                    continue  # sin/cos would take an argument that is no symbol
                for f in (sp.cos, sp.sin):
                    values[dom.index(f(u))] = dom._new(ring.gens[dom.index(f(v))],
                                                       ring.one)
            others = set().union(*(own[w] for w in remaining if w != u))
            yield i, u, a, values, not _gens_of(a) & others


def solve_by_elimination(eqs: Iterable, unknowns: Sequence[sp.Symbol]
                         ) -> tuple[Expr, ...]:
    """Solve eqs = 0 for the unknowns by elimination in the exact domain.

    Each step takes the first pending equation whose numerator has degree 1
    in a remaining unknown (the first such unknown in `unknowns` order),
    preferring a coefficient free of the other remaining unknowns, records
    the solution and substitutes it into the pending equations only.  An
    unknown inside sin/cos is eliminated only where its solution is a bare
    symbol that is not an unknown, so that sin/cos keep a symbol argument.
    Each step removes an unknown, so the elimination ends.  The solutions
    are back-substituted in reverse order.  Raises InversionFailed, naming
    the unsolved equations, when no step is possible.
    """
    eqs = [sp.sympify(e) for e in eqs]
    symbols = set().union(*(e.free_symbols for e in eqs))
    args = {t.args[0] for e in eqs for t in e.atoms(sp.sin, sp.cos)}
    # with an unknown inside sin/cos, every symbol gets sin/cos generators,
    # so that sin(u) can become sin(v) when u is solved as v
    dom = _Domain(eqs + ([sp.cos(v) for v in symbols]
                         if args & set(unknowns) else []))
    ring = dom.field.ring
    own = {u: {i for i in (dom.index(u), dom.index(sp.cos(u)), dom.index(sp.sin(u)))
               if i is not None} for u in unknowns}
    bare = {ring.gens[dom.index(v)]: v for v in symbols - set(unknowns)}
    pending = {i: dom.elements[i].numer for i in range(len(eqs))}
    remaining = list(unknowns)
    steps = []  # (unknown, substitution)
    while remaining:
        step = None
        for *cand, free in _linear_candidates(dom, pending, remaining, own, bare,
                                              [v[dom.index(u)] for u, v in steps]):
            if step is None or free:
                step = cand
            if free:
                break
        if step is None:
            raise InversionFailed(
                f"no equation is linear in {', '.join(map(str, remaining))}; "
                f"unsolved: {', '.join(f'{eqs[i]} = 0' for i in pending)}")
        i, u, a, values = step
        dom.check_nonzero(dom._new(a, ring.one))  # as for an rref pivot
        del pending[i]
        remaining.remove(u)
        steps.append((u, values))
        for k, q in pending.items():
            if _gens_of(q) & set(values):
                pending[k] = dom.substitute(dom._new(q, ring.one), values).numer
    solved, later = {}, {}
    for u, values in reversed(steps):
        try:
            solved[u] = dom.substitute(values[dom.index(u)], later)
        except InternalInconsistency:
            raise InversionFailed(f"the solution for {u} divides by zero") from None
        later.update(values)
        later[dom.index(u)] = solved[u]
    return tuple(dom.to_expr(solved[u]) for u in unknowns)


# --------------------------------------------------------------------------
# parsing

_TRANSFORMS = standard_transformations + (convert_xor,)
RESERVED_NAMES = {"sin", "cos"}


def _validate_tree(e: sp.Expr, allowed: set[sp.Symbol], text: str) -> None:
    if e.is_Rational or e.is_Integer:
        return
    if e.is_Symbol:
        if e not in allowed:
            raise ExprSyntaxError(f"unknown symbol {e} in {text!r}")
        return
    if isinstance(e, (sp.sin, sp.cos)):
        if not e.args[0].is_Symbol:
            raise ExprSyntaxError(
                f"{type(e).__name__} argument must be a single symbol in {text!r}")
        _validate_tree(e.args[0], allowed, text)
        return
    if e.is_Pow:
        if not e.exp.is_Integer:
            raise ExprSyntaxError(f"only integer powers are supported in {text!r}")
        _validate_tree(e.base, allowed, text)
        return
    if e.is_Add or e.is_Mul:
        for a in e.args:
            _validate_tree(a, allowed, text)
        return
    if e.is_Float:
        raise ExprSyntaxError(f"floating point literals are not supported in {text!r}")
    raise ExprSyntaxError(f"unsupported construct {e} in {text!r}")


def parse_expr(text: str, symbols: Iterable) -> Expr:
    """Parse an expression string over the declared symbols.

    Grammar: identifiers, integer and p/q literals, + - * / ^ with
    conventional precedence, parentheses, sin(.)/cos(.) of a single symbol.
    """
    syms = {s.name: s for s in symbols}
    local = dict(syms)
    local["sin"] = sp.sin
    local["cos"] = sp.cos
    try:
        e = _sympy_parse(text, local_dict=local, transformations=_TRANSFORMS,
                         evaluate=True)
    except ExprSyntaxError:
        raise
    except Exception as exc:
        raise ExprSyntaxError(f"cannot parse {text!r}: {exc}") from exc
    if not isinstance(e, sp.Expr):
        raise ExprSyntaxError(f"not an expression: {text!r}")
    _validate_tree(sp.sympify(e), set(syms.values()), text)
    return e


def render(e) -> str:
    """Deterministic text rendering of an expression."""
    return sp.sstr(sp.sympify(e), order="lex")
