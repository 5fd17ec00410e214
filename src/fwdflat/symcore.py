"""Symbolic expression kernel and exact linear algebra over the expression field.

The field of computation is the rational functions in all declared symbols,
extended by sin(a) and cos(a) of single symbols subject to the side relation
cos(a)**2 = 1 - sin(a)**2.  Every rank decision in the package reduces to
:func:`rref` or :func:`is_zero`, and both decide in one exact domain
(:class:`_Domain`): sympy's sparse rational functions over QQ, with a
generator pair for cos(a), sin(a) and numerators and denominators reduced
modulo the side relation.  There an element is the zero function iff it is
literally zero.  :func:`normalize` rewrites expressions for rendering and
substitution; no decision rests on it.

Expressions are plain (immutable) sympy expressions, and coordinates and
parameters are plain ``sympy.Symbol`` objects.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping

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
    NonRationalTrigArgument,
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
# normalization

def _reduce_cos_powers(poly: sp.Expr) -> sp.Expr:
    """Reduce every cos(a)-degree below 2 via cos(a)**2 -> 1 - sin(a)**2."""
    args = sorted({t.args[0] for t in poly.atoms(sp.cos)}, key=sp.default_sort_key)
    for a in args:
        c, s = sp.cos(a), sp.sin(a)
        p = sp.Poly(poly, c)
        poly = sp.expand(
            sp.Add(*(coeff * (1 - s**2) ** (k // 2) * c ** (k % 2)
                     for (k,), coeff in p.terms()))
        )
    return poly


def normalize(e) -> Expr:
    """Canonical form: a ratio of expanded polynomials in the symbols and in
    sin(a), cos(a), with cos-degrees reduced below 2 and the gcd cancelled."""
    e = sp.cancel(sp.together(sp.sympify(e)))
    num, den = e.as_numer_denom()
    num = _reduce_cos_powers(sp.expand(num))
    den = _reduce_cos_powers(sp.expand(den))
    return sp.cancel(num / den)


# --------------------------------------------------------------------------
# the exact domain of a batch of expressions

# One (c_a, s_a) generator pair per trig argument a for the whole process, so
# that repeated conversions build the same fields.
_TRIG_GENS: dict[sp.Symbol, tuple[sp.Dummy, sp.Dummy]] = {}


@functools.lru_cache(maxsize=256)
def _field(gens: tuple) -> FracField:
    return FracField(gens, QQ, lex)


def _rational(e):
    try:
        return QQ.from_sympy(e)
    except CoercionFailed:
        raise InternalInconsistency(
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
    return p(*point)


class _Domain:
    """One exact domain holding a batch of expressions.

    ``QQ`` when no expression has a symbol or sin/cos.  Otherwise sympy's
    sparse rational functions over ``QQ`` in lex order, in the generators
    c_a (one per cos(a)), then s_a (one per sin(a)), then the free symbols
    sorted by ``default_sort_key``.  A number left as a trig argument by
    substituting a point, as in sin(1), gets its own pair like a symbol.
    Numerators and denominators are kept
    reduced modulo c_a**2 + s_a**2 - 1: with the c_a first in lex order this
    leaves every cos-degree below 2, which is a normal form modulo the
    relations.  The quotient ring is an integral domain, so an element is
    the zero function iff it is falsy.
    """

    def __init__(self, exprs: Iterable):
        exprs = [sp.sympify(e) for e in exprs]
        args = sorted({t.args[0] for e in exprs for t in e.atoms(sp.sin, sp.cos)},
                      key=sp.default_sort_key)
        free = sorted(set().union(*(e.free_symbols for e in exprs)),
                      key=sp.default_sort_key)
        self.k = len(args)
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


def diff(e, s) -> Expr:
    """Exact partial derivative, normalized."""
    return normalize(sp.diff(sp.sympify(e), s))


def substitute(e, bindings: Mapping) -> Expr:
    """Single simultaneous substitution pass, then normalize."""
    repl = {k: sp.sympify(v) for k, v in bindings.items()}
    return normalize(sp.sympify(e).xreplace(repl))


def evaluate(e, point: Mapping):
    """Exact rational value of e at a rational point.

    sin/cos are evaluated only when their argument symbol is bound to 0
    (sin -> 0, cos -> 1); anything else raises NonRationalTrigArgument.
    """
    e = sp.sympify(e)
    repl = {k: sp.Rational(v) for k, v in point.items()}
    trig = {}
    for t in e.atoms(sp.sin, sp.cos):
        a = t.args[0]
        if repl.get(a, None) != 0:
            raise NonRationalTrigArgument(
                f"{t} cannot be evaluated exactly at {a} = {repl.get(a)}")
        trig[t] = sp.Integer(0) if isinstance(t, sp.sin) else sp.Integer(1)
    e = e.xreplace(trig)
    missing = e.free_symbols - set(repl)
    if missing:
        raise ValueError(f"unbound symbols at evaluation point: {missing}")
    v = sp.cancel(e.xreplace(repl))
    if v.has(sp.zoo, sp.nan, sp.oo):
        raise PoleAtPoint(f"pole while evaluating {e}")
    return sp.Rational(v)


# --------------------------------------------------------------------------
# exact linear algebra over the expression field

def rref(M: ExprMatrix) -> tuple[ExprMatrix, tuple[int, ...]]:
    """Reduced row echelon form over the expression field.

    The entries are converted once into one :class:`_Domain`, eliminated
    there, and converted back once.  Pivot selection is deterministic:
    leftmost column first, then the lowest row index whose entry is not the
    zero function.
    """
    M = sp.Matrix(M)
    rows, cols = M.shape
    dom = _Domain(M)
    A = [dom.elements[i * cols:(i + 1) * cols] for i in range(rows)]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
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
    entries = [dom.to_expr(a) for row in A[:r] for a in row]
    entries += [sp.Integer(0)] * ((rows - r) * cols)
    return sp.Matrix(rows, cols, entries), tuple(pivots)


def rank(M: ExprMatrix) -> int:
    return len(rref(M)[1])


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


def solve_linear(A: ExprMatrix, b: ExprMatrix) -> ExprMatrix | None:
    """One solution of A x = b over the expression field, or None."""
    aug = A.row_join(sp.Matrix(b))
    R, pivots = rref(aug)
    if A.cols in pivots:
        return None
    x = sp.zeros(A.cols, 1)
    for r, pc in enumerate(pivots):
        x[pc, 0] = R[r, A.cols]
    return x


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
