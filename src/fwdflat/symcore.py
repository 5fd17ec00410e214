"""Symbolic expression kernel and exact linear algebra over the expression field.

The field of computation is the rational functions in all declared symbols,
extended by sin(a) and cos(a) of single symbols subject to the side relation
cos(a)**2 = 1 - sin(a)**2.  Every rank decision in the package ultimately
reduces to :func:`is_zero` on elements of this field, so the canonical form
produced by :func:`normalize` is the load-bearing piece: an expression
represents the zero function iff its canonical form is literally 0.

Expressions are plain (immutable) sympy expressions, and coordinates and
parameters are plain ``sympy.Symbol`` objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import sympy as sp
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


def _trig_sample_map(e: Expr, rng: random.Random) -> dict:
    """Exact rational point on the sin/cos variety, via half-angle rationals."""
    repl = {}
    for a in {t.args[0] for t in e.atoms(sp.sin, sp.cos)}:
        t = sp.Rational(rng.randint(-99, 99), rng.randint(1, 30))
        repl[sp.sin(a)] = 2 * t / (1 + t**2)
        repl[sp.cos(a)] = (1 - t**2) / (1 + t**2)
    return repl


def _rational_sample(e: Expr, rng: random.Random):
    """Evaluate e at a random rational point; None on a pole."""
    repl = _trig_sample_map(e, rng)
    e = e.xreplace(repl)
    for s in e.free_symbols:
        p = rng.randint(1, 99) * rng.choice((-1, 1))
        e = e.xreplace({s: sp.Rational(p, rng.randint(1, 30))})
    v = sp.cancel(e)
    if v.has(sp.zoo, sp.nan, sp.oo):
        return None
    return v


def _obviously_nonzero(n: Expr) -> bool:
    """Canonical forms that cannot be the zero function: nonzero rationals
    and single monomials with a nonzero rational coefficient."""
    if n.is_Rational:
        return n != 0
    num, _ = n.as_numer_denom()
    if num.is_Symbol or isinstance(num, (sp.sin, sp.cos)):
        return True
    if num.is_Pow or num.is_Mul:
        coeff, factors = num.as_coeff_mul()
        return all(
            (f.is_Symbol or isinstance(f, (sp.sin, sp.cos)))
            or (f.is_Pow and f.exp.is_Integer
                and (f.base.is_Symbol or isinstance(f.base, (sp.sin, sp.cos))))
            for f in factors
        ) and coeff != 0
    return False


def is_zero(e) -> bool:
    """True iff e represents the zero function.

    The verdict is the canonical normalization; canonically nonzero results
    are cross-checked numerically, and a disagreement raises
    InternalInconsistency instead of being silently resolved.
    """
    n = normalize(e)
    if n == 0:
        return True
    if _obviously_nonzero(n):
        return False
    rng = _session.rng
    for _ in range(_session.samples):
        v = None
        for _ in range(50):
            v = _rational_sample(n, rng)
            if v is not None:
                break
        if v is None:
            raise InternalInconsistency(
                f"could not find a pole-free sample point for {n}")
        if v != 0:
            return False
    raise InternalInconsistency(
        f"canonically nonzero expression {n} vanished at "
        f"{_session.samples} random points")


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

    Pivot selection is deterministic: leftmost column first, then the lowest
    row index whose entry is not the zero function.
    """
    M = sp.Matrix(M).applyfunc(normalize)
    rows, cols = M.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if not is_zero(M[i, c])), None)
        if pr is None:
            continue
        if pr != r:
            M.row_swap(pr, r)
        piv = M[r, c]
        for j in range(cols):
            M[r, j] = normalize(M[r, j] / piv)
        M[r, c] = sp.Integer(1)
        for i in range(rows):
            if i == r:
                continue
            factor = M[i, c]
            if factor == 0:
                continue
            for j in range(cols):
                M[i, j] = normalize(M[i, j] - factor * M[r, j])
            M[i, c] = sp.Integer(0)
        pivots.append(c)
        r += 1
    for i in range(r, rows):
        for j in range(cols):
            M[i, j] = sp.Integer(0)
    return M, tuple(pivots)


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
            v[pc, 0] = normalize(-R[r, fc])
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
