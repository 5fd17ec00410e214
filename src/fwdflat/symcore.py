"""Symbolic expression kernel and exact linear algebra over the expression field.

The field of computation is the rational functions in all declared symbols,
extended by sin(a) and cos(a) subject to the side relation
cos(a)**2 = 1 - sin(a)**2.  Parsed input keeps each a a single symbol;
substituting maps or points into it leaves compound or numeric arguments.
Every rank decision in the package is made by the row kernel
(:class:`Rows`), or by :func:`is_zero`, and all of them decide in the exact
domain of :mod:`fwdflat.domain`, where an element is the zero function iff
it is literally zero: a full rank is certified at one random point of the
domain (``Rows._certified``), and any other rank takes one elimination.
Rows stay in the domain from one operation to the next: each elimination
moves them into the field of the generators that they use, by remapping
exponents, :class:`Substitution` composes them with a map and ``@``
multiplies them.  Every caller ranks and
eliminates on rows, and a sympy matrix is built only by ``Rows.to_matrix``.
The kernel of reduced rows is read off them by one routine,
``Rows.kernel``, and one more, ``Rows.preimage``, gives the combinations
of rows that lie in a row space: every annihilator, intersection and
integrability test of the package runs on these two.
Chart inversions solve in the same domain
(:func:`solve_by_elimination`), and their solutions stay there: a
:class:`Substitution` takes them as elements, with no conversion, and
composes rows with them.  Every derivative is taken there
(:func:`jacobian_rows` and ``Rows.derivative``: the ring's derivations, with d cos(a)/da = -sin(a)
and d sin(a)/da = cos(a), the chain rule through a compound argument a,
and the quotient rule).  The same domain fixes every canonical form:
:func:`domain_form` converts an expression into it and back, to compute
on, and :func:`normalize` also cancels that with ``sp.cancel``, to print;
no decision rests on either.

Expressions are plain (immutable) sympy expressions, and coordinates and
parameters are plain ``sympy.Symbol`` objects.
"""

from __future__ import annotations

import ast
import math
import operator
import unicodedata
from typing import Iterable, Mapping, Sequence

import sympy as sp
from sympy.polys.domains import QQ, ZZ
from sympy.polys.matrices.dense import ddm_irref_den

# the package's callers reach configure, domain_form, dot, is_zero,
# normalize and _rational_sample, in the kernel, through this module
from .domain import (
    _MPQ,
    _Field,
    _UNDEFINED,
    _Plan,
    _convert,
    _demote,
    _evaluate,
    _rational_sample,
    configure,
    domain_form,
    dot,
    is_zero,
    normalize,
)
from .errors import (
    ExprSyntaxError,
    InternalInconsistency,
    InversionFailed,
    PoleAtPoint,
)

Expr = sp.Expr


# --------------------------------------------------------------------------
# the row kernel: exact linear algebra over the expression field

def _row_reduce(F: _Field | None, A: list) -> list[int]:
    """Bring the rows A of elements of F (or of numbers, with F None) to
    reduced row echelon form in place and return the pivot columns:
    leftmost column first, then the lowest row index whose entry is not the
    zero function.  Rows of numbers are cleared of their denominators and
    eliminated fraction-free on Python ints (sympy's ``ddm_irref_den``,
    which pivots by the same rule), with one division per entry at the
    end.  Field entries are combined by ``_Field.quo`` and :func:`dot`:
    each quotient and each difference is reduced modulo the relations, and
    each product ``factor*b`` is cancelled but not reduced."""
    if F is None:
        M = []
        for row in A:
            lcm = math.lcm(*(a.denominator for a in row))
            M.append([a.numerator * (lcm // a.denominator) for a in row])
        den, pivots = ddm_irref_den(M, ZZ)
        A[:] = [[_MPQ(a, den) if a else QQ.zero for a in row] for row in M]
        return pivots
    rows = len(A)
    reduce, quo = F.reduce, F.quo
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
        F.check_nonzero(piv)
        A[r] = [reduce(quo(a, piv)) if a else a for a in A[r]]
        for i in range(rows):
            if i == r or not A[i][c]:
                continue
            factor = -A[i][c]
            A[i] = [dot(F, ((factor, b),), a) if b else a
                    for a, b in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return pivots


class Rows:
    """A matrix of exact elements, by rows: every entry is a ``QQ`` number
    or an element of the one field F (None when all are numbers).

    Every rank, elimination and integrability decision runs on these: the
    sequence of codistributions, the chart search, the decomposition
    verifier and the row-space class of :mod:`fwdflat.extcalc`, which holds
    them.  ``of`` and ``to_matrix`` convert from and to a sympy matrix.
    Every elimination first moves the rows into the field of the generators
    that they use.
    """

    __slots__ = ("F", "rows", "width")

    def __init__(self, F: _Field | None, rows: list, width: int):
        self.F, self.rows, self.width = F, rows, width

    @classmethod
    def of(cls, M) -> "Rows":
        M = sp.Matrix(M)
        F, elements = _convert(M)
        cols = M.cols
        return cls(F, [elements[i * cols:(i + 1) * cols] for i in range(M.rows)], cols)

    def to_expr(self, x) -> Expr:
        return QQ.to_sympy(x) if type(x) is _MPQ else self.F.to_expr(x)

    def to_matrix(self) -> sp.Matrix:
        return sp.Matrix(len(self.rows), self.width,
                         [self.to_expr(x) for row in self.rows for x in row])

    @staticmethod
    def stack(*blocks: "Rows") -> "Rows":
        """The blocks' rows, one under the other, in the field of the
        generators that they use."""
        G = _Field.union([_Field.of(B.F.used(x for row in B.rows for x in row))
                          for B in blocks if B.F is not None])
        rows = []
        for B in blocks:
            if G is None or B.F is None or B.F is G:
                rows += B.rows
            else:
                move = G.plan_from(B.F)
                rows += [[move(x) for x in row] for row in B.rows]
        return Rows(G, rows, blocks[0].width)

    def reduced(self) -> tuple["Rows", list[int]]:
        """The nonzero rows of the reduced row echelon form, and the pivot
        columns (see :func:`_row_reduce`).  Rows that :meth:`_certified`
        proves of full column rank in their nonzero columns reduce, with no
        elimination, to the unit rows of those columns."""
        R = Rows.stack(self)
        if R.F is not None:
            cols = [j for j, col in enumerate(zip(*R.rows)) if any(col)]
            if len(cols) <= len(R.rows) and R._certified(len(cols)):
                return Rows(R.F, [[QQ.one if j == c else QQ.zero for j in range(R.width)]
                                  for c in cols], R.width), cols
        pivots = _row_reduce(R.F, R.rows)
        del R.rows[len(pivots):]
        return R, pivots

    def rank(self) -> int:
        """The rank over the field: the largest rank that the rows can
        have where :meth:`_certified` proves it, else the pivot count of
        the elimination."""
        R = Rows.stack(self)
        if R.F is not None:
            full = min(len(R.rows), sum(1 for col in zip(*R.rows) if any(col)))
            if R._certified(full):
                return full
        return len(_row_reduce(R.F, R.rows))

    def _certified(self, rank: int) -> bool:
        """Whether these rows of field elements have the given rank at a
        random rational point of the field's variety: the certificate of
        full rank.

        There each (c_a, s_a) lies on the unit circle and every other
        generator takes a nonzero rational (``_Field.random_point``).  At
        such a point, where no denominator vanishes, evaluation is a ring
        homomorphism, so a nonzero minor at the point is the image of a
        nonzero minor of the rows: the rank at the point is a lower bound
        on their rank, and where it reaches the largest rank that they can
        have, it is their rank.  A lower rank at the point proves nothing,
        and the caller eliminates exactly.  A certified call trusts no
        exact pivot, so ``_Field.check_nonzero`` has nothing to cross-check.
        At a pole a new point is drawn, at most three times.  The points
        come from ``_session.point_rng``, so that the cross-check's and the
        parameter values' streams draw nothing for them."""
        for _ in range(4):
            try:
                rows = self._at(self.F.random_point())
            except PoleAtPoint:
                continue
            return len(_row_reduce(None, rows)) == rank
        return False

    def kernel(self) -> "Rows":
        """A basis of the right kernel of these rows, which must be in
        reduced row echelon form, read off them with no elimination: for
        each column j that is no pivot p_i, e_j - Σ_i R_ij e_{p_i}."""
        at = {next(c for c, a in enumerate(row) if a): row for row in self.rows}
        return Rows(self.F, [[QQ.one if j == c else -at[j][c] if j in at else QQ.zero
                              for j in range(self.width)]
                             for c in range(self.width) if c not in at], self.width)

    def preimage(self, P: "Rows") -> "Rows":
        """The reduced coefficients a with a·Q in the row space of the
        reduced rows P, for these rows Q: with P's kernel K (see
        :meth:`kernel`), the kernel of the reduced rows of Mᵀ, M = Q K,
        reduced once more.  M is built from P's pivots, not as a product."""
        S = Rows.stack(P, self)
        P_rows, Q_rows = S.rows[:len(P.rows)], S.rows[len(P.rows):]
        lead = [next(j for j, a in enumerate(row) if a) for row in P_rows]
        Mt = []  # (Q K)ᵀ, by rows
        for j in range(self.width):
            if j not in lead:
                K = [(-row[j], p) for row, p in zip(P_rows, lead) if row[j]]
                Mt.append([dot(S.F, [(c, row[p]) for c, p in K], row[j])
                           if K else row[j] for row in Q_rows])
        return Rows(S.F, Mt, len(self.rows)).reduced()[0].kernel().reduced()[0]

    def spans(self, other: "Rows") -> bool:
        """Whether other's rows lie in the row space of these independent
        rows: one rank of the two stacked."""
        return Rows.stack(self, other).rank() == len(self.rows)

    def __matmul__(self, other: "Rows") -> "Rows":
        """The matrix product, in the field of the generators that both
        factors use."""
        S = Rows.stack(self, other)
        A, B = S.rows[:len(self.rows)], S.rows[len(self.rows):]
        return Rows(S.F, [[dot(S.F, zip(row, col)) for col in zip(*B)] for row in A],
                    other.width)

    def _at(self, values: list) -> list:
        """The rows with generator i at the number values[i], as rows of
        ``QQ`` numbers.  Raises PoleAtPoint if an entry has a pole there."""
        def value(x):
            if type(x) is _MPQ:
                return x
            den = _evaluate(x.denom, values)
            if not den:
                raise PoleAtPoint("an entry has a pole at the point")
            return _evaluate(x.numer, values) / den
        return [[value(x) for x in row] for row in self.rows]

    def cleared(self) -> "Rows":
        """Each row multiplied by the lcm of its entries' denominators, so
        that every entry is a polynomial; the span of each row over the
        field is unchanged."""
        F = self.F
        if F is None:
            return self
        rows = []
        for row in self.rows:
            lcm = F.ring.one
            for x in row:
                if type(x) is not _MPQ and x.denom != lcm:
                    lcm = x.denom if lcm == 1 else lcm.lcm(x.denom)
            rows.append(row if lcm == 1 else [
                F.field.dtype(lcm * x if type(x) is _MPQ
                              else x.numer * lcm.exquo(x.denom), F.ring.one)
                for x in row])
        return Rows(F, rows, self.width)

    def derivative(self, v: sp.Symbol) -> "Rows":
        """The entries differentiated by v (see ``_Field.derivation``)."""
        d = self.F.derivation(v) if self.F is not None else None
        return Rows(self.F, [[QQ.zero if d is None or type(x) is _MPQ else _demote(d(x))
                              for x in row] for row in self.rows], self.width)


class Substitution:
    """Symbols replaced by expressions, applied to rows.  The expressions
    are converted once, and so are cos and sin of each angle that holds a
    replaced symbol, on first use; each composed element is cancelled
    once (see ``_Plan.compose``).  Rows whose every generator becomes a
    number are evaluated (``Rows._at``).

    With a field F, the mapping's values are elements of F or ``QQ``
    numbers, already converted: they are moved into the field of the
    generators that they use, and only their expressions are built."""

    def __init__(self, mapping: Mapping, F: _Field | None = None):
        self.exprs = dict(mapping)
        if F is None:
            self.F, values = _convert(self.exprs.values())
        else:
            R = Rows.stack(Rows(F, [list(self.exprs.values())], len(self.exprs)))
            self.F, values = R.F, R.rows[0]
            self.exprs = {s: F.to_expr(x) for s, x in self.exprs.items()}
        self.values = dict(zip(self.exprs, values))
        self._angles: dict = {}
        self._plans: dict = {}

    def _angle(self, a):
        """The field of cos and sin of a with the symbols replaced, and the
        two elements.  Raises PoleAtPoint where the replaced angle has a
        pole."""
        if a not in self._angles:
            b = normalize(a.xreplace(self.exprs))
            if b.has(*_UNDEFINED):
                raise PoleAtPoint(f"the angle {a} has a pole at the point")
            F, (c, s) = _convert([sp.cos(b), sp.sin(b)])
            self._angles[a] = (F, {"c": c, "s": s})
        return self._angles[a]

    def _plan(self, F: _Field) -> _Plan | list:
        """A plan into the image field, or each generator's number."""
        plan = self._plans.get(F)
        if plan is None:
            kept, images = [], []  # images: (index, field, element)
            for i, key in enumerate(F.keys):
                if isinstance(key, tuple) and key[1].free_symbols & self.exprs.keys():
                    H, cs = self._angle(key[1])
                    images.append((i, H, cs[key[0]]))
                elif key in self.exprs:
                    images.append((i, self.F, self.values[key]))
                else:
                    kept.append(key)
            K = _Field.of(kept)
            G = _Field.union([K] + [H for _, H, _ in images])
            if G is None:  # every generator becomes a number
                self._plans[F] = [x for _, _, x in images]
                return self._plans[F]
            targets = [None] * len(F.keys)
            if K is not None:
                keep = G.plan_from(K)
                for key in kept:
                    targets[F.index[key]] = keep.targets[K.index[key]]
            for i, H, x in images:
                targets[i] = x if H is None else G.plan_from(H)(x)
            plan = self._plans[F] = _Plan(G, targets)
        return plan

    def __call__(self, R: Rows) -> Rows:
        if R.F is None:
            return R
        move = self._plan(R.F)
        if type(move) is list:
            return Rows(None, R._at(move), R.width)
        return Rows(move.G, [[move(x) for x in row] for row in R.rows], R.width)


def jacobian_rows(exprs: Sequence, symbols: Sequence[sp.Symbol]) -> Rows:
    """The rows of partial derivatives d exprs[i] / d symbols[j], taken in
    the expressions' field (see ``_Field.derivation``).  A symbol that is
    not a generator gives 0; an expression outside the domain, such as
    exp(x1), raises ExprSyntaxError."""
    F, elements = _convert(exprs)
    ds = [F.derivation(v) if F is not None else None for v in symbols]
    return Rows(F, [[QQ.zero if d is None or type(x) is _MPQ else _demote(d(x))
                     for d in ds] for x in elements], len(symbols))


# --------------------------------------------------------------------------
# solving by elimination

def _gens_of(p) -> set[int]:
    """Indices of the generators that the polynomial p uses."""
    return {i for m in p.itermonoms() for i, e in enumerate(m) if e}


def _linear_split(p, j: int):
    """(a, b) with p = a*g_j + b, if the polynomial p has degree 1 in its
    generator j; None otherwise."""
    a, b = {}, {}
    for monom, coeff in p.iterterms():
        if monom[j] > 1:
            return None
        (a if monom[j] else b)[monom[:j] + (0,) + monom[j + 1:]] = coeff
    return (p.ring(a), p.ring(b)) if a else None


def _linear_candidates(F: _Field, pending: dict, remaining, own: dict, bare: dict,
                       solutions):
    """(equation index, unknown, coefficient, rest, substitution, free) for
    each pending numerator a*u + rest of degree 1 in a remaining unknown u,
    in equation order and then in unknown order.  Where u's sin/cos
    generators occur elsewhere, the substitution maps u's generator to its
    solution -rest/a and the sin/cos generators to those of a bare symbol;
    otherwise it is empty, and the solution is left to the caller to build
    for the step that it takes.  free tells whether the coefficient is free
    of the other remaining unknowns."""
    ring = F.ring
    for i, p in pending.items():
        used = _gens_of(p)
        for u in remaining:
            j = F.index[u]
            split = _linear_split(p, j) if j in used else None
            if split is None:
                continue
            a, b = split
            trig = own[u] - {j}
            if trig & (_gens_of(a) | _gens_of(b)):
                continue  # u is also inside sin/cos of this equation
            values = {}
            elsewhere = [q for k, q in pending.items() if k != i]
            elsewhere += [x for s in solutions for x in (s.numer, s.denom)]
            if trig and any(trig & _gens_of(q) for q in elsewhere):
                sol = F._new(-b, a)
                v = bare.get(sol.numer) if sol.denom == 1 else None
                if v is None:
                    continue  # sin/cos would take an argument that is no symbol
                values[j] = sol
                for t in "cs":
                    values[F.index[(t, u)]] = F._new(ring.gens[F.index[(t, v)]],
                                                     ring.one)
            others = set().union(*(own[w] for w in remaining if w != u))
            yield i, u, a, b, values, not _gens_of(a) & others


def solve_by_elimination(eqs: Iterable, unknowns: Sequence[sp.Symbol]
                         ) -> tuple[_Field, list, tuple]:
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

    Returns the field F of the equations, the steps as (unknown, solution)
    in the order solved, where each solution holds only the equations'
    other symbols and the unknowns solved after it, and the back-substituted
    solutions in `unknowns` order: all elements of F, none turned into an
    expression.
    """
    eqs = [sp.sympify(e) for e in eqs]
    F, elements = _convert(eqs)
    symbols = {key for key in F.keys if not isinstance(key, tuple)}
    if set(F.args) & set(unknowns):
        # every symbol gets sin/cos generators: sin(u) becomes sin(v) when u is solved as v
        F, elements = _convert(eqs + [sp.cos(v) for v in symbols])
    ring = F.ring
    own = {u: {i for i in (F.index.get(u), F.index.get(("c", u)), F.index.get(("s", u)))
               if i is not None} for u in unknowns}
    bare = {ring.gens[F.index[v]]: v for v in symbols - set(unknowns)}
    pending = {i: ring.ground_new(x) if type(x) is _MPQ else x.numer
               for i, x in enumerate(elements[:len(eqs)])}
    remaining = list(unknowns)
    steps = []  # (unknown, substitution)
    while remaining:
        step = None
        for *cand, free in _linear_candidates(F, pending, remaining, own, bare,
                                              [v[F.index[u]] for u, v in steps]):
            if step is None or free:
                step = cand
            if free:
                break
        if step is None:
            raise InversionFailed(
                f"no equation is linear in {', '.join(map(str, remaining))}; "
                f"unsolved: {', '.join(f'{eqs[i]} = 0' for i in pending)}")
        i, u, a, b, values = step
        values = values or {F.index[u]: F._new(-b, a)}
        F.check_nonzero(F._new(a, ring.one))  # as for an rref pivot
        del pending[i]
        remaining.remove(u)
        steps.append((u, values))
        for k, q in pending.items():
            if _gens_of(q) & set(values):
                pending[k] = F.substitute(F._new(q, ring.one), values).numer
    solved, later = {}, {}
    for u, values in reversed(steps):
        try:
            solved[u] = F.substitute(values[F.index[u]], later)
        except InternalInconsistency:
            raise InversionFailed(f"the solution for {u} divides by zero") from None
        later.update(values)
        later[F.index[u]] = solved[u]
    return F, [(u, v[F.index[u]]) for u, v in steps], tuple(solved[u] for u in unknowns)


# --------------------------------------------------------------------------
# parsing

def _power(base: Expr, exp: Expr) -> Expr:
    """base**exp; ValueError, before it is computed, for a power of numbers
    that would print in more than 4300 digits, Python's limit."""
    if (base.is_Rational and exp.is_Rational and abs(base) not in (0, 1)
            and abs(exp) * math.log10(max(abs(base.p), base.q)) >= 4300):
        shown = base if base.is_Integer and base > 0 else f"({base})"
        raise ValueError(f"{shown}^{exp} has more than 4300 digits")
    return base**exp


# the least integer that prints in more than 4300 digits, Python's limit:
# no number that the walk builds may reach it
_DIGITS_LIMIT = 10**4300
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv, ast.Pow: _power}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_FUNCTIONS = {"sin": sp.sin, "cos": sp.cos}


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


def _build(node: ast.AST, syms: Mapping[str, sp.Symbol], text: str) -> Expr:
    """The sympy expression of one node of the fragment's syntax tree, built
    by the operators that evaluating the text would apply, in that order.
    An undeclared name becomes a symbol for :func:`_validate_tree` to
    refuse; ``sin`` and ``cos`` are functions even where a symbol has their
    name, and are refused where they are not called."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        # a long sum or product nests to the left: fold it without recursion
        spine = []
        while isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            spine.append(node)
            node = node.left
        e = _build(node, syms, text)
        for b in reversed(spine):
            e = _BINARY[type(b.op)](e, _build(b.right, syms, text))
            if e.is_Rational and max(abs(e.p), e.q) >= _DIGITS_LIMIT:
                shown = ast.unparse(b).replace(" ", "").replace("**", "^")
                raise ValueError(f"{shown} has more than 4300 digits")
        return e
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_build(node.operand, syms, text))
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return sp.Integer(node.value)
    if isinstance(node, ast.Constant) and type(node.value) is float:
        raise ExprSyntaxError(f"floating point literals are not supported in {text!r}")
    if isinstance(node, ast.Name) and node.id not in _FUNCTIONS:
        return syms[node.id] if node.id in syms else sp.Symbol(node.id)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS and len(node.args) == 1
            and not node.keywords and not isinstance(node.args[0], ast.Starred)):
        return _FUNCTIONS[node.func.id](_build(node.args[0], syms, text))
    raise ExprSyntaxError(f"unsupported construct {ast.unparse(node)} in {text!r}")


def parse_expr(text: str, symbols: Iterable) -> Expr:
    """Parse an expression string over the declared symbols.

    Grammar: identifiers, integer and p/q literals, + - * / with
    conventional precedence, ^ or ** for powers, unary + and -,
    parentheses, sin(.)/cos(.) of a single symbol.  The text is read as a
    Python expression and built node by node; nothing in it is evaluated.
    ``^`` becomes ``**`` before Python reads it, where it would be XOR and
    bind more loosely than ``+``.  Identifiers must be in NFKC form, since
    Python would read ``x１`` as ``x1``.  A power of numbers that would have
    more than 4300 digits is refused before it is computed, and any other
    number of more than 4300 digits as soon as it is built.
    """
    syms = {s.name: s for s in symbols}
    if not unicodedata.is_normalized("NFKC", text):
        raise ExprSyntaxError(f"cannot parse {text!r}: not in NFKC normal form")
    # Python's parser raises MemoryError where its stack overflows, and an
    # int of over 4300 digits raises ValueError, in the text or in a power
    try:
        tree = ast.parse(text.strip().replace("^", "**"), "<string>", "eval")
        e = _build(tree.body, syms, text)
    except (MemoryError, RecursionError, SyntaxError, ValueError) as exc:
        raise ExprSyntaxError(f"cannot parse {text!r}: {exc}") from exc
    _validate_tree(e, set(syms.values()), text)
    return e


def render(e) -> str:
    """Deterministic text rendering of an expression."""
    return sp.sstr(sp.sympify(e), order="lex")
