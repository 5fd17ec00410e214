"""Exterior differential calculus and codistribution algebra.

Forms, vector fields, Lie derivatives, annihilators, intersections,
integrability, invariant extensions and Cauchy characteristics,
all over the exact expression field of :mod:`fwdflat.symcore`.

Codistributions (row spaces of 1-forms) and distributions (row spaces of
vector fields) share one class, which holds the exact rows of the span
(:class:`fwdflat.symcore.Rows`) in reduced row echelon form and builds
sympy forms only when its basis is read.  Spans, membership and equality
(one rank each), pullbacks, annihilators (``Rows.kernel``), intersections
(``Rows.preimage``, the one intersection algorithm) and the integrability
test (the Frobenius condition on the fields of that kernel,
:func:`integrable_rows`) all run on those rows.  So does the calculus:
every derivative is taken by ``symcore.jacobian_rows`` or
``Rows.derivative``, the Lie derivative of 1-forms by
:func:`lie_derivative_rows`, and every invariant extension, the
sequence's included, by one :func:`closure`.  Forms and fields are
sympy coefficients, converted to rows and back once per operation.
Coordinates are plain ``sympy.Symbol`` objects.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Sequence

import sympy as sp
from sympy.polys.domains import QQ

from . import symcore
from .errors import ExprSyntaxError, InternalInconsistency
from .symcore import Expr, Rows, Substitution, is_zero, normalize


@dataclass(frozen=True)
class Chart:
    """Ordered local coordinates of the manifold forms and fields live on."""

    symbols: tuple[sp.Symbol, ...]

    def __post_init__(self):
        names = [s.name for s in self.symbols]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate coordinate names in chart: {names}")

    @property
    def dim(self) -> int:
        return len(self.symbols)


def _check_same_chart(a, b) -> None:
    if a.chart != b.chart:
        raise ValueError("objects live on different charts")


@dataclass(frozen=True)
class _Coefficients:
    """Coefficients on a chart, in chart order."""

    chart: Chart
    coeffs: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.chart.dim:
            raise ValueError("coefficient count does not match chart dimension")
        object.__setattr__(self, "coeffs", tuple(sp.sympify(c) for c in self.coeffs))


class OneForm(_Coefficients):
    """sum_i coeffs[i] dx^i."""

    def is_zero_form(self) -> bool:
        return all(is_zero(c) for c in self.coeffs)


class VectorField(_Coefficients):
    """sum_i coeffs[i] d/dx^i."""

    def is_zero_field(self) -> bool:
        return all(is_zero(c) for c in self.coeffs)


@dataclass(frozen=True)
class KForm:
    """Sparse k-form: strictly increasing index tuples mapped to coefficients."""

    chart: Chart
    degree: int
    terms: dict

    def __post_init__(self):
        clean = {}
        for idx, c in self.terms.items():
            idx = tuple(idx)
            if len(idx) != self.degree or list(idx) != sorted(set(idx)):
                raise ValueError(f"bad index tuple {idx} for degree {self.degree}")
            if c != 0 and (c := normalize(c)) != 0:
                clean[idx] = c
        object.__setattr__(self, "terms", clean)

    def is_zero_form(self) -> bool:
        return all(is_zero(c) for c in self.terms.values())


def basis_oneform(chart: Chart, i: int) -> OneForm:
    coeffs = [sp.Integer(0)] * chart.dim
    coeffs[i] = sp.Integer(1)
    return OneForm(chart, tuple(coeffs))


def basis_vectorfield(chart: Chart, i: int) -> VectorField:
    comps = [sp.Integer(0)] * chart.dim
    comps[i] = sp.Integer(1)
    return VectorField(chart, tuple(comps))


# --------------------------------------------------------------------------
# basic operations

def exterior_derivative(obj, chart: Chart | None = None):
    """d of a scalar (-> OneForm) or of a OneForm (-> 2-form)."""
    if isinstance(obj, OneForm):
        ch = obj.chart
        J = symcore.jacobian_rows(obj.coeffs, ch.symbols)
        d = J.to_expr
        return KForm(ch, 2, {(i, j): d(J.rows[j][i]) - d(J.rows[i][j])
                             for i, j in itertools.combinations(range(ch.dim), 2)})
    if chart is None:
        raise ValueError("a chart is required to differentiate a scalar")
    J = symcore.jacobian_rows([obj], chart.symbols)
    return OneForm(chart, tuple(normalize(J.to_expr(d)) for d in J.rows[0]))


def contract(v: VectorField, alpha):
    """Interior product; for 1-forms it returns a scalar."""
    _check_same_chart(v, alpha)
    if isinstance(alpha, OneForm):
        return normalize(sum(vi * ci for vi, ci in zip(v.coeffs, alpha.coeffs)))
    terms: dict = {}
    for idx, c in alpha.terms.items():
        for pos, i in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            sign = (-1) ** pos
            terms[rest] = terms.get(rest, 0) + sign * v.coeffs[i] * c
    out = KForm(alpha.chart, alpha.degree - 1, terms)
    if out.degree == 1:
        coeffs = [sp.Integer(0)] * alpha.chart.dim
        for (i,), c in out.terms.items():
            coeffs[i] = c
        return OneForm(alpha.chart, tuple(coeffs))
    return out


def lie_derivative_rows(v: Rows, W: Rows, symbols: Sequence[sp.Symbol]) -> Rows:
    """L_v ω = Σ_k v_k ∂_k ω + ω·J_v for the one field row v and each 1-form
    row ω of W, with columns along ``symbols``, in the field of both."""
    S = Rows.stack(v, W)
    field, forms = S.rows[0], S.rows[1:]
    D = [S.derivative(x).rows for x in symbols]  # D[k][r]: row r by x_k
    reduce = S.F.reduce if S.F is not None else (lambda a: a)

    def entry(r, i):
        terms = itertools.chain(zip(field, (Dk[r + 1][i] for Dk in D)),
                                zip(forms[r], D[i][0]))
        return reduce(sum((a * b for a, b in terms if a and b), QQ.zero))

    return Rows(S.F, [[entry(r, i) for i in range(S.width)] for r in range(len(forms))],
                S.width)


def lie_derivative_form(v: VectorField, w: OneForm) -> OneForm:
    """L_v w (see :func:`lie_derivative_rows`)."""
    _check_same_chart(v, w)
    R = lie_derivative_rows(Rows.of([v.coeffs]), Rows.of([w.coeffs]), v.chart.symbols)
    return OneForm(v.chart, tuple(R.to_expr(c) for c in R.rows[0]))


def add_oneforms(a: OneForm, b: OneForm) -> OneForm:
    _check_same_chart(a, b)
    return OneForm(a.chart, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def sub_oneforms(a: OneForm, b: OneForm) -> OneForm:
    _check_same_chart(a, b)
    return OneForm(a.chart, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


def lie_bracket(v: VectorField, w: VectorField) -> VectorField:
    _check_same_chart(v, w)
    ch = v.chart
    n = ch.dim
    J = symcore.jacobian_rows(v.coeffs + w.coeffs, ch.symbols)  # rows of v, then of w
    d = J.to_expr
    return VectorField(ch, tuple(
        normalize(sum(v.coeffs[k] * d(J.rows[n + i][k]) - w.coeffs[k] * d(J.rows[i][k])
                      for k in range(n)))
        for i in range(n)))


# --------------------------------------------------------------------------
# codistributions and distributions (canonical rref storage)

@dataclass(frozen=True, eq=False)
class Codistribution:
    """Row space of 1-forms on a chart, held as its rows in reduced row
    echelon form, which are canonical.  ``rows`` must be in that form, as
    ``Rows.reduced`` returns it; :meth:`span` builds it from elements.

    This class holds the only implementation of the row-space methods;
    :class:`Distribution` reuses them for vector fields.  ``==`` is
    :meth:`equals`, so neither it nor the hash builds the basis.
    """

    element: ClassVar[type] = OneForm
    chart: Chart
    rows: Rows

    def __post_init__(self):
        R = self.rows
        pivots = [next((c for c, a in enumerate(row) if a), None) for row in R.rows]
        if (R.width != self.chart.dim or None in pivots or pivots != sorted(set(pivots))
                or any(row[p] != (1 if r == i else 0)
                       for i, p in enumerate(pivots) for r, row in enumerate(R.rows))):
            raise InternalInconsistency("rows of a row space must be in reduced row echelon form")

    @classmethod
    def span(cls, chart: Chart, elements: Iterable) -> "Codistribution":
        elements = list(elements)
        for e in elements:
            if e.chart != chart:
                raise ValueError(f"{cls.element.__name__} chart mismatch")
            if not isinstance(e, cls.element):
                raise TypeError(f"expected a {cls.element.__name__}, got {e!r}")
        M = sp.Matrix(len(elements), chart.dim, [c for e in elements for c in e.coeffs])
        return cls(chart, Rows.of(M).reduced()[0])

    @functools.cached_property
    def basis(self) -> tuple:
        """The canonical basis, one element per row, built on first use."""
        R = self.rows
        return tuple(self.element(self.chart, tuple(R.to_expr(c) for c in row))
                     for row in R.rows)

    @property
    def dim(self) -> int:
        return len(self.rows.rows)

    def contains(self, *elements) -> bool:
        """Whether every element lies in the span: one rank of the rows
        stacked over the elements."""
        for w in elements:
            _check_same_chart(self, w)
            if not isinstance(w, self.element):
                raise TypeError(f"expected a {self.element.__name__}, got {w!r}")
        return self.rows.spans(Rows.of([w.coeffs for w in elements]))

    def equals(self, other: "Codistribution") -> bool:
        return (type(other) is type(self) and self.chart == other.chart
                and self.dim == other.dim and self.rows.spans(other.rows))

    __eq__ = equals

    def __hash__(self) -> int:
        return hash((type(self), self.chart, self.dim))


class Distribution(Codistribution):
    """Row space of vector fields, stored like a codistribution."""

    element = VectorField


def pullback(old_in_new: Sequence[Expr],
             chart: Chart) -> Callable[[Codistribution], Codistribution]:
    """The map that rewrites a codistribution P through a change of
    coordinates, where ``old_in_new`` gives the leading coordinates of P's
    chart as expressions on ``chart``: the leading columns of P's rows
    composed with the map, times its Jacobian.  P's other coordinates are
    dropped; a nonzero component along them raises InternalInconsistency.
    The map and its Jacobian are converted once, for the first nonzero P."""
    k = len(old_in_new)

    @functools.cache
    def converted(source: Chart) -> tuple[Substitution, Rows]:
        return (Substitution(zip(source.symbols, old_in_new)),
                symcore.jacobian_rows(old_in_new, chart.symbols))

    def pull(P: Codistribution) -> Codistribution:
        R = P.rows
        if any(c for row in R.rows for c in row[k:]):
            raise InternalInconsistency("form has components along coordinates the map drops")
        if not R.rows:
            return Codistribution(chart, Rows(None, [], chart.dim))
        compose, J = converted(P.chart)
        A = compose(Rows(R.F, [row[:k] for row in R.rows], k))
        return Codistribution(chart, (A @ J).reduced()[0])

    return pull


def annihilator(S: Codistribution) -> Codistribution:
    """The annihilator of a codistribution (a distribution) or of a
    distribution (a codistribution): the kernel of its rows, reduced."""
    dual = Codistribution if isinstance(S, Distribution) else Distribution
    return dual(S.chart, S.rows.kernel().reduced()[0])


def intersect(P: Codistribution, Q: Codistribution) -> Codistribution:
    """P and Q as row spaces: the combinations a·Q that lie in P (see
    ``Rows.preimage``), reduced; both must be of one type, which is the
    result's."""
    _check_same_chart(P, Q)
    if type(P) is not type(Q):
        raise TypeError(f"cannot intersect a {type(P).__name__} with a {type(Q).__name__}")
    return type(P)(P.chart, (Q.rows.preimage(P.rows) @ Q.rows).reduced()[0])


def integrable_rows(R: Rows, symbols: Sequence[sp.Symbol]) -> bool:
    """Whether the span of rows in reduced row echelon form, with columns
    along ``symbols``, is integrable.

    Its annihilator is spanned by the fields v_j of the rows' kernel (see
    ``Rows.kernel``), each ∂_j plus pivot components, whose brackets have
    only pivot components, so they lie in it only if they vanish: by
    Frobenius, the span is integrable iff v_j(v_l) = v_l(v_j) for every
    pair j < l, component by component, each decided exactly.
    """
    if R.F is None:
        return True
    K = R.kernel()
    reduce = K.F.reduce
    D = [K.derivative(x).rows for x in symbols]  # D[k][j]: v_j by x_k

    def along(j, l, c):
        """v_j of the c-th component of v_l."""
        return sum((a * D[k][l][c] for k, a in enumerate(K.rows[j]) if a and D[k][l][c]),
                   QQ.zero)

    return not any(reduce(along(j, l, c) - along(l, j, c))
                   for j, l in itertools.combinations(range(len(K.rows)), 2)
                   for c in range(K.width))


def is_integrable(P: Codistribution) -> bool:
    """Whether P is integrable (see :func:`integrable_rows`)."""
    return integrable_rows(P.rows, P.chart.symbols)


def closure(Q: Rows, maps: Sequence[Callable[[Rows], Rows]]) -> Rows:
    """Smallest extension of the rows Q, in reduced row echelon form, whose
    span holds the images of its rows under each map: Q stacked with its
    images and reduced, until the rank stops growing.  It grows every round,
    so at most Q.width rounds run."""
    while True:
        extended, pivots = Rows.stack(Q, *(image(Q) for image in maps)).reduced()
        if len(pivots) == len(Q.rows):
            return Q
        Q = extended


def invariant_extension(P: Codistribution, D: Distribution) -> Codistribution:
    """Smallest codistribution containing P that is invariant w.r.t. D: the
    closure of P's rows under the Lie derivatives along D's rows."""
    _check_same_chart(P, D)
    if isinstance(P, Distribution) or not isinstance(D, Distribution):
        raise TypeError("invariant_extension takes a Codistribution and a Distribution")
    fields = [Rows(D.rows.F, [row], D.rows.width) for row in D.rows.rows]
    return Codistribution(P.chart, closure(P.rows, [
        functools.partial(lie_derivative_rows, v, symbols=P.chart.symbols)
        for v in fields]))


def is_cauchy_characteristic(v: VectorField, P: Codistribution) -> bool:
    """v _| P = 0 and v _| dP contained in P."""
    _check_same_chart(v, P)
    if not all(is_zero(contract(v, w)) for w in P.basis):
        return False
    return P.contains(*(contract(v, exterior_derivative(w)) for w in P.basis))


# --------------------------------------------------------------------------
# text rendering and fixture parsing

def render_oneform(w: OneForm) -> str:
    """Linear combination of d<coord> terms in chart order, e.g.
    ``(u1 - u2)*dx1 + x1*dx2``."""
    parts = []
    for s, c in zip(w.chart.symbols, w.coeffs):
        if c == 0 or (c := normalize(c)) == 0:
            continue
        if c == 1:
            parts.append(f"d{s.name}")
        elif c == -1:
            parts.append(f"-d{s.name}")
        else:
            text = symcore.render(c)
            if isinstance(c, sp.Add) or "/" in text:
                text = f"({text})"
            parts.append(f"{text}*d{s.name}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def parse_oneform(text: str, chart: Chart) -> OneForm:
    """Parse the rendering syntax back into a OneForm on the chart."""
    dsyms = {f"d{s.name}": sp.Symbol(f"d{s.name}") for s in chart.symbols}
    allowed = list(chart.symbols) + list(dsyms.values())
    e = symcore.parse_expr(text, allowed)
    e = sp.expand(e)
    coeffs = []
    for s in chart.symbols:
        d = dsyms[f"d{s.name}"]
        coeffs.append(normalize(e.coeff(d)))
    rebuilt = sum(c * dsyms[f"d{s.name}"] for s, c in zip(chart.symbols, coeffs))
    if not is_zero(sp.together(e - rebuilt)):
        raise ExprSyntaxError(f"not linear in the differentials: {text!r}")
    for c in coeffs:
        if any(str(f).startswith("d") and f in dsyms.values()
               for f in sp.sympify(c).free_symbols):
            raise ExprSyntaxError(f"coefficients must not contain differentials: {text!r}")
    return OneForm(chart, tuple(coeffs))
