"""Test-side references that the package no longer needs.

The sympy-matrix wrappers of the row kernel (``rref``, ``rank``,
``rank_at``, ``nullspace``), each converting once into ``symcore.Rows`` and
once back, with ``numeric_rank``, the truth for ``rank_at``, the Frobenius wedge criterion that ``is_integrable`` used
before it decided on rows (``wedge``, ``oneform_to_kform``, ``wedge_all``,
``wedge_is_integrable``), the ``pullback`` of sympy forms that the row
pullback replaced, and the sympy form calculus that the row calculus
replaced (``exterior_derivative``, ``lie_derivative_form``,
``lie_bracket``, ``invariant_extension``), and the intersection with
span{df} by one elimination of ``[[P, 0], [J_f, I_n]]``
(``intersect_df``), which the kernel route of ``flatness._intersect_df``
replaced, and the intersection of two row spaces by the annihilator of the
sum of their annihilators (``intersect``, with ``annihilator``), which
``Rows.preimage`` replaced in ``extcalc.intersect``.  Every derivative
here is taken by ``sp.diff``, never by the row kernel, and every kernel by
``nullspace``, never by ``Rows.kernel``, so a comparison with the package
is not circular.  The wrappers themselves run on ``Rows``: the elimination
that is independent of it is ``oracle_rref``, over sympy expressions
normalized by ``reference_normalize``, the canonical form of the package
before its exact domain.  ``reference_parse_expr`` is the expression parser
of the package before it built the tree from Python's ``ast``: sympy's
parser, which evaluates the text.
"""

import itertools

import sympy as sp
from sympy.parsing.sympy_parser import (
    convert_xor,
    parse_expr,
    standard_transformations,
)
from sympy.polys.domains import QQ

from fwdflat import dtsys, symcore
from fwdflat.errors import ExprSyntaxError, InternalInconsistency
from fwdflat.extcalc import (
    Codistribution,
    Distribution,
    KForm,
    OneForm,
    VectorField,
)
from fwdflat.symcore import is_zero, normalize


def reference_reduce_cos_powers(poly):
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


def reference_parse_expr(text, symbols):
    """``symcore.parse_expr`` as sympy's parser did it: the text is turned
    into Python code and evaluated, so call this only on generated, trusted
    text.  The result is checked by ``symcore._validate_tree``."""
    syms = {s.name: s for s in symbols}
    local = dict(syms, sin=sp.sin, cos=sp.cos)
    try:
        e = parse_expr(text, local_dict=local, evaluate=True,
                       transformations=standard_transformations + (convert_xor,))
    except Exception as exc:
        raise ExprSyntaxError(f"cannot parse {text!r}: {exc}") from exc
    if not isinstance(e, sp.Expr):
        raise ExprSyntaxError(f"not an expression: {text!r}")
    symcore._validate_tree(e, set(syms.values()), text)
    return e


def reference_normalize(e):
    """The Expr-level canonical form that symcore.normalize computed before
    it converted through the exact domain: a ratio of expanded polynomials
    in the symbols and in sin(a), cos(a), with cos-degrees reduced below 2
    and the gcd cancelled."""
    e = sp.cancel(sp.together(sp.sympify(e)))
    num, den = e.as_numer_denom()
    num = reference_reduce_cos_powers(sp.expand(num))
    den = reference_reduce_cos_powers(sp.expand(den))
    return sp.cancel(num / den)


def reference_is_zero(e) -> bool:
    """Whether e is the zero function, by ``reference_normalize`` after
    ``sp.expand_trig``."""
    return reference_normalize(sp.expand_trig(e)) == 0


def oracle_rref(M):
    """Elimination over sympy expressions that normalizes every entry at
    every pivot by reference_normalize, as the row kernel eliminated before
    it moved into one exact domain: the reduced rows, padded with zero rows
    to M's shape, and the pivot columns.  Multiple angles are first
    expanded by ``sp.expand_trig``, so that with every entry normalized, an
    entry is the zero function iff it is literally 0.  It never reaches
    ``symcore.Rows``, so it is the truth for the kernel's ranks and reduced
    rows, where ``rref``, ``rank`` and ``rank_at`` are not (compare entries
    with ``reference_is_zero``)."""
    M = sp.Matrix(M).applyfunc(lambda e: reference_normalize(sp.expand_trig(e)))
    rows, cols = M.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if M[i, c] != 0), None)
        if pr is None:
            continue
        M.row_swap(pr, r)
        piv = M[r, c]
        for j in range(cols):
            M[r, j] = reference_normalize(M[r, j] / piv)
        for i in range(rows):
            factor = M[i, c]
            if i == r or factor == 0:
                continue
            for j in range(cols):
                M[i, j] = reference_normalize(M[i, j] - factor * M[r, j])
        pivots.append(c)
        r += 1
    return M, tuple(pivots)


def rref(M):
    """Reduced row echelon form over the expression field, by
    ``Rows.reduced``, padded with zero rows to M's shape."""
    M = sp.Matrix(M)
    R, pivots = symcore.Rows.of(M).reduced()
    return (R.to_matrix().col_join(sp.zeros(M.rows - len(pivots), M.cols)),
            tuple(pivots))


def rank(M) -> int:
    """Rank over the expression field: the pivot count of rref's
    elimination."""
    return symcore.Rows.of(M).rank()


def rank_at(M, point):
    """Exact rank of M at a rational point that binds each of its symbols,
    by the route of the package's equilibrium checks
    (``dtsys._rank_at_point``: rows cleared, the point substituted,
    ``Rows.rank``), with M's rank for rows of numbers; None where an angle
    of M has a pole there."""
    R = symcore.Rows.of(M)
    return dtsys._rank_at_point(R, R.rank(), lambda: symcore.Substitution(point))


def numeric_rank(M, point) -> int:
    """Sympy's rank of M with the point substituted, on its entries
    evaluated to 50 digits, where an entry below 1e-30 is zero: the truth
    for ``rank_at`` at a point where M has no pole, sin and cos at nonzero
    angles included, and independent of the exact domain."""
    N = sp.Matrix(M).xreplace(point).evalf(50)
    return N.rank(iszerofunc=lambda e: abs(e) < 1e-30)


def nullspace(M):
    """Basis of the right kernel over the expression field."""
    R, pivots = rref(M)
    cols = R.cols
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = sp.zeros(cols, 1)
        v[fc, 0] = sp.Integer(1)
        for r, pc in enumerate(pivots):
            v[pc, 0] = -R[r, fc]
        basis.append(v)
    return basis


def annihilator(S):
    """The annihilator of a codistribution (a distribution) or of a
    distribution (a codistribution), spanned by ``nullspace`` of its rows."""
    dual = Codistribution if isinstance(S, Distribution) else Distribution
    return dual.span(S.chart, [dual.element(S.chart, tuple(v))
                               for v in nullspace(S.rows.to_matrix())])


def intersect(P, Q):
    """P and Q as row spaces, by the annihilator of the sum of their
    annihilators: three kernels, each by ``nullspace``."""
    dp, dq = annihilator(P), annihilator(Q)
    return annihilator(type(dp).span(P.chart, dp.basis + dq.basis))


def jacobian(exprs, symbols) -> sp.Matrix:
    """The sympy matrix of the partial derivatives, each by ``sp.diff``."""
    return sp.Matrix(len(exprs), len(symbols),
                     [sp.diff(e, s) for e in exprs for s in symbols])


def exterior_derivative(obj, chart=None):
    """d of a scalar on the chart (-> OneForm) or of a OneForm (-> 2-form)."""
    if isinstance(obj, OneForm):
        ch = obj.chart
        J = jacobian(obj.coeffs, ch.symbols)
        return KForm(ch, 2, {(i, j): J[j, i] - J[i, j]
                             for i, j in itertools.combinations(range(ch.dim), 2)})
    return OneForm(chart, tuple(normalize(d) for d in jacobian([obj], chart.symbols)))


def lie_derivative_form(v, w) -> OneForm:
    """L_v w by the coefficient formula (v^k d_k w_i) dx^i + w_i dv^i."""
    n = v.chart.dim
    J = jacobian(v.coeffs + w.coeffs, v.chart.symbols)  # rows of v, then of w
    return OneForm(v.chart, tuple(
        normalize(sum(v.coeffs[k] * J[n + i, k] + w.coeffs[k] * J[k, i] for k in range(n)))
        for i in range(n)))


def lie_bracket(v, w) -> VectorField:
    """[v, w]^i = v^k d_k w^i - w^k d_k v^i."""
    n = v.chart.dim
    J = jacobian(v.coeffs + w.coeffs, v.chart.symbols)  # rows of v, then of w
    return VectorField(v.chart, tuple(
        normalize(sum(v.coeffs[k] * J[n + i, k] - w.coeffs[k] * J[i, k] for k in range(n)))
        for i in range(n)))


def invariant_extension(P, D) -> Codistribution:
    """Smallest codistribution containing P that is invariant w.r.t. D, on
    sympy forms: each round adjoins the Lie derivatives of the current
    canonical basis along D's, until the dimension stops growing."""
    current = P
    while True:
        derived = [lie_derivative_form(v, w) for v in D.basis for w in current.basis]
        extended = Codistribution.span(P.chart, list(current.basis) + derived)
        if extended.dim == current.dim:
            return current
        current = extended


def oneform_to_kform(w: OneForm) -> KForm:
    return KForm(w.chart, 1, {(i,): c for i, c in enumerate(w.coeffs)})


def wedge(a, b) -> KForm:
    """Antisymmetric product; the result is the zero form above top degree."""
    if isinstance(a, OneForm):
        a = oneform_to_kform(a)
    if isinstance(b, OneForm):
        b = oneform_to_kform(b)
    if a.chart != b.chart:
        raise ValueError("objects live on different charts")
    deg = a.degree + b.degree
    terms: dict = {}
    if deg > a.chart.dim:
        return KForm(a.chart, deg, {})
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            if set(ia) & set(ib):
                continue
            merged = ia + ib
            order = sorted(range(len(merged)), key=lambda k: merged[k])
            # parity of the permutation sorting the concatenated indices
            sign, seen = 1, list(order)
            for start in range(len(seen)):
                while seen[start] != start:
                    tgt = seen[start]
                    seen[start], seen[tgt] = seen[tgt], seen[start]
                    sign = -sign
            key = tuple(sorted(merged))
            terms[key] = terms.get(key, 0) + sign * ca * cb
    return KForm(a.chart, deg, terms)


def wedge_all(forms) -> KForm:
    """Fold the wedge product over a nonempty sequence of forms."""
    forms = list(forms)
    out = forms[0] if isinstance(forms[0], KForm) else oneform_to_kform(forms[0])
    for f in forms[1:]:
        out = wedge(out, f)
    return out


def wedge_is_integrable(P) -> bool:
    """Frobenius wedge criterion dw^i ^ w^1 ^ ... ^ w^p = 0 for every i, on
    the sympy forms of P's basis."""
    if P.dim == 0:
        return True
    dws = [exterior_derivative(w) for w in P.basis]
    if all(dw.is_zero_form() for dw in dws):
        return True
    top = wedge_all(list(P.basis))
    return all(wedge(dw, top).is_zero_form() for dw in dws)


def pullback(old_in_new, chart):
    """The map that rewrites sympy 1-forms through a change of coordinates:
    ``old_in_new`` gives the leading coordinates of the forms' chart as
    expressions on ``chart``; each coefficient goes through the map by
    ``xreplace`` and each differential through the map's sympy Jacobian.
    The returned function takes forms and returns the span of their
    pullbacks; a form with a nonzero component along a dropped coordinate
    raises InternalInconsistency."""
    J = jacobian(old_in_new, chart.symbols).tolist()

    def apply(forms):
        pulled = []
        for w in forms:
            if any(c != 0 and not is_zero(c) for c in w.coeffs[len(J):]):
                raise InternalInconsistency(
                    "form has components along coordinates the map drops")
            subs = dict(zip(w.chart.symbols, old_in_new))
            coeffs = [sp.Integer(0)] * chart.dim
            for c_old, dF in zip(w.coeffs, J):
                if c_old == 0:
                    continue
                c_new = c_old.xreplace(subs)
                for a, d in enumerate(dF):
                    if d != 0:
                        coeffs[a] += c_new * d
            pulled.append(OneForm(chart, tuple(coeffs)))
        return Codistribution.span(chart, pulled)

    return apply


def intersect_df(P, J, ac):
    """P ∩ span{df} in the adapted chart ac, for the reduced rows P on the
    (x, u) chart and J = J_f, by one elimination: in the reduced
    ``[[P, 0], [J_f, I_n]]`` the rows with a pivot in the right block read
    ``[0, a]`` with a·df ∈ P, and their right blocks are in reduced row
    echelon form.  Their coefficients pass through ``ac.to_adapted``
    unless the elimination's rows are all QQ numbers."""
    n, N = len(J.rows), J.width
    zeros = [QQ.zero] * n
    unit = [[QQ.one if i == j else QQ.zero for j in range(n)] for i in range(n)]
    R, pivots = symcore.Rows.stack(
        symcore.Rows(P.F, [row + zeros for row in P.rows], N + n),
        symcore.Rows(J.F, [row + e for row, e in zip(J.rows, unit)], N + n)).reduced()
    A = symcore.Rows(R.F, [row[N:] for row, c in zip(R.rows, pivots) if c >= N], n)
    if A.F is not None:
        A = ac.to_adapted(A)
    zeros = [QQ.zero] * (N - n)
    return symcore.Rows(A.F, [row + zeros for row in A.rows], N)
