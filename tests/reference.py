"""Test-side references that the package no longer needs.

The sympy-matrix wrappers of the row kernel (``rref``, ``rank``,
``rank_at``, ``nullspace``), each converting once into ``symcore.Rows`` and
once back, the Frobenius wedge criterion that ``is_integrable`` used
before it decided on rows (``wedge_all``, ``wedge_is_integrable``), and the
``pullback`` of sympy forms that the row pullback replaced.
"""

import sympy as sp

from fwdflat import symcore
from fwdflat.errors import InternalInconsistency
from fwdflat.extcalc import (
    Codistribution,
    KForm,
    OneForm,
    exterior_derivative,
    oneform_to_kform,
    wedge,
)
from fwdflat.symcore import is_zero


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
    """Exact rank of M at a rational point (see ``Rows.rank_at``)."""
    return symcore.Rows.of(M).rank_at(point)


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
    J = symcore.jacobian(old_in_new, chart.symbols).tolist()

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
