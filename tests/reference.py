"""Test-side references that the package no longer needs.

The sympy-matrix wrappers of the row kernel (``rref``, ``rank``,
``rank_at``, ``nullspace``), each converting once into ``symcore.Rows`` and
once back, and the Frobenius wedge criterion that ``is_integrable`` used
before it decided on rows (``wedge_all``, ``wedge_is_integrable``).
"""

import sympy as sp

from fwdflat import symcore
from fwdflat.extcalc import KForm, exterior_derivative, oneform_to_kform, wedge


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
