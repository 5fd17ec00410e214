import random
import re
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st
from sympy.polys.domains import QQ

from conftest import FIXTURES
from fwdflat import symcore
from fwdflat.errors import ExprSyntaxError, InternalInconsistency, PoleAtPoint
from fwdflat.symcore import is_zero, normalize, parse_expr, render
from fwdflat.sysfile import _collect
from reference import (
    nullspace,
    numeric_rank,
    oracle_rref,
    rank,
    rank_at,
    reference_is_zero,
    reference_normalize,
    reference_parse_expr,
    rref,
)

x1, x2, x3 = sp.symbols("x1 x2 x3")
u1, u2 = sp.symbols("u1 u2")


# --------------------------------------------------------------------------
# references

def evaluate(e, point):
    """Exact rational value of e at a rational point: the oracle of
    test_normalize_evaluate_consistency.

    sin/cos are evaluated only when their argument symbol is bound to 0
    (sin -> 0, cos -> 1); anything else raises ValueError.
    """
    e = sp.sympify(e)
    repl = {k: sp.Rational(v) for k, v in point.items()}
    trig = {}
    for t in e.atoms(sp.sin, sp.cos):
        a = t.args[0]
        if repl.get(a, None) != 0:
            raise ValueError(f"{t} cannot be evaluated exactly at {a} = {repl.get(a)}")
        trig[t] = sp.Integer(0) if isinstance(t, sp.sin) else sp.Integer(1)
    e = e.xreplace(trig)
    missing = e.free_symbols - set(repl)
    if missing:
        raise ValueError(f"unbound symbols at evaluation point: {missing}")
    v = sp.cancel(e.xreplace(repl))
    if v.has(sp.zoo, sp.nan, sp.oo):
        raise PoleAtPoint(f"pole while evaluating {e}")
    return sp.Rational(v)


def jacobian(exprs, symbols):
    """The sympy matrix of symcore.jacobian_rows."""
    return symcore.jacobian_rows(exprs, symbols).to_matrix()


def diff(e, s):
    """The partial derivative de/ds, taken by symcore.jacobian_rows."""
    return normalize(jacobian([e], [s])[0, 0])


class TestNormalize:
    def test_pythagorean_relation(self):
        assert normalize(sp.sin(x1) ** 2 + sp.cos(x1) ** 2 - 1) == 0

    def test_ring_commutativity(self):
        assert normalize(x1 * x2 - x2 * x1) == 0

    def test_cancellation(self):
        # oracle: numeric agreement at random rational points
        e = ((u1 - u2) * x1) / x1
        n = normalize(e)
        assert n == normalize(u1 - u2)
        rng = random.Random(7)
        for _ in range(20):
            pt = {s: sp.Rational(rng.randint(1, 50), rng.randint(1, 9))
                  for s in (x1, u1, u2)}
            assert sp.cancel(e.xreplace(pt) - n.xreplace(pt)) == 0

    def test_idempotent(self):
        rng = random.Random(1)
        syms = [x1, x2, u1]
        from conftest import random_poly
        for _ in range(50):
            e = random_poly(rng, syms) / random_poly(rng, syms)
            n = normalize(e)
            assert normalize(n) == n

    def test_cos_degree_below_two(self):
        n = normalize(sp.cos(x1) ** 4)
        assert sp.degree(sp.Poly(n, sp.cos(x1))) < 2


class TestNormalizeAgainstReference:
    a = sp.Symbol("a")
    ATOMS = [x1, x2, a, sp.sin(x1), sp.cos(x1), sp.cos(x2), sp.sin(1),
             sp.sin(x1 + x2), sp.cos(a * x2)]

    def test_domain_outputs_print_as_the_reference(self):
        """On 100+ entries of rref and jacobian outputs, which are already
        canonical in the exact domain, normalize gives exactly the
        reference's form."""
        from conftest import random_poly
        rng = random.Random(43)

        def entry():
            return (random_poly(rng, self.ATOMS, 2, 3, 2)
                    / random_poly(rng, self.ATOMS, 2, 3, 1))

        outputs = []
        while len(outputs) < 100:
            outputs += rref(_random_matrix(rng, entry, 2, 3))[0]
            outputs += jacobian([entry(), entry()], [x1, x2, self.a])
            outputs = [x for x in outputs if x != 0]
        for x in outputs:
            assert normalize(x) == reference_normalize(x), x

    def test_raw_inputs_agree_with_the_reference(self):
        """On raw expressions, some with a factor that vanishes only modulo
        cos**2 + sin**2 = 1, normalize and the reference give the same
        function, though not always the same representative."""
        from conftest import random_poly
        rng = random.Random(47)
        c, s = sp.cos(x1), sp.sin(x1)
        hidden = [c**2 - 1 + s**2, c**2 - 1, (1 - s) * (1 + s), c**3 + c * s**2]
        for _ in range(60):
            num = random_poly(rng, self.ATOMS, 3, 4, 2) * rng.choice(hidden)
            den = random_poly(rng, self.ATOMS, 2, 3, 2) * rng.choice([1, (c + 1)**2, c - 1])
            e = num / den
            assert is_zero(normalize(e) - reference_normalize(e)), e
        e = (c**2 - 1) / (c + 1)**2
        assert normalize(e) != reference_normalize(e)
        assert is_zero(normalize(e) - reference_normalize(e))

    def test_undefined_values_pass_through(self):
        e = x1 + sp.zoo
        assert normalize(e) is e and symcore.domain_form(e) is e
        assert normalize(sp.nan) is sp.nan and symcore.domain_form(sp.nan) is sp.nan

    def test_function_outside_the_domain_is_refused(self):
        with pytest.raises(ExprSyntaxError, match="exp"):
            normalize(sp.exp(x1))
        with pytest.raises(ExprSyntaxError, match="exp"):
            symcore.domain_form(sp.exp(x1))


class TestIsZero:
    def test_zero(self):
        assert is_zero(0)

    def test_independent_symbols(self):
        assert not is_zero(u1 - u2)

    def test_side_relation_with_factor(self):
        e = sp.cos(x1) ** 2 * (1 + x1) + sp.sin(x1) ** 2 * (1 + x1) - (1 + x1)
        assert is_zero(e)

    def test_difference_to_normal_form(self):
        rng = random.Random(3)
        from conftest import random_poly
        syms = [x1, x2, u1]
        for _ in range(30):
            e = random_poly(rng, syms) / random_poly(rng, syms)
            assert is_zero(e - normalize(e))

    def test_trig_of_a_number(self):
        # sin(1) and cos(1) stay unevaluated after substituting a point
        s, c = sp.sin(1), sp.cos(1)
        assert not is_zero(s)
        assert is_zero(s**2 + c**2 - 1)
        assert not is_zero(s**2 + c**2)
        assert rref(sp.Matrix([[s**2 + c**2 - 1, s], [1, c]]))[1] == (0, 1)

    def test_trig_arguments_written_differently(self):
        # equal compound arguments share one generator pair
        assert is_zero(sp.sin(x1 * (x1 + 1)) - sp.sin(x1**2 + x1))
        assert is_zero(sp.cos(x2 + sp.sin(x1)**2 + sp.cos(x1)**2 - 1)
                       - sp.cos(x2))
        assert not is_zero(sp.sin(x1 * (x1 + 1)) - sp.sin(x1**2))


class TestMultipleAngles:
    """Arguments that are rational multiples of one another share one
    base angle, and cos(n*b), sin(n*b) expand in its pair."""

    y = sp.Symbol("y")

    def test_double_angle(self):
        y = self.y
        assert is_zero(sp.sin(2 * y) - 2 * sp.sin(y) * sp.cos(y))
        assert is_zero(sp.cos(2 * y) - (1 - 2 * sp.sin(y) ** 2))

    def test_triple_angle(self):
        y = self.y
        assert is_zero(sp.sin(3 * y) - (3 * sp.sin(y) - 4 * sp.sin(y) ** 3))
        assert not is_zero(sp.sin(3 * y) - 3 * sp.sin(y))

    def test_half_angle(self):
        assert is_zero(sp.cos(x1 / 2) ** 2 - (1 + sp.cos(x1)) / 2)
        assert is_zero(sp.sin(3 * x1 / 2) * 2 * sp.cos(x1 / 2)
                       - sp.sin(2 * x1) - sp.sin(x1))

    def test_jacobian_matches_sp_diff(self):
        y = self.y
        exprs = [sp.sin(2 * y), sp.cos(2 * y) * sp.sin(y),
                 sp.sin(y / 2) * sp.cos(3 * y / 2) / (1 + sp.cos(y)),
                 sp.sin(2 * y + 2) * sp.cos(y + 1)]
        J = jacobian(exprs, [y])
        for e, d in zip(exprs, J):
            assert is_zero(d - sp.diff(e, y)), e
        assert is_zero(J[0, 0] - 2 * sp.cos(2 * y))

    def test_other_arguments_keep_their_own_pairs(self):
        y = self.y
        F, _ = symcore._convert([sp.sin(y), sp.sin(y + 1), sp.cos(2 * y),
                                 sp.sin(x1 * y), sp.cos(2 * y + 2)])
        assert F.args == sorted([y, y + 1, x1 * y], key=sp.default_sort_key)
        assert not is_zero(sp.sin(y + 1) - sp.sin(y))
        assert not is_zero(sp.sin(x1 * y) - sp.sin(y))
        assert not is_zero(sp.sin(y + 1) - sp.sin(1) - sp.sin(y))


class TestDiff:
    def test_product(self):
        assert diff(x1 * x2, sp.Symbol("x1")) == x2

    def test_trig(self):
        x5 = sp.Symbol("x5")
        assert diff(sp.sin(x5), x5) == sp.cos(x5)

    def test_map_coefficient(self):
        # second component x1*(u1 - u2): du2-derivative
        assert diff(x1 * (u1 - u2), sp.Symbol("u2")) == -x1

    def test_product_rule_randomized(self):
        rng = random.Random(11)
        from conftest import random_poly
        syms = [x1, x2, u1]
        for _ in range(100):
            a = random_poly(rng, syms)
            b = random_poly(rng, syms)
            s = sp.Symbol(rng.choice(["x1", "x2", "u1"]))
            lhs = diff(a * b, s)
            rhs = diff(a, s) * b + a * diff(b, s)
            assert is_zero(lhs - rhs)


class TestJacobian:
    def test_matches_sp_diff_randomized(self):
        """Every entry equals sp.diff, decided by is_zero of the difference,
        on 100 random rational expressions in states, a parameter, sin/cos
        of symbols and of compound arguments, and sin(1); x3 and u1 never
        occur and give 0."""
        from conftest import random_poly
        rng = random.Random(31)
        a = sp.Symbol("a")
        atoms = [x1, x2, a, sp.sin(x1), sp.cos(x1), sp.cos(x2), sp.sin(1),
                 sp.sin(x1 + x2), sp.cos(a * x2)]
        wrt = [x1, x2, x3, a, u1]
        for _ in range(50):
            exprs = [random_poly(rng, atoms, 3, 4, 2) / random_poly(rng, atoms, 2, 3, 2)
                     for _ in range(2)]
            J = jacobian(exprs, wrt)
            assert J.shape == (2, len(wrt))
            for i, e in enumerate(exprs):
                for j, v in enumerate(wrt):
                    assert is_zero(J[i, j] - sp.diff(e, v)), (e, v)
                assert J[i, 2] == J[i, 4] == 0

    def test_compound_trig_arguments_follow_the_chain_rule(self):
        """Arguments that are sums, products, quotients or themselves trig
        functions of the symbols differentiate like sp.diff."""
        a = sp.Symbol("a")
        wrt = [x1, x2, u1, a]
        exprs = [sp.sin(x1 + u1), sp.cos(a * x2), x2 * sp.sin(sp.sin(x1)),
                 sp.cos(x1 / (x2 + 1)) / (1 + sp.sin(u1 * x1)),
                 x2 - sp.sin(x1) + sp.sin(x1 + u1),
                 sp.sin(x1) * sp.cos(x1 + sp.cos(x2 / u1)),
                 sp.cos(x1 + u1) ** 3 + sp.sin(2 * x1) * sp.sin(1 + x2)]
        J = jacobian(exprs, wrt)
        for i, e in enumerate(exprs):
            for j, v in enumerate(wrt):
                assert is_zero(J[i, j] - sp.diff(e, v)), (e, v)
        assert J[0, 2] == sp.cos(x1 + u1)

    def test_function_outside_the_domain_is_a_user_error(self):
        with pytest.raises(ExprSyntaxError, match="exp"):
            jacobian([x1 + sp.exp(x1)], [x1])

    def test_numbers_give_zeros(self):
        assert jacobian([2, sp.Rational(1, 3)], [x1, x2]) == sp.zeros(2, 2)
        assert jacobian([], [x1]).shape == (0, 1)


def _reference_sample(p, k, rng):
    """The reference for _rational_sample: the same point, drawn the same
    way, evaluated through PolyElement.__call__."""
    from sympy.polys.domains import QQ
    point = [QQ.zero] * p.ring.ngens
    for i in range(k):
        t = QQ(rng.randint(-99, 99), rng.randint(1, 30))
        point[i] = (1 - t**2) / (1 + t**2)
        point[k + i] = 2 * t / (1 + t**2)
    for i in range(2 * k, len(point)):
        point[i] = QQ(rng.randint(1, 99) * rng.choice((-1, 1)), rng.randint(1, 30))
    return p(*point)


class TestRationalSample:
    def test_matches_polynomial_call_randomized(self):
        """Same value and same RNG draws as p(*point), on random numerators
        with and without trig pairs."""
        from conftest import random_poly
        rng = random.Random(37)
        atoms = [x1, x2, x3, u1, sp.sin(x1), sp.cos(x1), sp.sin(u1)]
        tested = 0
        for _ in range(60):
            F, (x,) = symcore._convert([random_poly(rng, atoms, 5, 4, 3)])
            if F is None:
                continue
            p = x.numer
            seed = rng.randint(0, 10**6)
            ours, theirs = random.Random(seed), random.Random(seed)
            assert symcore._rational_sample(p, F.k, ours) == \
                _reference_sample(p, F.k, theirs)
            assert ours.getstate() == theirs.getstate()
            tested += 1
        assert tested >= 40


class TestEvaluate:
    def test_equilibrium_value(self):
        assert evaluate(u1 - u2, {sp.Symbol("u1"): 1, sp.Symbol("u2"): 0}) == 1

    def test_rational_point(self):
        v = evaluate(x1 / (x2 + 1), {sp.Symbol("x1"): 0, sp.Symbol("x2"): 0})
        assert v == 0

    def test_pole(self):
        with pytest.raises(PoleAtPoint):
            evaluate(1 / x1, {sp.Symbol("x1"): 0})

    def test_trig_at_zero(self):
        x5 = sp.Symbol("x5")
        assert evaluate(sp.sin(x5) + sp.cos(x5), {x5: 0}) == 1

    def test_trig_nonzero_rejected(self):
        x5 = sp.Symbol("x5")
        with pytest.raises(ValueError):
            evaluate(sp.sin(x5), {x5: 1})

    def test_normalize_evaluate_consistency(self):
        rng = random.Random(5)
        from conftest import random_poly
        symbols = [sp.Symbol("x1"), sp.Symbol("x2"), sp.Symbol("u1")]
        syms = list(symbols)
        for _ in range(100):
            e = random_poly(rng, syms) / random_poly(rng, syms)
            n = normalize(e)
            hits = 0
            for _ in range(200):
                if hits == 8:
                    break
                pt = {s: sp.Rational(rng.randint(-30, 30), rng.randint(1, 7))
                      for s in symbols}
                try:
                    ve = evaluate(e, pt)
                    vn = evaluate(n, pt)
                except PoleAtPoint:
                    continue
                assert ve == vn
                hits += 1


class TestLinearAlgebra:
    def test_rref_identity(self):
        R, piv = rref(sp.eye(3))
        assert R == sp.eye(3) and piv == (0, 1, 2)

    def test_rref_proportional_rows(self):
        lam = sp.Symbol("lam")
        M = sp.Matrix([[u1 - u2, x1, 0], [lam * (u1 - u2), lam * x1, 0]])
        R, piv = rref(M)
        assert piv == (0,)
        assert R.row(0) == sp.Matrix([[1, x1 / (u1 - u2), 0]]).row(0)
        assert all(e == 0 for e in R.row(1))

    def test_rref_idempotent_and_rowspace(self):
        rng = random.Random(9)
        from conftest import random_poly
        syms = [x1, x2]
        for _ in range(100):
            M = sp.Matrix(2, 3, lambda i, j: random_poly(rng, syms, 2, 3, 1))
            R, piv = rref(M)
            R2, piv2 = rref(R)
            assert piv == piv2
            assert all(is_zero(a - b) for a, b in zip(R, R2))
            # every row of M reduces to zero against R and vice versa
            for row_src, basis in ((M, R), (R, M)):
                Rb, pb = rref(basis)
                for i in range(row_src.rows):
                    res = list(row_src.row(i))
                    for r, pc in enumerate(pb):
                        fac = normalize(res[pc])
                        res = [normalize(res[j] - fac * Rb[r, j])
                               for j in range(len(res))]
                    assert all(is_zero(c) for c in res)

    def test_nullspace_zero_matrix(self):
        assert len(nullspace(sp.zeros(2, 3))) == 3

    def test_nullspace_generic_1x2(self):
        a, b = sp.symbols("a b")
        ker = nullspace(sp.Matrix([[a, b]]))
        assert len(ker) == 1
        v = ker[0]
        assert is_zero(a * v[0] + b * v[1])

    def test_nullspace_orthogonality_randomized(self):
        rng = random.Random(13)
        from conftest import random_poly
        syms = [x1, u1]
        for _ in range(100):
            M = sp.Matrix(2, 4, lambda i, j: random_poly(rng, syms, 2, 3, 1))
            for v in nullspace(M):
                prod = M * v
                assert all(is_zero(c) for c in prod)

    def test_kernel_of_seeded_reduced_rows(self):
        """Rows.kernel of reduced rows of QQ numbers, of field elements and
        of elements with sin/cos, of every rank from 0 to the width: the
        rows times the kernel's transpose are zero, and the two ranks add up
        to the width."""
        from conftest import ENTRY_KINDS, random_reduced_rows
        rng = random.Random(1818)
        syms = [x1, x2, sp.Symbol("a")]
        for kind in ENTRY_KINDS:
            for width in range(1, 6):
                for rank_R in range(width + 1):
                    R = random_reduced_rows(rng, kind, width, rank_R, syms)
                    K = R.kernel()
                    assert K.width == width and len(K.rows) == width - rank_R
                    Kt = symcore.Rows(K.F, [[k[j] for k in K.rows] for j in range(width)],
                                      len(K.rows))
                    assert not any(c for row in (R @ Kt).rows for c in row)
                    assert R.rank() + K.rank() == width

    def test_rank_at(self):
        M = sp.Matrix([[x1, x2], [x1 * x2, x2 ** 2]])
        assert rank_at(M, {x1: 1, x2: 2}) == 1
        assert rank_at(M, {x1: 0, x2: 0}) == 0
        assert rank_at(sp.Matrix([[1, 0], [0, 1 + x1]]), {x1: -1}) == 1
        T = sp.Matrix([[sp.cos(x1), sp.sin(x1)]])
        assert rank_at(T, {x1: 0}) == rank_at(T, {x1: 1}) == 1
        # at nonzero rational angles the ranks are exact: the drops at
        # x1 = x2 = 1 need 1 - cos(1)**2 = sin(1)**2 and
        # sin(2) = 2*sin(1)*cos(1), and angles 1/2 and 1/3 share the pair
        # of 1/6
        for D in (sp.Matrix([[sp.sin(x1), 1 - sp.cos(x2)**2], [1, sp.sin(x1)]]),
                  sp.Matrix([[sp.sin(2 * x1), sp.sin(x1)], [2 * sp.cos(x2), 1]])):
            for point, want in (({x1: 1, x2: 1}, 1), ({x1: 1, x2: 2}, 2),
                                ({x1: sp.Rational(1, 2), x2: sp.Rational(1, 3)}, 2)):
                assert rank_at(D, point) == numeric_rank(D, point) == want
        # cleared rows have no pole: the row [1/(x1 - 1), x2] spans the
        # row [1, x2*(x1 - 1)]
        assert rank_at(sp.Matrix([[1 / (x1 - 1), x2]]), {x1: 1, x2: 0}) == 1
        # an angle with a pole at the point is the one case left undecided
        S = sp.Matrix([[sp.sin(x2 / x1), x1]])
        assert rank_at(S, {x1: 0, x2: 1}) is None
        assert rank_at(S, {x1: 1, x2: 0}) == 1


def _random_matrix(rng, entry, rows, cols):
    """A random matrix whose last row is, half of the time, a combination
    of the others, so that rank-deficient cases occur."""
    M = sp.Matrix(rows, cols, lambda i, j: entry())
    if rows > 1 and rng.random() < 0.5:
        combo = sp.zeros(1, cols)
        for i in range(rows - 1):
            combo += entry() * M.row(i)
        M[rows - 1, :] = combo
    return M


class TestRrefAgainstOracle:
    x = sp.Symbol("x")

    def _compare(self, M):
        R, piv = rref(M)
        O, opiv = oracle_rref(M)
        assert piv == opiv, M
        # the oracle's own canonical zero test, independent of rref's domain
        assert all(reference_normalize(a - b) == 0 for a, b in zip(R, O)), M

    def test_rational_matrices(self):
        from conftest import random_poly
        rng = random.Random(21)
        syms = [x1, x2]
        for _ in range(40):
            def entry():
                return (random_poly(rng, syms, 2, 3, 1)
                        / random_poly(rng, syms, 2, 3, 1))
            self._compare(_random_matrix(rng, entry, rng.randint(2, 3), 3))

    def test_trig_matrices(self):
        from conftest import random_poly
        rng = random.Random(22)
        x = self.x
        syms = [x, sp.sin(x), sp.cos(x)]
        pythagoras = sp.sin(x) ** 2 + sp.cos(x) ** 2 - 1
        for _ in range(30):
            def entry():
                # a multiple of sin**2 + cos**2 - 1 hides a zero summand
                return (random_poly(rng, syms, 2, 3, 2)
                        + random_poly(rng, syms, 1, 3, 1) * pythagoras)
            self._compare(_random_matrix(rng, entry, rng.randint(2, 3), 3))

    def test_numeric_matrices(self):
        rng = random.Random(23)
        for _ in range(30):
            def entry():
                return sp.Rational(rng.randint(-5, 5), rng.randint(1, 4))
            self._compare(_random_matrix(rng, entry, rng.randint(2, 4), 4))

    def test_pythagorean_zero_is_not_a_pivot(self):
        x = self.x
        R, piv = rref(sp.Matrix([[sp.sin(x) ** 2 + sp.cos(x) ** 2 - 1, 1]]))
        assert piv == (1,)

    def test_cos_cubed_zero_is_not_a_pivot(self):
        x = self.x
        e = sp.cos(x) ** 3 - sp.cos(x) + sp.cos(x) * sp.sin(x) ** 2
        R, piv = rref(sp.Matrix([[e, x]]))
        assert piv == (1,)

    def test_division_by_a_disguised_zero_raises(self):
        x = self.x
        undefined = x / (sp.sin(x) ** 2 + sp.cos(x) ** 2 - 1)
        with pytest.raises(InternalInconsistency):
            rref(sp.Matrix([[undefined, 1]]))


class TestCanonicalElements:
    """``_Field._new`` skips sympy's gcd where no common factor can exist,
    and must still build exactly the element that ``field.new`` builds."""

    a = sp.Symbol("a")

    @staticmethod
    def _poly(rng, R, terms, integer, cos_degree=1, used=None):
        """A random polynomial of R with up to `terms` terms, integer or
        fractional coefficients, and cos-degree up to cos_degree in the
        first generator, in the generators of `used` (all by default)."""
        used = range(R.ngens) if used is None else used
        p = R.zero
        for _ in range(terms):
            monom = [0] * R.ngens
            for i in used:
                monom[i] = rng.randint(0, cos_degree if i == 0 else 2)
            c = symcore.QQ(rng.choice([-1, 1]) * rng.randint(1, 12),
                           1 if integer else rng.randint(1, 9))
            p += R({tuple(monom): c})
        return p

    def _pairs(self, rng, F, narrow=False):
        """Seeded (num, den) pairs of every shape that ``_new`` tells apart,
        with the leading coefficient of den negative half of the time; with
        `narrow`, each in 1 to 4 of the field's generators."""
        R = F.ring
        cos_degree = 3 if F.relations else 2  # the relations reduce degree 3
        for _ in range(40):
            used = sorted(rng.sample(range(R.ngens), rng.randint(1, 4))) if narrow else None
            poly = lambda terms, integer: self._poly(rng, R, terms, integer, cos_degree, used)
            sign = rng.choice([-1, 1])
            yield R.zero, poly(3, False)
            yield poly(3, True), R.one
            yield poly(3, False), R.one
            yield poly(1, rng.random() < 0.5), sign * poly(3, rng.random() < 0.5)
            yield poly(3, rng.random() < 0.5), sign * poly(1, rng.random() < 0.5)
            yield poly(1, False), sign * poly(1, False)
            yield poly(3, True), R(sign * symcore.QQ(rng.randint(1, 9), rng.randint(1, 5)))
            # a common factor, monomial or not, for the general case
            g = poly(2, rng.random() < 0.5)
            yield g * poly(2, True), sign * g * poly(2, False)
            yield g * poly(1, True), sign * g * poly(2, True)

    def _fields(self):
        """(field, narrow): two small fields, and two of 11 and 13
        generators, one with a trig pair, whose pairs use few of them."""
        from fwdflat.domain import _Field
        a, w = self.a, [sp.Symbol(f"w{i}") for i in range(1, 11)]
        return [(_Field.of([x1, x2, a]), False),
                (_Field.of([("c", x1), ("s", x1), x1, a]), False),
                (_Field.of([*w, a]), True),
                (_Field.of([("c", x1), ("s", x1), x1, *w]), True)]

    def test_new_matches_field_new_on_every_shape(self):
        rng = random.Random(1901)
        for F, narrow in self._fields():
            for num, den in self._pairs(rng, F, narrow):
                if F.relations and not den.rem(F.relations) or not den:
                    continue
                got = F._new(num, den)
                if F.relations:
                    num, den = num.rem(F.relations), den.rem(F.relations)
                want = F.field.new(num, den)
                assert got.numer == want.numer and got.denom == want.denom, (num, den)

    def test_gcd_is_taken_in_the_generators_used(self, monkeypatch):
        """Every cancel that ``_new`` makes runs in a ring of exactly the
        generators that its numerator or denominator uses."""
        from sympy.polys.rings import PolyElement
        cancel, rings = PolyElement.cancel, []

        def counted(f, g):
            used = {i for p in (f, g) for m in p.itermonoms() for i, e in enumerate(m) if e}
            rings.append((F.ring.ngens, f.ring.ngens, len(used)))
            return cancel(f, g)

        rng = random.Random(1902)
        for F, narrow in self._fields():
            pairs = [(n, d) for n, d in self._pairs(rng, F, narrow)
                     if d and not (F.relations and not d.rem(F.relations))]
            monkeypatch.setattr(PolyElement, "cancel", counted)
            for num, den in pairs:
                F._new(num, den)
            monkeypatch.undo()
        assert all(ngens == used for _, ngens, used in rings)
        assert sum(ngens < full for full, ngens, _ in rings) >= 40, rings

    def _irreducible_shapes(self, rng, F, narrow):
        """Seeded (kind, num, den) where one side is p = a*g_j + b, with a
        or b a nonzero rational (``_linear_generator``), rational contents
        and a negative leading coefficient of den half of the time: p
        divides the other side ("divides"), or not ("coprime"), or not
        although the other side vanishes at the fixed point where p does
        ("vanishes"), so that the division decides.  No side has a
        cos-degree of 2, so ``_new`` reduces nothing."""
        from fwdflat.domain import _fixed_point
        R = F.ring
        point = _fixed_point(R.ngens)
        for _ in range(30):
            used = (sorted(rng.sample(range(R.ngens), rng.randint(2, 4))) if narrow
                    else list(range(R.ngens)))
            j = rng.choice(used)
            others = [i for i in used if i != j]
            # cofactors stay free of the cos generator, which p may hold
            free = [i for i in used if not (F.relations and i == 0)]

            def poly(gens, terms=3):
                return self._poly(rng, R, rng.randint(1, terms), rng.random() < 0.5,
                                  1, gens)

            def rational():
                return symcore.QQ(rng.choice([-1, 1]) * rng.randint(1, 12),
                                  rng.choice([1, rng.randint(2, 9)]))

            g = R.gens[j]
            p = (rational() * g + poly(others) if rng.random() < 0.5
                 else poly(others) * g + rational())
            sign = rng.choice([-1, 1])
            k = rng.choice([i for i in free if i != j] or others)
            vanishing = (R.gens[k] - point[k]) * poly(free, 2)
            for kind, num, den in (
                    ("divides", p * poly(free), sign * rational() * p),
                    ("divides", rational() * p, sign * p * poly(free)),
                    ("coprime", poly(used), sign * p),
                    ("coprime", p, sign * poly(used)),
                    ("vanishes", vanishing, sign * p)):
                if len(p) >= 2 and num and den:
                    yield kind, num, den

    def test_irreducible_side_cancels_by_one_division(self, monkeypatch):
        """On shapes with a side p irreducible by ``_linear_generator``,
        ``_new`` builds what ``field.new`` builds, takes no gcd
        (``PolyElement.cancel``), and decides by the fixed point or by one
        division whether p divides the other side."""
        from sympy.polys.rings import PolyElement
        from fwdflat import domain
        cancel, calls = PolyElement.cancel, []
        vanishes, checks = domain._vanishes_with, []
        rng = random.Random(2424)
        shapes = [(F, *shape) for F, narrow in self._fields()
                  for shape in self._irreducible_shapes(rng, F, narrow)]
        monkeypatch.setattr(PolyElement, "cancel",
                            lambda f, g: calls.append((f, g)) or cancel(f, g))
        monkeypatch.setattr(domain, "_vanishes_with",
                            lambda q, p, j: checks.append(vanishes(q, p, j)) or checks[-1])
        results = []
        for F, kind, num, den in shapes:
            checks.clear()
            results.append((F._new(num, den), tuple(checks)))
        monkeypatch.undo()
        assert calls == []
        outcomes = []
        for (F, kind, num, den), (got, checked) in zip(shapes, results):
            want = F.field.new(num, den)
            assert got.numer == want.numer and got.denom == want.denom, (kind, num, den)
            cancelled = (want.numer.degrees(), want.denom.degrees()) != \
                (num.degrees(), den.degrees())
            outcomes.append((kind, checked, cancelled))
        count = lambda *o: sum(1 for x in outcomes if x == o)
        assert all(k != "divides" or (c == (True,) and cut) for k, c, cut in outcomes)
        assert count("coprime", (False,), False) >= 40, outcomes
        assert count("vanishes", (True,), False) >= 20, outcomes
        assert count("divides", (True,), True) >= 40, outcomes

    def _structured_shapes(self, rng, F, narrow):
        """Seeded (kind, num, den, gcd) in which the gcd needs no sympy gcd:
        monomial contents on both sides around a linear side ("content"),
        sides proportional to a product of two linear factors, so that
        neither is a power of one ("proportional"), and a side c*l**k with
        k = 1..4 against a side divisible by l**0 to l**(k + 1) ("power"),
        where gcd is the power of l that cancels (None for the others).
        Each l = a*g_j + b is irreducible, with a or b a nonzero rational.
        The sides are free of the cos generator, so ``_new`` reduces
        nothing."""
        R = F.ring
        for _ in range(12):
            used = (sorted(rng.sample(range(R.ngens), rng.randint(2, 4))) if narrow
                    else list(range(R.ngens)))
            free = [i for i in used if not (F.relations and i == 0)]
            if len(free) < 2:
                continue

            def poly(gens, terms=3):
                return self._poly(rng, R, rng.randint(1, terms), rng.random() < 0.5, 1, gens)

            def rational():
                return symcore.QQ(rng.choice([-1, 1]) * rng.randint(1, 12),
                                  rng.choice([1, rng.randint(2, 9)]))

            def monomial():
                return R({tuple(rng.randint(0, 2) if i in free else 0
                                for i in range(R.ngens)): 1})

            def linear():
                j = rng.choice(free)
                g, others = R.gens[j], [i for i in free if i != j]
                while True:
                    l = (rational() * g + poly(others, 2) if rng.random() < 0.5
                         else poly(others, 2) * g + rational())
                    if len(l) >= 2:
                        return l

            l, sign = linear(), rng.choice([-1, 1])
            yield "content", monomial() * l * poly(free), sign * monomial() * rational() * l, None
            p = l * linear()
            yield "proportional", rational() * monomial() * p, sign * monomial() * p, None
            k = rng.randint(1, 4)
            for i in range(k + 2):
                power, other = rational() * l**k, l**i * poly(free, 2) * monomial()
                num, den = (power, sign * other) if rng.random() < 0.5 else (other, sign * power)
                yield "power", num * monomial(), den, min(i, k)

    def test_structured_pairs_take_no_gcd(self, monkeypatch):
        """Where the sides' monomial contents are divided out, and what is
        left is proportional or has a side c*l**k for a linear irreducible
        l, ``_new`` builds what ``field.new`` builds and takes no gcd
        (``PolyElement.cancel``)."""
        from sympy.polys.rings import PolyElement
        cancel, calls = PolyElement.cancel, []
        rng = random.Random(2525)
        shapes = [(F, *shape) for F, narrow in self._fields()
                  for shape in self._structured_shapes(rng, F, narrow)]
        monkeypatch.setattr(PolyElement, "cancel",
                            lambda f, g: calls.append((f, g)) or cancel(f, g))
        results = [F._new(num, den) for F, _, num, den, _ in shapes]
        monkeypatch.undo()
        assert calls == []
        for (F, kind, num, den, _), got in zip(shapes, results):
            want = F.field.new(num, den)
            assert got.numer == want.numer and got.denom == want.denom, (kind, num, den)
        kinds = [kind for _, kind, *_ in shapes]
        assert kinds.count("content") >= 40 and kinds.count("proportional") >= 40, kinds
        cut = [gcd for _, kind, *_, gcd in shapes if kind == "power"]
        assert all(cut.count(i) >= 10 for i in range(5)), cut

    def test_wrong_power_reading_builds_no_power(self, monkeypatch):
        """p = x**k + k*x**(k-1)*(y1 + ... + yt) + y1**k + ... + yt**k has
        the degrees of (x + y1 + ... + yt)**k, whose C(k + t, t) terms are
        2.7 million for k = t = 12.  Over p and p**2 as denominators,
        ``_linear_power`` refutes the reading with no product of more than
        len(den)*len(l) terms.  The numerator x + u is then cancelled as a
        linear side, and x**2 + u**2 by sympy's gcd."""
        import time
        from sympy.polys.rings import PolyElement
        from fwdflat import domain
        k = t = 12
        x, u, *ys = sp.symbols(f"x u y1:{t + 1}")
        F = domain._Field.of([x, u, *ys])
        X, U, *Y = (F.ring.gens[F.index[s]] for s in (x, u, *ys))
        p = X**k + k * X**(k - 1) * sum(Y) + sum(y**k for y in Y)
        mul, linear_power, cancel = PolyElement.__mul__, domain._linear_power, PolyElement.cancel
        bound, calls = [None], []

        def sized(f, g):
            h = mul(f, g)
            assert bound[0] is None or len(h) <= bound[0], (len(h), bound[0])
            return h

        def guarded(q):
            bound[0] = len(q) * (t + 1)
            try:
                return linear_power(q)
            finally:
                bound[0] = None

        monkeypatch.setattr(PolyElement, "__mul__", sized)
        monkeypatch.setattr(domain, "_linear_power", guarded)
        monkeypatch.setattr(PolyElement, "cancel",
                            lambda f, g: calls.append((f, g)) or cancel(f, g))
        pairs = [(num, den) for num in (X + U, X**2 + U**2) for den in (p, p**2)]
        results = []
        for num, den in pairs:
            t0 = time.perf_counter()
            results.append(F._new(num, den))
            assert time.perf_counter() - t0 < 5
        monkeypatch.undo()
        assert [f for f, _ in calls] == [X**2 + U**2] * 2
        for (num, den), got in zip(pairs, results):
            want = F.field.new(num, den)
            assert got.numer == want.numer and got.denom == want.denom

    def test_undecided_division_is_left_to_sympy(self, monkeypatch):
        """q = x**8 - x0**8 + (x - x0)*y1 vanishes where l = x + y1 + ...
        + y8 does at the fixed point, x0 = -(y1 + ... + y8) there, but l
        does not divide it; dividing q by l makes a remainder of 6,445
        terms.  The pair's division stops at a quotient coefficient of more
        than len(q)*len(l) terms, no product of ``_coprime_parts`` exceeds
        len(q)*len(l)**2 terms, and the pair goes to sympy's gcd."""
        from sympy.polys.rings import PolyElement
        from fwdflat import domain
        t = 8
        x, *ys = sp.symbols(f"x y1:{t + 1}")
        F = domain._Field.of([x, *ys])
        X, *Y = (F.ring.gens[F.index[s]] for s in (x, *ys))
        point = domain._fixed_point(F.ring.ngens)
        x0 = -sum(point[F.index[y]] for y in ys)
        l, q = X + sum(Y), X**t - x0**t + (X - x0) * Y[0]
        bound = len(q) * len(l)**2
        mul, div, cancel = PolyElement.__mul__, PolyElement.div, PolyElement.cancel
        coprime_parts, inside, calls = domain._coprime_parts, [False], []

        def sized(op):
            def run(f, g):
                out = op(f, g)
                for h in out if isinstance(out, tuple) else (out,):
                    assert not inside[0] or len(h) <= bound, (len(h), bound)
                return out
            return run

        def guarded(num, den):
            inside[0] = True
            try:
                return coprime_parts(num, den)
            finally:
                inside[0] = False

        monkeypatch.setattr(PolyElement, "__mul__", sized(mul))
        monkeypatch.setattr(PolyElement, "div", sized(div))
        monkeypatch.setattr(domain, "_coprime_parts", guarded)
        monkeypatch.setattr(PolyElement, "cancel",
                            lambda f, g: calls.append((f, g)) or cancel(f, g))
        got = F._new(q, l)
        monkeypatch.undo()
        assert calls == [(q, l)]
        want = F.field.new(q, l)
        assert got.numer == want.numer and got.denom == want.denom

    def test_academic_operations_take_no_gcd(self, monkeypatch):
        """The two operations on the paper's second example, run cold as the
        CLI runs them, send no pair of ``_Field._cancel`` to sympy's gcd."""
        from sympy.core.cache import clear_cache
        from sympy.polys.rings import PolyElement
        from fwdflat import cli
        from fwdflat.domain import _Field
        cancel, inner, calls = PolyElement.cancel, _Field._cancel, []
        depth = [0]

        def field_cancel(F, num, den):
            depth[0] += 1
            try:
                return inner(F, num, den)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(_Field, "_cancel", field_cancel)
        monkeypatch.setattr(PolyElement, "cancel",
                            lambda f, g: calls.append(depth[0]) or cancel(f, g))
        for command in ("analyze", "verify-decomposition"):
            clear_cache()
            assert cli.run([command, str(FIXTURES / "academic.sys"), "--json"]) == 0
        assert not any(calls), calls

    def test_jacobian_of_integer_polynomials_takes_no_gcd(self, monkeypatch):
        from sympy.polys.rings import PolyElement
        cancel, calls = PolyElement.cancel, []

        def counted(f, g):
            calls.append((f, g))
            return cancel(f, g)

        monkeypatch.setattr(PolyElement, "cancel", counted)
        a = self.a
        exprs = [x1**2 * x2 - 3 * x2 + 5, x1 * x2**3 + 2 * a * x1 - 7, u1 * x2 - a**2]
        wrt = [x1, x2, u1, a]
        J = symcore.jacobian_rows(exprs, wrt)
        assert calls == []
        monkeypatch.undo()
        assert sp.expand(J.to_matrix() - sp.Matrix(exprs).jacobian(wrt)) == sp.zeros(3, 4)


def _rational_of_rank(rng, rows, cols, r, big):
    """A seeded rows x cols matrix of rank r over QQ: a product of random
    rational factors, with denominators up to 10**30 when big, and a zero
    row and a zero column spliced in at random, half of the time each."""
    def q():
        return sp.Rational(rng.randint(-9, 9), rng.randint(1, 10**30 if big else 7))

    while True:
        M = (sp.Matrix(rows, r, lambda i, j: q()) * sp.Matrix(r, cols, lambda i, j: q())
             if r else sp.zeros(rows, cols))
        if M.rank() == r:
            break
    if rng.random() < 0.5:
        M = M.row_insert(rng.randint(0, rows), sp.zeros(1, cols))
    if rng.random() < 0.5:
        M = M.col_insert(rng.randint(0, cols), sp.zeros(M.rows, 1))
    return M


class TestFullRankCertificate:
    """``Rows.rank`` and ``Rows.reduced`` on rows of field elements, with a
    trig pair, a multiple angle and a parameter: full ranks certified at a
    random point, every other rank eliminated, all against ``oracle_rref``."""

    a = sp.Symbol("a")

    def _matrix(self, rng, rows, cols, zero_cols=(), deficient=False):
        from conftest import random_poly
        atoms = [x1, x2, self.a, sp.sin(x1), sp.cos(x1), sp.sin(2 * x1)]

        def entry():
            return random_poly(rng, atoms, 2, 3, 1) / rng.choice((1, x2**2 + 1, self.a + 2))
        M = sp.Matrix(rows, cols, lambda i, j: 0 if j in zero_cols else entry())
        if deficient:
            M[rows - 1, :] = entry() * M.row(0) + entry() * M.row(rows - 2)
        return M

    def _cases(self):
        """(name, matrix, largest rank it can have): full column rank, full
        row rank, zero columns, deficient ranks and no rows."""
        rng = random.Random(2020)
        for _ in range(2):
            yield "full column rank", self._matrix(rng, 4, 3), 3
            yield "full row rank", self._matrix(rng, 2, 4), 2
            yield "zero column, square", self._matrix(rng, 3, 4, zero_cols=(2,)), 3
            yield "zero column, tall", self._matrix(rng, 4, 3, zero_cols=(0,)), 2
            yield "deficient, square", self._matrix(rng, 3, 3, deficient=True), 3
            yield "deficient, wide", self._matrix(rng, 3, 4, deficient=True), 3
        yield "no rows", sp.zeros(0, 3), 0

    @staticmethod
    def _count_field_eliminations(monkeypatch) -> list:
        calls = []
        row_reduce = symcore._row_reduce

        def counted(F, A):
            if F is not None:
                calls.append(len(A))
            return row_reduce(F, A)
        monkeypatch.setattr(symcore, "_row_reduce", counted)
        return calls

    def _check(self, M, calls):
        """Rows.reduced and Rows.rank of M against the oracle; the rank, and
        whether each of the two eliminated field rows."""
        O, pivots = oracle_rref(M)
        calls.clear()
        R, rpivots = symcore.Rows.of(M).reduced()
        reduced_eliminated = bool(calls)
        assert tuple(rpivots) == pivots, M
        assert all(reference_is_zero(o - r) for o, r in zip(O, R.to_matrix())), M
        calls.clear()
        assert symcore.Rows.of(M).rank() == len(pivots), M
        return len(pivots), reduced_eliminated, bool(calls)

    def test_against_the_oracle(self, monkeypatch):
        calls = self._count_field_eliminations(monkeypatch)
        for name, M, bound in self._cases():
            rank, reduced_eliminated, rank_eliminated = self._check(M, calls)
            assert (rank == bound) == (not name.startswith("deficient")), name
            # a full rank is certified, with no elimination on field rows;
            # reduced rows only where the rank is that of the nonzero columns
            nonzero = sum(1 for j in range(M.cols) if any(M.col(j)))
            assert rank_eliminated == (rank < bound), name
            assert reduced_eliminated == (rank < nonzero), name

    def test_a_pole_draws_again_three_times_then_eliminates(self, monkeypatch):
        from fwdflat import domain
        draws = []

        def at_the_pole(F):
            draws.append(F)
            return [QQ.one if key == x1 else QQ.zero for key in F.keys]
        monkeypatch.setattr(domain._Field, "random_point", at_the_pole)
        calls = self._count_field_eliminations(monkeypatch)
        M = sp.Matrix([[1 / (x1 - 1), x2], [x1, sp.sin(x2)]])
        assert self._check(M, calls) == (2, True, True)
        assert len(draws) == 2 * 4  # reduced and rank: 4 points each

    def test_certified_calls_leave_the_other_streams(self, monkeypatch):
        from fwdflat import domain
        calls = self._count_field_eliminations(monkeypatch)

        def next_draws():
            s = domain._session
            return [s.rng.random() for _ in range(3)], [s.param_rng.random() for _ in range(3)]
        M = self._matrix(random.Random(7), 3, 3)
        symcore.configure(seed=5)
        point = domain._session.point_rng.getstate()
        assert symcore.Rows.of(M).rank() == 3
        R, pivots = symcore.Rows.of(M).reduced()
        assert pivots == [0, 1, 2] and not calls
        assert domain._session.point_rng.getstate() != point
        after = next_draws()
        symcore.configure(seed=5)
        assert after == next_draws()


    def test_chain_candidate_is_missed_at_no_point(self, monkeypatch):
        """chain(16)'s accepted chart candidate [J_f; e_x1] has full rank,
        with determinant prod(1 + x_i): the certificate's points miss it at
        none of 400 draws, where points drawn as the cross-check draws them
        miss it at 35."""
        from fwdflat import domain
        xs = sp.symbols("x1:17")
        f = [xs[i + 1] + xs[i] * xs[i + 1] for i in range(15)] + [u1]
        R = symcore.Rows.stack(symcore.jacobian_rows(f, [*xs, u1]),
                               symcore.Rows.of([[1] + [0] * 16]))

        def misses():
            symcore.configure(seed=3)
            return sum(not R._certified(17) for _ in range(400))
        assert misses() == 0
        monkeypatch.setattr(domain._Field, "random_point", lambda F: domain._rational_point(
            len(F.keys), F.k, domain._session.point_rng))
        assert misses() == 35


class TestKernelArithmetic:
    """The row kernel combines field elements by ``_Field.quo``, ``mul``,
    ``add`` and ``domain.dot``, which cancel by ``_Field._cancel``: none of
    its operations runs sympy's ``FracElement`` arithmetic."""

    a = sp.Symbol("a")

    def _matrix(self, rng, trig, rows, cols):
        """A seeded rows x cols matrix of rational functions of x1, x2, a,
        and of sin(x1), cos(x1) with trig, whose last row is a combination
        of two others, so that its rank is deficient."""
        from conftest import random_poly
        atoms = [x1, x2, self.a] + ([sp.sin(x1), sp.cos(x1)] if trig else [])

        def entry():
            return random_poly(rng, atoms, 2, 3, 1) / rng.choice((1, x2 + 1, self.a + 2))
        M = sp.Matrix(rows, cols, lambda i, j: entry())
        M[rows - 1, :] = entry() * M.row(0) + entry() * M.row(rows - 2)
        return M

    def test_no_frac_element_arithmetic(self, monkeypatch):
        from sympy.polys.fields import FracElement
        from fwdflat import extcalc
        rng = random.Random(2425)
        cases = []
        for trig in (False, True):
            M = self._matrix(rng, trig, 3, 3)
            cases.append((M, *(symcore.Rows.of(self._matrix(rng, trig, 3, 3))
                               for _ in range(2))))
        assert [symcore.Rows.of(M).F.k for M, _, _ in cases] == [0, 1]

        def refuse(*args):
            raise AssertionError("FracElement arithmetic in the row kernel")
        monkeypatch.setattr(FracElement, "new", refuse)
        results = []
        for M, S, T in cases:
            R = symcore.Rows.of(M)
            results.append((R.reduced(), R.rank()))
            R.preimage(S.reduced()[0])
            R @ T
            R.derivative(x1)
            v = symcore.Rows(R.F, [R.rows[0]], R.width)
            extcalc.lie_derivative_rows(v, R, [x1, x2, self.a])
        monkeypatch.undo()
        for (M, _, _), ((reduced, pivots), rank) in zip(cases, results):
            O, want = oracle_rref(M)
            assert tuple(pivots) == want and rank == len(want) == 2
            assert all(reference_is_zero(o - r) for o, r in zip(O, reduced.to_matrix()))

    def test_operations_match_frac_element_arithmetic(self):
        """``_Field.mul``, ``add`` and ``quo`` build what sympy's operators
        build, on seeded elements and rationals of either sign, also where
        a rational operand takes the route with no gcd."""
        F = symcore.Rows.of([[x1 + sp.sin(x1) + self.a]]).F
        R = F.ring
        rng = random.Random(2427)
        poly = lambda: TestCanonicalElements._poly(rng, R, 3, rng.random() < 0.5)

        def element():
            if rng.random() < 0.3:
                return symcore.QQ(rng.randint(-5, 5), rng.randint(1, 4))
            num, den = poly(), poly()
            return F._cancel(num, den) if num and den else element()

        def frac(x):
            return F.field(x) if type(x) is symcore._MPQ else x

        for _ in range(200):
            x, y = element(), element()
            for got, want in ((F.mul(x, y), frac(x) * frac(y)),
                              (F.add(x, y), frac(x) + frac(y)),
                              (F.quo(x, y) if y else None, frac(x) / frac(y) if y else None)):
                if want is not None:
                    got = frac(got)
                    assert (got.numer, got.denom) == (want.numer, want.denom), (x, y)

    def test_products_are_reduced_only_in_their_sum(self, monkeypatch):
        """Counted on one seeded elimination with a trig pair: the relations
        reduce the quotients and the differences of ``_row_reduce`` that
        need it (4 ``PolyElement.rem`` calls), never a product
        ``factor*b`` before its difference is taken (13 calls)."""
        from sympy.polys.rings import PolyElement
        R = symcore.Rows.of(self._matrix(random.Random(2430), True, 4, 4))
        rem, calls = PolyElement.rem, []
        monkeypatch.setattr(PolyElement, "rem", lambda f, G: calls.append(f) or rem(f, G))
        assert symcore._row_reduce(R.F, R.rows) == [0, 1, 2]
        assert len(calls) == 4


class TestRowsOfNumbers:
    """Rows of ``QQ`` numbers are eliminated fraction-free on integers;
    sympy's own rref over ``QQ`` is the reference."""

    def _check(self, M):
        R, pivots = symcore.Rows.of(M).reduced()
        want, want_pivots = M.rref()
        assert R.F is None and tuple(pivots) == want_pivots, M
        assert all(type(x) is type(symcore.QQ.zero) for row in R.rows for x in row)
        assert R.to_matrix() == want[:len(pivots), :]
        assert rref(M) == (want, want_pivots)
        assert rank(M) == symcore.Rows.of(M).rank() == rank_at(M, {}) == len(want_pivots)

    def test_seeded_matrices_of_every_rank(self):
        rng = random.Random(1902)
        for rows, cols in [(1, 1), (1, 4), (3, 3), (4, 2), (2, 5), (5, 5)]:
            for r in range(min(rows, cols) + 1):
                for big in (False, True):
                    self._check(_rational_of_rank(rng, rows, cols, r, big))

    def test_no_rows_and_no_columns(self):
        for M in (sp.zeros(0, 3), sp.zeros(3, 0), sp.zeros(0, 0), sp.zeros(2, 3)):
            R, pivots = symcore.Rows.of(M).reduced()
            assert pivots == [] and R.rows == []
            assert symcore.Rows.of(M).rank() == 0

    def test_rank_at_a_point_matches_sympy(self):
        from conftest import random_poly
        rng = random.Random(1903)
        atoms = [x1, x2, sp.sin(x1), sp.cos(x2), sp.sin(2 * x2)]
        for i in range(60):
            M = _random_matrix(rng, lambda: random_poly(rng, atoms[:2 if i < 30 else 5],
                                                        2, 3, 2),
                               rng.randint(1, 4), rng.randint(1, 4))
            point = {x1: sp.Rational(rng.randint(-5, 5), rng.randint(1, 4)),
                     x2: sp.Rational(rng.randint(-5, 5), rng.randint(1, 4))}
            at = rank_at(M, point)
            assert at == numeric_rank(M, point)
            if i < 30:
                assert at == M.xreplace(point).rank()


class TestParse:
    SYMS = [sp.Symbol("x1"), sp.Symbol("x2"), sp.Symbol("u1"),
            sp.Symbol("x5")]

    def test_arithmetic(self):
        e = parse_expr("x1*(u1 - x2)^2 + 1/2", self.SYMS)
        assert e == x1 * (u1 - x2) ** 2 + sp.Rational(1, 2)

    def test_trig_single_symbol(self):
        e = parse_expr("sin(x5)*cos(x5)", self.SYMS)
        assert e == sp.sin(sp.Symbol("x5")) * sp.cos(sp.Symbol("x5"))

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("x1 + zz", self.SYMS)

    def test_compound_trig_argument_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("sin(x1 + x2)", self.SYMS)

    def test_float_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("0.5*x1", self.SYMS)

    def test_unsupported_function_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("exp(x1)", self.SYMS)

    def test_render_deterministic(self):
        e = parse_expr("x2 + x1*u1", self.SYMS)
        assert render(e) == render(u1 * x1 + x2)

    def test_sin_and_cos_stay_functions_where_a_symbol_has_their_name(self):
        sin = sp.Symbol("sin")
        assert parse_expr("sin(x1)", [sin, x1]) == sp.sin(x1)
        for text in ("sin", "sin + x1", "cos*x1"):
            with pytest.raises(ExprSyntaxError):
                parse_expr(text, [sin, sp.Symbol("cos"), x1])


def _same_as_reference(text, symbols):
    """parse_expr and the reference parser give srepr-identical trees, or
    both raise ExprSyntaxError."""
    try:
        want = sp.srepr(reference_parse_expr(text, symbols))
    except ExprSyntaxError:
        with pytest.raises(ExprSyntaxError):
            parse_expr(text, symbols)
        return
    assert sp.srepr(parse_expr(text, symbols)) == want, text


_EXPRESSION_KEYS = ("f", "h", "inverse", "phi", "Fx", "Fu", "state_map",
                    "input_map")
_SYSTEM_FILES = sorted(FIXTURES.glob("*.sys")) + sorted(
    (Path(__file__).resolve().parent / "golden" / "systems").glob("*.sys"))


@pytest.mark.parametrize("path", _SYSTEM_FILES, ids=lambda p: p.stem)
def test_every_file_expression_parses_as_the_reference_does(path):
    """Each expression line of the fixtures and golden systems, over the
    names that it uses."""
    fields = _collect(path.read_text())
    lines = [t for key in _EXPRESSION_KEYS for t in fields.get(key, ())]
    assert lines
    for text in lines:
        names = set(re.findall(r"[A-Za-z_]\w*", text)) - {"sin", "cos"}
        _same_as_reference(text, [sp.Symbol(nm) for nm in sorted(names)])


_DECLARED = [x1, x2, u1]
# zz is not declared; exponents stay small so that no power grows large
_LEAVES = st.one_of(
    st.sampled_from(["x1", "x2", "u1", "zz"]),
    st.integers(0, 12).map(str),
    st.builds("{}/{}".format, st.integers(0, 12), st.integers(0, 4)),
    st.builds("{}({})".format, st.sampled_from(["sin", "cos"]),
              st.sampled_from(["x1", "x2", "zz"])))


@st.composite
def fragments(draw, depth=4):
    """Text in the documented expression grammar, and a little outside it
    (undeclared names, zero denominators, non-integer powers)."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(_LEAVES)
    kind = draw(st.sampled_from(["binary", "power", "unary", "parens"]))
    a = draw(fragments(depth - 1))
    if kind == "binary":
        op = draw(st.sampled_from(["+", "-", "*", "/"]))
        return f"{a} {op} {draw(fragments(depth - 1))}"
    if kind == "power":
        op = draw(st.sampled_from(["^", "**"]))
        exponent = draw(st.sampled_from(["0", "1", "2", "3", "-1", "-2", "x1",
                                         "(1/2)"]))
        return f"({a}){op}{exponent}"
    if kind == "unary":
        return draw(st.sampled_from(["-", "+"])) + a
    return f"({a})"


# In Python ^ is XOR and binds more loosely than +, so these two parse
# differently unless ^ becomes ** first; x\uff11 is x1 once NFKC-normalized.
@example(text="x1 + 1^2")
@example(text="-x1^2")
@example(text="2^3^2")
@example(text="-2**-1")
@example(text="x\uff11")
@settings(max_examples=200)
@given(text=fragments())
def test_generated_fragments_parse_as_the_reference_does(text):
    _same_as_reference(text, _DECLARED)


class TestWrappersMatchTheRowKernel:
    """Each sympy-in, sympy-out function against the row kernel reached
    another way: matrices converted in pieces and stacked across fields,
    substitutions composed in the domain instead of by xreplace, and
    independent references where one exists, on seeded random entries with
    a parameter, sin/cos and multiple angles."""

    a = sp.Symbol("a")

    def _entries(self, rng):
        from conftest import random_poly
        a = self.a
        atoms = [x1, x2, a, sp.sin(x1), sp.cos(x1), sp.sin(2 * x1), sp.cos(a)]

        def entry():
            if rng.random() < 0.3:
                return sp.Integer(rng.randint(-2, 2))
            # a denominator that vanishes at the point only now and then
            den = x2**2 + random_poly(rng, [x2, a], 1, 2, 1) + rng.randint(0, 3)
            return random_poly(rng, atoms, 2, 3, 1) / den
        return entry

    def test_rref_rank_and_rank_at(self):
        rng = random.Random(51)
        from fwdflat.dtsys import _rank_at_point
        for _ in range(12):
            entry = self._entries(rng)
            top = _random_matrix(rng, entry, 2, 3)
            bottom = _random_matrix(rng, entry, 1, 3)
            M = top.col_join(bottom)
            stacked = symcore.Rows.stack(symcore.Rows.of(top), symcore.Rows.of(bottom))
            O, pivots = oracle_rref(M)
            R, rpivots = rref(M)
            S, spivots = stacked.reduced()
            assert pivots == rpivots == tuple(spivots)
            # the oracle's own canonical zero test, independent of the domain
            assert all(reference_is_zero(o - r) for o, r in zip(O, R))
            assert all(reference_is_zero(o - s) for o, s in zip(O, S.to_matrix()))
            assert rank(M) == stacked.rank() == len(pivots)
            point = {x1: sp.Rational(rng.randint(-3, 3), 2),
                     x2: sp.Rational(rng.randint(-3, 3), 2),
                     self.a: sp.Rational(rng.randint(1, 5))}
            at = rank_at(M, point)
            assert at == _rank_at_point(stacked, len(pivots),
                                        lambda: symcore.Substitution(point))
            # where no entry has a pole, clearing scales rows by nonzero
            # numbers, and the rank is that of the values
            if not M.xreplace(point).has(sp.zoo, sp.nan):
                assert at == numeric_rank(M, point)

    def test_jacobian(self):
        rng = random.Random(52)
        wrt = [x1, x2, self.a, u1]
        for _ in range(15):
            entry = self._entries(rng)
            exprs = [entry() for _ in range(3)]
            J = jacobian(exprs, wrt)
            pieces = symcore.Rows.stack(*(symcore.jacobian_rows([e], wrt) for e in exprs))
            for j, k in zip(J, pieces.to_matrix()):
                assert is_zero(j - k)
            for i, e in enumerate(exprs):
                for j, v in enumerate(wrt):
                    assert is_zero(J[i, j] - sp.diff(e, v))

    def test_substitution_and_cleared_rows(self):
        rng = random.Random(53)
        a = self.a
        z = sp.Symbol("z")
        mapping = {x1: z + a * z, x2: z / (1 + a)}
        for _ in range(15):
            M = _random_matrix(rng, self._entries(rng), 2, 3)
            R = symcore.Rows.of(M)
            composed = symcore.Substitution(mapping)(R)
            for c, e in zip(composed.to_matrix(), M.xreplace(mapping)):
                assert is_zero(c - e)
            assert rref(M.xreplace(mapping))[1] == tuple(composed.reduced()[1])
            cleared = R.cleared()
            assert all(type(c) is type(symcore.QQ.zero) or c.denom == 1
                       for row in cleared.rows for c in row)
            assert symcore.Rows.stack(R, cleared).rank() == R.rank() == cleared.rank()

    def test_substitution_of_numbers(self):
        """A value of 0 composes without a 0th power of it, and where every
        generator becomes a number the rows are evaluated, sin and cos at 0
        included."""
        R = symcore.Rows.of([[x1 * x2 + x2, x1 / (1 + x2)]])
        at_zero = symcore.Substitution({x1: 0})(R)
        assert at_zero.to_matrix() == sp.Matrix([[x2, 0]])
        S = symcore.Substitution({x1: 1, x2: 2})
        for M, want in ((R, [[4, sp.Rational(1, 3)]]),
                        (symcore.Rows.of([[x1 * sp.cos(x2 - 2), sp.sin(x2 - 2) + x1]]),
                         [[1, 1]])):
            evaluated = S(M)
            assert evaluated.F is None
            assert evaluated.to_matrix() == sp.Matrix(want)
        # a nonzero angle keeps its own pair: cos(1) and sin(1)
        assert S(symcore.Rows.of([[sp.sin(x1) * x2]])).to_matrix() == \
            sp.Matrix([[2 * sp.sin(1)]])
        with pytest.raises(PoleAtPoint):
            S(symcore.Rows.of([[x1 / (x2 - 2)]]))

    def test_backward_shift(self, running):
        from fwdflat.dtsys import backward_shift, backward_shift_oneform, build_adapted_chart
        from fwdflat.extcalc import OneForm
        ac = build_adapted_chart(running.system)
        th1, th2, th3 = ac.theta
        to_x = dict(zip(ac.theta, running.system.states))
        coeffs = (sp.sin(2 * th1) / (th2 + 1), sp.cos(th1) * th3, 1 + sp.sin(th1), 0, 0)
        back = backward_shift_oneform(OneForm(ac.chart, coeffs), ac)
        rows = backward_shift(symcore.Rows.of([coeffs]), ac)
        for b, r, c in zip(back.coeffs, rows.to_matrix(), coeffs):
            assert b == r
            assert is_zero(b - sp.sympify(c).xreplace(to_x))
