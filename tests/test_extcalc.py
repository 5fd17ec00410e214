import random

import pytest
import sympy as sp
from sympy.polys.domains import QQ

import reference
from conftest import random_poly
from fwdflat import extcalc, flatness, symcore
from fwdflat.errors import InternalInconsistency
from fwdflat.extcalc import (
    Chart,
    Codistribution,
    Distribution,
    OneForm,
    VectorField,
    add_oneforms,
    annihilator,
    basis_oneform,
    basis_vectorfield,
    contract,
    exterior_derivative,
    intersect,
    invariant_extension,
    is_cauchy_characteristic,
    is_integrable,
    lie_bracket,
    lie_derivative_form,
    parse_oneform,
    render_oneform,
    sub_oneforms,
)
from fwdflat.symcore import Rows, is_zero, normalize
from reference import oracle_rref, wedge, wedge_all, wedge_is_integrable

X4 = Chart(tuple(sp.Symbol(f"x{i}") for i in range(1, 5)))
X3 = Chart(tuple(sp.Symbol(f"x{i}") for i in range(1, 4)))
x1, x2, x3, x4 = X4.symbols


def is_invariant(P, D):
    """L_v w lies in P for every v in D and w in P."""
    return all(P.contains(lie_derivative_form(v, w))
               for v in D.basis for w in P.basis)


def span_df(sys):
    """span{df} on the (x, u) chart: the rows of the system's Jacobian."""
    ch = sys.chart
    J = sys.jacobian_rows().to_matrix()
    return Codistribution.span(ch, [OneForm(ch, tuple(J.row(i))) for i in range(sys.n)])


def reference_contains(P, w):
    """Membership by the elimination Codistribution used before its rank
    test: w reduced against the canonical basis pivot by pivot, every entry
    normalized, and the residual tested for zero."""
    res = list(w.coeffs)
    for e in P.basis:
        pc = next(i for i, c in enumerate(e.coeffs) if c == 1)
        factor = res[pc]
        if factor == 0:
            continue
        for j in range(P.chart.dim):
            res[j] = normalize(res[j] - factor * e.coeffs[j])
    return all(is_zero(c) for c in res)


def reference_equals(P, Q):
    """Equality by entrywise comparison of the canonical bases."""
    return (type(P) is type(Q) and P.chart == Q.chart and P.dim == Q.dim
            and all(is_zero(a - b) for ea, eb in zip(P.basis, Q.basis)
                    for a, b in zip(ea.coeffs, eb.coeffs)))


def running_chart(running):
    s = running.system
    return s.chart, s


def _sparse_oneform(rng, ch):
    """Random one-form with few nonzero, low-degree coefficients."""
    syms = list(ch.symbols)
    coeffs = [sp.Integer(0)] * ch.dim
    for i in rng.sample(range(ch.dim), rng.randint(1, 2)):
        coeffs[i] = random_poly(rng, syms, 2, 2, 1)
    return OneForm(ch, tuple(coeffs))


class TestExteriorDerivative:
    def test_scalar(self):
        w = exterior_derivative(x1 * x2, X4)
        assert w.coeffs == (x2, x1, 0, 0)

    def test_oneform(self):
        # d(x3*dx2) = dx3 ^ dx2 = -(dx2 ^ dx3)
        w = OneForm(X4, (0, x3, 0, 0))
        dw = exterior_derivative(w)
        assert dw.terms == {(1, 2): sp.Integer(-1)}

    def test_constant_coeffs_closed(self):
        w = OneForm(X4, (1, -2, 0, 3))
        assert exterior_derivative(w).is_zero_form()

    def test_dd_zero_randomized(self):
        rng = random.Random(2)
        syms = list(X4.symbols)
        for _ in range(100):
            f = random_poly(rng, syms)
            ddf = exterior_derivative(exterior_derivative(f, X4))
            assert ddf.is_zero_form()


class TestWedge:
    def test_self_zero(self):
        a = basis_oneform(X4, 0)
        assert wedge(a, a).is_zero_form()

    def test_antisymmetry(self):
        a, b = basis_oneform(X4, 0), basis_oneform(X4, 1)
        s = wedge(a, b).terms[(0, 1)] + wedge(b, a).terms.get((0, 1), 0)
        assert is_zero(s)

    def test_independence_iff_nonzero_randomized(self):
        rng = random.Random(4)
        syms = list(X4.symbols)
        for _ in range(100):
            forms = [OneForm(X4, tuple(random_poly(rng, syms, 2, 2, 1)
                                       for _ in range(4)))
                     for _ in range(rng.randint(2, 3))]
            M = sp.Matrix([list(f.coeffs) for f in forms])
            top = wedge_all(forms)
            assert (not top.is_zero_form()) == (len(oracle_rref(M)[1]) == len(forms))


class TestContract:
    def test_annihilation(self):
        v = basis_vectorfield(X4, 2)
        w = OneForm(X4, (0, x3, 0, 0))
        assert is_zero(contract(v, w))

    def test_cauchy_example_contractions(self):
        xa, xb, xc = X3.symbols
        w1 = OneForm(X3, (0, 1, xa))          # dx2 + x1 dx3
        w2 = OneForm(X3, (1, 0, -1))          # dx1 - dx3
        v = VectorField(X3, (1, -xa, 1))
        got1 = contract(v, exterior_derivative(w1))
        assert got1.coeffs == (-1, 0, 1)      # -dx1 + dx3
        got2 = contract(v, exterior_derivative(w2))
        assert got2.is_zero_form()


class TestLieDerivative:
    def test_example_simple(self):
        v = basis_vectorfield(X4, 2)
        w = OneForm(X4, (0, x3, 0, 0))
        assert lie_derivative_form(v, w).coeffs == (0, 1, 0, 0)

    def test_example_quadratic(self):
        v = basis_vectorfield(X4, 3)
        w = OneForm(X4, (-x2 * x4, 0, 0, x4 ** 2))
        assert lie_derivative_form(v, w).coeffs == (-x2, 0, 0, 2 * x4)

    def test_running_example_value(self, running):
        ch, s = running_chart(running)
        X1, U1, U2 = s.states[0], s.inputs[0], s.inputs[1]
        v2 = VectorField(ch, (-X1, U1 - U2, 0, U1 - U2, 0))
        w1 = OneForm(ch, (U1 - U2, X1, 0, 0, 0))
        got = lie_derivative_form(v2, w1)
        # hand computation via Cartan's formula: v2 .| w1 = 0 and
        # v2 .| dw1 = -x1 dx2 + x1 du1 - x1 du2
        assert got.coeffs == (0, -X1, 0, X1, -X1)
        # equivalent modulo w1 to the representative (u1-u2)dx1 + x1du1 - x1du2
        alt = add_oneforms(got, w1)
        assert alt.coeffs == (U1 - U2, 0, 0, X1, -X1)

    def test_cartan_identity_randomized(self):
        rng = random.Random(6)
        syms = list(X4.symbols)
        for _ in range(100):
            v = VectorField(X4, tuple(random_poly(rng, syms, 2, 2, 1)
                                      for _ in range(4)))
            w = OneForm(X4, tuple(random_poly(rng, syms, 2, 2, 1)
                                  for _ in range(4)))
            lhs = lie_derivative_form(v, w)
            rhs = add_oneforms(contract(v, exterior_derivative(w)),
                               exterior_derivative(contract(v, w), X4))
            assert sub_oneforms(lhs, rhs).is_zero_form()


class TestLieBracket:
    def test_coordinate_fields_commute(self):
        assert lie_bracket(basis_vectorfield(X4, 0),
                           basis_vectorfield(X4, 1)).is_zero_field()

    def test_antisymmetry(self):
        v = VectorField(X4, (x1 * x2, x3, 0, 1))
        assert lie_bracket(v, v).is_zero_field()

    def test_scaling_field(self):
        v = VectorField(X4, (x1, 0, 0, 0))
        w = basis_vectorfield(X4, 0)
        assert lie_bracket(v, w).coeffs == (-1, 0, 0, 0)


class TestAnnihilators:
    def test_span_df_running(self, running):
        ch, s = running_chart(running)
        D = annihilator(span_df(s))
        assert D.dim == 2
        X1, U1, U2 = s.states[0], s.inputs[0], s.inputs[1]
        v1 = VectorField(ch, (0, 0, 1, 0, 0))
        v2 = VectorField(ch, (-X1, U1 - U2, 0, U1 - U2, 0))
        assert D.contains(v1) and D.contains(v2)

    def test_full_span_annihilates_to_zero(self):
        P = Codistribution.span(X3, [basis_oneform(X3, i) for i in range(3)])
        assert annihilator(P).dim == 0

    def test_zero_codistribution(self):
        P = Codistribution.span(X3, [])
        assert annihilator(P).dim == 3

    def test_zero_distribution(self):
        D = Distribution.span(X3, [])
        assert annihilator(D).dim == 3

    def test_dual_types_stay_apart(self):
        D = annihilator(Codistribution.span(X3, [basis_oneform(X3, 0)]))
        assert type(D) is Distribution
        assert type(annihilator(D)) is Codistribution
        same_rows = Codistribution.span(X3, [basis_oneform(X3, 1),
                                             basis_oneform(X3, 2)])
        assert [v.coeffs for v in D.basis] == [w.coeffs for w in same_rows.basis]
        assert not D.equals(same_rows) and D != same_rows
        with pytest.raises(TypeError):
            D.contains(basis_oneform(X3, 1))

    def test_span_refuses_the_other_element_type(self):
        with pytest.raises(TypeError, match="expected a VectorField"):
            Distribution.span(X3, [basis_oneform(X3, 0)])
        with pytest.raises(TypeError, match="expected a OneForm"):
            Codistribution.span(X3, [basis_vectorfield(X3, 0)])

    @pytest.mark.parametrize("rows", [
        [[2, 0, 0]],                  # pivot not 1
        [[0, 1, 0], [1, 0, 0]],       # pivots out of order
        [[1, 1, 0], [0, 1, 0]],       # entry above a pivot
        [[1, 0, 0], [0, 0, 0]],       # zero row
        [[1, 0]],                     # width is not the chart's
    ], ids=["scaled", "unordered", "not-reduced", "zero-row", "width"])
    def test_constructor_refuses_rows_not_in_reduced_echelon_form(self, rows):
        R = Rows(None, [[QQ(a) for a in row] for row in rows], len(rows[0]))
        with pytest.raises(InternalInconsistency, match="reduced row echelon"):
            Codistribution(X3, R)

    def test_constructor_refuses_an_unreduced_field_row(self):
        with pytest.raises(InternalInconsistency, match="reduced row echelon"):
            Distribution(X3, Rows.of([[x1, 1, 0]]))
        assert Distribution(X3, Rows.of([[x1, 1, 0]]).reduced()[0]).dim == 1

    def test_duality_randomized(self):
        rng = random.Random(8)
        for _ in range(100):
            n = rng.choice([3, 4])
            ch = Chart(tuple(sp.Symbol(f"x{i}") for i in range(1, n + 1)))
            P = Codistribution.span(
                ch, [_sparse_oneform(rng, ch) for _ in range(rng.randint(1, 2))])
            Q = annihilator(annihilator(P))
            assert Q.equals(P)


PARAMS = sp.symbols("p1 p2")  # symbols outside every chart


def _coefficient(rng, kind, syms):
    """A random coefficient: a rational function, a polynomial in the
    coordinates and one sin or cos of a coordinate, or a polynomial that
    also holds parameters."""
    if kind == "rational":
        return random_poly(rng, syms, 2, 3, 1) / random_poly(rng, syms, 2, 3, 1)
    if kind == "trig":
        trig = rng.choice((sp.sin, sp.cos))(rng.choice(syms))
        return random_poly(rng, syms + [trig], 2, 3, 2)
    return random_poly(rng, syms + list(PARAMS), 2, 3, 2)


def _hide_zeros(rng, w, syms):
    """w with sin(x)**2 + cos(x)**2, which is 1 only modulo the side
    relation, as a factor of one coefficient and, minus 1, as a factor of a
    summand of another."""
    def pythagoras():
        s = rng.choice(syms)
        return sp.sin(s) ** 2 + sp.cos(s) ** 2

    coeffs = list(w.coeffs)
    i, j = rng.sample(range(len(coeffs)), 2)
    coeffs[i] *= pythagoras()
    coeffs[j] += (pythagoras() - 1) * random_poly(rng, syms)
    return OneForm(w.chart, tuple(coeffs))


def _combination(rng, forms, ch):
    """Σ r_i forms[i] with random polynomial multipliers r_i."""
    total = OneForm(ch, (0,) * ch.dim)
    for w in forms:
        r = random_poly(rng, list(ch.symbols), 2, 3, 1)
        total = add_oneforms(total, OneForm(ch, tuple(r * c for c in w.coeffs)))
    return total


def _row_space_instance(rng, kind, ch, member):
    """(P, w, Q): P spanned by random generators; w in P, or w in P plus a
    coordinate form; Q spanned by P's generators mixed, or with one of them
    replaced by a random form.  Hidden zeros sit in w and in Q's generators."""
    syms = list(ch.symbols)
    gens = [OneForm(ch, tuple(_coefficient(rng, kind, syms) if rng.random() < 0.6
                              else 0 for _ in range(ch.dim)))
            for _ in range(rng.randint(1, 2))]
    w = _hide_zeros(rng, _combination(rng, gens, ch), syms)
    mixed = [_hide_zeros(rng, add_oneforms(g, _combination(rng, gens[k + 1:], ch)), syms)
             for k, g in enumerate(gens)]
    if not member:
        w = add_oneforms(w, basis_oneform(ch, rng.randrange(ch.dim)))
        mixed[rng.randrange(len(mixed))] = OneForm(ch, tuple(
            random_poly(rng, syms, 2, 3, 1) for _ in range(ch.dim)))
    return Codistribution.span(ch, gens), w, Codistribution.span(ch, mixed)


class TestRowSpaceTestsByRank:
    """contains and equals, decided by one rank, agree with the pivot
    elimination and the entrywise comparison they replaced."""

    def test_agree_with_the_references_randomized(self):
        rng = random.Random(12)
        outcomes = {"contains": [], "equals": []}
        for i in range(102):
            P, w, Q = _row_space_instance(rng, ("rational", "trig", "params")[i % 3],
                                          X4, member=i % 2 == 0)
            expected = reference_contains(P, w)
            assert P.contains(w) == expected
            outcomes["contains"].append(expected)
            expected = reference_equals(P, Q)
            assert P.equals(Q) == expected == Q.equals(P)
            outcomes["equals"].append(expected)
        for name, results in outcomes.items():
            assert results.count(True) >= 30, name
            assert results.count(False) >= 30, name

    @pytest.mark.parametrize("name", ["running", "vtol"])
    def test_one_rank_and_no_canonical_form(self, name, request, monkeypatch):
        """On the sequence of a fixture, each contains and each equals call
        takes one Rows.rank and neither normalizes an entry nor calls the
        zero test."""
        report = flatness.compute_sequence(request.getfixturevalue(name).system)
        pairs = [(a.P, b.P) for a, b in zip(report.steps, report.steps[1:])]
        reordered = [Codistribution.span(P.chart, P.basis[::-1]) for P, _ in pairs]
        calls = []

        def counting(label, f):
            return lambda *args: calls.append(label) or f(*args)

        monkeypatch.setattr(Rows, "rank", counting("rank", Rows.rank))
        for module in (symcore, extcalc):
            for label in ("normalize", "is_zero"):
                monkeypatch.setattr(module, label,
                                    counting(label, getattr(module, label)))
        for (P, P_next), same in zip(pairs, reordered):
            for check in (lambda: P.contains(*P_next.basis),
                          lambda: P.equals(same)):
                calls.clear()
                assert check()
                assert calls == ["rank"]


class TestIntersect:
    def test_running_intersection(self, running):
        ch, s = running_chart(running)
        P1 = Codistribution.span(ch, [basis_oneform(ch, i) for i in range(3)])
        got = intersect(P1, span_df(s))
        X1, U1, U2 = s.states[0], s.inputs[0], s.inputs[1]
        expect = Codistribution.span(ch, [OneForm(ch, (U1 - U2, X1, 0, 0, 0))])
        assert got.equals(expect)

    def test_idempotent(self):
        P = Codistribution.span(X4, [OneForm(X4, (x2, 1, 0, x1)),
                                     basis_oneform(X4, 2)])
        assert intersect(P, P).equals(P)

    def test_distributions_intersect_to_a_distribution(self):
        D = intersect(Distribution.span(X3, [basis_vectorfield(X3, 0),
                                             basis_vectorfield(X3, 1)]),
                      Distribution.span(X3, [basis_vectorfield(X3, 1),
                                             basis_vectorfield(X3, 2)]))
        assert type(D) is Distribution
        assert D.equals(Distribution.span(X3, [basis_vectorfield(X3, 1)]))

    def test_mixed_types_refused(self):
        P = Codistribution.span(X3, [basis_oneform(X3, 0)])
        D = Distribution.span(X3, [basis_vectorfield(X3, 0)])
        for a, b in ((P, D), (D, P)):
            with pytest.raises(TypeError, match="cannot intersect"):
                intersect(a, b)

    def test_duality_randomized(self):
        rng = random.Random(10)
        for _ in range(100):
            ch = X4
            mk = lambda p: Codistribution.span(
                ch, [_sparse_oneform(rng, ch) for _ in range(p)])
            P, Q = mk(rng.randint(1, 2)), mk(rng.randint(1, 2))
            # (P cap Q)_perp = P_perp + Q_perp as row spaces
            got = intersect(P, Q)
            assert got == reference.intersect(P, Q)
            lhs = annihilator(got)
            dp = annihilator(P)
            dq = annihilator(Q)
            rhs = Distribution.span(ch, dp.basis + dq.basis)
            assert lhs.equals(rhs)


class TestIntegrability:
    def test_exact_differentials(self):
        P = Codistribution.span(X3, [basis_oneform(X3, 0), basis_oneform(X3, 1)])
        assert is_integrable(P)

    def test_academic_terminal_basis(self):
        ch = Chart(tuple(sp.Symbol(f"x{i}") for i in range(1, 6)))
        a1, a2, a3, a4, a5 = ch.symbols
        P = Codistribution.span(ch, [
            OneForm(ch, (a2 + 1, -a1, 0, 0, 0)),
            OneForm(ch, (0, 0, 1, 0, -1)),
        ])
        assert is_integrable(P)

    def test_contact_form_not_integrable(self):
        xa = X3.symbols[0]
        P = Codistribution.span(X3, [OneForm(X3, (0, 1, xa))])
        assert not is_integrable(P)

    def test_builds_no_wedge(self, monkeypatch):
        """The criterion runs on the reduced rows: neither a basis of closed
        forms nor one with a nonzero dw takes d or builds a k-form (the
        wedge itself is only a test reference)."""
        def refuse(*args):
            raise AssertionError("wedge calculus used")

        for name in ("exterior_derivative", "KForm"):
            monkeypatch.setattr(extcalc, name, refuse)
        closed = Codistribution.span(X3, [OneForm(X3, (1, 0, 1)),
                                          OneForm(X3, (0, 1, 0))])
        assert is_integrable(closed)
        xa = X3.symbols[0]
        assert not is_integrable(Codistribution.span(X3, [OneForm(X3, (0, 1, xa))]))


class TestIntegrabilityAgainstTheWedge:
    """The row criterion agrees with the wedge criterion it replaced, on
    seeded codistributions on a 4-dimensional chart with a parameter a:
    spans of exact differentials rescaled and mixed by nonzero functions
    with sin/cos and a, and random forms, most of them not integrable."""

    a = sp.Symbol("a")

    def _function(self, rng):
        atoms = [x1, x2, x3, x4, self.a, sp.sin(x1), sp.cos(x2), sp.sin(x3)]
        return random_poly(rng, atoms, 2, 3, 2)

    def _scale(self, rng):
        """A function that is not the zero function."""
        a = self.a
        return rng.choice([a * (1 + x1**2), 2 + sp.sin(x2), sp.cos(x3),
                           a + x4**2, x1 - a * sp.cos(x4), sp.Integer(-3)])

    def _scaled(self, rng, w):
        g = self._scale(rng)
        return OneForm(X4, tuple(g * c for c in w.coeffs))

    def _integrable(self, rng):
        p = rng.randint(1, 3)
        exact = [exterior_derivative(self._function(rng), X4) for _ in range(p)]
        forms = [self._scaled(rng, w) for w in exact]
        if p > 1 and rng.random() < 0.5:
            forms[0] = add_oneforms(forms[0], self._scaled(rng, exact[1]))
        return Codistribution.span(X4, forms)

    def _random(self, rng):
        syms = [x1, x2, x3, x4, self.a]
        forms = [OneForm(X4, tuple(random_poly(rng, syms, 2, 2, 1)
                                   if rng.random() < 0.6 else 0 for _ in range(4)))
                 for _ in range(rng.randint(1, 2))]
        return Codistribution.span(X4, forms)

    def test_agree_randomized(self):
        rng = random.Random(61)
        contact = OneForm(X4, (0, 1, x1, 0))
        instances = [Codistribution.span(X4, [contact]),
                     Codistribution.span(X4, [contact, basis_oneform(X4, 3)]),
                     Codistribution.span(X4, [self._scaled(rng, contact)])]
        instances += [self._integrable(rng) for _ in range(44)]
        instances += [self._random(rng) for _ in range(16)]
        outcomes = []
        for P in instances:
            expected = wedge_is_integrable(P)
            assert is_integrable(P) == expected, P.basis
            outcomes.append(expected)
        assert outcomes[:3] == [False] * 3
        assert outcomes.count(True) >= 40
        assert outcomes.count(False) >= 10

    @pytest.mark.parametrize("name", ["running", "academic", "vtol", "nonflat"])
    def test_agree_on_the_fixtures(self, name, request):
        report = flatness.compute_sequence(request.getfixturevalue(name).system)
        for step in report.steps:
            assert is_integrable(step.P) and wedge_is_integrable(step.P)


class TestInvariance:
    def _example_P(self):
        w1 = OneForm(X4, (0, x3, 0, 0))
        w2 = OneForm(X4, (-x2 * x4, 0, 0, x4 ** 2))
        return Codistribution.span(X4, [w1, w2]), w1, w2

    def test_invariant_single_field(self):
        P, _, _ = self._example_P()
        D = Distribution.span(X4, [basis_vectorfield(X4, 2)])
        assert is_invariant(P, D)

    def test_not_invariant_pair(self):
        P, _, _ = self._example_P()
        D = Distribution.span(X4, [basis_vectorfield(X4, 2),
                                   basis_vectorfield(X4, 3)])
        assert not is_invariant(P, D)

    def test_zero_codistribution_invariant(self):
        P = Codistribution.span(X4, [])
        D = Distribution.span(X4, [basis_vectorfield(X4, 0)])
        assert is_invariant(P, D)


class TestInvariantExtension:
    def test_extension_example(self):
        w1 = OneForm(X4, (0, x3, 0, 0))
        w2 = OneForm(X4, (-x2 * x4, 0, 0, x4 ** 2))
        P = Codistribution.span(X4, [w1, w2])
        D = Distribution.span(X4, [basis_vectorfield(X4, 2),
                                   basis_vectorfield(X4, 3)])
        Phat = invariant_extension(P, D)
        added = OneForm(X4, (-x2, 0, 0, 2 * x4))
        expect = Codistribution.span(X4, [w1, w2, added])
        assert Phat.dim == 3
        assert Phat.equals(expect)
        assert is_invariant(Phat, D)

    def test_fixed_point(self):
        P = Codistribution.span(X4, [basis_oneform(X4, 0)])
        D = Distribution.span(X4, [basis_vectorfield(X4, 1)])
        assert invariant_extension(P, D).equals(P)

    def test_refuses_rows_of_the_wrong_type(self):
        P = Codistribution.span(X4, [basis_oneform(X4, 0)])
        D = Distribution.span(X4, [basis_vectorfield(X4, 1)])
        for args in ((P, P), (D, D), (D, P)):
            with pytest.raises(TypeError, match="a Codistribution and a Distribution"):
                invariant_extension(*args)

    def test_running_example_extension(self, running):
        ch, s = running_chart(running)
        X1, U1, U2 = s.states[0], s.inputs[0], s.inputs[1]
        w1 = OneForm(ch, (U1 - U2, X1, 0, 0, 0))
        P = Codistribution.span(ch, [w1])
        D = annihilator(span_df(s))
        Phat = invariant_extension(P, D)
        lv2w1 = OneForm(ch, (U1 - U2, 0, 0, X1, -X1))
        assert Phat.dim == 2
        assert Phat.equals(Codistribution.span(ch, [w1, lv2w1]))

    def test_contains_input_and_minimality_spot_check(self):
        w1 = OneForm(X4, (0, x3, 0, 0))
        w2 = OneForm(X4, (-x2 * x4, 0, 0, x4 ** 2))
        P = Codistribution.span(X4, [w1, w2])
        D = Distribution.span(X4, [basis_vectorfield(X4, 2),
                                   basis_vectorfield(X4, 3)])
        Phat = invariant_extension(P, D)
        assert all(Phat.contains(w) for w in P.basis)
        # independently supplied invariant superset: the full cotangent space
        Q = Codistribution.span(X4, [basis_oneform(X4, i) for i in range(4)])
        assert is_invariant(Q, D)
        assert all(Q.contains(w) for w in Phat.basis)


class TestCauchy:
    def _cauchy_P(self):
        xa = X3.symbols[0]
        w1 = OneForm(X3, (0, 1, xa))
        w2 = OneForm(X3, (1, 0, -1))
        return Codistribution.span(X3, [w1, w2])

    def test_membership(self):
        P = self._cauchy_P()
        xa = X3.symbols[0]
        v = VectorField(X3, (1, -xa, 1))
        assert is_cauchy_characteristic(v, P)

    def test_nonmember(self):
        P = self._cauchy_P()
        assert not is_cauchy_characteristic(basis_vectorfield(X3, 1), P)

    def test_zero_field(self):
        P = self._cauchy_P()
        assert is_cauchy_characteristic(VectorField(X3, (0, 0, 0)), P)

    def test_extension_is_cauchy_superset(self):
        # an invariant extension with D .| P = 0 has D inside Cauchy(P_hat),
        # and every contraction of the extension against D vanishes
        w1 = OneForm(X4, (0, x3, 0, 0))
        w2 = OneForm(X4, (-x2 * x4, 0, 0, x4 ** 2))
        P = Codistribution.span(X4, [w1, w2])
        D = Distribution.span(X4, [basis_vectorfield(X4, 2)])
        Phat = invariant_extension(P, D)
        for v in D.basis:
            for w in Phat.basis:
                assert is_zero(contract(v, w))
            assert is_cauchy_characteristic(v, Phat)


class TestRendering:
    def test_render_parse_round_trip(self):
        w = OneForm(X3, (X3.symbols[1] - X3.symbols[0], 0, sp.Integer(-1)))
        text = render_oneform(w)
        back = parse_oneform(text, X3)
        assert all(is_zero(a - b) for a, b in zip(w.coeffs, back.coeffs))

    def test_render_style(self):
        ch = Chart((sp.Symbol("x1"), sp.Symbol("x2"), sp.Symbol("u1")))
        u1s, x1s = sp.Symbol("u1"), sp.Symbol("x1")
        w = OneForm(ch, (u1s - x1s, x1s, 0))
        assert render_oneform(w) == "(u1 - x1)*dx1 + x1*dx2"


Y3 = Chart(sp.symbols("y1 y2 y3"))


class TestRowSpaceAgainstTheReferences:
    """The row-space class on its held rows agrees with the sympy
    references it replaced, on seeded instances."""

    @staticmethod
    def _map(rng, trig):
        """Two expressions on X4 for y1, y2: polynomials, or with sin/cos of
        a coordinate."""
        syms = list(X4.symbols)
        atoms = syms + ([rng.choice((sp.sin, sp.cos))(rng.choice(syms))]
                        if trig else [])
        return [random_poly(rng, atoms, 3, 3, 2) for _ in range(2)]

    @staticmethod
    def _forms(rng, trig):
        """One or two forms on Y3 along dy1, dy2, with coefficients that
        hold sin(y1) when trig."""
        y1, y2, _ = Y3.symbols
        atoms = [y1, y2] + ([sp.sin(y1)] if trig else [])
        return [OneForm(Y3, (random_poly(rng, atoms, 2, 3, 2),
                             random_poly(rng, atoms, 2, 3, 1)
                             if rng.random() < 0.7 else 0, 0))
                for _ in range(rng.randint(1, 2))]

    def test_pullback_randomized(self):
        rng = random.Random(1313)
        dims = []
        for i in range(40):
            trig = i % 2 == 1
            old_in_new = self._map(rng, trig)
            P = Codistribution.span(Y3, self._forms(rng, trig))
            got = extcalc.pullback(old_in_new, X4)(P)
            expected = reference.pullback(old_in_new, X4)(P.basis)
            assert got.equals(expected) and got == expected, (old_in_new, P.basis)
            dims.append(got.dim)
        assert dims.count(0) < 40 and max(dims) == 2

    def test_pullback_refuses_a_dropped_component(self):
        rng = random.Random(1414)
        for i in range(10):
            old_in_new = self._map(rng, i % 2 == 1)
            w = OneForm(Y3, (random_poly(rng, list(Y3.symbols)), 0,
                             random_poly(rng, list(Y3.symbols))))
            for pull in (lambda: extcalc.pullback(old_in_new, X4)(
                             Codistribution.span(Y3, [w])),
                         lambda: reference.pullback(old_in_new, X4)([w])):
                with pytest.raises(InternalInconsistency, match="drops"):
                    pull()

    def test_annihilator_randomized(self):
        rng = random.Random(1515)
        for i in range(60):
            ch = X4 if i % 2 else X3
            P = Codistribution.span(ch, [_sparse_oneform(rng, ch)
                                         for _ in range(rng.randint(0, 3))])
            got = annihilator(P)
            M = sp.Matrix(P.dim, ch.dim, [c for w in P.basis for c in w.coeffs])
            kernel = reference.nullspace(M) if P.dim else [
                sp.eye(ch.dim).col(j) for j in range(ch.dim)]
            expected = Distribution.span(ch, [VectorField(ch, tuple(v))
                                              for v in kernel])
            assert got.dim == ch.dim - P.dim
            assert got.equals(expected) and got == expected

    def test_equality_is_span_equality(self, monkeypatch):
        """== is equals, and the hash agrees, although sin(2 x1) and
        2 sin(x1) cos(x1) print differently; neither builds a sympy form."""
        P = Codistribution.span(X3, [OneForm(X3, (1, sp.sin(2 * x1), 0))])
        Q = Codistribution.span(X3, [OneForm(X3, (1, 2 * sp.sin(x1) * sp.cos(x1), 0))])
        R = Codistribution.span(X3, [OneForm(X3, (1, sp.sin(x1), 0))])
        expressions, to_expr = [], Rows.to_expr
        monkeypatch.setattr(Rows, "to_expr", lambda rows, x: (
            expressions.append(x) or to_expr(rows, x)))
        assert P.equals(Q) and P == Q and hash(P) == hash(Q)
        assert P != R and not P.equals(R)
        assert expressions == []

    def test_spans_ignore_order_and_scale(self):
        rng = random.Random(1616)
        for i in range(40):
            ch = X4
            forms = [_sparse_oneform(rng, ch) for _ in range(rng.randint(1, 3))]
            scales = [rng.choice((sp.Integer(-2), x1 + 1, 2 + sp.sin(x2),
                                  sp.cos(x3), x4**2 + x1**2 + 1))
                      for _ in forms]
            shuffled = list(zip(forms, scales))
            rng.shuffle(shuffled)
            P = Codistribution.span(ch, forms)
            Q = Codistribution.span(ch, [OneForm(ch, tuple(g * c for c in w.coeffs))
                                         for w, g in shuffled])
            assert P == Q and P.equals(Q) and Q.equals(P)
            assert hash(P) == hash(Q)


class TestCalculusAgainstTheReferences:
    """The row calculus agrees with the sympy references of
    tests/reference.py, which differentiate by sp.diff, on seeded fields
    and forms that are not constant and hold sin/cos of a state."""

    @staticmethod
    def _coeff(rng, ch, density=1.0):
        atoms = list(ch.symbols) + [sp.sin(ch.symbols[0]), sp.cos(ch.symbols[1])]
        return random_poly(rng, atoms, 2, 3, 2) if rng.random() < density else 0

    def _field(self, rng, ch, density=1.0):
        return VectorField(ch, tuple(self._coeff(rng, ch, density) for _ in range(ch.dim)))

    def _form(self, rng, ch, density=1.0):
        return OneForm(ch, tuple(self._coeff(rng, ch, density) for _ in range(ch.dim)))

    @staticmethod
    def _same(a, b):
        return all(is_zero(x - y) for x, y in zip(a, b))

    def test_lie_derivative_bracket_and_d_randomized(self):
        rng = random.Random(7171)
        for _ in range(30):
            v, w = self._field(rng, X4), self._field(rng, X4)
            omega = self._form(rng, X4)
            f = self._coeff(rng, X4)
            assert self._same(lie_derivative_form(v, omega).coeffs,
                              reference.lie_derivative_form(v, omega).coeffs)
            assert self._same(lie_bracket(v, w).coeffs,
                              reference.lie_bracket(v, w).coeffs)
            got, expected = exterior_derivative(omega), reference.exterior_derivative(omega)
            assert self._same([got.terms.get(k, 0) for k in expected.terms],
                              expected.terms.values())
            assert got.terms.keys() == expected.terms.keys()
            assert self._same(exterior_derivative(f, X4).coeffs,
                              reference.exterior_derivative(f, X4).coeffs)

    def test_invariant_extension_randomized(self):
        """Fields with a unit pivot and forms with a unit last coefficient,
        of degree 1 in the states, sin(x1) and cos(x2), so that the
        coefficients of the closure stay small."""
        rng = random.Random(2)
        atoms = [x1, x2, x3, sp.sin(x1), sp.cos(x2)]

        def poly(density):
            return random_poly(rng, atoms, 2, 3, 1) if rng.random() < density else 0

        grew = []
        for _ in range(16):
            p = rng.randint(1, 2)
            D = Distribution.span(X3, [VectorField(X3, tuple(
                1 if j == i else poly(0.7) if j >= p else 0 for j in range(3)))
                for i in range(p)])
            P = Codistribution.span(X3, [OneForm(X3, (poly(0.7), poly(0.5), 1))])
            got = invariant_extension(P, D)
            assert got == reference.invariant_extension(P, D), (P.basis, D.basis)
            grew.append(got.dim - P.dim)
        assert grew.count(0) >= 2 and grew.count(1) >= 4 and grew.count(2) >= 2
