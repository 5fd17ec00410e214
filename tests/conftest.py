import random
from datetime import timedelta
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import settings

from fwdflat import symcore
from fwdflat.dtsys import DiscreteTimeSystem
from fwdflat.sysfile import parse_system_file

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# every run draws the same examples, and keeps no example database
settings.register_profile("fwdflat", derandomize=True,
                          deadline=timedelta(seconds=30), database=None)
settings.load_profile("fwdflat")


@pytest.fixture(autouse=True)
def _fresh_session():
    symcore.configure(seed=0, samples=8)
    yield


@pytest.fixture(scope="session")
def running():
    return parse_system_file(FIXTURES / "running.sys")


@pytest.fixture(scope="session")
def academic():
    return parse_system_file(FIXTURES / "academic.sys")


@pytest.fixture(scope="session")
def vtol():
    return parse_system_file(FIXTURES / "vtol.sys")


@pytest.fixture(scope="session")
def nonflat():
    return parse_system_file(FIXTURES / "nonflat.sys")


def random_poly(rng: random.Random, syms, max_terms=3, max_coeff=4, max_deg=2):
    """Small random polynomial over the given sympy symbols."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        c = rng.randint(-max_coeff, max_coeff)
        if c == 0:
            c = 1
        t = sp.Integer(c)
        for _ in range(rng.randint(0, max_deg)):
            t *= rng.choice(syms)
        terms.append(t)
    e = sp.Add(*terms)
    return e if e != 0 else sp.Integer(1)


ENTRY_KINDS = ("QQ", "field", "trig")


def random_entry(rng: random.Random, kind: str, syms):
    """A random matrix entry of one kind: a rational number ("QQ"), a
    rational function in syms ("field"), or one that also holds sin and cos
    of a symbol, so a generator pair c_a, s_a ("trig")."""
    if kind == "QQ" or rng.random() < 0.2:
        return sp.Rational(rng.randint(-4, 4), rng.randint(1, 3))
    e = random_poly(rng, syms, 2, 3, 1)
    if rng.random() < 0.3:
        e /= random_poly(rng, syms, 2, 2, 1) + 5
    if kind == "trig":
        e += rng.choice((sp.sin, sp.cos))(rng.choice(syms)) * random_poly(rng, syms, 1, 2, 1)
    return e


def random_reduced_rows(rng: random.Random, kind: str, width: int, rank: int, syms):
    """Seeded rows in reduced row echelon form, as symcore.Rows, of the
    given width and rank: unit pivots at random columns, zeros above and
    below them, and random entries of the kind (see random_entry) in the
    free columns after each pivot."""
    pivots = sorted(rng.sample(range(width), rank))
    M = sp.zeros(rank, width)
    for i, p in enumerate(pivots):
        M[i, p] = 1
        for j in range(p + 1, width):
            if j not in pivots and rng.random() < 0.7:
                M[i, j] = random_entry(rng, kind, syms)
    R, found = symcore.Rows.of(M).reduced()
    assert found == pivots
    return R


def random_affine_system(rng: random.Random, n: int, m: int):
    """A submersive x+ = Ax + Bu + c with the entries of A and B in -2..2,
    an equilibrium with entries in -1..1, and c the offset that it fixes.

    Half the systems declare a parameter a.  The equilibrium pins the
    constant term of f to a rational, so a enters f only as an offset that
    the exact domain reduces to a constant, cos(a)**2 + sin(a)**2 - 1.  A
    third of the systems supply an affine complement h with an invertible
    (f, h) Jacobian; its offsets are genuine: + a, + sin(a) or + 1.
    """
    x, u = sp.symbols(f"x1:{n + 1}"), sp.symbols(f"u1:{m + 1}")
    a = sp.Symbol("a")
    while True:
        A = sp.Matrix(n, n, lambda i, j: rng.randint(-2, 2))
        B = sp.Matrix(n, m, lambda i, j: rng.randint(-2, 2))
        if sp.Matrix.hstack(A, B).rank() == n:
            break
    x0 = sp.Matrix([rng.randint(-1, 1) for _ in range(n)])
    u0 = sp.Matrix([rng.randint(-1, 1) for _ in range(m)])
    f = list(A * sp.Matrix(x) + B * sp.Matrix(u) + x0 - A * x0 - B * u0)
    params = (a,) if rng.random() < 0.5 else ()
    if params:
        f[rng.randrange(n)] += sp.cos(a) ** 2 + sp.sin(a) ** 2 - 1
    h = None
    if rng.random() < 1 / 3:
        offsets = (0, 1, a, sp.sin(a)) if params else (0, 1)
        while True:
            C = sp.Matrix(m, n + m, lambda i, j: rng.randint(-2, 2))
            if sp.Matrix.vstack(sp.Matrix.hstack(A, B), C).det() != 0:
                break
        h = tuple(e + rng.choice(offsets) for e in C * sp.Matrix(x + u))
    return DiscreteTimeSystem(states=x, inputs=u, f=tuple(f), x0=tuple(x0),
                              u0=tuple(u0), params=params, complement_h=h)


def transformed_linear_systems(rng: random.Random, count: int):
    """(A, B, system) for count pairs (A, B) with n in 3..4, m in 1..2,
    entries in -2..2, [A, B] of rank n and B of rank m.  The system is
    x+ = Ax + Bu written in z and v, with x_i = z_i + p_i(z_<i) and
    u_j = v_j + q_j(z) for polynomials p, q of degree at most 2 with at
    most 2 terms and no constant term: a state transformation and a static
    feedback, which keep the equilibrium at 0."""
    def poly(syms):
        p = random_poly(rng, syms, 2, 2, 2) if syms else sp.Integer(0)
        return p - p.xreplace(dict.fromkeys(syms, 0))

    for _ in range(count):
        n, m = rng.choice((3, 4)), rng.choice((1, 2))
        while True:
            A = sp.Matrix(n, n, lambda i, j: rng.randint(-2, 2))
            B = sp.Matrix(n, m, lambda i, j: rng.randint(-2, 2))
            if sp.Matrix.hstack(A, B).rank() == n and B.rank() == m:
                break
        z, v = sp.symbols(f"z1:{n + 1}"), sp.symbols(f"v1:{m + 1}")
        x = [z[i] + poly(z[:i]) for i in range(n)]
        u = [v[j] + poly(z) for j in range(m)]
        x_next = A * sp.Matrix(x) + B * sp.Matrix(u)
        z_next: list = []  # z_i = x_i - p_i(z_<i), at x = x_next
        for i in range(n):
            p = x[i] - z[i]
            z_next.append(sp.expand(x_next[i] - p.xreplace(dict(zip(z, z_next)))))
        yield A, B, DiscreteTimeSystem(states=z, inputs=v, f=tuple(z_next),
                                       x0=(0,) * n, u0=(0,) * m)
