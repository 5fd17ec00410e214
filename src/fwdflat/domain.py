"""The exact domain of the expression kernel.

Sympy expressions in the supported fragment (rational functions of symbols,
sin and cos) are converted into one of a family of fields: ``QQ`` numbers
for constants, and otherwise sympy's sparse rational functions over QQ, with
a generator pair for cos(a), sin(a) and numerators and denominators reduced
modulo the side relation cos(a)**2 + sin(a)**2 = 1 (:class:`_Field`).  There
an element is the zero function iff it is literally zero (:func:`is_zero`),
and its conversion back is the canonical form (:func:`normalize`).  An
element moves from one field into another by remapping its exponents, or
by composing generators with elements of the other field (:class:`_Plan`).
The row kernel of :mod:`fwdflat.symcore` computes on these elements by
``_Field.quo`` and :func:`dot`, which, like every constructor, cancel
through the one gcd routine ``_Field._cancel``.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.fields import FracField
from sympy.polys.orderings import lex
from sympy.polys.polyerrors import CoercionFailed

from .errors import ExprSyntaxError, InternalInconsistency

Expr = sp.Expr


# --------------------------------------------------------------------------
# session: seeded RNGs for the numeric cross-check, for parameter values and
# for the points of the full-rank certificate

@dataclass
class _Session:
    seed: int = 0
    samples: int = 8
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    # parameter values of the equilibrium rank checks: a stream of their
    # own, so that the cross-check's draws do not move them
    param_rng: random.Random = field(default_factory=lambda: random.Random(0))
    # points of the full-rank certificate (``Rows.rank``, ``Rows.reduced``),
    # likewise a stream of their own
    point_rng: random.Random = field(default_factory=lambda: random.Random(0))


_session = _Session()


def configure(seed: int = 0, samples: int = 8) -> None:
    """Reset the RNGs and the sample count for a new analysis session."""
    global _session
    _session = _Session(seed, samples, random.Random(seed), random.Random(seed),
                        random.Random(seed))


# --------------------------------------------------------------------------
# exact fields

# A generator key is a Symbol, or ("c", a) or ("s", a) for cos(a) or sin(a)
# of a base angle a.  Every field orders its keys the same way: the c_a,
# then the s_a, each by the default_sort_key of a, then the symbols by
# theirs.  So keys keep their relative order in every field that holds
# them, and an element moves between fields by remapping exponents.
_ORDER: dict = {}
# One (c_a, s_a) generator pair per base angle a for the whole process, so
# that equal keys build equal fields.
_TRIG_GENS: dict[Expr, tuple[sp.Dummy, sp.Dummy]] = {}
_CONTENT: dict = {}


def _order(key):
    o = _ORDER.get(key)
    if o is None:
        o = _ORDER[key] = ((0 if key[0] == "c" else 1, sp.default_sort_key(key[1]))
                           if isinstance(key, tuple) else (2, sp.default_sort_key(key)))
    return o


def _content_primitive(a):
    cp = _CONTENT.get(a)
    if cp is None:
        cp = _CONTENT[a] = a.as_content_primitive()
    return cp


def _angles(keys) -> list:
    return [key[1] for key in keys if isinstance(key, tuple) and key[0] == "c"]


def _bases(args) -> dict:
    """a -> (b, n) with a = n*b, n a positive integer, for each trig
    argument a: arguments that are rational multiples of one another (equal
    primitive parts in as_content_primitive) share one base angle b."""
    groups: dict = {}
    for a in args:
        q, p = _content_primitive(a)
        groups.setdefault(p, []).append((q, a))
    out = {}
    for p, members in groups.items():
        g = functools.reduce(lambda x, y: sp.Rational(math.gcd(x.p * y.q, y.p * x.q),
                                                      x.q * y.q),
                             (q for q, _ in members))
        base = next((a for q, a in members if q == g), None)
        if base is None:
            base = normalize(g * p)
        for q, a in members:
            out[a] = (base, int(q / g))
    return out


_UNDEFINED = (sp.nan, sp.zoo, sp.oo, -sp.oo)
_MPQ = QQ.dtype


def _rational(e):
    try:
        return QQ.from_sympy(e)
    except CoercionFailed:
        # an undefined value (0/0, 1/0) stays an internal inconsistency;
        # any other leaf (exp, sqrt, pi) is outside the supported domain
        raise (InternalInconsistency if e.has(*_UNDEFINED) else ExprSyntaxError)(
            f"{e} is not a rational function of symbols, sin and cos") from None


def _rational_point(n: int, k: int, rng: random.Random, height: int = 99) -> list:
    """A random rational point of the variety of n generators: the first k
    generators c_a paired with the next k generators s_a on the unit circle,
    through half-angle rationals, and the other generators nonzero, with
    numerators up to height and denominators up to 30."""
    point = [QQ.zero] * n
    for i in range(k):
        t = QQ(rng.randint(-height, height), rng.randint(1, 30))
        point[i] = (1 - t**2) / (1 + t**2)
        point[k + i] = 2 * t / (1 + t**2)
    for i in range(2 * k, n):
        point[i] = QQ(rng.randint(1, height) * rng.choice((-1, 1)), rng.randint(1, 30))
    return point


def _fixed_point(n: int) -> list:
    """The point of n generators where generator i is 2*i + 101: a point
    that draws nothing from ``_session``."""
    return [_MPQ._new(2 * i + 101, 1) for i in range(n)]


def _rational_sample(p, k: int, rng: random.Random):
    """Value of the polynomial p at a random rational point (see
    ``_rational_point``)."""
    return _evaluate(p, _rational_point(p.ring.ngens, k, rng))


def _demote(x):
    """x, as a QQ number when it is a constant element of a field."""
    if type(x) is _MPQ or not (x.numer.is_ground and x.denom.is_ground):
        return x
    return x.numer.LC / x.denom.LC if x.numer else QQ.zero


def _canonical(ring, num, den):
    """num/den, for coprime polynomials num and den (dicts of monomials and
    ``QQ`` coefficients), as ``PolyElement.cancel`` gives it: both
    multiplied by the one rational that makes their coefficients integers
    with gcd 1 and the leading coefficient of den positive.  cancel's
    result has these three properties and is coprime, and the rationals are
    the only units of the ring, so it is this pair."""
    lcm = math.lcm(*(c.denominator for p in (num, den) for c in p.values()))
    num, den = ({m: c.numerator * (lcm // c.denominator) for m, c in p.items()}
                for p in (num, den))
    g = math.gcd(*num.values(), *den.values())
    if den[max(den)] < 0:
        g = -g
    return tuple(ring.dtype({m: _MPQ._new(c // g, 1) for m, c in p.items()})
                 for p in (num, den))


def _cancel_term(ring, num, den):
    """num/den cancelled, for a num or a den that is a single term: their
    gcd is then the monomial of the least exponents, which is divided out
    before ``_canonical``."""
    low = tuple(map(min, *num, *den))
    if any(low):
        num, den = ({tuple(e - k for e, k in zip(m, low)): c for m, c in p.items()}
                    for p in (num, den))
    return _canonical(ring, num, den)


def _linear_generator(p):
    """A generator j with p = a*g_j + b, where neither a nor b holds g_j and
    one of them is a nonzero rational; None if p has none.  Such a p of two
    or more terms is irreducible over QQ: it has degree 1 in g_j, and a
    factor free of g_j divides both a and b, so it is a rational."""
    monoms = list(p.itermonoms())
    for m in monoms:  # a rational: a term that is g_j alone, and no other g_j
        if sum(m) == 1:
            j = m.index(1)
            if all(not n[j] for n in monoms if n is not m):
                return j
    rest = [m for m in monoms if any(m)]
    if len(rest) < len(monoms):  # b rational: g_j once in every other term
        for j, e in enumerate(rest[0]):
            if e == 1 and all(m[j] == 1 for m in rest):
                return j
    return None


def _vanishes_with(q, p, j):
    """Whether the polynomial q vanishes at the point where p = a*g_j + b
    does and the other generators take their ``_fixed_point`` values; True
    also where a vanishes there, so that no such point exists.  p divides q
    only where this holds."""
    values = _fixed_point(p.ring.ngens)
    values[j] = QQ.zero
    b = _evaluate(p, values)
    values[j] = QQ.one
    a = _evaluate(p, values) - b
    if not a:
        return True
    values[j] = -b / a
    return not _evaluate(q, values)


def _remap(p, ring, targets):
    """The polynomial p in ring, its generator i moved to targets[i]."""
    n, out = ring.ngens, {}
    for monom, c in p.iterterms():
        e = [0] * n
        for i, k in enumerate(monom):
            if k:
                e[targets[i]] = k
        out[tuple(e)] = c
    return ring.dtype(out)


def _evaluate(p, values):
    """The polynomial p, a QQ number, with generator i at values[i]."""
    total = QQ.zero
    for monom, c in p.iterterms():
        for i, e in enumerate(monom):
            if e:
                c *= values[i]**e
        total += c
    return total


class _Field:
    """Sympy's sparse rational functions over ``QQ`` in lex order, in the
    generators of sorted keys (see ``_order``), one field per set of keys.

    Numerators and denominators are kept reduced modulo c_a**2 + s_a**2 - 1:
    with the c_a first in lex order this leaves every cos-degree below 2,
    which is a normal form modulo the relations.  The quotient ring is an
    integral domain, so an element is the zero function iff it is falsy.
    Constants are kept as ``QQ`` numbers, outside every field.
    """

    _fields: dict = {}

    @classmethod
    def of(cls, keys) -> "_Field | None":
        keys = tuple(sorted(set(keys), key=_order))
        if not keys:
            return None
        F = cls._fields.get(keys)
        if F is None:
            F = cls._fields[keys] = cls(keys)
        return F

    @classmethod
    def union(cls, fields) -> "_Field | None":
        """The field of all the fields' keys, with one base angle for angles
        that are rational multiples of one another (see ``plan_from``)."""
        keys = set().union(*(F.keys for F in fields if F is not None))
        angles = _angles(keys)
        if len(angles) > 1:
            bases = _bases(angles)
            if any(n != 1 for _, n in bases.values()):
                keys = {key for key in keys if not isinstance(key, tuple)}
                for b, _ in bases.values():
                    keys |= {("c", b), ("s", b)} | b.free_symbols
        return cls.of(keys)

    def __init__(self, keys: tuple):
        self.keys = keys
        self.args = _angles(keys)
        k = self.k = len(self.args)
        for a in self.args:
            if a not in _TRIG_GENS:
                _TRIG_GENS[a] = (sp.Dummy(f"c_{a}"), sp.Dummy(f"s_{a}"))
        cs = {"c": (0, sp.cos), "s": (1, sp.sin)}
        gens = [_TRIG_GENS[key[1]][cs[key[0]][0]] if isinstance(key, tuple) else key
                for key in keys]
        self.gen_exprs = [cs[key[0]][1](key[1]) if isinstance(key, tuple) else key
                          for key in keys]
        self.field = FracField(tuple(gens), QQ, lex)
        self.ring = self.field.ring
        g = self.ring.gens
        self.relations = [g[i]**2 + g[k + i]**2 - 1 for i in range(k)]
        self.index = {key: i for i, key in enumerate(keys)}
        self.gen_of = dict(zip(self.gen_exprs, g))
        # the generators that an element using generator i depends on: its
        # angle's pair and the angle's symbols, as the angle's sin/cos hold them
        self.closure = [{i} if not isinstance(key, tuple) else
                        {self.index[("c", key[1])], self.index[("s", key[1])]}
                        | {self.index[s] for s in key[1].free_symbols}
                        for i, key in enumerate(keys)]
        self._plans: dict = {}

    def fraction(self, e, lookup: Mapping):
        """Numerator and denominator of e in the field's polynomial ring,
        combined without cancelling; lookup maps sin/cos and symbols to
        polynomials."""
        ring = self.ring
        gen = lookup.get(e)
        if gen is not None:
            return gen, ring.one
        if e.is_Add or e.is_Mul:
            num, den = self.fraction(e.args[0], lookup)
            for a in e.args[1:]:
                n, d = self.fraction(a, lookup)
                if e.is_Mul:
                    num, den = num * n, den * d
                elif d == den:
                    num = num + n
                else:
                    num, den = num * d + n * den, den * d
            return num, den
        if e.is_Pow and e.exp.is_Integer:
            num, den = self.fraction(e.base, lookup)
            k = int(e.exp)
            return (num**k, den**k) if k >= 0 else (den**-k, num**-k)
        return ring.ground_new(_rational(e)), ring.one

    def multiple(self, b, n: int):
        """cos(n*b) and sin(n*b) as polynomials in c_b and s_b."""
        g = self.ring.gens
        c, s = g[self.index[("c", b)]], g[self.index[("s", b)]]
        cn, sn = self.ring.one, self.ring.zero
        for _ in range(n):
            cn, sn = cn * c - sn * s, sn * c + cn * s
        return cn, sn

    def _reducible(self, p) -> bool:
        return any(m[i] >= 2 for m in p.itermonoms() for i in range(self.k))

    def _new(self, num, den):
        """The element num/den: both reduced modulo the relations, then
        cancelled by ``_cancel``."""
        if self.relations:
            if self._reducible(num):
                num = num.rem(self.relations)
            if self._reducible(den):
                den = den.rem(self.relations)
        if not den:
            raise InternalInconsistency(
                "division by an expression that is zero modulo "
                "cos**2 + sin**2 = 1")
        return self._cancel(num, den)

    def _cancel(self, num, den):
        """The element num/den, for a nonzero den, with their gcd cancelled
        as ``PolyElement.cancel`` cancels it: the one gcd routine of the
        field.  The gcd is taken only where a common factor can exist: not
        for a zero numerator, nor over the denominator 1 with integer
        coefficients, and over a single term by ``_cancel_term``.  Where a
        side p of two or more terms is irreducible by ``_linear_generator``,
        the gcd is p or a rational, so one exact division of the other side
        q by p decides it, and none is made where q is nonzero at a fixed
        point where p vanishes (see ``_vanishes_with``).  Otherwise the gcd
        is taken in the ring of the generators that num or den uses, which
        gives the same element: the gcd over ZZ of polynomials in some of
        the generators is their gcd in the bigger ring, and dropping
        generators that occur in no monomial keeps the lex order, so the
        leading coefficient of the denominator, whose sign ``cancel``
        fixes, is the same."""
        ring = self.ring
        if not num:
            return self.field.dtype(num, ring.one)
        if den == 1 and all(c.denominator == 1 for c in num.values()):
            return self.field.dtype(num, den)
        if len(num) == 1 or len(den) == 1:
            return self.field.dtype(*_cancel_term(ring, num, den))
        for p, q in ((den, num), (num, den)):
            j = _linear_generator(p)
            if j is not None:
                if _vanishes_with(q, p, j):
                    quotient, remainder = q.div(p)
                    if not remainder:
                        num, den = ((quotient, ring.one) if p is den
                                    else (ring.one, quotient))
                return self.field.dtype(*_canonical(ring, num, den))
        used = sorted({i for p in (num, den) for m in p.itermonoms()
                       for i, e in enumerate(m) if e})
        if len(used) == ring.ngens:
            return self.field.new(num, den)
        sub = ring.clone(symbols=[ring.symbols[i] for i in used])
        into = {i: j for j, i in enumerate(used)}
        num, den = _remap(num, sub, into).cancel(_remap(den, sub, into))
        return self.field.dtype(_remap(num, ring, used), _remap(den, ring, used))

    def mul(self, x, y):
        """x*y, cancelled by ``_cancel`` but not reduced modulo the
        relations.  A rational c times an element n/d, whose n and d are
        coprime, gives the coprime pair c*n, d, which needs no gcd."""
        if type(x) is _MPQ:
            x, y = y, x
        if type(x) is _MPQ:
            return x * y
        if type(y) is _MPQ:
            if y == 1:
                return x
            if not y:
                return y
            return self.field.dtype(*_canonical(self.ring, x.numer.mul_ground(y), x.denom))
        return self._cancel(x.numer * y.numer, x.denom * y.denom)

    def add(self, x, y):
        """x + y, cancelled by ``_cancel`` but not reduced modulo the
        relations.  An element n/d plus a rational c gives the pair
        n + c*d, d, which is coprime as n and d are."""
        if type(x) is _MPQ:
            x, y = y, x
        if type(x) is _MPQ:
            return x + y
        if type(y) is _MPQ:
            if not y:
                return x
            num = x.numer + x.denom.mul_ground(y)
            return self.field.dtype(*_canonical(self.ring, num, x.denom)) if num else QQ.zero
        if x.denom == y.denom:
            return self._cancel(x.numer + y.numer, x.denom)
        return self._cancel(x.numer * y.denom + y.numer * x.denom, x.denom * y.denom)

    def quo(self, x, y):
        """x/y for a nonzero y, cancelled by ``_cancel`` but not reduced
        modulo the relations; with a rational on either side the pair is
        coprime, as in ``mul``."""
        if type(y) is _MPQ:
            return x / y if type(x) is _MPQ else self.mul(x, 1 / y)
        if type(x) is _MPQ:
            if not x:
                return x
            return self.field.dtype(*_canonical(self.ring, y.denom.mul_ground(x), y.numer))
        return self._cancel(x.numer * y.denom, x.denom * y.numer)

    def reduce(self, x):
        """The result x of a field operation, reduced modulo the relations."""
        if type(x) is _MPQ:
            return x
        if self.relations and (self._reducible(x.numer)
                               or self._reducible(x.denom)):
            x = self._new(x.numer, x.denom)
        return _demote(x)

    def used(self, elements) -> set:
        """Keys of the generators that the elements depend on."""
        used = set()
        for x in elements:
            if type(x) is not _MPQ:
                for p in (x.numer, x.denom):
                    for m in p.itermonoms():
                        for i, e in enumerate(m):
                            if e:
                                used.add(i)
        return {self.keys[j] for i in used for j in self.closure[i]}

    def symbols_of(self, x) -> set:
        """The symbols that the element x depends on, also inside sin/cos."""
        return {key for key in self.used([x]) if not isinstance(key, tuple)}

    def plan_from(self, F: "_Field") -> "_Plan":
        """How elements of F move into this field.  Each of F's keys is one
        of ours, or an angle a = n*b for a base angle b of ours (then c_a
        and s_a become cos(n*b) and sin(n*b)), or unused."""
        plan = self._plans.get(F)
        if plan is None:
            targets = []
            for key in F.keys:
                i = self.index.get(key)
                if i is None and isinstance(key, tuple):
                    q, p = _content_primitive(key[1])
                    for b in self.args:
                        qb, pb = _content_primitive(b)
                        if pb == p:
                            cn, sn = self.multiple(b, int(q / qb))
                            i = self._new(cn if key[0] == "c" else sn, self.ring.one)
                            break
                targets.append(i)
            plan = self._plans[F] = _Plan(self, targets)
        return plan

    def substitute(self, x, values: Mapping):
        """The element x with generator i replaced by the element values[i]."""
        targets = [values.get(i, i) for i in range(self.ring.ngens)]
        return _Plan(self, targets).compose(x)

    def derivation(self, v: sp.Symbol):
        """d/dv on the elements, or None if v is no generator.

        The ring's derivation by v, plus d c_v/dv = -s_v and d s_v/dv = c_v
        when v has a trig pair, applied by the quotient rule; then, by the
        chain rule, d/da times da/dv for every other trig argument a that
        contains v, where d/da maps c_a to -s_a and s_a to c_a.
        """
        i = self.index.get(v)
        if i is None:
            return None
        g = self.ring.gens

        def quotient_rule(D):
            def apply(x):
                dn, dd = D(x.numer), D(x.denom)
                if not dd:
                    return self._new(dn, x.denom)
                return self._new(dn * x.denom - x.numer * dd, x.denom**2)
            return apply

        def along(j):
            c, s = g[j], g[self.k + j]
            return lambda p: p.diff(s) * c - p.diff(c) * s

        ic = self.index.get(("c", v))
        own = along(ic) if ic is not None else None
        explicit = quotient_rule(lambda p: p.diff(g[i]) if own is None
                                 else p.diff(g[i]) + own(p))
        chain = {j: quotient_rule(along(j)) for j, a in enumerate(self.args)
                 if a != v and v in a.free_symbols}
        da = {}

        def d(x):
            y = explicit(x)
            for j, d_along in chain.items():
                dx = d_along(x)
                if dx:
                    if j not in da:  # an argument holds only smaller ones
                        da[j] = d(self._new(*self.fraction(self.args[j], self.gen_of)))
                    y = dot(self, ((dx, da[j]),), y)
            return y

        return d

    def check_nonzero(self, x) -> None:
        """Numeric cross-check of an exactly nonzero element: unless its
        numerator is a single term, it must be nonzero at one of
        ``_session.samples`` random points, or InternalInconsistency."""
        if type(x) is _MPQ or len(x.numer) <= 1:
            return
        for _ in range(_session.samples):
            if _rational_sample(x.numer, self.k, _session.rng):
                return
        raise InternalInconsistency(
            f"exactly nonzero expression {self.to_expr(x)} vanished at "
            f"{_session.samples} random points")

    def random_point(self) -> list:
        """Each generator's value at a random rational point of the field's
        variety (see ``_rational_point``), drawn from the stream of the
        full-rank certificate, ``_session.point_rng``.  Numerators go up to
        10**6, so that a coordinate takes any fixed value, such as the -1
        where 1 + x vanishes, with probability below 10**-6; up to 99, as
        the cross-check draws them, chain(16)'s determinant prod(1 + x_i)
        vanished at 31 of 400 points."""
        return _rational_point(len(self.keys), self.k, _session.point_rng, 10**6)

    def to_expr(self, x) -> Expr:
        if type(x) is _MPQ:
            return QQ.to_sympy(x)
        return x.numer.as_expr(*self.gen_exprs) / x.denom.as_expr(*self.gen_exprs)


class _Plan:
    """Elements of one field moved into the field G: the source's
    generator i goes to targets[i], an index of G or an element of G, or
    None where no element uses it."""

    def __init__(self, G: _Field, targets: list):
        self.G = G
        ring = G.ring
        targets = list(targets)
        # a bare generator of G is an index, where no two generators meet
        bare = {i: t.numer.LM.index(1) for i, t in enumerate(targets)
                if t is not None and not isinstance(t, int) and type(t) is not _MPQ
                and t.denom == 1 and len(t.numer) == 1 and t.numer.LC == 1
                and sum(t.numer.LM) == 1}
        ints = [t for t in targets if isinstance(t, int)] + list(bare.values())
        if len(set(ints)) == len(ints):
            targets = [bare.get(i, t) for i, t in enumerate(targets)]
        self.values = {
            i: (ring.ground_new(t), ring.one) if type(t) is _MPQ else (t.numer, t.denom)
            for i, t in enumerate(targets) if t is not None and not isinstance(t, int)}
        self.targets = targets
        ints = [t for t in targets if isinstance(t, int)]
        self.monotone = ints == sorted(ints)

    def _compose(self, p):
        """p with the values composed in, as a numerator and a denominator:
        the values' denominators are raised to p's degree in their
        generator and multiplied out."""
        ring, targets, values = self.G.ring, self.targets, self.values
        deg = {}
        for monom in p.itermonoms():
            for i in values:
                if monom[i] > deg.get(i, 0):
                    deg[i] = monom[i]
        den = ring.one
        for i, d in deg.items():
            den *= values[i][1] ** d
        num = ring.zero
        for monom, coeff in p.iterterms():
            e = [0] * ring.ngens
            for i, k in enumerate(monom):
                if k and i not in values:
                    e[targets[i]] = k
            t = ring.dtype({tuple(e): coeff})
            for i, d in deg.items():
                vn, vd = values[i]
                # a value of 0 has no 0th power in the ring
                t *= (vn ** monom[i] if monom[i] else 1) * vd ** (d - monom[i])
            num += t
        return num, den

    def compose(self, x):
        """x in G, as an element of G.field: monomials remapped, and the
        values composed in with one cancellation."""
        if any(m[i] for p in (x.numer, x.denom) for m in p.itermonoms()
               for i in self.values):
            n1, d1 = self._compose(x.numer)
            n2, d2 = self._compose(x.denom)
            return self.G._new(n1 * d2, d1 * n2)
        num, den = (_remap(p, self.G.ring, self.targets) for p in (x.numer, x.denom))
        if not self.monotone and den.LC < 0:
            num, den = -num, -den
        return self.G.field.dtype(num, den)

    def __call__(self, x):
        return x if type(x) is _MPQ else _demote(self.compose(x))


def dot(F: _Field | None, pairs, start=QQ.zero) -> object:
    """start plus the sum of a*b over the pairs, of elements of F or of
    ``QQ`` numbers where F is None: each product and each partial sum
    cancelled by ``_Field._cancel``, and only the total reduced modulo the
    relations.  Reducing a product before it is summed changes which
    representative of the total is kept, and made one seeded elimination
    with trig entries 280 times slower (ROADMAP, exact-kernel
    constraints)."""
    if F is None:
        return sum((a * b for a, b in pairs if a and b), start)
    total = start
    for a, b in pairs:
        if a and b:
            total = F.add(total, F.mul(a, b))
    return F.reduce(total)


def _convert(exprs: Iterable) -> tuple[_Field | None, list]:
    """The expressions as elements of one field, that of their symbols and
    of a pair (c_a, s_a) per base angle a of their sin/cos arguments (see
    ``_bases``); None when there is neither, and then every element is a
    ``QQ`` number.  A compound argument is keyed on its :func:`normalize`
    form, so that sin(y*(y + 1)) and sin(y**2 + y) share a pair, and
    cos(n*a) and sin(n*a) become polynomials in c_a and s_a.  A number left
    as a trig argument by substituting a point, as in sin(1), gets its own
    pair like a symbol."""
    exprs = [sp.sympify(e) for e in exprs]
    compound = {t: t.func(normalize(t.args[0]))
                for e in exprs for t in e.atoms(sp.sin, sp.cos)
                if not (t.args[0].is_Symbol or t.args[0].is_Number)}
    if compound:
        exprs = [e.xreplace(compound) for e in exprs]
    args = {t.args[0] for e in exprs for t in e.atoms(sp.sin, sp.cos)}
    free = set().union(*(e.free_symbols for e in exprs))
    if not free and not args:
        return None, [_rational(e) for e in exprs]
    bases = _bases(args)
    F = _Field.of(free | {(t, b) for b, _ in bases.values() for t in "cs"})
    lookup = F.gen_of
    if any(n != 1 for _, n in bases.values()):
        lookup = dict(lookup)
        for a, (b, n) in bases.items():
            lookup[sp.cos(a)], lookup[sp.sin(a)] = F.multiple(b, n)
    return F, [_demote(F._new(*F.fraction(e, lookup))) for e in exprs]


def is_zero(e) -> bool:
    """True iff e represents the zero function.

    The verdict is exact, in the field of :func:`_convert`; a nonzero
    result is cross-checked numerically (see ``_Field.check_nonzero``).
    """
    F, (x,) = _convert([e])
    if not x:
        return True
    if F is not None:
        F.check_nonzero(x)
    return False


def domain_form(e) -> Expr:
    """e converted into its field (see :func:`_convert`) and back, so
    numerator and denominator are reduced modulo the side relations and
    their gcd is cancelled: the form to compute on.  An expression holding
    nan, zoo or oo is returned unchanged; one outside the domain, such as
    exp(x1), raises ExprSyntaxError."""
    e = sp.sympify(e)
    if e.has(*_UNDEFINED):
        return e
    F, (x,) = _convert([e])
    return QQ.to_sympy(x) if F is None else F.to_expr(x)


def normalize(e) -> Expr:
    """Canonical printed form of e: its :func:`domain_form`, whose sign and
    content ``sp.cancel`` then fixes, or e unchanged where it holds nan,
    zoo or oo."""
    x = domain_form(e)
    return x if x.has(*_UNDEFINED) else sp.cancel(x)
