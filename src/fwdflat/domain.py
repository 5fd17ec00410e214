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
import operator
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


def _shift(p, e):
    """The polynomial p times the monomial of exponents e, which may be
    negative where p's monomials allow."""
    if not any(e):
        return p
    return p.ring.dtype({tuple(map(operator.add, m, e)): c for m, c in p.items()})


def _coefficients(p, j):
    """p's coefficients of g_j**0, g_j**1, ... up to p's degree in g_j, as
    dicts of monomials with no g_j."""
    parts = [{} for _ in range(max(m[j] for m in p) + 1)]
    for m, e in p.items():
        parts[m[j]][m[:j] + (0,) + m[j + 1:]] = e
    return parts


def _linear_power(p):
    """(j, l, k, c) with p = c*l**k, where l = a*g_j + b of two or more
    terms, a and b free of g_j and one of them 1; None if p, a polynomial of
    two or more terms with no monomial factor, has no such form.  Such an l
    is irreducible over QQ: it has degree 1 in g_j, and a factor free of
    g_j divides both a and b, so it is a rational.  With k the degree of p
    in g_j, p's coefficient of g_j**i is c*binomial(k, i)*a**i*b**(k-i).
    Where a is 1, c is the coefficient of g_j**k and b is read off that of
    g_j**(k-1); where b is 1, c is the coefficient of g_j**0 and a is read
    off that of g_j**1.  Each further coefficient is checked against the
    next power of b or a, made by one multiplication once the power before
    it has matched, so no product has more than len(p)*len(l) terms.  p's
    degrees, k times those of l, refute most wrong readings before any
    product is made."""
    ring = p.ring
    zero = ring.zero_monom
    degrees = list(map(max, zip(*p)))
    for j, k in enumerate(degrees):
        # each degree of c*l**k is k times that of l
        if not k or any(d % k for d in degrees):
            continue
        parts = _coefficients(p, j)
        g = ring.gens[j]
        # l = g + r, where coefficients[i], that of g**(k-i), is
        # c*binomial(k, i)*r**i, or l = 1 + r*g, where it is that of g**i
        for coefficients, lead, step in ((parts[::-1], g, ring.one), (parts, ring.one, g)):
            if list(coefficients[0]) != [zero] or not coefficients[1]:
                continue
            c = coefficients[0][zero]
            bound = list(map(max, zip(*coefficients[1])))  # l's degrees
            bound[j] = 1
            if [k * d for d in bound] != degrees:
                continue
            r = ring.dtype({m: e / (k * c) for m, e in coefficients[1].items()})
            power = r
            for i in range(2, k + 1):
                power *= r
                if power.mul_ground(c * math.comb(k, i)) != ring.dtype(coefficients[i]):
                    break
            else:
                return j, lead + r * step, k, c
    return None


def _coprime_parts(num, den):
    """num/G and den/G for G = gcd(num, den), up to one rational factor on
    both, for polynomials num and den with no monomial factor; None where
    neither side is c*l**k (see ``_linear_power``) and the two are not
    proportional.  A side c*l**k, with k = 0 for a single term, has the gcd
    l**i with the other side q, for the largest i <= k with l**i dividing
    q: each power is tried by one exact division (``_quotient``), and none
    is made where q is nonzero at a fixed point where l vanishes (see
    ``_vanishes_with``).  A division that ``_quotient`` leaves undecided
    leaves the pair to sympy's gcd (None).  The side's own part
    c*l**(k-i) has no more terms than c*l**k."""
    if len(num) == 1 or len(den) == 1:
        return num, den
    for p, q in ((den, num), (num, den)):
        found = _linear_power(p)
        if found is not None:
            j, l, k, c = found
            i = 0
            while i < k and _vanishes_with(q, l, j):
                quotient = _quotient(q, l, j)
                if quotient is False:
                    return None
                if quotient is None:
                    break
                q, i = quotient, i + 1
            rest = (l**(k - i)).mul_ground(c)
            return (q, rest) if p is den else (rest, q)
    if num.keys() == den.keys():
        m = next(iter(num))
        r = num[m] / den[m]
        if num == den.mul_ground(r):
            return num.ring.ground_new(r), num.ring.one
    return None


def _quotient(q, l, j):
    """q/l for l = g_j + r or l = 1 + r*g_j, r free of g_j; None where l
    does not divide q, and False where a coefficient of the quotient in g_j
    would have more than len(q)*len(l) terms, which leaves it undecided.
    Listed from g_j's top degree n down where l = g_j + r, and from g_j**0
    up otherwise, q's coefficients c_0, ..., c_n and the quotient's
    s_0, ..., s_(n-1) satisfy s_i = c_i - r*s_(i-1) and c_n = r*s_(n-1).
    The bound stops a q that vanishes where l does without l dividing it:
    sympy's ``div`` by l = x + y1 + ... + y8 made a remainder of 6,445
    terms from one such q of 4 terms."""
    ring = l.ring
    b, a = _coefficients(l, j)
    upward = a != {ring.zero_monom: 1}
    r = ring.dtype(a if upward else b)
    parts = _coefficients(q, j)
    if not upward:
        parts.reverse()
    n, bound = len(parts) - 1, len(q) * len(l)
    s, quotient = ring.zero, {}
    for i, c in enumerate(parts[:-1]):
        s = ring.dtype(c) - r * s
        if len(s) > bound:
            return False
        e = i if upward else n - 1 - i
        quotient.update((m[:j] + (e,) + m[j + 1:], v) for m, v in s.items())
    if r * s != ring.dtype(parts[-1]):
        return None
    return ring.dtype(quotient)


def _narrowed_cancel(num, den):
    """num.cancel(den), taken in the ring of the generators that num or den
    uses; see ``_Field._cancel``."""
    ring = num.ring
    used = sorted({i for p in (num, den) for m in p.itermonoms()
                   for i, e in enumerate(m) if e})
    if len(used) == ring.ngens:
        return num.cancel(den)
    sub = ring.clone(symbols=[ring.symbols[i] for i in used])
    into = {i: j for j, i in enumerate(used)}
    num, den = _remap(num, sub, into).cancel(_remap(den, sub, into))
    return _remap(num, ring, used), _remap(den, ring, used)


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
        field.  No gcd is taken for a zero numerator, nor over the
        denominator 1 with integer coefficients.  Otherwise each side's
        monomial content is divided out, and the gcd of the two contents is
        the monomial of the least exponents.  The gcd of what is left, which
        has no monomial factor, comes from ``_coprime_parts`` where one side
        is c*l**k for a linear irreducible l, a single term included, or the
        two are proportional; only other pairs reach sympy's gcd, taken in
        the ring of the generators that they use (``_narrowed_cancel``).
        That gives the same element: the gcd over ZZ of polynomials in some
        of the generators is their gcd in the bigger ring.  Every route ends
        in ``_canonical``, whose coprime pair is unique."""
        ring = self.ring
        if not num:
            return self.field.dtype(num, ring.one)
        if den == 1 and all(c.denominator == 1 for c in num.values()):
            return self.field.dtype(num, den)
        content = [tuple(map(min, zip(*p))) for p in (num, den)]
        low = tuple(map(min, *content))
        num, den = (_shift(p, [-e for e in c]) for p, c in zip((num, den), content))
        parts = _coprime_parts(num, den) or _narrowed_cancel(num, den)
        num, den = (_shift(p, list(map(operator.sub, c, low)))
                    for p, c in zip(parts, content))
        return self.field.dtype(*_canonical(ring, num, den))

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
        self.values = {  # each value's numerator and denominator, None for 1
            i: (ring.ground_new(t), None) if type(t) is _MPQ
            else (t.numer, None if t.denom == 1 else t.denom)
            for i, t in enumerate(targets) if t is not None and not isinstance(t, int)}
        self.targets = targets
        ints = [t for t in targets if isinstance(t, int)]
        self.monotone = ints == sorted(ints)

    def _compose(self, p):
        """p with the values composed in, as a numerator and a denominator,
        None for 1: the values' denominators other than 1 are raised to p's
        degree in their generator and multiplied out."""
        ring, targets, values = self.G.ring, self.targets, self.values
        deg = {}
        for monom in p.itermonoms():
            for i in values:
                if monom[i] > deg.get(i, 0):
                    deg[i] = monom[i]
        den, num = None, ring.zero
        for i, d in deg.items():
            if values[i][1] is not None:
                den = values[i][1] ** d * (1 if den is None else den)
        for monom, coeff in p.iterterms():
            e = [0] * ring.ngens
            for i, k in enumerate(monom):
                if k and i not in values:
                    e[targets[i]] = k
            t = ring.dtype({tuple(e): coeff})
            for i, d in deg.items():
                vn, vd = values[i]
                if monom[i]:  # a value of 0 has no 0th power in the ring
                    t *= vn ** monom[i]
                if vd is not None and monom[i] < d:
                    t *= vd ** (d - monom[i])
            num += t
        return num, den

    def compose(self, x):
        """x in G, as an element of G.field: monomials remapped, and the
        values composed in with one cancellation."""
        if any(m[i] for p in (x.numer, x.denom) for m in p.itermonoms()
               for i in self.values):
            n1, d1 = self._compose(x.numer)
            n2, d2 = self._compose(x.denom)
            return self.G._new(n1 if d2 is None else n1 * d2, n2 if d1 is None else d1 * n2)
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
