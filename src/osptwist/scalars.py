"""Exact scalar arithmetic: rationals, multivariate Laurent polynomials,
and truncated Laurent series with explicit validity bookkeeping, and the
one ring protocol that every ring of the package follows.

Everything here is exact.  There are no floats anywhere in the tower:

* rationals        -- stored by one rule (:func:`_exact`): an integral one
                      as an ``int``, any other as a ``Fraction`` from
                      :mod:`fractions`.
* ``Poly``         -- polynomials in finitely many named variables with
                      *integer* exponents (negative powers are allowed, so
                      these are really Laurent polynomials).  Coefficients
                      are rationals, stored by that rule.
* ``LaurentSeries``-- a series in one distinguished variable whose
                      coefficients may be rationals or ``Poly`` in other
                      variables: a ``Poly`` holding the known part plus an
                      ``order``, the exponent from which coefficients are
                      unknown.  Its arithmetic is ``Poly`` arithmetic cut
                      at the worst-case order, so a stored coefficient is
                      always a proven one.

The three layers coerce upward (rational -> ``Poly`` -> ``LaurentSeries``)
through the usual reflected operators, so tensor code can mix them freely.
Equal scalars hash equal across the layers: an integral ``Fraction``
hashes like its ``int``, a constant ``Poly`` like its value, an exact
series like its ``Poly``.  The truth value of every scalar is its zero
test: ``not c`` holds exactly when c is (provably) zero.

One ring protocol: ``Poly``, ``LaurentSeries``, the matrices of
:mod:`~osptwist.repmat` and the term algebras of :mod:`~osptwist.pbw`
inherit :class:`Ring`, which writes ``-`` and its reflection, ``**``,
the graded commutator, ``exp`` and ``log`` once; each ring's own
``series(stream)`` bounds a Taylor sum and refuses an argument it cannot
sum.  The matrices and the term algebras store their scalars by one rule
(below), which refuses a value outside the tower, and inherit
:class:`Stored`, which writes their linear structure once: the zero
test, the scalar decode, one n-ary combination behind every sum,
negation, scaling by a scalar of the tower, coefficient maps, equality,
hashing and parity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, count, cycle, islice

from .errors import (
    ConstantTermPresent,
    DivisionByNonUnit,
    IrrationalExpansionPoint,
    NonInvertibleLeadingCoefficient,
    NotHomogeneous,
)


def _fr(x):
    """Coerce ints to Fraction; pass Fractions through; else return None."""
    if isinstance(x, bool):
        return None
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    return None


def _check_scalar(c, kinds):
    """TypeError unless c is one of ``kinds``: nothing inexact is stored."""
    if not isinstance(c, kinds):
        raise TypeError("a %s is not an exact scalar" % type(c).__name__)


def _exact(c):
    """A rational by the one rule of the scalar tower: an integral one as
    an int (a bool too becomes one), any other as the Fraction it is."""
    return c.numerator if c.denominator == 1 else c


# --------------------------------------------------------------------------
# The one storage rule of the sparse objects
# --------------------------------------------------------------------------
#
# The term algebras of :mod:`~osptwist.pbw` and the matrices of
# :mod:`~osptwist.repmat` store a {key: scalar} dict as (data, den): int
# numerators over one positive canonical den (no common factor, so equal
# objects store alike) when every scalar is rational, else the scalars,
# a rational among them by :func:`_exact`, with den None.


def _canonical(data, den):
    """(data, den) with the common factor of ``den`` and every numerator
    of the zero-free ``data`` divided out; ``data`` is divided in place.
    An empty dict gets den 1."""
    if den == 1:
        return data, den
    g = math.gcd(den, *data.values())
    if g != 1:
        for k, v in data.items():
            data[k] = v // g
        den //= g
    return data, den


def _stored(data):
    """(data, den) for a {key: scalar} dict, zeros dropped.  When every
    scalar is rational: int numerators over their least common
    denominator, which is already canonical (a prime of the lcm divides
    one denominator to its full power, and that numerator is prime to
    it).  Otherwise the nonzero scalars, and den None.  Which case holds
    is decided on the nonzero scalars, so a dict whose Poly entries all
    cancelled to zero is stored as the rational dict that is left.  Any
    value outside the tower is a TypeError."""
    if not all(isinstance(v, (int, Fraction)) for v in data.values()):
        for v in data.values():
            _check_scalar(v, _SCALARS)
        data = {k: v for k, v in data.items() if v}
        if not all(isinstance(v, (int, Fraction)) for v in data.values()):
            return {
                k: _exact(v) if isinstance(v, (int, Fraction)) else v
                for k, v in data.items()
            }, None
    den = math.lcm(*[v.denominator for v in data.values()])
    return {
        k: v.numerator * (den // v.denominator)
        for k, v in data.items()
        if v
    }, den


def _clean(data, den):
    """(data, den) for a zero-free dict of coefficients stored over
    ``den``: canonical when ``den`` is an int, re-stored when it is None
    (so a rational remainder gets an int denominator)."""
    return _stored(data) if den is None else _canonical(data, den)


class Ring:
    """The operations every ring of the package shares, written once:
    ``-`` and its reflection, powers, the graded commutator, exp and log.

    A subclass supplies ``__add__`` and its reflection, ``__neg__``,
    ``__mul__`` and ``one_like()`` (its unit), and binds ``inverse`` to a
    method when its elements may be inverted; the graded commutator also
    needs ``parity()`` (0 or 1, None when the element mixes parities), and
    exp and log need ``series(stream)``, which sums a Taylor stream in self.
    The matrices and term algebras get their linear structure from
    :class:`Stored`."""

    __slots__ = ()

    inverse = None

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __pow__(self, k):
        """self**k by square-and-multiply from ``one_like()``; for k < 0 the
        (-k)-th power of ``inverse()``, or NotImplemented (so a TypeError)
        where the ring has no inverse."""
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if self.inverse is None:
                return NotImplemented
            return self.inverse() ** -k
        out, x = self.one_like(), self
        while k:
            if k & 1:
                out = out * x
            x = x * x
            k >>= 1
        return out

    def super_commutator(self, other):
        """[a,b] = ab - (-1)**(p(a)p(b)) ba for homogeneous a, b."""
        pa, pb = self.parity(), other.parity()
        if pa is None or pb is None:
            raise NotHomogeneous("super commutator needs homogeneous operands")
        ab, ba = self * other, other * self
        return ab + ba if (pa and pb) else ab - ba

    def exp(self):
        """exp(self), by the ring's own ``series``."""
        return self.series(taylor_exp)

    def log(self):
        """log(1 + y) for y = self - 1, by the ring's own ``series``."""
        return (self - self.one_like()).series(taylor_log1p)


class Stored(Ring):
    """The linear structure of an object holding ``data`` over ``den`` by
    the one storage rule, written once for the matrices and the term
    algebras.  A subclass supplies ``_like(data, den)`` (an object of its
    kind and space holding terms stored by the rule), ``_space()`` (what
    two operands must share to combine or compare equal) and
    ``_parities()`` (a function from a stored key to its parity).  Only
    operands of one kind combine (``_same_kind``, ``_check``); a scalar of
    the tower (int, Fraction, Poly, LaurentSeries) scales from either
    side, and any other operand is a TypeError."""

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return not self.data

    def _scalar(self, v):
        """The scalar that the stored value ``v`` stands for: a rational
        by :func:`_exact`, any other scalar as it is."""
        den = self.den
        return v if den is None or den == 1 else _exact(Fraction(v, den))

    def _scalars(self) -> dict:
        """{key: scalar} of the terms, each as :meth:`_scalar` reads it;
        ``data`` itself when it holds them."""
        den = self.den
        if den is None or den == 1:
            return self.data
        return {k: _exact(Fraction(v, den)) for k, v in self.data.items()}

    def _same_kind(self, other) -> bool:
        """True for an operand that combines with self, False for any
        other (a scalar, or an object of another kind)."""
        return isinstance(other, type(self))

    def _check(self, other):
        if self._space() != other._space():
            raise ValueError("operands act on different spaces")

    def _combination(self, pairs, den=1):
        """sum c * x / den over (c, x) pairs of objects of self's kind and
        space, as an object like self (which is not itself summed): int c
        over an int ``den``, or scalars c with den None.  When den and
        every x are rational, the numerators are summed over the lcm of
        the x's denominators; otherwise every x is read as scalars."""
        rational = den is not None and all(x.den is not None for _, x in pairs)
        if rational:
            lcd = math.lcm(*[x.den for _, x in pairs])
            terms = [(c * (lcd // x.den), x.data) for c, x in pairs if c]
        else:
            terms = [
                (c if den is None else _exact(Fraction(c, den)), x._scalars())
                for c, x in pairs if c
            ]
        acc: dict = {}
        for f, values in terms:
            if not acc and f == 1:
                acc = dict(values)
                continue
            get = acc.get
            for k, v in values.items():
                if f != 1:
                    v = f * v
                cur = get(k)
                if cur is not None:
                    v = cur + v
                    if not v:
                        del acc[k]
                        continue
                acc[k] = v
        if rational:
            return self._like(*_canonical(acc, den * lcd))
        return self._like(*_stored(acc))

    def _combine(self, other, sign):
        """self + sign * other (sign +1 or -1) for an operand of self's
        kind."""
        self._check(other)
        return self._combination(((1, self), (sign, other)))

    def __add__(self, other):
        if self._same_kind(other):
            return self._combine(other, 1)
        return NotImplemented

    def __radd__(self, other):
        # an object of another kind whose own + declined does not combine
        # with self either
        if isinstance(other, Stored):
            return NotImplemented
        return self + other

    def __sub__(self, other):
        # a same-kind difference is one pass, with no negated copy
        if self._same_kind(other):
            return self._combine(other, -1)
        return self + -other

    def __neg__(self):
        return self._like({k: -v for k, v in self.data.items()}, self.den)

    def scale(self, c):
        """c * self for a scalar c of the tower; a rational c multiplies
        the numerators of a rational object."""
        _check_scalar(c, _SCALARS)
        if not c:
            return self._like({}, 1)
        if self.den is not None and isinstance(c, (int, Fraction)):
            p = c.numerator
            data = {k: v * p for k, v in self.data.items()}
            return self._like(*_canonical(data, self.den * c.denominator))
        return self.map_coefficients(lambda v: c * v)

    def __mul__(self, c):
        # a kind with a product binds its own
        if self._same_kind(c):
            return NotImplemented
        return self.scale(c)

    __rmul__ = __mul__

    def map_coefficients(self, fn):
        """The object with each scalar c (as ``_scalars`` reads it)
        replaced by fn(c)."""
        return self._like(
            *_stored({k: fn(c) for k, c in self._scalars().items()})
        )

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self._space() != other._space():
            return False
        if self.den is not None and other.den is not None:
            return self.den == other.den and self.data == other.data
        return self._scalars() == other._scalars()

    def __hash__(self):
        # a rational scalar hashes like the constant Poly or exact series
        # it equals
        return hash(frozenset(self._scalars().items()))

    def parity(self):
        """0 or 1 when every term has that parity (zero counts as even),
        None if the terms mix parities."""
        seen = set(map(self._parities(), self.data)) or {0}
        return seen.pop() if len(seen) == 1 else None


def fraction_sqrt(c: Fraction):
    """Exact square root of a nonnegative rational, or None if irrational."""
    c = Fraction(c)
    if c < 0:
        return None
    if c == 0:
        return Fraction(0)
    pn, pd = math.isqrt(c.numerator), math.isqrt(c.denominator)
    if pn * pn == c.numerator and pd * pd == c.denominator:
        return Fraction(pn, pd)
    return None


# --------------------------------------------------------------------------
# Laurent polynomials in several named variables
# --------------------------------------------------------------------------


class Poly(Ring):
    """Multivariate polynomial with rational coefficients and integer
    (possibly negative) exponents.  A coefficient is stored as an int when
    it is integral and as a Fraction otherwise (:func:`_exact`).

    Canonical form: variables sorted by name, no zero coefficients, and no
    variable that appears with exponent zero in every monomial.  Instances
    are immutable and hashable.
    """

    __slots__ = ("vars", "coeffs", "_hash")

    def __init__(self, variables, coeffs):
        vs = tuple(variables)
        cleaned = {}
        for expts, c in coeffs.items():
            if type(c) is not int:
                _check_scalar(c, (int, Fraction))
                c = _exact(c)
            if c:
                cleaned[tuple(expts)] = c
        # drop variables that never occur with a nonzero exponent
        if vs:
            used = [any(e[i] != 0 for e in cleaned) for i in range(len(vs))]
            if not all(used):
                vs2 = tuple(v for v, u in zip(vs, used) if u)
                cleaned = {
                    tuple(e[i] for i, u in enumerate(used) if u): c
                    for e, c in cleaned.items()
                }
                vs = vs2
        _hold_poly(self, vs, cleaned)

    @classmethod
    def _wrap(cls, variables, coeffs) -> "Poly":
        """The trusted path: a Poly holding ``coeffs`` that are already
        stored by the rule and zero-free, over ``variables`` that all
        occur, so no variable is scanned (a nonzero rational scaling or a
        negation keeps every monomial)."""
        return _hold_poly(object.__new__(cls), variables, coeffs)

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # pickled through the trusted path: the guard refuses setattr
        return type(self)._wrap, (self.vars, self.coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls._wrap((), {})

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((), {(): c})

    @classmethod
    def var(cls, name: str, exponent: int = 1, coefficient=1) -> "Poly":
        if exponent == 0:
            return cls.const(coefficient)
        return cls((name,), {(exponent,): coefficient})

    @staticmethod
    def _coerce(x):
        if isinstance(x, Poly):
            return x
        if type(x) is int:
            return Poly.const(x)
        f = _fr(x)
        if f is not None:
            return Poly.const(f)
        return None

    # -- structure queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return not self.vars

    def as_fraction(self) -> Fraction:
        """The value of a constant polynomial (raises if not constant)."""
        if self.vars:
            raise ValueError("polynomial is not constant: %s" % self)
        return Fraction(self.coeffs.get((), 0))

    def is_monomial_unit(self) -> bool:
        """True when the polynomial is a single monomial (hence invertible)."""
        return len(self.coeffs) == 1

    def min_exponent(self, name: str):
        """Smallest exponent of `name` over all monomials (None if zero poly)."""
        if not self.coeffs:
            return None
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return min(e[i] for e in self.coeffs)

    def max_exponent(self, name: str):
        if not self.coeffs:
            return None
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.coeffs)

    def coefficient(self, name: str, k: int) -> "Poly":
        """The Poly (in the remaining variables) multiplying name**k."""
        if name not in self.vars:
            if k == 0:
                return self
            return Poly.zero()
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1 :]
        picked = {
            e[:i] + e[i + 1 :]: c for e, c in self.coeffs.items() if e[i] == k
        }
        return Poly(rest, picked)

    def below(self, name: str, k) -> "Poly":
        """The terms in which ``name`` has exponent < k (all when k is None)."""
        if k is None or name not in self.vars:
            return self if k is None or k > 0 else Poly.zero()
        i = self.vars.index(name)
        return Poly(self.vars, {e: c for e, c in self.coeffs.items() if e[i] < k})

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _unify(a: "Poly", b: "Poly"):
        if a.vars == b.vars:
            return a.vars, a.coeffs, b.coeffs
        merged = tuple(sorted(set(a.vars) | set(b.vars)))

        def remap(p: "Poly"):
            idx = [p.vars.index(v) if v in p.vars else None for v in merged]
            return {
                tuple(0 if i is None else e[i] for i in idx): c
                for e, c in p.coeffs.items()
            }

        return merged, remap(a), remap(b)

    def __add__(self, other):
        o = Poly._coerce(other)
        if o is None:
            return NotImplemented
        vs, ca, cb = Poly._unify(self, o)
        out = dict(ca)
        for e, c in cb.items():
            out[e] = out.get(e, 0) + c
        return Poly(vs, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._wrap(self.vars, {e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and type(other) is not bool:
            if not other:
                return Poly.zero()
            return Poly._wrap(
                self.vars, {e: _exact(c * other) for e, c in self.coeffs.items()}
            )
        o = Poly._coerce(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return Poly.zero()
        vs, ca, cb = Poly._unify(self, o)
        out: dict = {}
        for ea, a in ca.items():
            for eb, b in cb.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + a * b
        return Poly(vs, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        f = _fr(other)
        if f is not None:
            if f == 0:
                raise DivisionByNonUnit("division of Poly by zero")
            return self * (1 / f)
        if isinstance(other, Poly):
            return self * other.inverse()
        return NotImplemented

    def inverse(self) -> "Poly":
        """Inverse of a monomial (the only units in this ring)."""
        if len(self.coeffs) != 1:
            raise DivisionByNonUnit(
                "only single monomials are invertible, got %s" % self
            )
        ((e, c),) = self.coeffs.items()
        return Poly(self.vars, {tuple(-k for k in e): Fraction(1, c)})

    def one_like(self) -> "Poly":
        return Poly.const(1)

    # -- comparison / display ------------------------------------------------

    def __eq__(self, other):
        o = Poly._coerce(other)
        if o is None:
            return NotImplemented
        vs, ca, cb = Poly._unify(self, o)
        return ca == cb

    def __hash__(self):
        h = object.__getattribute__(self, "_hash")
        if h is None:
            # a constant hashes like the rational it equals
            h = hash(
                self.coeffs.get((), 0) if self.is_constant
                else (self.vars, frozenset(self.coeffs.items()))
            )
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            factors = []
            for name, k in zip(self.vars, e):
                if k == 1:
                    factors.append(name)
                elif k != 0:
                    factors.append("%s^%d" % (name, k))
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append("%s*%s" % (c, body))
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def __repr__(self):
        return "Poly(%s)" % self


def _hold_poly(poly, variables, coeffs):
    """Fill the slots of a new Poly."""
    object.__setattr__(poly, "vars", variables)
    object.__setattr__(poly, "coeffs", coeffs)
    object.__setattr__(poly, "_hash", None)
    return poly


# --------------------------------------------------------------------------
# Truncated Laurent series in one distinguished variable
# --------------------------------------------------------------------------


def _omin(a, b):
    """min of two orders where None means 'exact' (= +infinity)."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class LaurentSeries(Ring):
    """A Laurent series  sum_k  c_k * var**k  known exactly for k < order.

    The known part is one :class:`Poly` (``poly``), in ``var`` and in the
    coefficients' variables, so ``+``, ``-``, ``*`` and ``shift`` are Poly
    operations cut at the order by :meth:`Poly.below`.  ``order=None``
    means the element is an exact Laurent *polynomial* (every term absent
    from ``poly`` is genuinely zero).  With a finite order, ``poly`` holds
    the terms of degree below ``order`` in ``var`` and nothing is claimed
    from ``order`` on.  Binary operations take the worst-case order of
    their operands; inversion costs ``2*valuation`` orders, as dictated by
    the error term of the geometric expansion.

    Coefficients are rationals or Polys in variables other than ``var``.
    """

    __slots__ = ("var", "poly", "order")

    def __init__(self, var: str, min_deg: int, coeffs, order=None):
        poly = Poly.zero()
        for k, c in enumerate(coeffs, min_deg):
            if isinstance(c, Poly):
                if var in c.vars:
                    raise ValueError(
                        "coefficient of a LaurentSeries in %r may not itself "
                        "contain %r" % (var, var)
                    )
            elif _fr(c) is None:
                raise TypeError("unsupported coefficient %r" % (c,))
            poly = poly + Poly.var(var, k) * c
        _hold(self, var, poly, order)

    def __setattr__(self, *a):
        raise AttributeError("LaurentSeries is immutable")

    def __reduce__(self):
        return type(self).from_poly, (self.poly, self.var, self.order)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, var: str, order=None) -> "LaurentSeries":
        return cls(var, 0, [], order)

    @classmethod
    def const(cls, var: str, c, order=None) -> "LaurentSeries":
        return cls(var, 0, [c], order)

    @classmethod
    def from_poly(cls, p: Poly, var: str, order=None) -> "LaurentSeries":
        """The series whose known part is the Poly p, cut at the order."""
        return _hold(object.__new__(cls), var, p, order)

    def _coerce(self, x):
        if isinstance(x, LaurentSeries):
            if x.var != self.var:
                raise ValueError(
                    "series in different variables: %r vs %r" % (self.var, x.var)
                )
            return x
        p = Poly._coerce(x)
        return None if p is None else LaurentSeries.from_poly(p, self.var)

    # -- queries --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """Zero as far as the order can see."""
        return not self.poly

    @property
    def valuation(self):
        """Degree of the lowest *known* nonzero coefficient (None if zero)."""
        return self.poly.min_exponent(self.var)

    @property
    def min_deg(self) -> int:
        """The valuation, 0 for a zero series."""
        return self.valuation or 0

    def coefficient(self, k: int):
        """The coefficient of var**k (a Fraction when it is constant);
        raises if k is beyond the order."""
        if self.order is not None and k >= self.order:
            raise ValueError(
                "coefficient of %s^%d requested but series is only valid "
                "below order %d" % (self.var, k, self.order)
            )
        c = self.poly.coefficient(self.var, k)
        return c.as_fraction() if c.is_constant else c

    def truncate(self, order: int) -> "LaurentSeries":
        return LaurentSeries.from_poly(
            self.poly, self.var, _omin(self.order, order)
        )

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentSeries.from_poly(
            self.poly + o.poly, self.var, _omin(self.order, o.order)
        )

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries.from_poly(-self.poly, self.var, self.order)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if (not self.poly and self.order is None) or (
            not o.poly and o.order is None
        ):
            return LaurentSeries.zero(self.var)  # exact zero annihilates
        # a factor is O(var**v), v its valuation or, if zero, its order;
        # the unknown tail of one factor times the content of the other
        va, vb = (s.valuation if s.poly else s.order for s in (self, o))
        order = _omin(
            None if self.order is None else self.order + vb,
            None if o.order is None else o.order + va,
        )
        return LaurentSeries.from_poly(self.poly * o.poly, self.var, order)

    __rmul__ = __mul__

    def one_like(self) -> "LaurentSeries":
        """The exact unit in this series' variable."""
        return LaurentSeries.const(self.var, 1)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by var**k (exact; shifts the order too)."""
        order = None if self.order is None else self.order + k
        return LaurentSeries.from_poly(
            self.poly * Poly.var(self.var, k), self.var, order
        )

    def invert(self) -> "LaurentSeries":
        """Multiplicative inverse.

        The leading coefficient must be a unit (a nonzero Fraction or a
        single-monomial Poly).  An exact series with more than one term has
        an infinite inverse, so it must be truncated first; the order of the
        result is ``order - 2*valuation``.
        """
        if not self.poly:
            raise NonInvertibleLeadingCoefficient("cannot invert zero series")
        m = self.valuation
        lead = self.coefficient(m)
        if isinstance(lead, Poly):
            if not lead.is_monomial_unit():
                raise NonInvertibleLeadingCoefficient(
                    "leading coefficient %s is not a unit" % lead
                )
            lead_inv = lead.inverse()
        else:
            lead_inv = 1 / lead
        if self.order is None:
            if self.poly.max_exponent(self.var) == m:
                return LaurentSeries(self.var, -m, [lead_inv], None)
            raise NonInvertibleLeadingCoefficient(
                "inverse of an exact multi-term series is an infinite "
                "series; truncate() it first"
            )
        # write self = lead * var^m * (1 + y),  val(y) >= 1; the result is
        # known below order - 2m, so 1/(1 + y) is needed below order - m
        y = LaurentSeries.from_poly(
            (self.poly * Poly.var(self.var, -m) - lead) * lead_inv,
            self.var,
            self.order - m,
        )
        acc = y.series(taylor_geometric)
        return acc.shift(-m) * LaurentSeries.const(self.var, lead_inv, None)

    inverse = invert

    def series(self, stream) -> "LaurentSeries":
        """sum_k a_k * self**k for ``stream()`` iterating over a_0, a_1, ...,
        for a series of provable valuation >= 1 (a zero series counts its
        order as its valuation) with a finite order, unless it is an exact
        zero.  self**k has valuation >= k, so the terms from k = order on
        are unknown: only a_0 ... a_(order-1) are read, and the sum is
        known below the order."""
        v = self.valuation if self.poly else self.order
        if v is not None and v < 1:
            raise ConstantTermPresent(
                "series needs valuation >= 1, got valuation %d" % v
            )
        if self.poly and self.order is None:
            raise ValueError("series of an exact series is infinite; truncate()")
        count = self.order if self.poly else 1  # a zero series sums to a_0
        one = LaurentSeries.const(self.var, 1, self.order)
        acc = nilpotent_series(islice(stream(), count), self, one)
        return acc.truncate(self.order)

    exp = Ring.exp
    log = Ring.log

    # -- comparison / display ---------------------------------------------------

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except ValueError:
            return False
        if o is None:
            return NotImplemented
        return self.order == o.order and self.poly == o.poly

    def __hash__(self):
        # an exact series hashes like its Poly, which it equals
        if self.order is None:
            return hash(self.poly)
        return hash((self.var, self.poly, self.order))

    def __bool__(self):
        return bool(self.poly)

    def __str__(self):
        if not self.poly:
            body = "0"
        else:
            parts = []
            lo, hi = self.valuation, self.poly.max_exponent(self.var)
            for k in range(lo, hi + 1):
                c = self.poly.coefficient(self.var, k)
                if not c:
                    continue
                cs = str(c)
                if len(c.coeffs) > 1:
                    cs = "(%s)" % cs
                if k == 0:
                    parts.append(cs)
                else:
                    var = self.var if k == 1 else "%s^%d" % (self.var, k)
                    parts.append(var if cs == "1" else "%s*%s" % (cs, var))
            body = " + ".join(parts).replace("+ -", "- ")
        if self.order is not None:
            body += " + O(%s^%d)" % (self.var, self.order)
        return body

    def __repr__(self):
        return "LaurentSeries(%s)" % self


# The scalars of the exact tower: what the term algebras and the matrices
# store and scale by.
_SCALARS = (int, Fraction, Poly, LaurentSeries)


def _hold(series, var, poly, order):
    """Fill the slots of a new series: ``poly`` cut below ``order``."""
    object.__setattr__(series, "var", var)
    object.__setattr__(series, "poly", poly.below(var, order))
    object.__setattr__(series, "order", order)
    return series


# --------------------------------------------------------------------------
# Classical Taylor coefficient streams (exact Fractions)
# --------------------------------------------------------------------------


def taylor_exp():
    """1, 1, 1/2, 1/6, ...: coefficients of exp(x)."""
    return accumulate(count(1), lambda c, k: c / k, initial=Fraction(1))


def taylor_log1p():
    """0, 1, -1/2, 1/3, ...: coefficients of log(1 + x)."""
    return (Fraction((-1) ** (k + 1), k) if k else Fraction(0) for k in count())


def taylor_geometric():
    """1, -1, 1, ...: coefficients of 1/(1 + x)."""
    return cycle((Fraction(1), Fraction(-1)))


def taylor_binomial(alpha):
    """Coefficients of (1 + x)**alpha for rational alpha."""
    a = _fr(alpha)
    if a is None:
        raise IrrationalExpansionPoint(
            "binomial exponent must be rational, got %r" % (alpha,)
        )
    return accumulate(
        count(), lambda c, k: c * (a - k) / (k + 1), initial=Fraction(1)
    )


# --------------------------------------------------------------------------
# The one power-series loop, and exact row reduction
# --------------------------------------------------------------------------


def nilpotent_series(coeffs, y, one):
    """sum_k coeffs[k] * y**k, where ``one`` is the unit of y's ring.

    The ring needs only ``*``, ``+``, ``is_zero`` and scalars multiplying
    from the left.  The exp, log, inverse and square root of truncated
    enveloping-algebra elements, of nilpotent matrices and of Laurent
    series, and the power series of the twist chain, are all this loop fed
    by one of the Taylor streams above, through the ``series`` method of
    y's ring.  Powers of y are formed one at a time and the sum stops at
    the first power that vanishes, or when ``coeffs`` runs out, so the
    powers are running products, not calls of ``**``
    (:meth:`Ring.__pow__`), which serves a single ``y**k``.  Each
    ``series`` bounds the endless streams: a truncated element by its
    cap, a truncated series by its order, and a matrix by refusing to
    read past the power that vanishes for every nilpotent matrix.  They
    are read one at a time, so a lazy stream builds none past the
    vanishing power."""
    coeffs = iter(coeffs)
    acc = next(coeffs, 0) * one
    y_k = one
    for c in coeffs:
        y_k = y_k * y
        if y_k.is_zero:
            break
        if c:
            acc = acc + c * y_k
    return acc


def rref(rows):
    """Reduced row echelon form over the rationals, every cell stored by
    the rule of :func:`_exact`; returns (rows, pivot_cols)."""
    rows = [[x if type(x) is int else _exact(Fraction(x)) for x in r] for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        if pr[c] != 1:
            inv = Fraction(1, pr[c])
            pr = rows[r] = [_exact(x * inv) if x else 0 for x in pr]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [_exact(x - f * y) if y else x for x, y in zip(rows[i], pr)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots
