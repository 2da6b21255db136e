"""Exact scalar arithmetic: rationals, multivariate Laurent polynomials,
and truncated Laurent series with explicit validity bookkeeping, and the
one ring protocol that every ring of the package follows.

Everything here is exact.  There are no floats anywhere in the tower:

* ``Fraction``     -- rationals, from :mod:`fractions`.
* ``Poly``         -- polynomials in finitely many named variables with
                      *integer* exponents (negative powers are allowed, so
                      these are really Laurent polynomials).  Coefficients
                      are ``Fraction``.
* ``LaurentSeries``-- a series in one distinguished variable whose
                      coefficients may be ``Fraction`` or ``Poly`` in other
                      variables.  Each series carries an ``order``: the
                      exponent from which coefficients are unknown.  All
                      operations propagate the worst-case order, so a stored
                      coefficient is always a proven one.

The three layers coerce upward (``Fraction`` -> ``Poly`` -> ``LaurentSeries``)
through the usual reflected operators, so tensor code can mix them freely.
The truth value of every scalar is its zero test: ``not c`` holds exactly
when c is (provably) zero.

One ring protocol: ``Poly``, ``LaurentSeries``, the matrices of
:mod:`~osptwist.repmat` and the term algebras of :mod:`~osptwist.pbw`
inherit :class:`Ring`, which writes ``-``, the reflected ``+`` and ``-``,
``**`` and the graded commutator once.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    ConstantTermPresent,
    DivisionByNonUnit,
    IrrationalExpansionPoint,
    NonInvertibleLeadingCoefficient,
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


class Ring:
    """The operations every ring of the package shares, written once.

    A subclass supplies ``__add__``, ``__neg__``, ``__mul__`` and
    ``one_like()`` (its unit), and binds ``inverse`` to a method when its
    elements may be inverted; the graded commutator also needs
    ``parity()`` (0 or 1, None when the element mixes parities)."""

    __slots__ = ()

    inverse = None

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __radd__(self, other):
        return self + other

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
            raise ValueError("super commutator needs homogeneous operands")
        ab, ba = self * other, other * self
        return ab + ba if (pa and pb) else ab - ba


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
    """Multivariate polynomial with Fraction coefficients and integer
    (possibly negative) exponents.

    Canonical form: variables sorted by name, no zero coefficients, and no
    variable that appears with exponent zero in every monomial.  Instances
    are immutable and hashable.
    """

    __slots__ = ("vars", "coeffs", "_hash")

    def __init__(self, variables, coeffs):
        vs = tuple(variables)
        cleaned = {}
        for expts, c in coeffs.items():
            c = Fraction(c)
            if c == 0:
                continue
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
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls((), {})

    @classmethod
    def const(cls, c) -> "Poly":
        c = Fraction(c)
        return cls((), {} if c == 0 else {(): c})

    @classmethod
    def var(cls, name: str, exponent: int = 1, coefficient=1) -> "Poly":
        if exponent == 0:
            return cls.const(coefficient)
        return cls((name,), {(exponent,): Fraction(coefficient)})

    @staticmethod
    def _coerce(x):
        if isinstance(x, Poly):
            return x
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
        return self.coeffs.get((), Fraction(0))

    @property
    def constant_term(self) -> Fraction:
        z = (0,) * len(self.vars)
        return self.coeffs.get(z, Fraction(0))

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

    def evaluate(self, assignment) -> "Poly":
        """Substitute Fractions for some variables (exact; negative powers
        require a nonzero value)."""
        vals = {}
        for name, v in assignment.items():
            f = _fr(v)
            if f is None:
                raise TypeError("evaluate() needs rational values")
            vals[name] = f
        keep = tuple(v for v in self.vars if v not in vals)
        out: dict = {}
        for e, c in self.coeffs.items():
            newe, factor = [], c
            for name, k in zip(self.vars, e):
                if name in vals:
                    base = vals[name]
                    if k < 0 and base == 0:
                        raise DivisionByNonUnit(
                            "negative power of %s evaluated at 0" % name
                        )
                    factor *= base**k
                else:
                    newe.append(k)
            key = tuple(newe)
            out[key] = out.get(key, Fraction(0)) + factor
        return Poly(keep, out)

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
            out[e] = out.get(e, Fraction(0)) + c
        return Poly(vs, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
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
                out[e] = out.get(e, Fraction(0)) + a * b
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
        return Poly(self.vars, {tuple(-k for k in e): 1 / c})

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
            h = hash((self.vars, frozenset(self.coeffs.items())))
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


def _oadd(a, k):
    return None if a is None else a + k


class LaurentSeries(Ring):
    """A Laurent series  sum_k  c_k * var**k  known exactly for k < order.

    ``order=None`` means the element is an exact Laurent *polynomial* (all
    unstored coefficients are genuinely zero).  With a finite order, stored
    coefficients cover degrees ``min_deg .. order-1`` (zeros elided) and
    nothing is claimed from ``order`` on.  Binary operations take the
    worst-case order of their operands; inversion costs ``2*valuation``
    orders, as dictated by the error term of the geometric expansion.

    Coefficients are Fractions or Polys in variables other than ``var``.
    """

    __slots__ = ("var", "min_deg", "coeffs", "order")

    def __init__(self, var: str, min_deg: int, coeffs, order=None):
        cleaned = []
        for c in coeffs:
            f = _fr(c)
            if f is not None:
                cleaned.append(f)
            elif isinstance(c, Poly):
                if var in c.vars:
                    raise ValueError(
                        "coefficient of a LaurentSeries in %r may not itself "
                        "contain %r" % (var, var)
                    )
                cleaned.append(c.as_fraction() if c.is_constant else c)
            else:
                raise TypeError("unsupported coefficient %r" % (c,))
        # strip leading zeros
        while cleaned and not cleaned[0]:
            cleaned.pop(0)
            min_deg += 1
        # drop anything at or beyond the order
        if order is not None and cleaned:
            keep = max(0, order - min_deg)
            cleaned = cleaned[:keep]
        # strip trailing zeros
        while cleaned and not cleaned[-1]:
            cleaned.pop()
        if not cleaned:
            min_deg = 0
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "min_deg", min_deg)
        object.__setattr__(self, "coeffs", tuple(cleaned))
        object.__setattr__(self, "order", order)

    def __setattr__(self, *a):
        raise AttributeError("LaurentSeries is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, var: str, order=None) -> "LaurentSeries":
        return cls(var, 0, [], order)

    @classmethod
    def const(cls, var: str, c, order=None) -> "LaurentSeries":
        return cls(var, 0, [c], order)

    @classmethod
    def monomial(cls, var: str, k: int, c=1, order=None) -> "LaurentSeries":
        return cls(var, k, [c], order)

    @classmethod
    def from_poly(cls, p: Poly, var: str, order=None) -> "LaurentSeries":
        """Split the powers of ``var`` out of a Poly."""
        if var not in p.vars:
            return cls.const(var, p, order)
        lo, hi = p.min_exponent(var), p.max_exponent(var)
        coeffs = [p.coefficient(var, k) for k in range(lo, hi + 1)]
        return cls(var, lo, coeffs, order)

    def _coerce(self, x):
        if isinstance(x, LaurentSeries):
            if x.var != self.var:
                raise ValueError(
                    "series in different variables: %r vs %r" % (self.var, x.var)
                )
            return x
        f = _fr(x)
        if f is not None:
            return LaurentSeries.const(self.var, f)
        if isinstance(x, Poly):
            return LaurentSeries.from_poly(x, self.var)
        return None

    # -- queries --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """Zero as far as the order can see."""
        return not self.coeffs

    @property
    def valuation(self):
        """Degree of the lowest *known* nonzero coefficient (None if zero)."""
        return self.min_deg if self.coeffs else None

    def _pessimistic_valuation(self):
        """A degree v with: content of the series is O(var**v). None = +inf."""
        if self.coeffs:
            return self.min_deg
        return self.order  # zero up to order; unknown tail starts there

    def coefficient(self, k: int):
        """The coefficient of var**k; raises if k is beyond the order."""
        if self.order is not None and k >= self.order:
            raise ValueError(
                "coefficient of %s^%d requested but series is only valid "
                "below order %d" % (self.var, k, self.order)
            )
        if k < self.min_deg or k >= self.min_deg + len(self.coeffs):
            return Fraction(0)
        return self.coeffs[k - self.min_deg]

    def truncate(self, order: int) -> "LaurentSeries":
        return LaurentSeries(self.var, self.min_deg, self.coeffs,
                             _omin(self.order, order))

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        order = _omin(self.order, o.order)
        if not self.coeffs:
            return LaurentSeries(o.var, o.min_deg, o.coeffs, order)
        if not o.coeffs:
            return LaurentSeries(self.var, self.min_deg, self.coeffs, order)
        lo = min(self.min_deg, o.min_deg)
        hi = max(self.min_deg + len(self.coeffs), o.min_deg + len(o.coeffs))
        out = [Fraction(0)] * (hi - lo)
        for i, c in enumerate(self.coeffs):
            out[self.min_deg - lo + i] = out[self.min_deg - lo + i] + c
        for i, c in enumerate(o.coeffs):
            out[o.min_deg - lo + i] = out[o.min_deg - lo + i] + c
        return LaurentSeries(self.var, lo, out, order)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(
            self.var, self.min_deg, [-c for c in self.coeffs], self.order
        )

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if (not self.coeffs and self.order is None) or (
            not o.coeffs and o.order is None
        ):
            return LaurentSeries.zero(self.var)  # exact zero annihilates
        va, vb = self._pessimistic_valuation(), o._pessimistic_valuation()
        # unknown tail of one factor times the content of the other
        order = _omin(
            None if self.order is None else self.order + vb,
            None if o.order is None else o.order + va,
        )
        if not self.coeffs or not o.coeffs:
            return LaurentSeries.zero(self.var, order)
        lo = self.min_deg + o.min_deg
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return LaurentSeries(self.var, lo, out, order)

    __rmul__ = __mul__

    def one_like(self) -> "LaurentSeries":
        """The exact unit in this series' variable."""
        return LaurentSeries.const(self.var, 1)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by var**k (exact; shifts the order too)."""
        return LaurentSeries(
            self.var, self.min_deg + k, self.coeffs, _oadd(self.order, k)
        )

    def invert(self) -> "LaurentSeries":
        """Multiplicative inverse.

        The leading coefficient must be a unit (a nonzero Fraction or a
        single-monomial Poly).  An exact series with more than one term has
        an infinite inverse, so it must be truncated first; the order of the
        result is ``order - 2*valuation``.
        """
        if not self.coeffs:
            raise NonInvertibleLeadingCoefficient("cannot invert zero series")
        lead = self.coeffs[0]
        m = self.min_deg
        if isinstance(lead, Poly):
            if not lead.is_monomial_unit():
                raise NonInvertibleLeadingCoefficient(
                    "leading coefficient %s is not a unit" % lead
                )
            lead_inv = lead.inverse()
        else:
            lead_inv = 1 / lead
        if self.order is None:
            if len(self.coeffs) == 1:
                return LaurentSeries(self.var, -m, [lead_inv], None)
            raise NonInvertibleLeadingCoefficient(
                "inverse of an exact multi-term series is an infinite "
                "series; truncate() it first"
            )
        # write self = lead * var^m * (1 + y),  val(y) >= 1; the result is
        # known below order - 2m, so 1/(1 + y) is needed below order - m,
        # and y**k has valuation >= k
        known = self.order - m
        y = LaurentSeries(
            self.var, 1, [lead_inv * c for c in self.coeffs[1:]], known
        )
        acc = nilpotent_series(
            taylor_geometric(max(known, 0) + 1),
            y,
            LaurentSeries.const(self.var, 1, known),
        )
        return acc.shift(-m) * LaurentSeries.const(self.var, lead_inv, None)

    inverse = invert

    def exp(self) -> "LaurentSeries":
        """exp of a series with strictly positive valuation (finite order
        required unless the series is zero)."""
        if self.is_zero:
            return LaurentSeries.const(self.var, 1, self.order)
        if self.min_deg < 1:
            raise ConstantTermPresent(
                "exp needs valuation >= 1, got valuation %d" % self.min_deg
            )
        if self.order is None:
            raise ValueError("exp of an exact series is infinite; truncate()")
        # self**k has valuation >= k, so terms from k = order on are unknown
        return nilpotent_series(
            taylor_exp(self.order),
            self,
            LaurentSeries.const(self.var, 1, self.order),
        )

    def log(self) -> "LaurentSeries":
        """log of 1 + (positive-valuation part); the constant term must be 1."""
        if self.min_deg < 0:
            raise ConstantTermPresent(
                "log needs the form 1 + O(%s); negative powers present"
                % self.var
            )
        c0 = self.coefficient(0) if (self.order is None or self.order > 0) else None
        if c0 is None or c0 != 1:
            raise ConstantTermPresent(
                "log needs constant term exactly 1, got %s" % (c0,)
            )
        y = self - 1
        if y.is_zero:
            return LaurentSeries.zero(self.var, self.order)
        if self.order is None:
            raise ValueError("log of an exact series is infinite; truncate()")
        return nilpotent_series(
            taylor_log1p(self.order),
            y,
            LaurentSeries.const(self.var, 1, self.order),
        )

    # -- comparison / display ---------------------------------------------------

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except ValueError:
            return False
        if o is None:
            return NotImplemented
        return (
            self.min_deg == o.min_deg
            and self.order == o.order
            and self.coeffs == o.coeffs
        )

    def __hash__(self):
        return hash((self.var, self.min_deg, self.coeffs, self.order))

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for i, c in enumerate(self.coeffs):
                if not c:
                    continue
                k = self.min_deg + i
                cs = str(c)
                if isinstance(c, Poly) and len(c.coeffs) > 1:
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


# --------------------------------------------------------------------------
# Classical Taylor coefficient streams (exact, as Fraction lists)
# --------------------------------------------------------------------------


def taylor_exp(num_terms: int):
    """[1, 1, 1/2, 1/6, ...]: coefficients of exp(x)."""
    out, c = [], Fraction(1)
    for k in range(num_terms):
        out.append(c)
        c /= k + 1
    return out


def taylor_log1p(num_terms: int):
    """[0, 1, -1/2, 1/3, ...]: coefficients of log(1 + x)."""
    return [
        Fraction(0) if k == 0 else Fraction((-1) ** (k + 1), k)
        for k in range(num_terms)
    ]


def taylor_geometric(num_terms: int):
    """[1, -1, 1, ...]: coefficients of 1/(1 + x)."""
    return [Fraction((-1) ** k) for k in range(num_terms)]


def taylor_binomial(alpha, num_terms: int):
    """Coefficients of (1 + x)**alpha for rational alpha."""
    a = _fr(alpha)
    if a is None:
        raise IrrationalExpansionPoint(
            "binomial exponent must be rational, got %r" % (alpha,)
        )
    out, c = [], Fraction(1)
    for k in range(num_terms):
        out.append(c)
        c = c * (a - k) / (k + 1)
    return out


# --------------------------------------------------------------------------
# The one power-series loop, and exact row reduction
# --------------------------------------------------------------------------


def nilpotent_series(coeffs, y, one):
    """sum_k coeffs[k] * y**k, where ``one`` is the unit of y's ring.

    The ring needs only ``*``, ``+``, ``is_zero`` and scalars multiplying
    from the left.  The exp, log, inverse and square root of truncated
    enveloping-algebra elements, of nilpotent matrices and of Laurent
    series, and the power series of the twist chain, are all this loop fed
    by one of the Taylor streams above.  Powers of y are formed one at a
    time and the sum stops at the first power that vanishes, or when
    ``coeffs`` runs out, so the powers are running products, not calls
    of ``**`` (:meth:`Ring.__pow__`), which serves a single ``y**k``.  The caller picks
    enough coefficients: for a nilpotent y, as many as its nilpotency
    bound; for a truncated series, as many as its order."""
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
    """Reduced row echelon form over Fraction; returns (rows, pivot_cols)."""
    rows = [list(map(Fraction, r)) for r in rows]
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
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots
