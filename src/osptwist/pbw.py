"""Normal-ordered (Poincare-Birkhoff-Witt) calculus for the enveloping
algebra of osp(1|2n), and for its tensor powers.

Monomials are tuples of basis indices, kept weakly increasing in the
basis order fixed by :class:`~osptwist.algebra.OspAlgebra` (strictly
increasing at odd letters, whose square rewrites to half a bracket).
Normal ordering inserts one letter at a time into a normal-ordered
monomial, using the structure constants; each (monomial, letter)
insertion is memoized, and the insertion loop is iterative, so long words
are fine.  A word, or the product of two monomials, is its letters folded
in one at a time.

One multiplication table per algebra.  :class:`PBWTable` holds every memo
of this module for one algebra: the interned monomials (small int ids,
with their grades and parities), the insertion memo, the product table
(a pair of ids -> the normal form of their product) that the product
kernel reads, and the coproducts of monomials.  ``pbw_table(alg)`` finds
it, ``clear()`` empties it and ``sizes()`` reports it.

Truncation.  Infinite objects (exponentials of raising elements, inverses,
square roots) are handled by working in the quotient of the enveloping
algebra -- or of its tensor powers -- by the span of all monomials whose
*total principal grade* exceeds a chosen cap.  The principal grade (half
the sum of the root's eps-coefficients, stored doubled as ``g2``) is
additive under multiplication and preserved by rewriting, so that span is
a two-sided ideal and the quotient is an honest ring: every coefficient
kept is exact, none is polluted by discarded terms.  Since the grade of a
monomial never exceeds its degree, capping at grade D certifies in
particular every coefficient of degree <= D.

An element with ``g2cap=None`` is untruncated; caps combine by taking the
minimum.  All series operations require a finite cap (they do not
terminate otherwise) and a grade-positive argument.

Coefficients.  At the API every rational coefficient is a ``Fraction``
(ints are converted on construction); Poly and LaurentSeries coefficients
are kept as they are.  Inside a product of two rational operands, each
operand is held as int numerators over one common denominator, the lcm of
its denominators; products are summed as Python ints, under one packed
int key per term (the ids of its legs), and turned back into ``Fraction``
and tuple keys once per output term.  The coproducts sum int numerators
the same way, and the table keeps int coefficients wherever they are
integral.

One term algebra.  :class:`UEElement`, :class:`UETensor` and the classical
:class:`~osptwist.rmatrix.LieTensor` are all zero-free coefficient dicts
over keys of one shape, and share one implementation of construction,
sums, scaling, powers, truncation, equality, the graded flip and printing
(``_Terms``); each class fixes only its key shape, the grade and parity
of a key, and its constructors' arguments.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import partial
from math import lcm
from operator import itemgetter

from .errors import (
    ConstantTermPresent,
    DivisionByNonUnit,
    HeterogeneousOperand,
    IrrationalExpansionPoint,
    MixedAlgebra,
)
from .repmat import GradedMatrix, kron_all, tensor_pv
from .scalars import (
    LaurentSeries,
    Poly,
    _fr,
    _omin,
    fraction_sqrt,
    nilpotent_series,
    power,
    scalar_is_zero,
    taylor_binomial,
    taylor_exp,
    taylor_geometric,
    taylor_log1p,
)


def scalar_inverse(c):
    """Multiplicative inverse within the scalar tower."""
    f = _fr(c)
    if f is not None:
        if f == 0:
            raise DivisionByNonUnit("scalar 0 has no inverse")
        return 1 / f
    if isinstance(c, Poly):
        return c.inverse()
    if isinstance(c, LaurentSeries):
        return c.invert()
    raise TypeError("cannot invert scalar %r" % (c,))


# --------------------------------------------------------------------------
# The multiplication table of one algebra
# --------------------------------------------------------------------------

# Bits of one monomial id in a packed key.  A k-leg key packs k ids into
# one int, and a pair of ids keys the product table; packing an id that
# does not fit raises, so two keys never alias.
_ID_BITS = 20


def _exact(c):
    """An integral coefficient as an int, any other one unchanged."""
    return c.numerator if c.denominator == 1 else c


class _Ids(dict):
    """monomial -> id; looking up a new monomial interns it."""

    __slots__ = ("table",)

    def __missing__(self, mono):
        return self.table._new_id(mono)


class PBWTable:
    """Every normal-ordering memo of one algebra, in one clearable object.

    Each monomial the kernel meets is interned: ``ids[mono]`` is its id
    (made on first lookup), ``monos[i]`` is the monomial of id i, and
    ``g2[i]`` and ``par[i]`` are its doubled grade and its parity; the
    empty monomial is id 0.  A tensor key of k legs packs its ids into
    one int of k * ``bits`` bits (``_ID_BITS`` when the table is made or
    cleared); the product table and the product kernel raise
    ``OverflowError`` before packing an id that does not fit, while
    interning and normal ordering, which pack nothing, have no limit.
    ``units[i]`` is the normal form ((i, 1),), shared by every memo entry
    that is monomial i alone.

    A normal form is a tuple of (id, coefficient) pairs, with int
    coefficients where they are integral.  ``insertions`` maps
    id * size + letter to the normal form of a normal-ordered monomial
    times one letter; ``products`` maps the packed pair of two ids to the
    normal form of their product, read by the product kernel; and
    ``coproducts`` maps (monomial, legs) to its undeformed coproduct as
    (key, coefficient) pairs.
    """

    __slots__ = ("algebra", "bits", "size", "odd", "monos", "ids", "g2",
                 "par", "units", "insertions", "products", "coproducts")

    def __init__(self, algebra):
        self.algebra = algebra
        self.size = algebra.size
        self.odd = [algebra.parity(x) for x in range(algebra.size)]
        self.clear()

    def clear(self):
        """Forget every memo; the next products are computed cold."""
        self.bits = _ID_BITS
        self.monos, self.ids, self.g2, self.par = [], _Ids(), [], []
        self.units = []
        self.ids.table = self
        self.insertions, self.products, self.coproducts = {}, {}, {}
        self.ids[()]  # interned first: id 0

    def sizes(self) -> dict:
        return {
            "monomials": len(self.monos),
            "insertions": len(self.insertions),
            "products": len(self.products),
            "coproducts": len(self.coproducts),
        }

    def _new_id(self, mono) -> int:
        # grade and parity first: a bad letter raises before any list grows
        g2 = sum(self.algebra.g2(x) for x in mono)
        par = sum(self.odd[x] for x in mono) & 1
        i = len(self.monos)
        self.g2.append(g2)
        self.par.append(par)
        self.units.append(((i, 1),))
        self.monos.append(mono)
        self.ids[mono] = i
        return i

    def _too_wide(self, top):
        """The error for packing id ``top``, which needs more than
        ``bits`` bits."""
        return OverflowError(
            "monomial id %d does not fit the %d-bit packed keys"
            % (top, self.bits)
        )

    def _insert(self, mid, x):
        """Normal form of monos[mid] * x for a normal-ordered monomial and
        one letter, memoized per (monomial, letter).

        Writing the monomial as u*y with y its last letter: x is appended
        when y < x, or y == x and x is even; an odd square is
        u*x*x = 1/2 u*[x,x]; otherwise u*y*x = +-(u*x)*y + u*[y,x], with
        the minus sign when both letters are odd.  Every product this asks
        for has a shorter left monomial, or is the append of y to the
        leading term of u*x, so the explicit stack below empties.
        """
        memo, size, monos, odd, ids = (
            self.insertions, self.size, self.monos, self.odd, self.ids
        )
        hit = memo.get(mid * size + x)
        if hit is not None:
            return hit
        bracket = self.algebra.bracket
        stack = [(mid, x)]
        while stack:
            mid, x = stack[-1]
            key = mid * size + x
            if key in memo:
                stack.pop()
                continue
            mono = monos[mid]
            y = mono[-1] if mono else -1
            if y < x or (y == x and not odd[x]):
                memo[key] = self.units[ids[mono + (x,)]]
                stack.pop()
                continue
            u = ids[mono[:-1]]
            if y == x:
                terms = [(c / 2, u, k) for k, c in bracket(x, x).items()]
            else:
                ux = memo.get(u * size + x)
                if ux is None:
                    stack.append((u, x))
                    continue
                sign = -1 if odd[x] and odd[y] else 1
                terms = [(sign * a, m, y) for m, a in ux]
                terms += [(c, u, k) for k, c in bracket(y, x).items()]
            missing = [(m, z) for _, m, z in terms if m * size + z not in memo]
            if missing:
                stack.extend(missing)
                continue
            acc: dict = {}
            for c, m, z in terms:
                for mm, a in memo[m * size + z]:
                    acc[mm] = acc.get(mm, 0) + c * a
            memo[key] = tuple((mm, _exact(v)) for mm, v in acc.items() if v)
            stack.pop()
        return memo[mid * size + x]

    def fold(self, word, start=((0, 1),)) -> tuple:
        """Normal form of ``start`` (a normal form, by default the empty
        monomial) times a word of letters, inserted one at a time."""
        memo, size, insert = self.insertions, self.size, self._insert
        acc = dict(start)
        for x in word:
            nxt: dict = {}
            for m, c in acc.items():
                for mm, a in memo.get(m * size + x) or insert(m, x):
                    nxt[mm] = nxt.get(mm, 0) + c * a
            acc = nxt
        nf = tuple((m, _exact(c)) for m, c in acc.items() if c)
        if len(nf) == 1 and nf[0][1] == 1:
            return self.units[nf[0][0]]
        return nf

    def product(self, a: int, b: int) -> tuple:
        """Normal form of monos[a] * monos[b], from the product table: the
        letters of b inserted into the normal form of a, which is the
        entry (0, a).  Every id of an entry fits ``bits`` bits, so the
        kernel packs the ids it reads here without checking them."""
        bits = self.bits
        if (a | b) >> bits:
            raise self._too_wide(max(a, b))
        key = a << bits | b
        hit = self.products.get(key)
        if hit is None:
            start = self.product(0, a) if a else ((0, 1),)
            hit = self.fold(self.monos[b], start)
            top = max((m for m, _ in hit), default=0)
            if top >> bits:
                raise self._too_wide(top)
            self.products[key] = hit
        return hit


def pbw_table(algebra) -> PBWTable:
    """The multiplication table of an algebra, made on first use."""
    table = getattr(algebra, "_pbw_table", None)
    if table is None:
        table = algebra._pbw_table = PBWTable(algebra)
    return table


def normal_form(alg, word) -> dict:
    """Rewrite an arbitrary word of basis indices into normal-ordered
    monomials: a fresh {monomial: Fraction} dict.  Exact; the letter
    insertions behind it are memoized on the algebra's table."""
    table = pbw_table(alg)
    return {table.monos[m]: Fraction(c) for m, c in table.fold(tuple(word))}


def monomial_g2(alg, mono) -> int:
    table = pbw_table(alg)
    return table.g2[table.ids[mono]]


def monomial_parity(alg, mono) -> int:
    table = pbw_table(alg)
    return table.par[table.ids[mono]]


def format_monomial(alg, mono) -> str:
    if not mono:
        return "1"
    parts = []
    i = 0
    while i < len(mono):
        j = i
        while j < len(mono) and mono[j] == mono[i]:
            j += 1
        name = alg.name_of(mono[i])
        if not name[0].isalnum():
            name = "(%s)" % name
        parts.append(name if j - i == 1 else "%s^%d" % (name, j - i))
        i = j
    return "*".join(parts)


def _over_common_denominator(items):
    """(key, int numerator) pairs over the lcm of the denominators, and
    that lcm, when every coefficient is rational; None otherwise."""
    dens = set()
    for _, c in items:
        if not isinstance(c, (int, Fraction)):
            return None
        dens.add(c.denominator)
    den = lcm(*dens)
    nums = [(key, c.numerator * (den // c.denominator)) for key, c in items]
    return nums, den


def _linear_image(items, image):
    """sum of c * image(key) over (key, c) pairs, where image(key) lists
    (key, coefficient) pairs, as a zero-free dict.  Rational coefficients
    are summed as int numerators over one common denominator, divided out
    once per output key."""
    q = _over_common_denominator(items)
    den = None
    if q is not None:
        items, den = q
    acc: dict = {}
    for key, c in items:
        for k, a in image(key):
            acc[k] = acc.get(k, 0) + c * a
    return _drain(acc, den)


def _drain(acc, den, decode=None):
    """The nonzero terms of an accumulator as a fresh dict, each value
    divided by ``den`` (kept as it is when ``den`` is None) and each key
    mapped by ``decode`` when given.  The accumulator is emptied entry by
    entry, so the two dicts are never both full."""
    out = {}
    pop = acc.popitem
    for _ in range(len(acc)):
        key, v = pop()
        if v:
            if decode is not None:
                key = decode(key)
            out[key] = v if den is None else Fraction(v, den)
    return out


def _product(alg, left, right, legs, cap):
    """Exact product of two combinations of ``legs``-leg terms.

    ``left`` and ``right`` are collections of (key, coefficient) pairs, a
    key being a tuple of one normal-ordered monomial per leg (an element
    is the one-leg case).  Returns the product as {key: coefficient}, free
    of zeros and of terms above the cap.

    Every leg monomial is interned in the algebra's table, a term is
    accumulated under its packed int key, and leg products are read from
    the table's product memo.  An operand id too wide to pack raises, and
    so does a product entry holding one (``PBWTable.product``), so no two
    keys alias.  When both operands are rational, each becomes int
    numerators over its own common denominator; products are summed as
    ints and divided out once at the end, as the accumulator is drained
    into {key: Fraction}.  Other scalars (Poly, LaurentSeries) run
    the same loop with their own coefficients and no denominator.
    """
    lq, rq = _over_common_denominator(left), _over_common_denominator(right)
    if lq is None or rq is None:
        den = None
    else:
        (left, ld), (right, rd) = lq, rq
        den = ld * rd
    table = pbw_table(alg)
    id_of, g2, par, bits = table.ids, table.g2, table.par, table.bits
    last = legs - 1

    def leg_ids(key):
        ids = [id_of[m] for m in key]
        top = max(ids)
        if top >> bits:
            raise table._too_wide(top)
        return ids

    # The right operand is prepared once.  Its terms are grouped by grade
    # and by every leg but the last (the head), and the groups are sorted
    # by grade, so the cap cuts the inner loop at one index and each head
    # product is formed once per group.  The Koszul sign of a pair only
    # sees the right term's odd head legs, as no leg follows the last one.
    groups: dict = {}
    for u, c in right:
        ids = leg_ids(u)
        grade = sum(g2[i] for i in ids)
        groups.setdefault((grade, tuple(ids[:last])), []).append((ids[last], c))
    prepared = sorted(
        [
            (grade, head, sum(par[m] << i for i, m in enumerate(head)), members)
            for (grade, head), members in groups.items()
        ],
        key=itemgetter(0),
    )
    grades = [q[0] for q in prepared]
    get, product = table.products.get, table.product
    acc: dict = {}
    aget = acc.get
    for t, c1 in left:
        ids = leg_ids(t)
        if cap is None:
            stop = len(grades)
        else:
            stop = bisect_right(grades, cap - sum(g2[i] for i in ids))
        # bit i set when the legs after i hold an odd number of odd letters
        odd_after = 0
        odd = 0
        for i in range(last, -1, -1):
            if odd:
                odd_after |= 1 << i
            odd ^= par[ids[i]]
        t_head, t_last = ids[:last], ids[last]
        t_last_key = t_last << bits
        for _, head, odd_head, members in prepared[:stop]:
            odd_pairs = (odd_head & odd_after).bit_count()
            # (packed ids of the legs so far, shifted for the next leg,
            # coefficient)
            parts = [(0, -c1 if odd_pairs & 1 else c1)]
            for ti, ui in zip(t_head, head):
                nf = get(ti << bits | ui) or product(ti, ui)
                parts = [
                    ((p | m) << bits, pc * a) for p, pc in parts for m, a in nf
                ]
            for u_last, c2 in members:
                nf = get(t_last_key | u_last) or product(t_last, u_last)
                for p, pc in parts:
                    pc *= c2
                    for m, a in nf:
                        key = p | m
                        v = aget(key, 0) + pc * a
                        if v:
                            acc[key] = v
                        else:
                            acc.pop(key, None)
    monos, mask = table.monos, (1 << bits) - 1
    shifts = range(bits * last, -1, -bits)
    return _drain(
        acc, den, lambda k: tuple([monos[k >> s & mask] for s in shifts])
    )


def _sum_terms(x, y, sign, grade):
    """The terms of x + sign * y (sign +1 or -1) for two elements or two
    tensors, and the smaller cap: zero-free and cut at that cap, a side's
    terms being cut only when its own cap was looser."""
    cap = _omin(x.g2cap, y.g2cap)
    if x.g2cap == cap:
        out = dict(x.terms)
    else:
        out = {k: c for k, c in x.terms.items() if grade(k) <= cap}
    cut_y = y.g2cap != cap
    for k, c in y.terms.items():
        if cut_y and grade(k) > cap:
            continue
        v = out.get(k)
        if v is None:
            out[k] = c if sign > 0 else -c
        elif sign < 0 and v == c:
            # the terms of a vanishing residual cancel without arithmetic
            del out[k]
        else:
            v = v + c if sign > 0 else v - c
            if scalar_is_zero(v):
                del out[k]
            else:
                out[k] = v
    return out, cap


# --------------------------------------------------------------------------
# The term algebra shared by elements, tensors and classical tensors
# --------------------------------------------------------------------------


class _Terms:
    """A finite combination of keys with coefficients in the exact scalar
    tower, kept as a zero-free {key: coefficient} dict, modulo total grade
    > g2cap/2 (no truncation when g2cap is None).

    :class:`UEElement`, :class:`UETensor` and
    :class:`~osptwist.rmatrix.LieTensor` share this term algebra.  A
    subclass fixes only the shape of a key (``_key``: a monomial, a tuple
    of monomials, or a tuple of basis letters), the grade and parity of a
    key (``term_g2``, ``term_parity``, and ``_leg_parity`` of one leg of a
    tensor key), how a key prints (``_body``, ``_sort_key``) and the
    arguments of its constructors.  ``legs`` is the number of tensor legs,
    None for an element of the enveloping algebra itself.  Powers need the
    subclass's product and ``one_like``.
    """

    __slots__ = ("algebra", "terms", "legs", "g2cap")

    def _fill(self, algebra, terms, legs, g2cap):
        """The validated constructor: keys brought to shape, int
        coefficients made Fractions, zeros and terms above the cap
        dropped."""
        self.algebra = algebra
        self.legs = legs
        self.g2cap = g2cap
        cleaned = {}
        for key, c in terms.items():
            key = self._key(key)
            if isinstance(c, int):
                c = Fraction(c)
            if scalar_is_zero(c):
                continue
            if g2cap is not None and self.term_g2(key) > g2cap:
                continue
            cleaned[key] = c
        self.terms = cleaned

    def _rebuilt(self, terms, g2cap):
        """An object of self's kind (type, algebra, legs) holding
        ``terms``, validated."""
        out = object.__new__(type(self))
        out._fill(self.algebra, terms, self.legs, g2cap)
        return out

    @classmethod
    def _wrap(cls, algebra, terms, legs, g2cap):
        """An object of kind ``cls`` wrapping terms that are already clean:
        keys in shape, nonzero coefficients, none above the cap."""
        out = object.__new__(cls)
        out.algebra = algebra
        out.terms = terms
        out.legs = legs
        out.g2cap = g2cap
        return out

    def _trusted(self, terms, g2cap):
        """An object of self's kind (type, algebra, legs) wrapping clean
        terms."""
        return self._wrap(self.algebra, terms, self.legs, g2cap)

    def _check_legs(self, key):
        if len(key) != self.legs:
            raise HeterogeneousOperand(
                "term %r has %d legs, expected %d" % (key, len(key), self.legs)
            )
        return key

    def zero_like(self):
        return self._trusted({}, self.g2cap)

    # -- inspection -------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def is_grade_positive(self):
        """True when every term has total grade >= 1/2 (g2 >= 1)."""
        return all(self.term_g2(k) >= 1 for k in self.terms)

    def parity(self):
        """The parity shared by every term (0 for zero), None if they mix."""
        seen = {self.term_parity(k) for k in self.terms}
        if not seen:
            return 0
        if len(seen) > 1:
            return None
        return seen.pop()

    def is_even(self):
        return self.parity() == 0

    # -- linear structure ---------------------------------------------------

    def _check(self, other):
        if not self.algebra.compatible_with(other.algebra):
            raise MixedAlgebra(
                "operands live in osp(1|%d) and osp(1|%d)"
                % (2 * self.algebra.n, 2 * other.algebra.n)
            )
        if self.legs != other.legs:
            raise HeterogeneousOperand(
                "tensors with %s and %s legs" % (self.legs, other.legs)
            )

    def _combine(self, other, sign):
        """self + sign * other for ``other`` of self's kind."""
        self._check(other)
        out, cap = _sum_terms(self, other, sign, self.term_g2)
        return self._trusted(out, cap)

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return self._trusted(
            {k: -c for k, c in self.terms.items()}, self.g2cap
        )

    def __sub__(self, other):
        if isinstance(other, type(self)):
            return self._combine(other, -1)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        if scalar_is_zero(c):
            return self.zero_like()
        return self._rebuilt(
            {k: c * v for k, v in self.terms.items()}, self.g2cap
        )

    def __rmul__(self, c):
        if isinstance(c, _Terms):
            return NotImplemented
        return self.scale(c)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return power(self, k, self.one_like())

    def truncate(self, g2cap):
        return self._rebuilt(self.terms, _omin(self.g2cap, g2cap))

    def map_coefficients(self, fn):
        return self._rebuilt(
            {k: fn(c) for k, c in self.terms.items()}, self.g2cap
        )

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (
            self.algebra.compatible_with(other.algebra)
            and self.legs == other.legs
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.algebra.n, self.legs, frozenset(self.terms.items())))

    def flip(self):
        """Graded swap of the two legs of a 2-leg tensor:
        a (x) b -> (-1)**(p(a)p(b)) b (x) a."""
        if self.legs != 2:
            raise HeterogeneousOperand("flip is defined for 2-leg tensors")
        par = self._leg_parity
        return self._trusted(
            {
                (b, a): -c if par(a) and par(b) else c
                for (a, b), c in self.terms.items()
            },
            self.g2cap,
        )

    # -- display ----------------------------------------------------------

    @staticmethod
    def _scaled(cs, body):
        return "%s*[%s]" % (cs, body)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=self._sort_key):
            c = self.terms[key]
            cs = str(c)
            if isinstance(c, (Poly, LaurentSeries)) and len(getattr(c, "coeffs", ())) > 1:
                cs = "(%s)" % cs
            body = self._body(key)
            if cs == "1":
                parts.append(body)
            elif cs == "-1":
                parts.append("-" + body)
            else:
                parts.append(self._scaled(cs, body))
        return " + ".join(parts).replace("+ -", "- ")


# --------------------------------------------------------------------------
# Elements of the (grade-capped) enveloping algebra
# --------------------------------------------------------------------------


class UEElement(_Terms):
    """A finite combination of normal-ordered monomials with coefficients
    in the exact scalar tower, living in the enveloping algebra modulo
    total grade > g2cap/2 (no truncation when g2cap is None)."""

    __slots__ = ()

    def __init__(self, algebra, terms, g2cap=None):
        self._fill(algebra, terms, None, g2cap)

    @staticmethod
    def _key(mono):
        return tuple(mono)

    def term_g2(self, mono):
        return monomial_g2(self.algebra, mono)

    def term_parity(self, mono):
        return monomial_parity(self.algebra, mono)

    @staticmethod
    def _sort_key(mono):
        return (len(mono), mono)

    def _body(self, mono):
        return format_monomial(self.algebra, mono)

    @staticmethod
    def _scaled(cs, body):
        return cs if body == "1" else "%s*%s" % (cs, body)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, algebra, g2cap=None):
        return cls(algebra, {}, g2cap)

    @classmethod
    def one(cls, algebra, g2cap=None):
        return cls(algebra, {(): Fraction(1)}, g2cap)

    @classmethod
    def generator(cls, algebra, name, g2cap=None):
        ix = algebra.generator_index(name) if isinstance(name, str) else name
        return cls(algebra, {(ix,): Fraction(1)}, g2cap)

    def one_like(self):
        return UEElement.one(self.algebra, self.g2cap)

    # -- inspection -------------------------------------------------------

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), Fraction(0))

    def constant_coefficient(self):
        return self.terms.get((), Fraction(0))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, UETensor):
            raise HeterogeneousOperand("cannot add an element to a tensor")
        if not isinstance(other, UEElement):
            c = other
            return self + UEElement(self.algebra, {(): c}, self.g2cap)
        return self._combine(other, 1)

    def __mul__(self, other):
        if isinstance(other, UETensor):
            raise HeterogeneousOperand(
                "cannot multiply an element by a tensor; embed it first"
            )
        if not isinstance(other, UEElement):
            return self.scale(other)
        self._check(other)
        cap = _omin(self.g2cap, other.g2cap)
        out = _product(
            self.algebra,
            [((m,), c) for m, c in self.terms.items()],
            [((m,), c) for m, c in other.terms.items()],
            1,
            cap,
        )
        return self._trusted({key[0]: c for key, c in out.items()}, cap)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.terms == ({(): Fraction(other)} if other else {})
        return _Terms.__eq__(self, other)

    __hash__ = _Terms.__hash__

    # -- structure maps ---------------------------------------------------------

    def super_bracket(self, other: "UEElement") -> "UEElement":
        """[a,b] = ab - (-1)**(p(a)p(b)) ba (parities must be homogeneous)."""
        pa, pb = self.parity(), other.parity()
        if pa is None or pb is None:
            raise ValueError("bracket needs parity-homogeneous operands")
        ab = self * other
        ba = other * self
        return ab + ba if (pa and pb) else ab - ba

    def to_matrix(self) -> GradedMatrix:
        """Image under the defining representation."""
        alg = self.algebra
        return _matrix_sum(
            alg.pv, ((alg.monomial_matrix(m), c) for m, c in self.terms.items())
        )

    def coproduct(self, legs: int = 2) -> "UETensor":
        """Undeformed coproduct (every basis generator primitive), as a
        tensor with the same total-grade cap (the coproduct keeps grades)."""
        alg = self.algebra
        out = _linear_image(
            self.terms.items(), lambda mono: _coproduct_monomial(alg, mono, legs)
        )
        return UETensor._wrap(alg, out, legs, self.g2cap)

    def __repr__(self):
        return "UEElement(%s)" % self


# --------------------------------------------------------------------------
# Tensor powers
# --------------------------------------------------------------------------


class UETensor(_Terms):
    """A combination of leg-tuples of normal-ordered monomials, i.e. an
    element of U(osp(1|2n))^(x legs), modulo total grade > g2cap/2.

    Multiplication carries the Koszul sign for sliding leg factors past
    each other:  (x1 (x) .. (x) xk)(y1 (x) .. (x) yk) picks up
    (-1)**sum_i p(y_i) * sum_{l>i} p(x_l).
    """

    __slots__ = ()

    def __init__(self, algebra, terms, legs, g2cap=None):
        self._fill(algebra, terms, legs, g2cap)

    def _key(self, key):
        return self._check_legs(tuple(tuple(m) for m in key))

    def term_g2(self, key):
        return sum(monomial_g2(self.algebra, m) for m in key)

    def term_parity(self, key):
        return sum(monomial_parity(self.algebra, m) for m in key) % 2

    def _leg_parity(self, mono):
        return monomial_parity(self.algebra, mono)

    @staticmethod
    def _sort_key(key):
        return (sum(len(m) for m in key), key)

    def _body(self, key):
        return " (x) ".join(format_monomial(self.algebra, m) for m in key)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, algebra, legs, g2cap=None):
        return cls(algebra, {}, legs, g2cap)

    @classmethod
    def one(cls, algebra, legs, g2cap=None):
        return cls(algebra, {((),) * legs: Fraction(1)}, legs, g2cap)

    @classmethod
    def of(cls, *elements, g2cap=None):
        """Elementary tensor e1 (x) e2 (x) ...: bilinear pairing of terms
        (signs only ever come from multiplication, not formation)."""
        if not elements:
            raise HeterogeneousOperand("need at least one tensor factor")
        alg = elements[0].algebra
        cap = g2cap
        for e in elements:
            if not alg.compatible_with(e.algebra):
                raise MixedAlgebra("tensor factors from different algebras")
            cap = _omin(cap, e.g2cap)
        combos = {(): Fraction(1)}
        for e in elements:
            nxt = {}
            for pref, pc in combos.items():
                for mono, mc in e.terms.items():
                    nxt[pref + (mono,)] = pc * mc
            combos = nxt
        return cls(alg, combos, len(elements), cap)

    def one_like(self):
        return UETensor.one(self.algebra, self.legs, self.g2cap)

    # -- inspection ----------------------------------------------------------

    def coefficient(self, key):
        return self.terms.get(tuple(tuple(m) for m in key), Fraction(0))

    def constant_coefficient(self):
        return self.terms.get(((),) * self.legs, Fraction(0))

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, UETensor):
            if isinstance(other, UEElement):
                raise HeterogeneousOperand("cannot add an element to a tensor")
            return self + self.one_like().scale(other)
        return self._combine(other, 1)

    def __mul__(self, other):
        if not isinstance(other, UETensor):
            if isinstance(other, UEElement):
                raise HeterogeneousOperand(
                    "cannot multiply a tensor by an element; embed it first"
                )
            return self.scale(other)
        self._check(other)
        cap = _omin(self.g2cap, other.g2cap)
        out = _product(
            self.algebra, self.terms.items(), other.terms.items(), self.legs, cap
        )
        return self._trusted(out, cap)

    # -- leg surgery ------------------------------------------------------------

    def embed(self, legs, total: int) -> "UETensor":
        """Place the tensor's legs at the given (1-based, increasing)
        positions among ``total`` legs, identity elsewhere.  Elementary
        embedding carries no sign; signs reappear in products."""
        legs = tuple(legs)
        if len(legs) != self.legs or sorted(set(legs)) != list(legs):
            raise HeterogeneousOperand(
                "embedding of a %d-leg tensor needs that many strictly "
                "increasing positions, got %r" % (self.legs, legs)
            )
        if legs and (legs[0] < 1 or legs[-1] > total):
            raise HeterogeneousOperand(
                "legs %r out of range 1..%d" % (legs, total)
            )
        out = {}
        for key, c in self.terms.items():
            full = [()] * total
            for pos, mono in zip(legs, key):
                full[pos - 1] = mono
            out[tuple(full)] = c
        return UETensor(self.algebra, out, total, self.g2cap)

    def counit_leg(self, leg: int) -> "UETensor | UEElement":
        """Apply the counit (constant-term functional) to one 1-based leg."""
        if not 1 <= leg <= self.legs:
            raise HeterogeneousOperand("no leg %d in a %d-leg tensor" % (leg, self.legs))
        out = {}
        for key, c in self.terms.items():
            if key[leg - 1]:
                continue
            short = key[: leg - 1] + key[leg:]
            out[short] = out.get(short, 0) + c
        if self.legs == 2:
            return UEElement(
                self.algebra, {k[0]: c for k, c in out.items()}, self.g2cap
            )
        return UETensor(self.algebra, out, self.legs - 1, self.g2cap)

    def counits_are_one(self) -> bool:
        """(eps (x) id)t = 1 = (id (x) eps)t for a 2-leg tensor t, where eps
        kills generators."""
        one = UEElement.one(self.algebra, self.g2cap)
        return self.counit_leg(1) == one and self.counit_leg(2) == one

    def coproduct_leg(self, leg: int) -> "UETensor":
        """Apply the undeformed coproduct to one 1-based leg (k -> k+1 legs)."""
        if not 1 <= leg <= self.legs:
            raise HeterogeneousOperand("no leg %d in a %d-leg tensor" % (leg, self.legs))
        alg = self.algebra
        i = leg - 1

        def image(key):
            head, tail = key[:i], key[leg:]
            return [
                (head + split + tail, c)
                for split, c in _coproduct_monomial(alg, key[i], 2)
            ]

        out = _linear_image(self.terms.items(), image)
        return UETensor._wrap(alg, out, self.legs + 1, self.g2cap)

    # -- grading helpers -----------------------------------------------------------

    def grade_component(self, g2: int) -> "UETensor":
        picked = {k: c for k, c in self.terms.items() if self.term_g2(k) == g2}
        return UETensor(self.algebra, picked, self.legs, self.g2cap)

    def scale_by_grade(self, factor) -> "UETensor":
        """Multiply each term by factor**(grade).  Requires every term to
        have even g2 (true for parity-even tensors), so the power is an
        integer."""
        powers: dict = {}
        out = {}
        for k, c in self.terms.items():
            g2 = self.term_g2(k)
            weight = powers.get(g2)
            if weight is None:
                if g2 % 2:
                    raise ValueError(
                        "term of odd doubled grade %d cannot be scaled by an "
                        "integer power" % g2
                    )
                weight = powers[g2] = factor ** (g2 // 2)
            out[k] = c * weight
        return UETensor(self.algebra, out, self.legs, self.g2cap)

    # -- representation ---------------------------------------------------------------

    def to_matrix(self) -> GradedMatrix:
        """Image under the defining representation on every leg."""
        alg = self.algebra
        return _matrix_sum(
            tensor_pv(alg.pv, self.legs),
            (
                (kron_all([alg.monomial_matrix(m) for m in key]), c)
                for key, c in self.terms.items()
            ),
        )

    def __repr__(self):
        return "UETensor(legs=%d, terms=%d)" % (self.legs, len(self.terms))


def _matrix_sum(pv, scaled):
    """sum c * M over (M, c) pairs, accumulated in one entries dict."""
    out: dict = {}
    for mat, c in scaled:
        for ij, x in mat.entries.items():
            out[ij] = out.get(ij, 0) + c * x
    return GradedMatrix(pv, out)


def _coproduct_monomial(alg, mono, legs: int) -> tuple:
    """The undeformed coproduct of one monomial as (key, coefficient)
    pairs, int where integral; memoized on the algebra's table."""
    cache = pbw_table(alg).coproducts
    key = (mono, legs)
    hit = cache.get(key)
    if hit is not None:
        return hit
    out = UETensor.one(alg, legs)
    for ix in mono:
        primitive = UETensor.zero(alg, legs)
        for pos in range(legs):
            term = [()] * legs
            term[pos] = (ix,)
            primitive = primitive + UETensor(
                alg, {tuple(term): Fraction(1)}, legs
            )
        out = out * primitive
    hit = cache[key] = tuple((k, _exact(c)) for k, c in out.terms.items())
    return hit


# --------------------------------------------------------------------------
# Terminating series calculus (shared by elements and tensors)
# --------------------------------------------------------------------------
#
# ue_series is the one entry that checks a series argument and sums a
# Taylor stream with scalars.nilpotent_series.  A grade-positive y has
# doubled grade >= k in y**k, so y**(g2cap + 1) vanishes: g2cap + 2
# coefficients always reach a vanishing power.  The other entries check
# only the constant term c0 and pass the rest, scaled, to ue_series.


def _split_constant(x):
    """(constant term, the rest) of a truncated series argument."""
    if x.g2cap is None:
        raise ValueError(
            "series operations need a truncated operand; call truncate()"
        )
    c = x.constant_coefficient()
    rest = x - x.one_like().scale(c)
    return c, rest


def ue_series(stream, x):
    """sum_k a_k * x**k for a grade-positive truncated x with zero constant
    term, where ``stream(count)`` lists the Taylor coefficients a_0, ...,
    a_(count-1) (``scalars.taylor_exp`` and its siblings).  The cap of x
    fixes the count: powers beyond it vanish."""
    c0, rest = _split_constant(x)
    if not scalar_is_zero(c0):
        raise ConstantTermPresent(
            "series argument must have zero constant term; fold the "
            "constant into the coefficients instead"
        )
    if not rest.is_grade_positive():
        raise ConstantTermPresent(
            "series evaluation requires all non-constant terms to have "
            "strictly positive grade (grade-0 letters such as Cartan or "
            "grade-0 root vectors would make the series non-terminating)"
        )
    return nilpotent_series(stream(x.g2cap + 2), rest, x.one_like())


def ue_exp(x):
    """exp of a grade-positive truncated element/tensor."""
    return ue_series(taylor_exp, x)


def ue_log(x):
    """log of 1 + (grade-positive part)."""
    c0, rest = _split_constant(x)
    if c0 != 1:
        raise ConstantTermPresent("log needs constant term exactly 1")
    return ue_series(taylor_log1p, rest)


def ue_invert(x):
    """Inverse of (unit scalar) + (grade-positive part)."""
    c0, rest = _split_constant(x)
    if scalar_is_zero(c0):
        raise DivisionByNonUnit("cannot invert: zero constant term")
    c0_inv = scalar_inverse(c0)
    y = rest.scale(c0_inv)  # x = c0 (1 + y)
    return ue_series(taylor_geometric, y).scale(c0_inv)


def ue_sqrt(x):
    """Principal square root of (positive rational) + (grade-positive part)."""
    c0, rest = _split_constant(x)
    if isinstance(c0, Poly):
        if not c0.is_constant:
            raise IrrationalExpansionPoint(
                "square root needs a rational constant term, got %s" % c0
            )
        c0 = c0.as_fraction()
    if not isinstance(c0, Fraction):
        raise IrrationalExpansionPoint(
            "square root needs a rational constant term, got %r" % (c0,)
        )
    root = fraction_sqrt(c0)
    if root is None or root == 0:
        raise IrrationalExpansionPoint(
            "constant term %s has no nonzero rational square root" % c0
        )
    y = rest.scale(1 / c0)  # x = c0 (1 + y)
    return ue_series(partial(taylor_binomial, Fraction(1, 2)), y).scale(root)


def ad_exp(a, y):
    """Conjugation  exp(a) y exp(-a)  for grade-positive truncated a."""
    e = ue_exp(a)
    e_inv = ue_exp(-a)
    return e * y * e_inv
