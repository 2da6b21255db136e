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
it, ``clear()`` empties its memos and ``sizes()`` reports it.

Truncation.  Infinite objects (exponentials of raising elements, inverses,
square roots) are handled by working modulo the span of all monomials
whose *total principal grade* exceeds a chosen cap.  The principal grade
(half the sum of the root's eps-coefficients, stored doubled as ``g2``) is
additive under multiplication and preserved by rewriting.  Where every
letter has nonnegative grade, that span is therefore a two-sided ideal of
the subalgebra those letters generate, and its quotient is an honest
ring: every coefficient kept is exact, none is polluted by discarded
terms.  The twist chain, R and the intertwining check (H, v+, X+) use
such letters only.  A letter of negative grade lowers the grade of a term
cut at the cap back below it, so there the cut is not an ideal and capped
products depend on how they are associated: at cap 8, X-*(Y+^2*Y+^3) is 0
while (X-*Y+^2)*Y+^3 is Y+^5*X-.  Since the grade of a monomial never
exceeds its degree, capping at grade D certifies in particular every
coefficient of degree <= D.

An element with ``g2cap=None`` is untruncated; caps combine by taking the
minimum.  All series operations require a finite cap (they do not
terminate otherwise) and a grade-positive argument.

Coefficients.  An element or tensor stores one dict from packed keys to
coefficients: a key packs the table ids of its leg monomials into one int
(``_ID_BITS`` bits per leg, the first leg highest), and an element is the
one-leg case.  Rational coefficients are int numerators over one positive
int denominator ``den``, kept canonical (den and the numerators have no
common factor), so equal objects have equal dicts and denominators.  Poly
and LaurentSeries coefficients are kept as they are, with ``den`` None.
Products, sums, coproducts and the leg maps (flip, embedding, counit)
work on the packed ints directly; ``.terms`` is a read-only view that
decodes keys to the class's public shape (tuples of monomials, or of basis
letters for a LieTensor) and coefficients to ``Fraction`` on reading.
Equality and hashing read the stored terms, not that view: ``den`` and
``data`` when both sides are rational, else the terms as scalars, which
hash alike across the scalar tower.

Products.  One kernel forms every product, and ``*`` and
:func:`product_difference` reach it through one entry that adds signed
products into one accumulator.  A residual x*y - z*w (the cocycle,
intertwining and braid checks) thus never holds both products: each is
cut at the smallest cap of the four operands and summed as it is formed,
over one denominator for rational operands.

One term algebra.  :class:`UEElement`, :class:`UETensor` and the classical
:class:`~osptwist.rmatrix.LieTensor` share one storage, the packed keys
above, and one implementation (``_Terms``) of construction (which
normal-orders every key), ``+``, ``*``, the unit ``one_like``,
``coefficient``, truncation, equality, the graded flip, printing, the rep
image ``to_matrix`` and the series entries ``series(stream)`` and
``exp()``; ``-``, powers and the super bracket are those of every
:class:`~osptwist.scalars.Ring`.  A LieTensor's basis letters are stored
as one-letter monomials.  Two kinds never mix:
``HeterogeneousOperand``.  A term object belongs to one algebra instance,
whose table its keys index: operands of two instances, even of one rank,
never combine (``MixedAlgebra``) and never compare equal.  Each class
fixes only the public shape of its keys, how they print, and its
constructors' arguments, and binds a shared operation under its own name
where the benchmark tracer patches it class by class.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import ItemsView, Mapping, ValuesView
from fractions import Fraction
from functools import partial
from itertools import repeat
from math import gcd, lcm
from operator import itemgetter

from .errors import (
    ConstantTermPresent,
    DivisionByNonUnit,
    HeterogeneousOperand,
    IrrationalExpansionPoint,
    MixedAlgebra,
)
from .repmat import GradedMatrix, kron, tensor_pv
from .scalars import (
    LaurentSeries,
    Poly,
    Ring,
    _fr,
    _omin,
    fraction_sqrt,
    nilpotent_series,
    taylor_binomial,
    taylor_exp,
    taylor_geometric,
    taylor_log1p,
)


def scalar_inverse(c):
    """Multiplicative inverse within the scalar tower: 1/c for a rational,
    ``c.inverse()`` for any other scalar."""
    f = _fr(c)
    if f is None:
        return c.inverse()
    if not f:
        raise DivisionByNonUnit("scalar 0 has no inverse")
    return 1 / f


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
    """Every normal-ordering memo of one algebra.

    Each monomial the algebra's elements and tensors meet is interned:
    ``ids[mono]`` is its id (made on first lookup), ``monos[i]`` is the
    monomial of id i, ``g2[i]`` and ``par[i]`` are its doubled grade and
    its parity, and ``prefix[i]`` is the id of monos[i] without its last
    letter; the empty monomial is id 0.  Only normal-ordered monomials are
    interned: a constructor folds a leg monomial it does not find into its
    normal form.  Interning is append-only, since elements and tensors
    keep ids in their keys.  A key of k legs packs its ids into one int of
    k * ``bits`` bits (``_ID_BITS`` when the table is made), the first leg
    highest; packing an id that does not fit
    raises ``OverflowError``, while interning and normal ordering, which
    pack nothing, have no limit.  ``units[i]`` is the normal form
    ((i, 1),), shared by every memo entry that is monomial i alone.

    A normal form is a tuple of (id, coefficient) pairs, with int
    coefficients where they are integral.  ``insertions`` maps
    id * size + letter to the normal form of a normal-ordered monomial
    times one letter; ``products`` maps the packed pair of two ids to the
    normal form of their product, read by the product kernel; and
    ``coproducts`` maps (id, legs) to the undeformed coproduct of a
    monomial as (packed key, int) pairs.  ``clear()`` empties these three
    memos.
    """

    __slots__ = ("algebra", "bits", "size", "odd", "monos", "ids", "g2",
                 "par", "prefix", "units", "insertions",
                 "products", "coproducts")

    def __init__(self, algebra):
        self.algebra = algebra
        self.size = algebra.size
        self.odd = [algebra.parity(x) for x in range(algebra.size)]
        self.bits = _ID_BITS
        self.monos, self.ids, self.g2, self.par = [], _Ids(), [], []
        self.prefix, self.units = [], []
        self.ids.table = self
        self.ids[()]  # interned first: id 0
        self.clear()

    def clear(self):
        """Forget the insertion, product and coproduct memos; the next
        products are computed cold.  Interned monomials stay: live keys
        name them."""
        self.insertions, self.products, self.coproducts = {}, {}, {}

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
        prefix = self.ids[mono[:-1]] if mono else 0
        i = len(self.monos)
        self.g2.append(g2)
        self.par.append(par)
        self.prefix.append(prefix)
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
            u = self.prefix[mid]
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
            if not 0 <= x < size:
                # a letter outside the basis would alias a memo key
                raise IndexError("letter %r outside a basis of %d" % (x, size))
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
        """Normal form of monos[a] * monos[b], from the product table.  An
        in-order concatenation (the last letter of a before the first of
        b, or the two equal and even) is interned as it is; otherwise,
        writing b = b' x, the letter x is inserted into the memoized
        product a * b'.  Every id of an
        entry fits ``bits`` bits, so the kernel packs the ids it reads here
        without checking them."""
        bits = self.bits
        if (a | b) >> bits:
            raise self._too_wide(max(a, b))
        key = a << bits | b
        hit = self.products.get(key)
        if hit is None:
            ma, mb = self.monos[a], self.monos[b]
            if not ma or not mb or ma[-1] < mb[0] or (
                ma[-1] == mb[0] and not self.odd[mb[0]]
            ):
                hit = self.units[self.ids[ma + mb]]
            else:
                hit = self.fold(mb[-1:], self.product(a, self.prefix[b]))
            top = max((m for m, _ in hit), default=0)
            if top >> bits:
                raise self._too_wide(top)
            self.products[key] = hit
        return hit

    def coproduct(self, mid: int, legs: int) -> tuple:
        """The undeformed coproduct of monos[mid] on ``legs`` legs as
        (packed key, int) pairs: that of its prefix times that of its last
        letter x, which is x on one leg and 1 on the others."""
        key = (mid, legs)
        hit = self.coproducts.get(key)
        if hit is None:
            mono = self.monos[mid]
            if not mono:
                hit = ((0, 1),)
            else:
                x = self.ids[mono[-1:]]
                primitive = {x << self.bits * pos: 1 for pos in range(legs)}
                head = dict(self.coproduct(self.prefix[mid], legs))
                hit = tuple(_mul(self, head, primitive, legs, None).items())
            self.coproducts[key] = hit
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
    return sum(map(alg.g2, mono))


def monomial_parity(alg, mono) -> int:
    return sum(map(alg.parity, mono)) & 1


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


# --------------------------------------------------------------------------
# Coefficient storage and the product kernel
# --------------------------------------------------------------------------


def _canonical(data, den):
    """(data, den) with the common factor of ``den`` and every numerator
    divided out; ``data`` is divided in place.  An empty dict gets den 1."""
    g = gcd(den, *data.values())
    if g != 1:
        for k, v in data.items():
            data[k] = v // g
        den //= g
    return data, den


def _stored(data):
    """(data, den) for a {key: scalar} dict.  When every scalar is
    rational: int numerators over their least common denominator, which
    is already canonical (a prime of the lcm divides one denominator to
    its full power, and that numerator is prime to it).  Otherwise the
    nonzero scalars as they are, int ones made Fractions, and den None."""
    values = data.values()
    if all(isinstance(v, (int, Fraction)) for v in values):
        den = lcm(*[v.denominator for v in values])
        return {
            k: v.numerator * (den // v.denominator)
            for k, v in data.items()
            if v
        }, den
    return {
        k: Fraction(v) if isinstance(v, int) else v
        for k, v in data.items()
        if v
    }, None


def _mul(table, left, right, legs, cap, acc=None):
    """The product of two combinations of ``legs``-leg keys packed in
    ``table``, {key: coefficient} dicts, as a zero-free {key: coefficient}
    dict without terms above ``cap``.  Coefficients are multiplied as
    they are: int numerators, or Poly and LaurentSeries values.  Given a
    zero-free dict ``acc``, the product is added into it, which stays
    zero-free, and ``acc`` is returned.

    The right operand is grouped by grade and by the ids of every leg but
    the last (the head), and the groups are sorted by grade, so the cap
    cuts them at one index for each left term, and each left term forms
    its head product once per group.  The Koszul sign of terms t and u,
    sum_i p(u_i) sum_{l>i} p(t_l), splits into a head part, the parity of
    (bits of t's head legs followed by an odd number of odd head legs) &
    (bits of u's odd head legs), and p(t_last) p(u's head).
    """
    g2, par, bits = table.g2, table.par, table.bits
    mask = (1 << bits) - 1
    last = legs - 1
    shifts = range(bits * (last - 1), -1, -bits)

    heads: dict = {}
    groups: dict = {}
    for key, c in right.items():
        head = key >> bits
        grade = heads.get(head)
        if grade is None:
            grade = heads[head] = sum(g2[head >> s & mask] for s in shifts)
        m = key & mask
        groups.setdefault((grade + g2[m], head), []).append((m, c))
    rgroups = []
    for (grade, head), members in groups.items():
        ids = [head >> s & mask for s in shifts]
        odd_heads = odd = 0
        for i in range(last):
            if par[ids[i]]:
                odd_heads |= 1 << i
                odd ^= 1
        rgroups.append((grade, ids, odd_heads, odd, members))
    rgroups.sort(key=itemgetter(0))
    rgrades = [q[0] for q in rgroups]

    get, product = table.products.get, table.product
    if acc is None:
        acc = {}
    aget = acc.get
    for key, c1 in left.items():
        head, t_last = key >> bits, key & mask
        t_head = [head >> s & mask for s in shifts]
        t_after = odd = 0
        for i in range(last - 1, -1, -1):
            if odd:
                t_after |= 1 << i
            odd ^= par[t_head[i]]
        grade = sum([g2[i] for i in t_head]) + g2[t_last]
        stop = len(rgroups) if cap is None else bisect_right(rgrades, cap - grade)
        row = t_last << bits
        for _, u_head, u_odd_heads, u_odd, members in rgroups[:stop]:
            sign = (t_after & u_odd_heads).bit_count() & 1 ^ (u_odd & par[t_last])
            # (packed ids of the head legs, shifted for the last leg,
            # coefficient)
            parts = [(0, -c1 if sign else c1)]
            for ti, ui in zip(t_head, u_head):
                nf = get(ti << bits | ui) or product(ti, ui)
                parts = [
                    ((p | m) << bits, pc * a) for p, pc in parts for m, a in nf
                ]
            for u_last, c2 in members:
                nf = get(row | u_last) or product(t_last, u_last)
                for p, pc in parts:
                    pc *= c2
                    for m, a in nf:
                        k = p | m
                        v = aget(k, 0) + pc * a
                        if v:
                            acc[k] = v
                        else:
                            acc.pop(k, None)
    return acc


def _clean(data, den):
    """(data, den) for a zero-free dict of coefficients stored over
    ``den``: canonical when ``den`` is an int, re-stored when it is None
    (so a rational remainder gets an int denominator)."""
    return _stored(data) if den is None else _canonical(data, den)


def _products(pairs):
    """sum sign * x * y over (sign, x, y) triples of checked operands (one
    kind, one algebra, one number of legs), each product cut at the
    smallest cap of all operands and added into one accumulator, so no
    product is held apart from the sum.

    Rational products are put over the lcm of the pairs' denominators by
    scaling each left operand's numerators once, the sign folded in;
    with any other scalars every operand goes through ``_scalars()``."""
    x = pairs[0][1]
    table, legs = pbw_table(x.algebra), x.legs or 1
    cap = None
    for _, a, b in pairs:
        cap = _omin(cap, _omin(a.g2cap, b.g2cap))
    acc: dict = {}
    if all(a.den is not None and b.den is not None for _, a, b in pairs):
        den = lcm(*[a.den * b.den for _, a, b in pairs])
        for sign, a, b in pairs:
            m = sign * (den // (a.den * b.den))
            left = a.data if m == 1 else {k: c * m for k, c in a.data.items()}
            _mul(table, left, b.data, legs, cap, acc)
        return x._like(*_canonical(acc, den), cap)
    for sign, a, b in pairs:
        left = a._scalars()
        if sign != 1:
            left = {k: -c for k, c in left.items()}
        _mul(table, left, b._scalars(), legs, cap, acc)
    return x._like(*_stored(acc), cap)


def product_difference(x, y, z, w):
    """x * y - z * w for four elements, or four tensors, of one algebra,
    summed into one accumulator: the two products are never held at once.
    Equal, coefficient for coefficient and in its cap, to ``x*y - z*w``,
    and it raises as those operators do: ``HeterogeneousOperand`` for two
    kinds or leg counts, ``MixedAlgebra`` for two algebra instances, and
    TypeError for a kind without a product (a LieTensor) or a scalar."""
    if not isinstance(x, (UEElement, UETensor)):
        raise TypeError("a %s has no product" % type(x).__name__)
    for other in (y, z, w):
        if not x._same_kind(other):
            raise TypeError("product_difference takes no scalar operand")
        x._check(other)
    return _products(((1, x, y), (-1, z, w)))


def _image(data, den, image):
    """(data, den) of sum c * image(key) over the terms, where
    ``image(key)`` lists (key, int) pairs."""
    acc: dict = {}
    get = acc.get
    for key, c in data.items():
        for k, a in image(key):
            v = get(k, 0) + c * a
            if v:
                acc[k] = v
            else:
                acc.pop(k, None)
    return _clean(acc, den)


def _rep_image(t) -> GradedMatrix:
    """The image of an element or tensor (a LieTensor too) under the
    defining representation on every leg, formed leg by leg: the sum over
    the first-leg monomials m of rho(m) (x) (the image of what multiplies
    m), skipping every m whose image is zero."""
    alg = t.algebra
    out: dict = {}
    if t.legs is None or t.legs == 1:
        monos = pbw_table(alg).monos
        for i, c in t.data.items():
            for ij, x in alg.monomial_matrix(monos[i]).entries.items():
                out[ij] = out.get(ij, 0) + c * x
        if t.den is not None and t.den != 1:
            out = {ij: x / t.den for ij, x in out.items()}
        return GradedMatrix(alg.pv, out)
    # a LieTensor stores UETensor keys, so UETensor's split serves it too
    for mono, rest in UETensor.split_first_leg(t).items():
        first = alg.monomial_matrix(mono)
        if first.is_zero:
            continue
        inner = _rep_image(rest)
        if inner.is_zero:
            continue
        for ij, x in kron(first, inner).entries.items():
            out[ij] = out.get(ij, 0) + x
    return GradedMatrix(tensor_pv(alg.pv, t.legs), out)


# --------------------------------------------------------------------------
# The term algebra shared by elements, tensors and classical tensors
# --------------------------------------------------------------------------


class _TermsView(Mapping):
    """The terms of an element or tensor as a read-only {key: coefficient}
    mapping: keys in the class's public shape and Fraction (or Poly,
    LaurentSeries) values, decoded as they are read.  ``len`` decodes
    nothing."""

    __slots__ = ("_of",)

    def __init__(self, of):
        self._of = of

    def __len__(self):
        return len(self._of.data)

    def __iter__(self):
        return map(self._of._decoder(), self._of.data)

    def __getitem__(self, key):
        of = self._of
        k = of._find(key)
        if k is None or k not in of.data:
            raise KeyError(key)
        v = of.data[k]
        return v if of.den is None else Fraction(v, of.den)

    def items(self):
        return _TermsItems(self)

    def values(self):
        return _TermsValues(self)

    def __repr__(self):
        return repr(dict(self.items()))


class _TermsValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        of = self._mapping._of
        values = of.data.values()
        if of.den is None:
            return iter(values)
        return map(Fraction, values, repeat(of.den))


class _TermsItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping, self._mapping.values())


class _Terms(Ring):
    """A finite combination of keys with coefficients in the exact scalar
    tower, modulo total grade > g2cap/2 (no truncation when g2cap is
    None).  ``data`` is a zero-free {stored key: coefficient} dict and
    ``den`` its denominator: int numerators over a positive int ``den``,
    canonical, for rational coefficients, any other scalars with ``den``
    None (see the module docstring).  ``terms`` is the decoded view.

    :class:`UEElement`, :class:`UETensor` and
    :class:`~osptwist.rmatrix.LieTensor` share this term algebra and its
    storage.  A subclass fixes the public shape of a key: ``_key`` brings
    it to a tuple of leg monomials (a monomial, a tuple of monomials, or a
    tuple of basis letters), ``_decoder`` maps a stored key back (by
    default to that tuple); how a key prints (``_body``, ``_sort_key``);
    and the arguments of its constructors.  ``legs`` is the number of
    tensor legs, None for an element of the enveloping algebra itself.
    ``+``, ``*`` (as ``_times``), ``one_like``, ``coefficient``,
    ``to_matrix`` and the series entries ``series(stream)`` and ``exp()``
    are written here once, and ``-``, ``**`` and the super commutator
    are those of :class:`~osptwist.scalars.Ring`; a subclass binds one
    under its own name only where the benchmark tracer patches it class
    by class.
    """

    __slots__ = ("algebra", "data", "den", "legs", "g2cap")

    def _fill(self, algebra, terms, legs, g2cap):
        """The validated constructor: keys brought to shape, normal-ordered
        and stored, zeros and terms above the cap dropped."""
        self.algebra = algebra
        self.legs = legs
        self.g2cap = g2cap
        encode = self._encoder()
        data: dict = {}
        for key, c in terms.items():
            for k, a in encode(key):
                c_k = c if a == 1 else c * a
                data[k] = data[k] + c_k if k in data else c_k
        if g2cap is not None:
            grade = self._grader()
            data = {k: c for k, c in data.items() if grade(k) <= g2cap}
        self.data, self.den = _stored(data)

    @classmethod
    def _wrap(cls, algebra, data, den, legs, g2cap):
        """An object of kind ``cls`` wrapping stored terms that are
        already clean: nonzero, canonical, none above the cap."""
        out = object.__new__(cls)
        out.algebra = algebra
        out.data = data
        out.den = den
        out.legs = legs
        out.g2cap = g2cap
        return out

    def _like(self, data, den, g2cap):
        """An object of self's kind (type, algebra, legs) wrapping clean
        stored terms."""
        return self._wrap(self.algebra, data, den, self.legs, g2cap)

    def _check_legs(self, key):
        if len(key) != self.legs:
            raise HeterogeneousOperand(
                "term %r has %d legs, expected %d" % (key, len(key), self.legs)
            )
        return key

    def zero_like(self):
        return self._like({}, 1, self.g2cap)

    def one_like(self):
        # the key of the empty monomial on every leg is 0
        return self._like({0: 1}, 1, None).truncate(self.g2cap)

    def _same_kind(self, other):
        """True for an operand of self's kind, False for a scalar; another
        kind of term algebra raises HeterogeneousOperand."""
        if not isinstance(other, _Terms):
            return False
        if type(other) is not type(self):
            raise HeterogeneousOperand(
                "cannot combine a %s with a %s"
                % (type(self).__name__, type(other).__name__)
            )
        return True

    # -- storage ----------------------------------------------------------

    @property
    def terms(self) -> Mapping:
        return _TermsView(self)

    def _codec(self):
        """(table, id mask, the shift of each leg, first leg first)."""
        table = pbw_table(self.algebra)
        bits = table.bits
        shifts = range(bits * ((self.legs or 1) - 1), -1, -bits)
        return table, (1 << bits) - 1, shifts

    def _grader(self):
        """stored key -> its doubled grade."""
        table, mask, shifts = self._codec()
        g2 = table.g2
        return lambda k: sum([g2[k >> s & mask] for s in shifts])

    def _decoder(self):
        """stored key -> public key; here the tuple of leg monomials."""
        table, mask, shifts = self._codec()
        monos = table.monos
        return lambda k: tuple([monos[k >> s & mask] for s in shifts])

    def _encoder(self):
        """public key -> its normal form as (stored key, factor) pairs.  A
        leg monomial already interned is normal-ordered; any other is
        folded from its letters, which interns the monomials it meets."""
        table = pbw_table(self.algebra)
        ids, bits, units, fold = table.ids, table.bits, table.units, table.fold

        def encode(key):
            parts = [(0, 1)]
            for mono in self._key(key):
                i = ids.get(mono)
                nf = units[i] if i is not None else fold(mono)
                top = max([m for m, _ in nf], default=0)
                if top >> bits:
                    raise table._too_wide(top)
                parts = [(p << bits | m, f * a) for p, f in parts for m, a in nf]
            return parts

        return encode

    def _find(self, key):
        """The stored form of a public key, None when it cannot occur."""
        table = pbw_table(self.algebra)
        try:
            monos = self._key(key)
        except (TypeError, HeterogeneousOperand):
            return None
        packed = 0
        for mono in monos:
            i = table.ids.get(mono)
            if i is None or i >> table.bits:
                return None
            packed = packed << table.bits | i
        return packed

    def _scalars(self):
        """The stored terms with their coefficients as scalars: Fractions
        over ``den``, or ``data`` itself if den is None."""
        data, den = self.data, self.den
        if den is None:
            return data
        return dict(zip(data, map(Fraction, data.values(), repeat(den))))

    def _select(self, keep):
        """(data, den) of the terms whose doubled grade satisfies
        ``keep``."""
        grade = self._grader()
        data = {k: c for k, c in self.data.items() if keep(grade(k))}
        return _clean(data, self.den)

    # -- inspection -------------------------------------------------------

    @property
    def is_zero(self):
        return not self.data

    def is_grade_positive(self):
        """True when every term has total grade >= 1/2 (g2 >= 1)."""
        grade = self._grader()
        return all(grade(k) >= 1 for k in self.data)

    def parity(self):
        """The parity shared by every term (0 for zero), None if they mix."""
        table, mask, shifts = self._codec()
        par = table.par
        seen = {sum([par[k >> s & mask] for s in shifts]) & 1 for k in self.data}
        if not seen:
            return 0
        if len(seen) > 1:
            return None
        return seen.pop()

    def is_even(self):
        return self.parity() == 0

    def constant_coefficient(self):
        # the key of the empty monomial on every leg is 0
        c = self.data.get(0)
        if c is None:
            return Fraction(0)
        return c if self.den is None else Fraction(c, self.den)

    def coefficient(self, key):
        return self.terms.get(key, Fraction(0))

    # -- linear structure ---------------------------------------------------

    def _check(self, other):
        if other.algebra is not self.algebra:
            raise MixedAlgebra(
                "operands live in two algebra instances, osp(1|%d) and "
                "osp(1|%d)" % (2 * self.algebra.n, 2 * other.algebra.n)
            )
        if self.legs != other.legs:
            raise HeterogeneousOperand(
                "tensors with %s and %s legs" % (self.legs, other.legs)
            )

    def _combine(self, other, sign):
        """self + sign * other (sign +1 or -1) for ``other`` of self's
        kind, both cut at the smaller cap: int numerators over the lcm of
        the two denominators, or scalars when either side has none."""
        self._check(other)
        cap = _omin(self.g2cap, other.g2cap)
        x, y = self.truncate(cap), other.truncate(cap)
        left, right = x.data, y.data
        if x.den is None or y.den is None:
            den, mx, my = None, 1, sign
            left, right = x._scalars(), y._scalars()
        else:
            den = lcm(x.den, y.den)
            mx, my = den // x.den, sign * (den // y.den)
        out = {k: c * mx for k, c in left.items()} if mx != 1 else dict(left)
        get = out.get
        for k, c in right.items():
            v = get(k, 0) + c * my
            if v:
                out[k] = v
            else:
                del out[k]
        return self._like(*_clean(out, den), cap)

    def __add__(self, other):
        if self._same_kind(other):
            return self._combine(other, 1)
        return self + self.one_like().scale(other)

    def __neg__(self):
        return self._like(
            {k: -c for k, c in self.data.items()}, self.den, self.g2cap
        )

    def __sub__(self, other):
        # a same-kind difference is one pass, with no negated copy
        if isinstance(other, type(self)):
            return self._combine(other, -1)
        return Ring.__sub__(self, other)

    def scale(self, c):
        if not c:
            return self.zero_like()
        f = _fr(c)
        if f is not None and self.den is not None:
            p = f.numerator
            data = {k: v * p for k, v in self.data.items()}
            return self._like(
                *_canonical(data, self.den * f.denominator), self.g2cap
            )
        return self.map_coefficients(lambda v: c * v)

    def _times(self, other):
        """``*``: the product of two operands of one kind, or scaling."""
        if not self._same_kind(other):
            return self.scale(other)
        self._check(other)
        return _products(((1, self, other),))

    def __rmul__(self, c):
        # reached for a scalar, or when c's kind has no product (LieTensor)
        if self._same_kind(c):
            return NotImplemented
        return self.scale(c)

    def series(self, stream):
        """sum_k a_k * self**k (see :func:`ue_series`)."""
        return ue_series(stream, self)

    def exp(self):
        return ue_exp(self)

    def truncate(self, g2cap):
        cap = _omin(self.g2cap, g2cap)
        if cap == self.g2cap:
            return self._like(self.data, self.den, cap)
        return self._like(*self._select(lambda g: g <= cap), cap)

    def map_coefficients(self, fn):
        return self._like(
            *_stored({k: fn(c) for k, c in self._scalars().items()}),
            self.g2cap,
        )

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if other.algebra is not self.algebra or other.legs != self.legs:
            return False
        if self.den is not None and other.den is not None:
            return self.den == other.den and self.data == other.data
        return self._scalars() == other._scalars()

    def __hash__(self):
        # rational coefficients hash as Fractions, so a term whose
        # coefficient is a constant Poly or exact series hashes the same
        return hash((self.legs, frozenset(self._scalars().items())))

    def flip(self):
        """Graded swap of the two legs of a 2-leg tensor:
        a (x) b -> (-1)**(p(a)p(b)) b (x) a."""
        if self.legs != 2:
            raise HeterogeneousOperand("flip is defined for 2-leg tensors")
        table, mask, _ = self._codec()
        bits, par = table.bits, table.par
        out = {}
        for k, c in self.data.items():
            a, b = k >> bits, k & mask
            out[b << bits | a] = -c if par[a] and par[b] else c
        return self._like(out, self.den, self.g2cap)

    # -- display ----------------------------------------------------------

    @staticmethod
    def _scaled(cs, body):
        return "%s*[%s]" % (cs, body)

    def __str__(self):
        terms = dict(self.terms.items())
        if not terms:
            return "0"
        parts = []
        for key in sorted(terms, key=self._sort_key):
            c = terms[key]
            cs = str(c)
            # a series with an order prints its O-term after its terms
            if (
                isinstance(c, Poly) and len(c.coeffs) > 1
                or isinstance(c, LaurentSeries) and (
                    c.order is not None
                    or c.valuation != c.poly.max_exponent(c.var)
                )
            ):
                cs = "(%s)" % cs
            body = self._body(key)
            if cs == "1":
                parts.append(body)
            elif cs == "-1":
                parts.append("-" + body)
            else:
                parts.append(self._scaled(cs, body))
        return " + ".join(parts).replace("+ -", "- ")

    to_matrix = _rep_image


# --------------------------------------------------------------------------
# Elements of the (grade-capped) enveloping algebra
# --------------------------------------------------------------------------


class UEElement(_Terms):
    """A finite combination of normal-ordered monomials with coefficients
    in the exact scalar tower, living in the enveloping algebra modulo
    total grade > g2cap/2 (no truncation when g2cap is None).  A stored
    key is the monomial's id."""

    __slots__ = ()

    def __init__(self, algebra, terms, g2cap=None):
        self._fill(algebra, terms, None, g2cap)

    @staticmethod
    def _key(mono):
        return (tuple(mono),)

    def _decoder(self):
        return pbw_table(self.algebra).monos.__getitem__

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

    # -- arithmetic ----------------------------------------------------------

    # bound per class: the benchmark tracer patches them here
    __mul__ = _Terms._times
    to_matrix = _Terms.to_matrix

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self == UEElement(self.algebra, {(): other})
        return _Terms.__eq__(self, other)

    __hash__ = _Terms.__hash__

    # -- structure maps ---------------------------------------------------------

    super_bracket = Ring.super_commutator

    def coproduct(self, legs: int = 2) -> "UETensor":
        """Undeformed coproduct (every basis generator primitive), as a
        tensor with the same total-grade cap (the coproduct keeps grades)."""
        cop = pbw_table(self.algebra).coproduct
        data, den = _image(self.data, self.den, lambda i: cop(i, legs))
        return UETensor._wrap(self.algebra, data, den, legs, self.g2cap)

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
            if e.algebra is not alg:
                raise MixedAlgebra("tensor factors from two algebra instances")
            cap = _omin(cap, e.g2cap)
        bits = pbw_table(alg).bits
        rational = all(e.den is not None for e in elements)
        combos, den = {0: 1}, 1
        for e in elements:
            if rational:
                den *= e.den
            data = e.data if rational else e._scalars()
            combos = {
                p << bits | k: pc * c
                for p, pc in combos.items()
                for k, c in data.items()
            }
        combos, den = _clean(combos, den if rational else None)
        return cls._wrap(alg, combos, den, len(elements), None).truncate(cap)

    # bound per class: the benchmark tracer patches them here
    __add__ = _Terms.__add__
    __mul__ = _Terms._times
    to_matrix = _Terms.to_matrix

    # -- leg surgery ------------------------------------------------------------

    def _leg_shift(self, leg: int) -> int:
        """The shift of 1-based leg ``leg`` in a stored key."""
        if not 1 <= leg <= self.legs:
            raise HeterogeneousOperand("no leg %d in a %d-leg tensor" % (leg, self.legs))
        return pbw_table(self.algebra).bits * (self.legs - leg)

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
        table, mask, shifts = self._codec()
        moves = [(s, table.bits * (total - pos)) for s, pos in zip(shifts, legs)]
        out = {}
        for k, c in self.data.items():
            key = 0
            for s, t in moves:
                key |= (k >> s & mask) << t
            out[key] = c
        return UETensor._wrap(self.algebra, out, self.den, total, self.g2cap)

    def split_first_leg(self) -> dict:
        """{monomial m: the combination r_m of the other legs}, with self
        the sum of m (x) r_m; r_m is an element for a 2-leg tensor and a
        tensor of one leg fewer otherwise, cut at self's cap.  The cut
        drops terms only under an m of negative grade, whose r_m can pass
        the cap."""
        if self.legs < 2:
            raise HeterogeneousOperand("splitting needs at least 2 legs")
        table, mask, shifts = self._codec()
        cap, low = self.g2cap, (1 << shifts[0]) - 1
        groups: dict = {}
        for k, c in self.data.items():
            groups.setdefault(k >> shifts[0], {})[k & low] = c
        kind, legs = (UEElement, None) if self.legs == 2 else (UETensor, self.legs - 1)
        grade = kind._wrap(self.algebra, {}, 1, legs, cap)._grader()
        out = {}
        for i, data in groups.items():
            if cap is not None and table.g2[i] < 0:
                data = {k: c for k, c in data.items() if grade(k) <= cap}
            out[table.monos[i]] = kind._wrap(
                self.algebra, *_clean(data, self.den), legs, cap
            )
        return out

    def counit_leg(self, leg: int) -> "UETensor | UEElement":
        """Apply the counit (constant-term functional) to one 1-based leg."""
        s = self._leg_shift(leg)
        table, mask, _ = self._codec()
        high, low = s + table.bits, (1 << s) - 1
        # only terms with the empty monomial (id 0) on the leg survive,
        # each under its own shortened key
        out = {
            (k >> high) << s | k & low: c
            for k, c in self.data.items()
            if not k >> s & mask
        }
        data, den = _clean(out, self.den)
        if self.legs == 2:
            return UEElement._wrap(self.algebra, data, den, None, self.g2cap)
        return UETensor._wrap(self.algebra, data, den, self.legs - 1, self.g2cap)

    def counits_are_one(self) -> bool:
        """(eps (x) id)t = 1 = (id (x) eps)t for a 2-leg tensor t, where eps
        kills generators."""
        one = UEElement.one(self.algebra, self.g2cap)
        return self.counit_leg(1) == one and self.counit_leg(2) == one

    def coproduct_leg(self, leg: int) -> "UETensor":
        """Apply the undeformed coproduct to one 1-based leg (k -> k+1 legs)."""
        s = self._leg_shift(leg)
        table, mask, _ = self._codec()
        bits, cop = table.bits, table.coproduct
        high, low = s + bits, (1 << s) - 1

        def image(k):
            base = (k >> high) << (high + bits) | k & low
            return [(base | split << s, a) for split, a in cop(k >> s & mask, 2)]

        data, den = _image(self.data, self.den, image)
        return UETensor._wrap(self.algebra, data, den, self.legs + 1, self.g2cap)

    # -- grading helpers -----------------------------------------------------------

    def grade_component(self, g2: int) -> "UETensor":
        return self._like(*self._select(lambda g: g == g2), self.g2cap)

    def scale_by_grade(self, factor) -> "UETensor":
        """Multiply each term by factor**(grade).  Requires every term to
        have even g2 (true for parity-even tensors), so the power is an
        integer."""
        grade = self._grader()
        powers: dict = {}
        out = {}
        for k, c in self._scalars().items():
            g2 = grade(k)
            weight = powers.get(g2)
            if weight is None:
                if g2 % 2:
                    raise ValueError(
                        "term of odd doubled grade %d cannot be scaled by an "
                        "integer power" % g2
                    )
                weight = powers[g2] = factor ** (g2 // 2)
            out[k] = c * weight
        return self._like(*_stored(out), self.g2cap)

    def __repr__(self):
        return "UETensor(legs=%d, terms=%d)" % (self.legs, len(self.data))


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
    if c0:
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
    if not c0:
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
