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
minimum.  The one series entry, ``series(stream)``, requires a finite
cap (it does not terminate otherwise) and a grade-positive argument,
and bounds a Taylor stream by the cap; exp and log are the ones every
:class:`~osptwist.scalars.Ring` writes on it.

Coefficients.  An element or tensor stores one dict from packed keys to
coefficients: a key packs the table ids of its leg monomials into one int
(``_ID_BITS`` bits per leg, the first leg highest), and an element is the
one-leg case.  The width is checked once, where a monomial is interned:
an id that would not fit raises ``OverflowError``.  The coefficients are stored by the rule that the matrices
of :mod:`~osptwist.repmat` share (:func:`~osptwist.scalars._stored`):
rational ones as int numerators over one positive int denominator
``den``, kept canonical (den and the numerators have no common factor),
so equal objects have equal dicts and denominators; Poly and
LaurentSeries ones as they are, with ``den`` None.
Products, sums, coproducts and the leg maps (flip, embedding, counit)
work on the packed ints directly; ``.terms`` is a read-only view that
decodes keys to the class's public shape (tuples of monomials, or of basis
letters for a LieTensor) and coefficients to ``Fraction`` on reading.
Equality and hashing read the stored terms, not that view: ``den`` and
``data`` when both sides are rational, else the terms as scalars, which
hash alike across the scalar tower.

Products.  One kernel forms every product, and ``*`` and
:func:`product_difference` reach it through one entry that sums signed
products one slice at a time.  A slice is the set of keys with one grade
per leg; normal ordering keeps grades, so each slice of a product is
formed from its own pairs of left and right grade classes.  A residual
x*y - z*w (the cocycle, intertwining and braid checks) is summed slice by
slice over both products, cut at the smallest cap of the four operands
and over one denominator for rational operands, so the terms that cancel
between the products are held for one slice only.  Slices share no
output key, so a call with many term pairs, given two CPUs in the
process's affinity mask, sums its slices in two shares, one in a forked
child; the result is the serial one, key order included.  Legs on which
the left operand is the unit (the third of F12 = F (x) 1) are carried, not
walked.  Each operand is grouped for the kernel once in each role, and
the grouping is kept on the operand for its later products.  The
coproduct of a monomial needs no product: its letters are dealt out to
the legs, and every sub-word of a normal-ordered monomial is
normal-ordered.

One term algebra.  :class:`UEElement`, :class:`UETensor` and the classical
:class:`~osptwist.rmatrix.LieTensor` share one storage, the packed keys
above, and one implementation (``_Terms``) of construction (which
normal-orders every key), ``*``, the unit ``one_like``, ``coefficient``,
truncation, the graded flip, printing, the rep image ``to_matrix`` and
the series entry ``series(stream)``.  Their linear
structure (sums, cut at the smaller cap, negation, scaling, equality,
hashing and parity) is :class:`~osptwist.scalars.Stored`'s, written once
with the matrices of :mod:`~osptwist.repmat`; powers and the super
bracket, exp and log are those of every
:class:`~osptwist.scalars.Ring`.  A
LieTensor's basis letters are stored as one-letter monomials.  Two kinds
never mix: ``HeterogeneousOperand``.  A term object belongs to one algebra instance,
whose table its keys index: operands of two instances, even of one rank,
never combine (``MixedAlgebra``) and never compare equal.  Each class
fixes only the public shape of its keys, how they print, and its
constructors' arguments, and binds a shared operation under its own name
where the benchmark tracer patches it class by class.
"""

from __future__ import annotations

import os
import threading
from collections.abc import ItemsView, Mapping, ValuesView
from fractions import Fraction
from functools import cache, partial, reduce
from itertools import groupby, islice, repeat
from math import comb, lcm
from operator import or_
from weakref import ref

from .errors import (
    ConstantTermPresent,
    DivisionByNonUnit,
    HeterogeneousOperand,
    IrrationalExpansionPoint,
    MixedAlgebra,
)
from .repmat import GradedMatrix, combination, kron, tensor_pv
from .scalars import (
    LaurentSeries,
    Poly,
    Ring,
    Stored,
    _canonical,
    _clean,
    _exact,
    _fr,
    _omin,
    _stored,
    fraction_sqrt,
    nilpotent_series,
    taylor_binomial,
    taylor_geometric,
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
# one int, and a pair of ids keys the product table; interning an id that
# does not fit raises, so two keys never alias.
_ID_BITS = 20


class _Ids(dict):
    """monomial -> id; looking up a new monomial interns it.  The table
    that owns the dict is named by a weak reference, so the two form no
    reference cycle."""

    __slots__ = ("table",)

    def __missing__(self, mono):
        return self.table()._new_id(mono)


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
    highest.  Interning an id that would not fit raises ``OverflowError``
    and leaves the table as it was, so no packed id needs a check.
    ``units[i]`` is the normal form ((i, 1),), shared by every memo
    entry that is monomial i alone.

    A normal form is a tuple of (id, coefficient) pairs, with int
    coefficients where they are integral.  ``insertions`` maps
    id * size + letter to the normal form of a normal-ordered monomial
    times one letter; ``products`` maps the packed pair of two ids to the
    normal form of their product, read by the product kernel; and
    ``coproducts`` maps (id, legs) to the undeformed coproduct of a
    monomial as (packed key, int) pairs, dealt out without the kernel.
    ``clear()`` empties these three memos.
    """

    __slots__ = ("_algebra", "bits", "size", "odd", "monos", "ids", "g2",
                 "par", "prefix", "units", "insertions",
                 "products", "coproducts", "__weakref__")

    def __init__(self, algebra):
        self._algebra = ref(algebra)
        self.size = algebra.size
        self.odd = [algebra.parity(x) for x in range(algebra.size)]
        self.bits = _ID_BITS
        self.monos, self.ids, self.g2, self.par = [], _Ids(), [], []
        self.prefix, self.units = [], []
        self.ids.table = ref(self)
        self.ids[()]  # interned first: id 0
        self.clear()

    @property
    def algebra(self):
        """The algebra of the table.  It owns the table, which refers to
        it weakly: a dropped algebra is freed with its table without the
        cyclic collector."""
        return self._algebra()

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
        g2 = sum(map(self.algebra.g2, mono))
        par = sum(self.odd[x] for x in mono) & 1
        prefix = self.ids[mono[:-1]] if mono else 0
        i = len(self.monos)
        if i >> self.bits:
            raise OverflowError(
                "monomial id %d does not fit %d bits" % (i, self.bits)
            )
        self.g2.append(g2)
        self.par.append(par)
        self.prefix.append(prefix)
        self.units.append(((i, 1),))
        self.monos.append(mono)
        self.ids[mono] = i
        return i

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
                terms = [(Fraction(c, 2), u, k) for k, c in bracket(x, x).items()]
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

    def fold(self, word) -> tuple:
        """Normal form of a word of letters, inserted one at a time into
        the empty monomial."""
        memo, size, insert = self.insertions, self.size, self._insert
        acc = {0: 1}
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
        product a * b'."""
        key = a << self.bits | b
        hit = self.products.get(key)
        if hit is None:
            ma, mb = self.monos[a], self.monos[b]
            if not ma or not mb or ma[-1] < mb[0] or (
                ma[-1] == mb[0] and not self.odd[mb[0]]
            ):
                hit = self.units[self.ids[ma + mb]]
            else:
                # b = b' x: insert x into each term of a * b'
                memo, size, x = self.insertions, self.size, mb[-1]
                start = self.product(a, self.prefix[b])
                if len(start) == 1:
                    ((m, c),) = start
                    hit = memo.get(m * size + x) or self._insert(m, x)
                    if c != 1:
                        hit = tuple((mm, _exact(c * v)) for mm, v in hit)
                else:
                    acc: dict = {}
                    for m, c in start:
                        for mm, v in memo.get(m * size + x) or self._insert(m, x):
                            acc[mm] = acc.get(mm, 0) + c * v
                    hit = tuple((mm, _exact(v)) for mm, v in acc.items() if v)
            self.products[key] = hit
        return hit

    def coproduct(self, mid: int, legs: int) -> tuple:
        """The undeformed coproduct of monos[mid] on ``legs`` legs as
        (packed key, int) pairs, its letters dealt out to the legs.  Every
        generator is primitive, so each term gives each leg a sub-word of
        the monomial, which is normal-ordered as it stands.  A run x^a of
        an even letter splits as (a_1, ..., a_legs) with the multinomial
        coefficient; an odd letter, which occurs once, placed on leg l
        takes one sign per odd letter already on a later leg (the Koszul
        sign of x sliding past them)."""
        key = (mid, legs)
        hit = self.coproducts.get(key)
        if hit is None:
            odd, ids, bits = self.odd, self.ids, self.bits
            deals = [(((),) * legs, 1)]  # (the leg words, coefficient)
            for x, run in groupby(self.monos[mid]):
                if odd[x]:
                    deals = [
                        (
                            words[:l] + (words[l] + (x,),) + words[l + 1:],
                            -c if sum([odd[y] for w in words[l + 1:] for y in w]) & 1
                            else c,
                        )
                        for words, c in deals for l in range(legs)
                    ]
                else:
                    splits = _splits(len(tuple(run)), legs)
                    deals = [
                        (tuple([w + (x,) * a for w, a in zip(words, split)]), c * m)
                        for words, c in deals for split, m in splits
                    ]
            pairs = []
            for words, c in deals:
                packed = 0
                for w in words:
                    packed = packed << bits | ids[w]
                pairs.append((packed, c))
            hit = self.coproducts[key] = tuple(pairs)
        return hit


@cache
def _splits(a, legs):
    """Every split (a_1, ..., a_legs) of a run of ``a`` equal letters
    among the legs, with its multinomial coefficient a! / (a_1! ...
    a_legs!)."""
    if legs == 1:
        return (((a,), 1),)
    return tuple(
        ((k,) + rest, comb(a, k) * m)
        for k in range(a + 1) for rest, m in _splits(a - k, legs - 1)
    )


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
# The product kernel
# --------------------------------------------------------------------------


@cache
def _grading(bits, legs):
    """(the weight of each leg's shift, the shift of the total, half its
    unit) of packed grade vectors of ``legs``-leg keys.  A key's vector is
    sum g_l * weight[s_l] over its legs: one signed field per leg, and the
    total above them, read back as (v + half) >> top.  A packed monomial
    has fewer letters than 2**bits and a letter's doubled grade is at most
    2 in size, so fields of bits + 3 bits hold the grades of a sum of two
    keys.  The packing is linear: a product term's vector is the sum of
    its factors' vectors."""
    field = bits + 3
    top = field * legs
    weight = {
        s: (1 << s // bits * field) + (1 << top) for s in range(0, bits * legs, bits)
    }
    return weight, top, 1 << top - 1


def _walk_left(table, left, legs):
    """The left half of a product's preparation: (layout, left classes,
    the shift of a last-leg row, the shift of the head parts, the number
    of terms in each class), made from the left operand alone.  Left
    classes are keyed by packed grade vectors (``_grading``).

    A leg on which every left term is the unit (an OR of the left keys
    shows it) is carried: a right term's monomial there goes into the key
    as it is, and gives the output leg its grade.  The other legs are
    walked: the last of them is the last leg, every leg before it a head
    leg.  The layout (the last leg's shift, the carried mask) fixes how
    the right operand is grouped (``_walk_right``).  Left terms are
    grouped by head and by the grade and parity of the last leg.  A left
    class lists, per group, (the first walked head id shifted to key a
    table row and as it is, the other walked head ids with the gaps that
    pack their products, the head's Koszul bits, the last leg's parity,
    then either the coefficient of the unit last leg and None, or None
    and the other last legs as (shifted id, coefficient) pairs).
    """
    g2, par, bits = table.g2, table.par, table.bits
    mask, top = (1 << bits) - 1, bits * legs
    weight, _, _ = _grading(bits, legs)
    shifts = range(bits * (legs - 1), -1, -bits)
    free = reduce(or_, left, 0) or 1  # a scalar left operand walks the last leg
    walked = [s for s in shifts if free >> s & mask]
    low, whead = walked[-1], walked[:-1]  # the last leg; walked head legs
    heads = [s for s in shifts if s > low]
    lead = ~(mask << low)
    carried = (1 << top) - 1 ^ sum([mask << s for s in walked])

    row_shift = bits + low  # a last leg's id, shifted to key a row of products
    lefts: dict = {}  # head + (grade, parity of the last leg) << top -> [unit c, rows]
    rows_at: dict = {}  # one shared int object per shifted last-leg id
    for key, c in left.items():
        t = key >> low & mask
        k = (key & lead) + ((g2[t] << 1 | par[t]) << top)
        rows = lefts.get(k)
        if rows is None:
            rows = lefts[k] = [None]
        if t:
            row = rows_at.get(t)
            if row is None:
                row = rows_at[t] = t << row_shift
            rows.append((row, c))
        else:
            rows[0] = c
    # head parts pack the walked head legs down to the lowest one, at sh
    sh = whead[-1] if whead else 0
    gaps = [0] + [a - b for a, b in zip(whead, whead[1:])]
    made: dict = {}
    lclasses: dict = {}
    counts: dict = {}
    for k, rows in lefts.items():
        head = k & (1 << top) - 1
        hit = made.get(head)
        if hit is None:
            t_head = [head >> s & mask for s in heads]
            t_walked = [
                ((head >> s & mask) << bits, head >> s & mask, gap)
                for s, gap in zip(whead, gaps)
            ] or [(0, 0, 0)]
            t_after = odd = 0
            for i in range(len(heads) - 1, -1, -1):
                if odd:
                    t_after |= 1 << i
                odd ^= par[t_head[i]]
            grades = sum([g2[i] * weight[s] for i, s in zip(t_head, heads)])
            hit = made[head] = (*t_walked[0][:2], tuple(t_walked[1:]), t_after, grades)
        t0b, t0, t_rest, t_after, grades = hit
        lv = grades + (k >> top + 1) * weight[low]
        entries = lclasses.setdefault(lv, [])
        unit = rows[0]
        counts[lv] = counts.get(lv, 0) + len(rows) - (unit is None)
        if unit is not None:
            entries.append((t0b, t0, t_rest, t_after, 0, unit, None))
        if len(rows) > 1:
            entries.append((t0b, t0, t_rest, t_after, k >> top & 1, None, rows[1:]))
    return (low, carried), lclasses, row_shift, sh, counts


def _walk_right(table, right, legs, layout):
    """The right half of a product's preparation under a left operand's
    ``layout`` (``_walk_left``): (right classes, their (total grade,
    grade vector, number of terms) in order of total grade).

    Right terms are grouped by walked head ids, head parities and grade
    vector, which takes in the grades of the carried legs and of the last
    leg.  A right class lists its groups as (first walked head id, the
    other walked head ids, odd-head bits, parity of the odd heads,
    members), the members flat as (last-leg id shifted into place,
    carried ids, coefficient) triples whose ids are one shared int object
    per value.
    """
    low, carried = layout
    g2, par, bits = table.g2, table.par, table.bits
    mask, top = (1 << bits) - 1, bits * legs
    weight, gtop, half = _grading(bits, legs)
    shifts = range(bits * (legs - 1), -1, -bits)
    whead = [s for s in shifts if not carried >> s & mask][:-1]
    heads = [s for s in shifts if s > low]
    lead = ~(mask << low)

    span = top + legs  # a group key packs grades, head parities, walked head ids
    last, at_last = weight[low] << span, mask << low
    rests: dict = {}  # a key but its last leg -> (group base, carried ids)
    lasts: dict = {}  # last-leg part -> (one shared int object, its group offset)
    carries: dict = {}  # one shared int object per carried part
    groups: dict = {}
    for key, c in right.items():
        rest = key & lead
        hit = rests.get(rest)
        if hit is None:
            odd = sum([par[rest >> s & mask] << i for i, s in enumerate(heads)])
            grades = sum([g2[rest >> s & mask] * weight[s] for s in shifts])
            cb = rest & carried
            hit = rests[rest] = (
                grades << span | odd << top | rest & ~carried,
                carries.setdefault(cb, cb),
            )
        base, cb = hit
        u = key & at_last
        hit = lasts.get(u)
        if hit is None:
            hit = lasts[u] = (u, g2[u >> low] * last)
        u, offset = hit
        members = groups.get(base + offset)
        if members is None:
            members = groups[base + offset] = []
        members += (u, cb, c)
    rclasses: dict = {}
    counts: dict = {}
    for group, members in groups.items():
        ids = [group >> s & mask for s in whead] or [0]
        odd = group >> top & (1 << legs) - 1
        v = group >> span
        rclasses.setdefault(v, []).append(
            (ids[0], tuple(ids[1:]), odd, odd.bit_count() & 1, members)
        )
        counts[v] = counts.get(v, 0) + len(members) // 3
    return rclasses, sorted([((v + half) >> gtop, v, n) for v, n in counts.items()])


def _mul(table, walks, legs, cap):
    """The sum of factor * left * right over ``walks`` of (factor, left
    half, right half), the halves prepared by ``_walk_left`` and
    ``_walk_right`` from combinations of ``legs``-leg keys packed in
    ``table``, as a zero-free {key: coefficient} dict without terms above
    ``cap``.  Coefficients are multiplied as they are: int numerators, or
    Poly and LaurentSeries values.

    Slices.  Normal ordering keeps grades, so the grade of each leg of a
    product term is the sum of its factors' grades there (the right
    factor's alone on a carried leg).  The slices partition the output
    keys by their per-leg grade vectors, and slice s is formed by the
    pairs of a left class L and the right class s - L.  The slices are
    summed one at a time (``_slice_sums``), in order, and a call whose
    term pairs reach ``_FORK_PAIRS`` sums them in two shares on two CPUs
    (``_split_sums``); either way the result, key order included, is the
    same.
    """
    cap = float("inf") if cap is None else cap
    _, top, half = _grading(table.bits, legs)
    weights: dict = {}  # slice -> its term pairs
    for _, (_, _, _, _, lcounts), (_, rtotals) in walks:
        for lv, n in lcounts.items():
            room = cap - ((lv + half) >> top)
            for total, rv, m in rtotals:
                if total > room:
                    break
                weights[lv + rv] = weights.get(lv + rv, 0) + n * m
    tproduct = table.product
    prepared = []
    for factor, ((low, _), lclasses, row_shift, sh, _), (rclasses, _) in walks:
        if low:
            # carried legs below the last: its products shifted into place,
            # memoized for this call
            shifted: dict = {}

            def product(t, u, low=low, row_shift=row_shift, shifted=shifted):
                nf = tuple([(m << low, a) for m, a in tproduct(t, u >> low)])
                shifted[t << row_shift | u] = nf
                return nf

            get = shifted.get
        else:
            get, product = table.products.get, tproduct
        prepared.append((factor, lclasses, rclasses, row_shift, get, product, sh))
    slices = sorted(weights)
    shares = None
    if sum(weights.values()) >= _FORK_PAIRS:
        shares = _shares(weights)
    out: dict = {}
    if shares is None:
        for acc in _slice_sums(table, prepared, slices):
            out.update(acc)
        return out
    sums = _split_sums(table, prepared, legs, *shares)
    for s in slices:
        out.update(sums.pop(s))
    return out


def _slice_sums(table, prepared, slices):
    """Each slice of a ``_mul`` call in turn, as a zero-free {key:
    coefficient} dict.  Every product adds its part of the slice into one
    accumulator, which is yielded before the next slice starts: terms that
    cancel between the products of a residual are held for one slice only.

    Within a slice, for each left group and right group the walked head
    products are formed once, without a coefficient, and every member is
    walked against the left group's last legs, adding c1 * c2 times those
    products with the carried ids (a unit last leg without a lookup).
    The Koszul sign of t and u, sum_i p(u_i) sum_{l>i} p(t_l), splits
    into a head part, the parity of (bits of t's head legs followed by an
    odd number of odd head legs) & (bits of u's odd head legs), and
    p(t_last) p(u's head); both are fixed by the two groups, and a
    carried leg after the last one adds nothing.  The sign times the
    product's factor scales the head products, once per pair of groups.
    """
    tget, tproduct = table.products.get, table.product
    for s in slices:
        acc: dict = {}
        aget = acc.get
        for factor, lclasses, rclasses, row_shift, get, product, sh in prepared:
            for lv, heads in lclasses.items():
                groups = rclasses.get(s - lv)
                if groups is None:
                    continue
                for t0b, t0, t_rest, t_after, t_odd, unit, rows in heads:
                    for u0, u_rest, u_odd_heads, u_odd, members in groups:
                        flip = u_odd & t_odd
                        odd = t_after & u_odd_heads
                        if odd:
                            flip ^= odd.bit_count() & 1
                        parts = tget(t0b | u0) or tproduct(t0, u0)
                        if t_rest:
                            for (tb, ti, gap), ui in zip(t_rest, u_rest):
                                nf = tget(tb | ui) or tproduct(ti, ui)
                                parts = [
                                    (p << gap | m, pc * a)
                                    for p, pc in parts for m, a in nf
                                ]
                        f = -factor if flip else factor
                        if f != 1:
                            parts = [(p, pc * f) for p, pc in parts]
                        if rows is None:
                            # the unit last leg: u's last leg goes in as it is
                            it = iter(members)
                            for u_last, cb, c2 in zip(it, it, it):
                                c = unit * c2
                                for p, pc in parts:
                                    k = p << sh | cb | u_last
                                    v = aget(k, 0) + pc * c
                                    if v:
                                        acc[k] = v
                                    else:
                                        acc.pop(k, None)
                            continue
                        it = iter(members)
                        for u_last, cb, c2 in zip(it, it, it):
                            for row, c1 in rows:
                                nf = get(row | u_last) or product(
                                    row >> row_shift, u_last
                                )
                                c = c1 * c2
                                for p, pc in parts:
                                    p = p << sh | cb
                                    pc *= c
                                    for m, a in nf:
                                        k = p | m
                                        v = aget(k, 0) + pc * a
                                        if v:
                                            acc[k] = v
                                        else:
                                            acc.pop(k, None)
        yield acc


# Term pairs of one ``_mul`` call (a left and a right term whose grades
# fit the cap, summed over its slices) from which its slices are split in
# two.  On a 2-core Xeon (CPython 3.11, 28 MiB resident), the forked
# share costs 2.1-2.2 ms that a serial call does not pay (fork, pipe,
# pickle and reap: an 8-pair product takes 0.02 ms serially and 2.1 ms
# split), and this process re-keys the child's sums at about 0.7 us a
# term.  The kernel spends 0.9-1.7 us a pair, so 60,000 pairs split in
# two save 27-50 ms, over ten times the fixed cost.
_FORK_PAIRS = 60_000


def _shares(weights):
    """The slices of a call split into two shares, each in slice order,
    or None where the call is summed here: fewer than two CPUs in the
    process's affinity mask, no ``os.fork``, or a second live thread (a
    forked child would hold only the thread that forked it).  Slices go
    heaviest first, each to the share with fewer term pairs so far.

    Two shares at most, whatever the CPU count: the threshold and the
    gain were measured for a split in two, and a further share would add
    a child's resident set and form most of the same product-table
    entries again."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return None
    if (
        len(weights) < 2
        or len(os.sched_getaffinity(0)) < 2
        or threading.active_count() > 1
    ):
        return None
    loads, shares = [0, 0], ([], [])
    for s, w in sorted(weights.items(), key=lambda sw: -sw[1]):
        i = loads[1] < loads[0]
        loads[i] += w
        shares[i].append(s)
    return [sorted(share) for share in shares]


def _split_sums(table, prepared, legs, mine, theirs):
    """{slice: its sum} over the slices of ``mine`` and ``theirs`` of a
    ``_mul`` call: ``mine`` summed here, ``theirs`` in a forked child that
    sends back its sums and the monomials it interned (``_child_share``),
    or here too if the fork fails.  The child's new ids collide with those
    this process interns meanwhile, so its monomials are interned here
    and its keys rewritten (``_adopt``).  An exception raised in the child
    is raised here; a child that ends without its result (killed, or its
    sums could not be pickled) raises ``ChildProcessError``.  The child
    does not outlive the call."""
    # imported here, as in _child_share: a run that splits no product
    # pays neither module's import time nor its memory
    import pickle
    import signal

    def summed(slices):
        # each sum copied: an accumulator keeps the table of its largest size
        return {
            s: dict(acc)
            for s, acc in zip(slices, _slice_sums(table, prepared, slices))
        }

    n0 = len(table.monos)
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return summed(mine + theirs)
    if not pid:
        _child_share(table, prepared, theirs, w)
    os.close(w)
    status = None
    try:
        with open(r, "rb") as fh:
            sums = summed(mine)
            payload = fh.read()
        _, status = os.waitpid(pid, 0)
    finally:
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if status:
        try:
            cause = pickle.loads(payload)
        except Exception:
            cause = None
        raise ChildProcessError(
            "the process summing %d product slices ended with status %d"
            % (len(theirs), os.waitstatus_to_exitcode(status))
        ) from (cause if isinstance(cause, BaseException) else None)
    result = pickle.loads(payload)
    if isinstance(result, BaseException):
        raise result
    accs, monos = result
    _adopt(table, legs, n0, monos, accs)
    sums.update(zip(theirs, accs))
    return sums


def _child_share(table, prepared, share, fd):
    """The body of a forked child: sum ``share`` and write (the sums, the
    monomials interned since the fork), or the exception raised, pickled
    to ``fd``; then end the process, with status 0 once that is written.
    If the result cannot be pickled, a RuntimeError naming why is written
    instead and the status is 1.  The child never returns into the
    caller."""
    status = 1
    try:
        import pickle

        n0 = len(table.monos)
        try:
            # copied, as in _split_sums
            sums = [dict(acc) for acc in _slice_sums(table, prepared, share)]
            result = (sums, table.monos[n0:])
        except BaseException as exc:
            result = exc
        # pickled whole before anything is written, so that a failure
        # sends a message rather than a broken stream
        try:
            payload, done = pickle.dumps(result, pickle.HIGHEST_PROTOCOL), 0
        except BaseException as exc:
            payload, done = pickle.dumps(
                RuntimeError("the slice sums could not be pickled: %r" % exc)
            ), 1
        with open(fd, "wb") as fh:
            fh.write(payload)
        status = done
    finally:
        os._exit(status)


def _adopt(table, legs, n0, monos, accs):
    """Rewrite a child's list of slice sums, in place, to this table's
    ids: ``monos`` are the monomials the child interned as ids n0, n0 + 1,
    ..., each interned here (its prefix before it, as in the child).
    Interning an id that does not fit raises ``OverflowError``."""
    ids, bits = table.ids, table.bits
    moved = {}
    for i, mono in enumerate(monos, n0):
        j = ids[mono]
        if j != i:
            moved[i] = j
    if not moved:
        return
    mask = (1 << bits) - 1
    shifts = range(bits * (legs - 1), -1, -bits)

    def rewrite(k):
        key = 0
        for s in shifts:
            i = k >> s & mask
            key = key << bits | moved.get(i, i)
        return key

    for i, acc in enumerate(accs):
        accs[i] = {rewrite(k): c for k, c in acc.items()}


def _walked(x, rational, layout, walk):
    """``walk`` of the terms of operand x that a product reads: its int
    numerators in a rational product, else its scalars.  When those are
    x's own ``data``, the result is kept on x under ``layout`` (None for
    the left half) and every later product reuses it; x's data never
    changes, so neither does the result."""
    terms = x.data if rational else x._scalars()
    if terms is not x.data:
        return walk(terms)
    memo = x._walks
    if memo is None:
        memo = x._walks = {}
    hit = memo.get(layout)
    if hit is None:
        hit = memo[layout] = walk(terms)
    return hit


def _products(pairs):
    """sum sign * x * y over (sign, x, y) triples of checked operands (one
    kind, one algebra, one number of legs), each product cut at the
    smallest cap of all operands and summed slice by slice (``_mul``), so
    the terms that cancel between products are never held together.

    Rational products are put over the lcm of the pairs' denominators by
    a factor per product, the sign folded in, applied as the kernel
    multiplies; with any other scalars every operand goes through
    ``_scalars()``.  Each operand is walked once per role and layout
    (``_walked``)."""
    x = pairs[0][1]
    table, legs = pbw_table(x.algebra), x.legs or 1
    cap = None
    for _, a, b in pairs:
        cap = _omin(cap, _omin(a.g2cap, b.g2cap))
    rational = all(a.den is not None and b.den is not None for _, a, b in pairs)
    if rational:
        den = lcm(*[a.den * b.den for _, a, b in pairs])
    walks = []
    for sign, a, b in pairs:
        if not a.data or not b.data:
            continue
        left = _walked(a, rational, None, lambda t: _walk_left(table, t, legs))
        right = _walked(
            b, rational, left[0], lambda t: _walk_right(table, t, legs, left[0])
        )
        factor = sign * (den // (a.den * b.den)) if rational else sign
        walks.append((factor, left, right))
    out = _mul(table, walks, legs, cap)
    data, den = _canonical(out, den) if rational else _stored(out)
    return x._wrap(x.algebra, data, den, x.legs, cap)


def product_difference(x, y, z, w):
    """x * y - z * w for four elements, or four tensors, of one algebra,
    summed over both products one grade slice at a time: neither product
    is held whole, and terms that cancel between them live for one slice.
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
    m), skipping every m whose image is zero.  The stored coefficients go
    to the matrix as they are: int numerators over ``den``, or scalars."""
    alg = t.algebra
    if t.legs is None or t.legs == 1:
        monos = pbw_table(alg).monos
        pairs = [(c, alg.monomial_matrix(monos[i])) for i, c in t.data.items()]
        return combination(alg.pv, pairs, t.den)
    # a LieTensor stores UETensor keys, so UETensor's split serves it too
    pairs = []
    for mono, rest in UETensor.split_first_leg(t).items():
        first = alg.monomial_matrix(mono)
        if first.is_zero:
            continue
        inner = _rep_image(rest)
        if not inner.is_zero:
            pairs.append((1, kron(first, inner)))
    return combination(tensor_pv(alg.pv, t.legs), pairs)


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


class _Terms(Stored):
    """A finite combination of keys with coefficients in the exact scalar
    tower, modulo total grade > g2cap/2 (no truncation when g2cap is
    None).  ``data`` is a zero-free {stored key: coefficient} dict and
    ``den`` its denominator: int numerators over a positive int ``den``,
    canonical, for rational coefficients, any other scalars with ``den``
    None (see the module docstring).  ``terms`` is the decoded view.
    ``data`` is never changed once stored, so ``_walks`` keeps the
    product kernel's groupings of it (``_walked``), None until the first
    product.

    :class:`UEElement`, :class:`UETensor` and
    :class:`~osptwist.rmatrix.LieTensor` share this term algebra and its
    storage.  A subclass fixes the public shape of a key: ``_key`` brings
    it to a tuple of leg monomials (a monomial, a tuple of monomials, or a
    tuple of basis letters), ``_decoder`` maps a stored key back (by
    default to that tuple); how a key prints (``_body``, ``_sort_key``);
    and the arguments of its constructors.  ``legs`` is the number of
    tensor legs, None for an element of the enveloping algebra itself.
    The linear structure is :class:`~osptwist.scalars.Stored`'s on the
    space (algebra, legs); a sum is cut at the smaller cap, and a scalar
    summand is a multiple of the unit.  A subclass binds a shared
    operation under its own name only where the benchmark tracer patches
    it class by class.
    """

    __slots__ = ("algebra", "data", "den", "legs", "g2cap", "_walks")

    def _fill(self, algebra, terms, legs, g2cap):
        """The validated constructor: keys brought to shape, normal-ordered
        and stored, zeros and terms above the cap dropped."""
        self._walks = None
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
        out._walks = None
        out.algebra = algebra
        out.data = data
        out.den = den
        out.legs = legs
        out.g2cap = g2cap
        return out

    def _like(self, data, den):
        """An object of self's kind (type, algebra, legs) and cap wrapping
        clean stored terms."""
        return self._wrap(self.algebra, data, den, self.legs, self.g2cap)

    def _space(self):
        return self.algebra, self.legs

    def _check_legs(self, key):
        if len(key) != self.legs:
            raise HeterogeneousOperand(
                "term %r has %d legs, expected %d" % (key, len(key), self.legs)
            )
        return key

    def one_like(self):
        # the key of the empty monomial on every leg is 0
        unit = self._wrap(self.algebra, {0: 1}, 1, self.legs, None)
        return unit.truncate(self.g2cap)

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
            if i is None:
                return None
            packed = packed << table.bits | i
        return packed

    def _select(self, keep):
        """(data, den) of the terms whose doubled grade satisfies
        ``keep``."""
        grade = self._grader()
        data = {k: c for k, c in self.data.items() if keep(grade(k))}
        return _clean(data, self.den)

    # -- inspection -------------------------------------------------------

    def is_grade_positive(self):
        """True when every term has total grade >= 1/2 (g2 >= 1)."""
        grade = self._grader()
        return all(grade(k) >= 1 for k in self.data)

    def _parities(self):
        table, mask, shifts = self._codec()
        par = table.par
        return lambda k: sum([par[k >> s & mask] for s in shifts]) & 1

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
        kind, both cut at the smaller cap."""
        self._check(other)
        cap = _omin(self.g2cap, other.g2cap)
        x = self.truncate(cap)
        return x._combination(((1, x), (sign, other.truncate(cap))))

    def __add__(self, other):
        if self._same_kind(other):
            return self._combine(other, 1)
        return self + self.one_like().scale(other)

    def _times(self, other):
        """``*``: the product of two operands of one kind, or scaling."""
        if not self._same_kind(other):
            return self.scale(other)
        self._check(other)
        return _products(((1, self, other),))

    def series(self, stream):
        """sum_k a_k * self**k for ``stream()`` iterating over a_0, a_1, ...
        and a truncated, grade-positive self (no constant term).  self**k
        has doubled grade >= k, so self**(g2cap + 1) vanishes: the first
        g2cap + 2 coefficients always reach a vanishing power."""
        if self.g2cap is None:
            raise ValueError(
                "series operations need a truncated operand; call truncate()"
            )
        if self.constant_coefficient():
            raise ConstantTermPresent(
                "series argument must have zero constant term; fold the "
                "constant into the coefficients instead"
            )
        if not self.is_grade_positive():
            raise ConstantTermPresent(
                "series evaluation requires all non-constant terms to have "
                "strictly positive grade (grade-0 letters such as Cartan or "
                "grade-0 root vectors would make the series non-terminating)"
            )
        return nilpotent_series(
            islice(stream(), self.g2cap + 2), self, self.one_like()
        )

    def truncate(self, g2cap):
        cap = _omin(self.g2cap, g2cap)
        if cap == self.g2cap:
            return self._like(self.data, self.den)
        data, den = self._select(lambda g: g <= cap)
        return self._wrap(self.algebra, data, den, self.legs, cap)

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
        return self._like(out, self.den)

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
        return Stored.__eq__(self, other)

    def __hash__(self):
        # a constant (only the unit monomial, id 0) hashes like the scalar
        # it equals
        if self.data.keys() <= {0}:
            return hash(self._scalar(self.data.get(0, 0)))
        return Stored.__hash__(self)

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
    def of(cls, *elements, g2cap=None):
        """Elementary tensor e1 (x) e2 (x) ...: bilinear pairing of terms
        (signs only ever come from multiplication, not formation)."""
        if not elements or not all(isinstance(e, UEElement) for e in elements):
            raise HeterogeneousOperand("tensor factors are one or more UEElements")
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
        return self._like(*self._select(lambda g: g == g2))

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
        return self._like(*_stored(out))

    def __repr__(self):
        return "UETensor(legs=%d, terms=%d)" % (self.legs, len(self.data))


# --------------------------------------------------------------------------
# Terminating series calculus (shared by elements and tensors)
# --------------------------------------------------------------------------
#
# ``_Terms.series`` is the one entry that checks a series argument and
# sums a Taylor stream; exp and log are :class:`~osptwist.scalars.Ring`'s.
# The functions below are their module-level names, and the inverse and
# square root, which check only the constant term c0 and pass the rest,
# scaled, to the series.


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
    """sum_k a_k * x**k (see :meth:`_Terms.series`)."""
    return x.series(stream)


# exp of a grade-positive truncated element or tensor, and log of 1 + one
ue_exp = Ring.exp
ue_log = Ring.log


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
    f = _fr(c0)
    if f is None:
        raise IrrationalExpansionPoint(
            "square root needs a rational constant term, got %r" % (c0,)
        )
    root = fraction_sqrt(f)
    if root is None or root == 0:
        raise IrrationalExpansionPoint(
            "constant term %s has no nonzero rational square root" % f
        )
    y = rest.scale(1 / f)  # x = c0 (1 + y)
    return ue_series(partial(taylor_binomial, Fraction(1, 2)), y).scale(root)


def ad_exp(a, y):
    """Conjugation  exp(a) y exp(-a)  for grade-positive truncated a."""
    e = ue_exp(a)
    e_inv = ue_exp(-a)
    return e * y * e_inv
