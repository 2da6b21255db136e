"""Normal-ordered enveloping-algebra arithmetic and its truncation."""

import contextlib
import gc
import hashlib
import itertools
import os
import threading
from fractions import Fraction

import pytest
from hypothesis import Phase, example, find, given, settings, strategies as st

from osptwist import pbw
from osptwist import quantum as qt
from osptwist import twist as tws
from osptwist.algebra import OspAlgebra, build_osp
from osptwist.pbw import (
    UEElement,
    UETensor,
    normal_form,
    pbw_table,
    ue_exp,
    ue_log,
    ue_invert,
    ue_sqrt,
    ad_exp,
)
from osptwist.repmat import GradedMatrix
from osptwist.errors import (
    ConstantTermPresent,
    DivisionByNonUnit,
    HeterogeneousOperand,
    IrrationalExpansionPoint,
    MixedAlgebra,
)
from osptwist.rmatrix import LieTensor
from osptwist.scalars import LaurentSeries, Poly


ALG = build_osp(2)
ALGEBRAS = {1: build_osp(1), 2: ALG}
CAP = 8

IDX = {name: ALG.generator_index(name) for name in
       ("H", "J", "Z+", "Y+", "U+", "X+", "w+", "v+", "X-", "v-", "w-")}


def gen(name, cap=CAP):
    return UEElement.generator(ALG, name, g2cap=cap)


# -- normal form ---------------------------------------------------------------


def test_normal_form_sorts_and_corrects():
    # X- X+ = X+ X- - H   (indices: X+ before X- in the basis order)
    got = normal_form(ALG, (IDX["X-"], IDX["X+"]))
    assert got == {
        (IDX["X+"], IDX["X-"]): Fraction(1),
        (IDX["H"],): Fraction(-1),
    }


def test_normal_form_odd_swap():
    # v+ w+ = -w+ v+ + U+   (w+ precedes v+ in the basis order)
    got = normal_form(ALG, (IDX["v+"], IDX["w+"]))
    assert got == {
        (IDX["w+"], IDX["v+"]): Fraction(-1),
        (IDX["U+"],): Fraction(1),
    }
    # already ordered words pass through untouched
    assert normal_form(ALG, (IDX["w+"], IDX["v+"])) == {
        (IDX["w+"], IDX["v+"]): Fraction(1)
    }


def test_normal_form_odd_opposite_pair():
    # v- v+ = -v+ v- - H
    got = normal_form(ALG, (IDX["v-"], IDX["v+"]))
    assert got == {
        (IDX["v+"], IDX["v-"]): Fraction(-1),
        (IDX["H"],): Fraction(-1),
    }


def test_normal_form_returns_a_fresh_dict():
    word = (IDX["X-"], IDX["X+"])
    first = normal_form(ALG, word)
    first[(IDX["H"],)] = Fraction(99)
    first[(IDX["Z+"],)] = Fraction(1)
    assert normal_form(ALG, word) == {
        (IDX["X+"], IDX["X-"]): Fraction(1),
        (IDX["H"],): Fraction(-1),
    }
    # the memo behind it is untouched, so products still come out right
    assert gen("X-") * gen("X+") == gen("X+") * gen("X-") - gen("H")


def test_odd_square_collapses():
    # v+ v+ = X+ inside the enveloping algebra (the square of an odd
    # generator is half its self-bracket)
    v = gen("v+")
    x = gen("X+")
    assert v * v == x
    w = gen("w+")
    assert w * w == gen("Y+")


# -- element arithmetic ----------------------------------------------------------


word_strategy = st.lists(
    st.sampled_from(list(IDX.values())), min_size=0, max_size=3
)


@given(word_strategy, word_strategy, word_strategy)
# X- (Y+^2 Y+^2) keeps its grade-8 factor at cap 8 and lands on the exact
# grade 6: a kernel that cut by the size of the left grade would drop it
@example([IDX["X-"]], [IDX["Y+"]] * 2, [IDX["Y+"]] * 2)
@settings(max_examples=40, deadline=None)
def test_product_associative(wa, wb, wc):
    """Untruncated products associate.  Capped ones associate below the
    cap less N, N the total |g2| of the negative-grade letters drawn: a
    term cut at the cap has grade above it, and the letters still to come
    lower a grade by at most N, so nothing cut reaches that grade.  (The
    span above the cap is not an ideal once negative-grade letters occur:
    at cap 8, X- (Y+^2 Y+^3) is cut where (X- Y+^2) Y+^3 is not.)"""
    def elem(w, cap):
        out = UEElement.one(ALG, g2cap=cap)
        for i in w:
            out = out * UEElement.generator(ALG, ALG.name_of(i), g2cap=cap)
        return out

    a, b, c = elem(wa, None), elem(wb, None), elem(wc, None)
    assert (a * b) * c == a * (b * c)
    exact = CAP - sum(-ALG.g2(i) for i in wa + wb + wc if ALG.g2(i) < 0)
    a, b, c = elem(wa, CAP), elem(wb, CAP), elem(wc, CAP)
    assert ((a * b) * c).truncate(exact) == (a * (b * c)).truncate(exact)


@given(word_strategy, word_strategy)
@settings(max_examples=40, deadline=None)
def test_super_bracket_matches_structure_constants(wa, wb):
    if len(wa) != 1 or len(wb) != 1:
        return
    i, j = wa[0], wb[0]
    a = UEElement.generator(ALG, ALG.name_of(i), g2cap=CAP)
    b = UEElement.generator(ALG, ALG.name_of(j), g2cap=CAP)
    want = UEElement.zero(ALG, g2cap=CAP)
    for k, c in ALG.bracket(i, j).items():
        want = want + UEElement.generator(ALG, ALG.name_of(k), g2cap=CAP).scale(c)
    assert a.super_bracket(b) == want


def test_truncation_drops_high_grades():
    x = gen("X+", cap=4)
    cube = x * x * x  # grade 6 exceeds the cap
    assert cube.is_zero
    assert not (x * x).is_zero


def test_truncate_method():
    x = gen("X+")
    s = UEElement.one(ALG, g2cap=CAP) + x + x * x
    t = s.truncate(2)
    assert t.coefficient((IDX["X+"],)) == 1
    assert t.coefficient((IDX["X+"], IDX["X+"])) == 0


def test_mixed_algebra_rejected():
    other = UEElement.generator(build_osp(3), "+2e1", g2cap=4)
    with pytest.raises(MixedAlgebra):
        gen("X+", cap=4) + other


def test_to_matrix_is_multiplicative():
    a = gen("v+") * gen("Z+") + 2 * gen("H")
    b = gen("w+") - gen("U+") * Fraction(1, 3)
    assert (a * b).to_matrix() == a.to_matrix() @ b.to_matrix()
    assert (a + b).to_matrix() == a.to_matrix() + b.to_matrix()


# -- coproduct and tensors --------------------------------------------------------


def test_coproduct_primitive_on_generators():
    h = gen("H")
    d = h.coproduct()
    one = UEElement.one(ALG, g2cap=CAP)
    want = UETensor.of(h, one, g2cap=CAP) + UETensor.of(one, h, g2cap=CAP)
    assert d == want


def test_coproduct_is_homomorphism():
    for na, nb in (("v+", "w+"), ("H", "X+"), ("Z+", "v+"), ("v+", "v+")):
        a, b = gen(na), gen(nb)
        assert (a * b).coproduct() == a.coproduct() * b.coproduct(), (na, nb)


def test_coproduct_counit_axiom():
    x = gen("v+") * gen("U+") + gen("H") * gen("H")
    d = x.coproduct()
    assert d.counit_leg(1) == x
    assert d.counit_leg(2) == x


def test_coproduct_coassociative():
    x = gen("v+") * gen("w+")
    d = x.coproduct()
    assert d.coproduct_leg(1) == d.coproduct_leg(2) == x.coproduct(legs=3)


def test_tensor_flip_koszul_sign():
    v, w = gen("v+"), gen("w+")
    t = UETensor.of(v, w, g2cap=CAP)
    # odd (x) odd picks up a minus under the graded flip
    assert t.flip() == -UETensor.of(w, v, g2cap=CAP)
    h, x = gen("H"), gen("X+")
    assert UETensor.of(h, x, g2cap=CAP).flip() == UETensor.of(x, h, g2cap=CAP)
    assert t.flip().flip() == t


def test_tensor_product_koszul_sign():
    """(1 (x) v)(w (x) 1) = -(w (x) v) for odd v, w."""
    v, w = gen("v+"), gen("w+")
    one = UEElement.one(ALG, g2cap=CAP)
    lhs = UETensor.of(one, v, g2cap=CAP) * UETensor.of(w, one, g2cap=CAP)
    assert lhs == -UETensor.of(w, v, g2cap=CAP)
    # and with an even first slot there is no sign
    h = gen("H")
    lhs2 = UETensor.of(one, h, g2cap=CAP) * UETensor.of(w, one, g2cap=CAP)
    assert lhs2 == UETensor.of(w, h, g2cap=CAP)


def test_tensor_embed_into_three_legs():
    v, w = gen("v+"), gen("w+")
    t = UETensor.of(v, w, g2cap=CAP)
    one = UEElement.one(ALG, g2cap=CAP)
    t13 = t.embed((1, 3), 3)
    assert t13 == UETensor.of(v, one, w, g2cap=CAP)
    t23 = t.embed((2, 3), 3)
    assert t23 == UETensor.of(one, v, w, g2cap=CAP)


def test_tensor_leg_mismatch_rejected():
    t2 = UETensor.of(gen("H"), gen("H"), g2cap=CAP)
    t3 = UETensor.of(gen("H"), gen("H"), gen("H"), g2cap=CAP)
    with pytest.raises(HeterogeneousOperand):
        t2 + t3


def test_term_algebra_keeps_kinds_and_leg_counts_apart():
    """Equality needs the same kind and leg count, even at zero, and only
    an element compares with a scalar; a flip needs exactly two legs."""
    assert UETensor.zero(ALG, 2) != UETensor.zero(ALG, 3)
    assert LieTensor.zero(ALG, 2) != LieTensor.zero(ALG, 3)
    assert UEElement.zero(ALG) != UETensor.zero(ALG, 1)
    assert UEElement.one(ALG) == 1 and UEElement.zero(ALG) == 0
    assert UETensor.zero(ALG, 2).one_like() != 1
    for x in (gen("H"), UETensor.zero(ALG, 3).one_like()):
        with pytest.raises(HeterogeneousOperand):
            x.flip()


def test_tensor_grade_component_and_scaling():
    h, x = gen("H"), gen("X+")
    t = UETensor.of(h, x, g2cap=CAP) + UETensor.of(x, x, g2cap=CAP)
    assert t.grade_component(2) == UETensor.of(h, x, g2cap=CAP)
    assert t.grade_component(4) == UETensor.of(x, x, g2cap=CAP)
    # the factor is raised to half the doubled grade of each term
    scaled = t.scale_by_grade(Fraction(3))
    assert scaled.grade_component(2) == UETensor.of(h, x, g2cap=CAP).scale(3)
    assert scaled.grade_component(4) == UETensor.of(x, x, g2cap=CAP).scale(9)


def test_tensor_to_matrix_is_multiplicative():
    v, w = gen("v+", 4), gen("w+", 4)
    a = UETensor.of(v, w, g2cap=4)
    b = UETensor.of(w, v, g2cap=4)
    assert (a * b).to_matrix() == a.to_matrix() @ b.to_matrix()


# -- series functions -------------------------------------------------------------


def test_exp_log_roundtrip():
    x = gen("X+") + gen("v+") * gen("w+")
    assert ue_log(ue_exp(x)) == x
    assert ue_exp(x) * ue_exp(-x) == UEElement.one(ALG, g2cap=CAP)


def test_exp_of_sum_of_commuting_terms_factorizes():
    x, y = gen("X+"), gen("Y+")  # the two long roots commute
    assert x.super_bracket(y).is_zero
    assert ue_exp(x + y) == ue_exp(x) * ue_exp(y)


def test_invert_and_sqrt():
    one = UEElement.one(ALG, g2cap=CAP)
    u = one + gen("X+") + gen("Z+") * gen("v+")
    assert u * ue_invert(u) == one
    assert ue_invert(u) * u == one
    s = ue_sqrt(u)
    assert s * s == u


def test_series_require_unit_constant_term():
    with pytest.raises(ConstantTermPresent):
        ue_log(gen("X+"))  # constant term 0, not 1
    x_plus_two = UEElement.one(ALG, g2cap=CAP).scale(2) + gen("X+")
    with pytest.raises(ConstantTermPresent):
        ue_exp(x_plus_two)


# (series function, a constant term it accepts, one it refuses, the refusal)
SERIES_FRONT_ENDS = [
    (ue_exp, 0, 2, ConstantTermPresent),
    (ue_log, 1, 0, ConstantTermPresent),
    (ue_invert, 1, 0, DivisionByNonUnit),
    (ue_sqrt, 1, 2, IrrationalExpansionPoint),
]


def series_operand(legs, constant, letter="X+", cap=CAP):
    """constant + letter as an element (legs None), or constant +
    letter (x) letter as a 2-leg tensor."""
    if legs is None:
        return UEElement.one(ALG, g2cap=cap).scale(constant) + gen(letter, cap)
    x = gen(letter, cap)
    t = UETensor.of(x, x, g2cap=cap)
    return t.one_like().scale(constant) + t


@pytest.mark.parametrize("legs", [None, 2])
@pytest.mark.parametrize(
    "fn, good, bad, refusal",
    SERIES_FRONT_ENDS,
    # ue_exp and ue_log are Ring.exp and Ring.log, named exp and log
    ids=lambda v: {ue_exp: "ue_exp", ue_log: "ue_log"}.get(v),
)
def test_series_front_ends_refuse(fn, good, bad, refusal, legs):
    """An untruncated operand, a grade-0 letter (H) and a constant term
    outside the function's domain are each refused."""
    fn(series_operand(legs, good))
    with pytest.raises(ValueError):
        fn(series_operand(legs, good, cap=None))
    with pytest.raises(ConstantTermPresent):
        fn(series_operand(legs, good, letter="H"))
    with pytest.raises(refusal):
        fn(series_operand(legs, bad))


def test_invert_and_sqrt_of_a_tensor_around_a_non_unit_constant():
    t = UETensor.of(gen("X+"), gen("v+"), g2cap=CAP) + UETensor.of(
        gen("Z+"), gen("w+"), g2cap=CAP
    )
    one = t.one_like()
    x = one.scale(3) + t
    assert ue_invert(x) * x == one
    y = one.scale(4) + t
    assert ue_sqrt(y) ** 2 == y
    # with Poly coefficients the constant term is stored as the int 4
    z = one.scale(4) + t.scale(Poly.var("a"))
    assert z.den is None and type(z.constant_coefficient()) is int
    assert ue_sqrt(z) ** 2 == z and ue_invert(z) * z == one


def test_ad_exp_matches_explicit_conjugation():
    a = gen("X+")
    y = gen("Z+")
    e = ue_exp(a)
    assert ad_exp(a, y) == e * y * ue_invert(e)
    # nilpotency makes the adjoint series finite: [X+, [X+, Z+]] = 0
    h = gen("H")
    assert ad_exp(a, h) == ue_exp(a) * h * ue_invert(e)


def test_exp_on_tensor_legs():
    h, x = gen("H"), gen("X+")
    t = UETensor.of(h, x, g2cap=CAP)
    e = ue_exp(t)
    assert e.counit_leg(2) == UEElement.one(ALG, g2cap=CAP)


# -- normal ordering against the reference word rewriting --------------------

# reference_rewrite's memo, one per rank
_REWRITTEN: dict = {}


def reference_rewrite(alg, word):
    """Normal form of a word by rewriting its first out-of-order adjacent
    pair, a route independent of the letter insertion behind normal_form:
    a fresh {monomial: Fraction} dict.  x y = sign y x + [x,y] for x > y,
    and x x = [x,x]/2 for odd x."""
    cache = _REWRITTEN.setdefault(alg.n, {})
    stack = [tuple(word)]
    while stack:
        w = stack[-1]
        if w in cache:
            stack.pop()
            continue
        i = next(
            (
                i
                for i in range(len(w) - 1)
                if w[i] > w[i + 1] or (w[i] == w[i + 1] and alg.parity(w[i]))
            ),
            None,
        )
        if i is None:
            cache[w] = {w: Fraction(1)}
            stack.pop()
            continue
        x, y = w[i], w[i + 1]
        if x == y:
            children = [
                (c / 2, w[:i] + (k,) + w[i + 2:])
                for k, c in alg.bracket(x, x).items()
            ]
        else:
            sign = -1 if alg.parity(x) and alg.parity(y) else 1
            children = [(sign, w[:i] + (y, x) + w[i + 2:])] + [
                (c, w[:i] + (k,) + w[i + 2:]) for k, c in alg.bracket(x, y).items()
            ]
        missing = [cw for _, cw in children if cw not in cache]
        if missing:
            stack.extend(missing)
            continue
        acc: dict = {}
        for c, cw in children:
            for mono, cc in cache[cw].items():
                acc[mono] = acc.get(mono, 0) + c * cc
        cache[w] = {mono: Fraction(v) for mono, v in acc.items() if v}
        stack.pop()
    return dict(cache[tuple(word)])


@st.composite
def words(draw):
    """A word of up to 12 letters at n = 1 or 2, rich in odd letters,
    repeated odd letters and odd squares."""
    alg = ALGEBRAS[draw(st.sampled_from((1, 2)))]
    odd = st.sampled_from([ix for ix in range(alg.size) if alg.parity(ix)])
    chunk = st.one_of(
        odd.map(lambda x: (x, x)),
        odd.map(lambda x: (x,)),
        st.integers(0, alg.size - 1).map(lambda x: (x,)),
    )
    return alg, sum(draw(st.lists(chunk, max_size=12)), ())[:12]


@given(words())
@settings(max_examples=200, deadline=None)
def test_normal_form_matches_reference_rewriting(case):
    alg, word = case
    assert normal_form(alg, word) == reference_rewrite(alg, word)


def test_normal_form_of_a_long_reversed_word():
    """Every raising letter of n=3 twice, in decreasing basis order: 20
    letters whose ordering takes a deep stack of insertions and meets
    odd squares; the result is the rewriting's."""
    alg = build_osp(3)
    word = tuple(sorted(alg.positive_indices() * 2, reverse=True))[:20]
    assert len(word) == 20
    assert normal_form(alg, word) == reference_rewrite(alg, word)


# -- the product kernel against the reference loop ----------------------------


def reference_product(alg, left, right, legs, cap, koszul=True):
    """The tensor product loop the kernel replaced: Fraction (or Poly)
    arithmetic throughout and one reference_rewrite call per leg product,
    so no part of it goes through the multiplication table.
    ``koszul=False`` drops the Koszul sign, for the negative control."""
    def parity(mono):
        return sum(map(alg.parity, mono)) & 1

    def term_g2(key):
        return sum(alg.g2(x) for m in key for x in m)

    odata = sorted(
        (
            (term_g2(u), u, c2, tuple(parity(m) for m in u))
            for u, c2 in right.items()
        ),
        key=lambda q: q[0],
    )
    out = {}
    for t, c1 in left.items():
        suff = [0] * (legs + 1)
        for i in range(legs - 1, -1, -1):
            suff[i] = suff[i + 1] + parity(t[i])
        budget = None if cap is None else cap - term_g2(t)
        for g2u, u, c2, pu in odata:
            if budget is not None and g2u > budget:
                break
            sgn = sum(suff[i + 1] for i in range(legs) if pu[i])
            c12 = -c1 * c2 if koszul and sgn % 2 else c1 * c2
            parts = [((), c12)]
            for i in range(legs):
                ti, ui = t[i], u[i]
                if not ui:
                    parts = [(pref + (ti,), pc) for pref, pc in parts]
                elif not ti:
                    parts = [(pref + (ui,), pc) for pref, pc in parts]
                else:
                    nf = reference_rewrite(alg, ti + ui)
                    parts = [
                        (pref + (mono,), pc * mc)
                        for pref, pc in parts
                        for mono, mc in nf.items()
                    ]
            for key, v in parts:
                w = out.get(key, 0) + v
                if not w:
                    out.pop(key, None)
                else:
                    out[key] = w
    return out


DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 16, 45)


def _normal_monomial(alg, word):
    """Sorted word with odd letters kept at most once: a PBW monomial."""
    mono = []
    for ix in sorted(word):
        if mono and mono[-1] == ix and alg.parity(ix):
            continue
        mono.append(ix)
    return tuple(mono)


@st.composite
def _coefficient(draw, kind):
    num = draw(st.integers(-9, 9).filter(bool))
    if kind == "int":
        return num
    frac = Fraction(num, draw(st.sampled_from(DENOMINATORS)))
    if kind == "fraction":
        return frac
    return Poly.var("t", draw(st.integers(0, 2))) * frac + draw(
        st.sampled_from((0, Fraction(1, 3), 2))
    )


@st.composite
def _operand(draw, alg, legs):
    kind = draw(st.sampled_from(("fraction", "int", "poly")))
    # odd letters are drawn often, so several legs carry odd monomials
    odd = [ix for ix in range(alg.size) if alg.parity(ix)]
    letter = st.one_of(st.sampled_from(odd), st.integers(0, alg.size - 1))
    mono = st.lists(letter, max_size=3).map(lambda w: _normal_monomial(alg, w))
    key = st.tuples(*[mono] * legs)
    terms = draw(
        st.dictionaries(key, _coefficient(kind), min_size=1, max_size=4)
    )
    cap = draw(st.one_of(st.none(), st.integers(0, 8)))
    return terms, cap


@st.composite
def products(draw):
    n = draw(st.sampled_from((1, 2)))
    legs = draw(st.integers(1, 3))
    alg = ALGEBRAS[n]
    (lt, lcap), (rt, rcap) = draw(_operand(alg, legs)), draw(_operand(alg, legs))
    return (
        alg, legs, UETensor(alg, lt, legs, lcap), UETensor(alg, rt, legs, rcap)
    )


def _cap(a, b):
    return min((c for c in (a.g2cap, b.g2cap) if c is not None), default=None)


def _expected(case, koszul=True):
    alg, legs, a, b = case
    out = reference_product(alg, a.terms, b.terms, legs, _cap(a, b), koszul)
    return UETensor(alg, out, legs, _cap(a, b))


@given(products())
@settings(max_examples=150, deadline=None)
def test_product_kernel_matches_reference(case):
    alg, legs, a, b = case
    want = _expected(case)
    got = a * b
    assert got == want and got.g2cap == want.g2cap
    # the trusted result is as clean as the public constructor makes it
    assert UETensor(alg, got.terms, legs, got.g2cap).terms == got.terms
    assert not any(isinstance(c, int) for c in got.terms.values())
    if legs == 1:
        ea = UEElement(alg, {k[0]: c for k, c in a.terms.items()}, a.g2cap)
        eb = UEElement(alg, {k[0]: c for k, c in b.terms.items()}, b.g2cap)
        assert {(m,): c for m, c in (ea * eb).terms.items()} == got.terms


def _last_legs(alg):
    """Last-leg monomials of every grade: the unit, each letter (odd ones
    and negative-grade ones among them) and the products of two distinct
    odd letters."""
    odd = [ix for ix in range(alg.size) if alg.parity(ix)]
    return [()] + [(ix,) for ix in range(alg.size)] + [
        _normal_monomial(alg, w) for w in itertools.combinations(odd, 2)
    ]


@st.composite
def _shared_heads(draw, alg, legs):
    """1-3 heads, each with 2-4 last legs of different grades, so that
    several terms share each head and a cap can fall between them."""
    kind = draw(st.sampled_from(("fraction", "int", "poly")))
    odd = [ix for ix in range(alg.size) if alg.parity(ix)]
    letter = st.one_of(st.sampled_from(odd), st.integers(0, alg.size - 1))
    mono = st.lists(letter, max_size=2).map(lambda w: _normal_monomial(alg, w))
    lasts = st.lists(
        st.sampled_from(_last_legs(alg)), min_size=2, max_size=4,
        unique_by=lambda m: sum(map(alg.g2, m)),
    )
    terms = {}
    for head in draw(st.lists(st.tuples(*[mono] * (legs - 1)), min_size=1,
                              max_size=3, unique=True)):
        for m in draw(lasts):
            terms[head + (m,)] = draw(_coefficient(kind))
    return terms


@st.composite
def shared_head_products(draw):
    """Two 2- or 3-leg operands whose terms share heads, and a cap at or
    just below the grade of a drawn pair of terms, or none."""
    alg = ALGEBRAS[draw(st.sampled_from((1, 2)))]
    legs = draw(st.integers(2, 3))
    lt, rt = draw(_shared_heads(alg, legs)), draw(_shared_heads(alg, legs))

    def grade(key):
        return sum(alg.g2(x) for m in key for x in m)

    pair = grade(draw(st.sampled_from(sorted(lt)))) + grade(
        draw(st.sampled_from(sorted(rt)))
    )
    cap = draw(st.one_of(st.none(), st.sampled_from((pair, pair - 1))))
    return alg, legs, UETensor(alg, lt, legs, cap), UETensor(alg, rt, legs)


@given(shared_head_products())
@settings(max_examples=150, deadline=None)
def test_product_kernel_with_shared_heads_matches_reference(case):
    """Left terms that share a head are walked together in last-leg grade
    order; the products, and their difference formed in one accumulator,
    are the reference loop's."""
    alg, legs, a, b = case
    ab, ba = _expected(case), _expected((alg, legs, b, a))
    assert a * b == ab and b * a == ba
    assert pbw.product_difference(a, b, b, a) == ab - ba


@given(products())
@settings(max_examples=60, deadline=None)
def test_sum_and_difference_match_public_constructor(case):
    """+, -, negation and scaling skip the re-cleaning; they must still
    drop zeros and the terms above the smaller cap, and store, compare and
    hash as the public constructor's object does."""
    alg, legs, a, b = case

    def check(got, terms, cap):
        want = UETensor(alg, terms, legs, cap)
        assert got == want and got.g2cap == want.g2cap
        assert (got.den, got.data) == (want.den, want.data)
        assert hash(got) == hash(want)

    for x, y in ((a, b), (b, a)):
        for sign, got in ((1, x + y), (-1, x - y)):
            merged = dict(x.terms)
            for k, c in y.terms.items():
                merged[k] = merged.get(k, 0) + sign * c
            check(got, merged, _cap(x, y))
    for c in (-1, 3, Fraction(2, 3), Poly.var("a")):
        got = -a if c == -1 else a.scale(c)
        check(got, {k: c * v for k, v in a.terms.items()}, a.g2cap)
    assert (a - a).is_zero


def test_product_kernel_negative_control():
    """A reference with the Koszul sign dropped disagrees with the kernel
    on some drawn product, so the comparison above can fail."""
    alg, legs, a, b = find(
        products(),
        lambda case: case[2] * case[3] != _expected(case, koszul=False),
        settings=settings(
            max_examples=2000, deadline=None, database=None,
            phases=(Phase.generate,),
        ),
    )
    assert legs >= 2
    assert a * b == _expected((alg, legs, a, b))


# -- carried legs: a left operand that is the unit on some legs ---------------


@st.composite
def embedded_products(draw):
    """A 2-leg tensor embedded at legs (1,2), (2,3) or (1,3) of three, so
    that the last, the first or the middle leg of the left operand is the
    unit, times a general 3-leg operand; and a general 3-leg pair of the
    same algebra.  Odd letters are drawn often, so carried legs are odd."""
    alg = ALGEBRAS[draw(st.sampled_from((1, 2)))]
    at = draw(st.sampled_from(((1, 2), (2, 3), (1, 3))))
    terms, cap = draw(_operand(alg, 2))
    x = UETensor(alg, terms, 2, cap).embed(at, 3)
    y, z, w = (
        UETensor(alg, t, 3, c) for t, c in (draw(_operand(alg, 3)) for _ in "yzw")
    )
    return alg, at, x, y, z, w


@given(embedded_products())
@settings(max_examples=150, deadline=None)
def test_carried_legs_match_reference(case):
    """The kernel carries the legs on which every left term is the unit:
    the product is the reference loop's, alone and summed with a general
    product in one accumulator."""
    alg, _, x, y, z, w = case
    want = _expected((alg, 3, x, y))
    got = x * y
    assert got == want and got.g2cap == want.g2cap
    diff = pbw.product_difference(x, y, z, w)
    assert diff == x * y - z * w and diff.g2cap == (x * y - z * w).g2cap


def test_carried_legs_negative_control():
    """A reference with the Koszul sign dropped disagrees with the kernel
    on some product whose first or middle leg is carried, so the
    comparison above can fail."""
    alg, _, x, y, _, _ = find(
        embedded_products(),
        lambda case: case[1] != (1, 2)
        and case[2] * case[3] != _expected((case[0], 3, case[2], case[3]), False),
        settings=settings(
            max_examples=2000, deadline=None, database=None,
            phases=(Phase.generate,),
        ),
    )
    assert x * y == _expected((alg, 3, x, y))


# -- products summed one grade slice at a time ----------------------------------


def _grade(alg, key):
    return sum(alg.g2(x) for m in key for x in m)


@st.composite
def _spread_terms(draw, alg, legs, kind):
    """2-6 terms whose leg monomials are drawn from every grade (the unit,
    odd letters, negative-grade letters, words of up to three letters),
    so that the terms fall into several per-leg grade classes."""
    odd = [ix for ix in range(alg.size) if alg.parity(ix)]
    letter = st.one_of(st.sampled_from(odd), st.integers(0, alg.size - 1))
    mono = st.lists(letter, max_size=3).map(lambda w: _normal_monomial(alg, w))
    return draw(st.dictionaries(
        st.tuples(*[mono] * legs), _coefficient(kind), min_size=2, max_size=6
    ))


@st.composite
def sliced_products(draw):
    """Two operands of 1, 2 or 3 legs with terms spread over several grade
    slices, each with its own coefficient kind; the first is often the
    embedding of one with a leg fewer, so that a leg is carried (the first,
    a middle or the last one).  The cap is none, or the grade of a drawn
    pair of terms, or one below it, and it sits on the first operand."""
    alg = ALGEBRAS[draw(st.sampled_from((1, 2)))]
    legs = draw(st.integers(1, 3))
    kinds = st.sampled_from(("fraction", "int", "poly"))
    at = None
    if legs > 1 and draw(st.booleans()):
        places = itertools.combinations(range(1, legs + 1), legs - 1)
        at = draw(st.sampled_from(list(places)))
    lt = draw(_spread_terms(alg, legs - 1 if at else legs, draw(kinds)))
    rt = draw(_spread_terms(alg, legs, draw(kinds)))
    if at:
        lt = {
            tuple(key[at.index(p)] if p in at else () for p in range(1, legs + 1)): c
            for key, c in lt.items()
        }
    pair = _grade(alg, draw(st.sampled_from(sorted(lt)))) + _grade(
        alg, draw(st.sampled_from(sorted(rt)))
    )
    cap = draw(st.one_of(st.none(), st.sampled_from((pair, pair - 1))))
    return alg, legs, UETensor(alg, lt, legs, cap), UETensor(alg, rt, legs)


@given(sliced_products())
@settings(max_examples=150, deadline=None)
def test_sliced_products_match_reference(case):
    """Every product is summed one per-leg grade slice at a time, over
    both products of a difference: a * b, b * a and their difference in
    one call are the reference loop's, whether a leg is carried or not,
    and a difference that cancels comes back zero."""
    alg, legs, a, b = case
    ab, ba = _expected(case), _expected((alg, legs, b, a))
    assert a * b == ab and b * a == ba
    diff = pbw.product_difference(a, b, b, a)
    assert diff == ab - ba and diff.g2cap == (ab - ba).g2cap
    assert pbw.product_difference(a, b, a, b).is_zero


def test_nonzero_residuals_match_golden_digests():
    """Residuals that do not vanish come through the slices whole: the
    cocycle residuals of the extension factor alone and of exp(H (x) X+)
    at n=2, degree 5, recorded with the kernel that summed each product
    into one accumulator."""
    h, x = (UEElement.generator(ALG, name, 10) for name in ("H", "X+"))
    objects = {
        "extension": tws.build_factor(ALG, "extension", 5),
        "exp(H (x) X+)": tws.Twist(UETensor.of(h, x, g2cap=10).exp(), ("exp",)),
    }
    golden = {
        "extension": (104, "b8e8a647e12443fc5ca5af48e31b3bd20a602215ad2acf4dd86cf419d6ca8174"),
        "exp(H (x) X+)": (35, "ffb7adcac67aa6a7ee36a92c912d3c529ce80f1e69643c609c900c59e3001f2d"),
    }
    got = {}
    for name, f in objects.items():
        residual = tws.cocycle_residual(f)
        got[name] = (len(residual.terms), _digest(residual))
    assert got == golden


def test_dropped_algebra_is_freed_without_the_cyclic_collector():
    """An algebra and its multiplication table form no reference cycle
    (the table names its algebra, and its id dict the table, weakly): with
    the collector off, a fresh algebra that formed a product leaves
    nothing for a collection once it is dropped."""
    gc.collect()
    gc.disable()
    try:
        alg = OspAlgebra(2)
        x = UEElement.generator(alg, "X+")
        assert not (x * x).is_zero
        assert pbw_table(alg).algebra is alg
        del alg, x
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


# -- a difference of two products in one accumulator ---------------------------


@st.composite
def product_differences(draw):
    """Four operands of one algebra and leg count, each with its own
    coefficient kind (so denominators, Polys and caps differ), some of
    them zero; one-leg draws are elements half of the time."""
    n = draw(st.sampled_from((1, 2)))
    legs = draw(st.integers(1, 3))
    alg = ALGEBRAS[n]
    ops = []
    for _ in range(4):
        terms, cap = draw(_operand(alg, legs))
        if draw(st.integers(0, 4)) == 0:
            terms = {}
        ops.append(UETensor(alg, terms, legs, cap))
    if legs == 1 and draw(st.booleans()):
        ops = [
            UEElement(alg, {k[0]: c for k, c in t.terms.items()}, t.g2cap)
            for t in ops
        ]
    return ops


@given(product_differences())
@example([UETensor.zero(ALG, 2, CAP)] * 4)
@settings(max_examples=60, deadline=None)
def test_product_difference_matches_two_products(ops):
    x, y, z, w = ops
    got, want = pbw.product_difference(x, y, z, w), x * y - z * w
    assert type(got) is type(want) and got.g2cap == want.g2cap
    assert dict(got.terms.items()) == dict(want.terms.items())
    if all(t.den is not None for t in ops):
        assert (got.den, got.data) == (want.den, want.data)
    assert pbw.product_difference(x, y, x, y).is_zero


def test_product_difference_on_unequal_denominators_and_caps():
    """Two 3-leg products over different denominators and caps: each
    product is put on the lcm of the two, the cut is the smallest cap."""
    t = UETensor.of(gen("v+"), gen("H"), gen("X+"), g2cap=CAP).scale(
        Fraction(1, 3)
    )
    u = UETensor.of(gen("w+"), gen("X+") + gen("J"), gen("v+"), g2cap=6)
    v = UETensor.of(gen("H", 5), gen("v+", 5), gen("J", 5)).scale(
        Fraction(5, 4)
    )
    got = pbw.product_difference(t, u, v, t)
    want = t * u - v * t
    assert got.g2cap == 5 == want.g2cap and not got.is_zero
    assert (got.den, got.data) == (want.den, want.data) and got.den == 12


def test_product_difference_refuses_what_the_operators_refuse():
    el, t, lie = term_kinds()
    for ops in ((el, el, el, t), (t, el, t, t), (t, t, lie, t)):
        with pytest.raises(HeterogeneousOperand):
            pbw.product_difference(*ops)
    three = UETensor.of(gen("H"), gen("H"), gen("v+"), g2cap=CAP)
    with pytest.raises(HeterogeneousOperand):
        pbw.product_difference(t, t, three, three)
    foreign = UETensor(OspAlgebra(2), dict(t.terms), 2, CAP)
    with pytest.raises(MixedAlgebra):
        pbw.product_difference(t, t, t, foreign)
    # a classical tensor has no product, as with ``*``
    with pytest.raises(TypeError):
        pbw.product_difference(lie, lie, lie, lie)


# -- the multiplication table ------------------------------------------------


def _odd_tensor(alg, cap=CAP):
    def g(name):
        return UEElement.generator(alg, name, g2cap=cap)

    return UETensor.of(g("v+") + g("X-"), g("w+") * g("v-") + g("H"), g2cap=cap)


def test_table_cleared_then_cold_product_equals_warm():
    alg = OspAlgebra(2)
    t = _odd_tensor(alg)
    u = t.flip() + t * t
    warm = t * u
    assert t * u == warm
    table = pbw_table(alg)
    sizes = table.sizes()
    assert sizes["products"] > 0 and sizes["insertions"] > 0
    assert table is pbw_table(alg)
    table.clear()
    # interning is append-only: t and u keep their monomials' ids
    assert table.sizes() == {
        "monomials": sizes["monomials"], "insertions": 0, "products": 0,
        "coproducts": 0,
    }
    assert t * u == warm
    assert 0 < table.sizes()["products"] <= sizes["products"]


def test_product_of_operands_from_two_compatible_instances():
    """Each instance keeps its own table and its terms are keyed in it,
    so operands of two instances, even of one rank, never combine."""
    a, b = _odd_tensor(OspAlgebra(2)), _odd_tensor(OspAlgebra(2)).flip()
    assert a.algebra is not b.algebra
    for combine in (
        lambda: a * b,
        lambda: a + b,
        lambda: a - b,
        lambda: UETensor.of(gen("H"), UEElement.generator(a.algebra, "H")),
    ):
        with pytest.raises(MixedAlgebra):
            combine()


def test_packing_width_overflow_raises(monkeypatch):
    """With 3-bit ids a packed key holds ids 0..7; a product that would
    pack a ninth monomial's id raises instead of wrapping onto a key
    already in use."""
    monkeypatch.setattr(pbw, "_ID_BITS", 3)
    alg = OspAlgebra(2)
    h = UEElement.generator(alg, "H")
    assert h * h == UEElement(alg, {(IDX["H"], IDX["H"]): 1})
    x = sum((UEElement.generator(alg, i) for i in range(6)), h)
    with pytest.raises(OverflowError):
        x * x


def test_the_ninth_id_under_three_bits_raises_and_leaves_the_table_consistent(
    monkeypatch,
):
    """The width is checked once, where a monomial is interned: with
    3-bit ids the ninth monomial raises before any list of the table
    grows, and raises again on the next try; the eight interned ones
    still build elements."""
    monkeypatch.setattr(pbw, "_ID_BITS", 3)
    alg = OspAlgebra(2)
    table = pbw_table(alg)
    for x in range(7):
        table.ids[(x,)]
    lists = ("monos", "g2", "par", "prefix", "units")

    def state():
        return {name: list(getattr(table, name)) for name in lists}, dict(table.ids)

    before = state()
    assert len(before[0]["monos"]) == 8
    for _ in range(2):
        with pytest.raises(OverflowError):
            table.ids[(7,)]
        assert state() == before
    with pytest.raises(OverflowError):
        normal_form(alg, (1, 0))
    assert all(table.ids[m] == i for i, m in enumerate(table.monos))
    for x in range(7):
        assert UEElement(alg, {(x,): 2}).terms == {(x,): 2}


def test_failed_interning_leaves_the_table_consistent():
    """A letter outside the basis raises before anything is interned, so
    later products on the same algebra are still read correctly."""
    alg = OspAlgebra(2)
    t = _odd_tensor(alg)
    table = pbw_table(alg)
    for bad in (
        lambda: UEElement(alg, {(alg.size,): 1}, g2cap=CAP),
        lambda: alg.g2(alg.size),
        lambda: normal_form(alg, (1, alg.size, 0)),
    ):
        with pytest.raises(IndexError):
            bad()
        assert all(alg.size not in m for m in table.ids)
        assert len(table.g2) == len(table.par) == len(table.monos)
        assert len(table.units) == len(table.ids) == len(table.monos)
    u = _odd_tensor(alg).flip()
    assert (t * u).terms == reference_product(ALG, t.terms, u.terms, 2, CAP)


def test_negative_letter_is_refused():
    """A negative letter raises instead of counting from the end of the
    basis (letter -1 would read the last basis element)."""
    for bad in (
        lambda: ALG.g2(-1),
        lambda: ALG.parity(-1),
    ):
        with pytest.raises(IndexError):
            bad()


def test_letter_outside_the_basis_is_refused_after_products():
    """Insertions are memoized under id * size + letter, so a letter equal
    to the basis size would read the entry of the next id times letter 0;
    normal ordering refuses it instead of returning that entry."""
    alg = OspAlgebra(2)
    x = UEElement(alg, {(3,): 1})
    assert pbw_table(alg).ids[(3,)] == 1
    x * UEElement.generator(alg, 0)  # memoizes (id 1) * letter 0
    for bad in (
        lambda: UEElement(alg, {(alg.size,): 1}),
        lambda: normal_form(alg, (alg.size,)),
    ):
        with pytest.raises(IndexError):
            bad()


# -- packed storage -----------------------------------------------------------


def _digest(t):
    """sha256 of the sorted decoded terms, one "key type value" line each."""
    lines = "\n".join(
        "%r %s %s" % (k, type(c).__name__, c) for k, c in sorted(t.terms.items())
    )
    return hashlib.sha256(lines.encode()).hexdigest()


def test_chain_objects_match_golden_digests():
    """F, its inverse, R, the product F12 (cop (x) id)(F) and the cocycle
    residual at n=2, degree 5: term counts and digests of the decoded
    terms, recorded with the Fraction-valued storage that preceded the
    packed one.  R R was recorded with the product kernel that walked the
    left operand term by term, before it grouped left terms by head."""
    f = tws.full_chain(ALG, 5)
    el, r = f.element, qt.universal_R(f).element
    objects = {
        "F": el,
        "F^-1": f.inverse,
        "R": r,
        "F12 (cop x id)F": el.embed((1, 2), 3) * el.coproduct_leg(1),
        "cocycle residual": tws.cocycle_residual(f),
        # the cocycle identity makes this the product above; its left
        # operand shares heads (F's first leg) across many terms
        "F23 (id x cop)F": el.embed((2, 3), 3) * el.coproduct_leg(2),
        # both operands share heads
        "R R": r * r,
    }
    golden = {
        "F": (1838, "a2e93d38ed3b0ccf0ae74ef2d3b4c895d0be136ffd5abb942c170b6aa70a07f0"),
        "F^-1": (1914, "660340b535d98e4bfdfb24c8b4d23c32c4ae3939195277950e5542bcefe213d8"),
        "R": (8019, "401615722fb413ca0f28f247fca19adb0c9927fe055d4905e1b0b8d3aa6b828f"),
        "F12 (cop x id)F": (51264, "62c7de3a29b7cc64f06d0b2d314da3009e39b7716ace3132f34d6e668feda447"),
        "cocycle residual": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "R R": (10564, "7cc4eb330c3f664fc0d772218f25608575e2c0a70a32d2726aa6e3ed8fb395ae"),
    }
    golden["F23 (id x cop)F"] = golden["F12 (cop x id)F"]
    got = {name: (len(t.terms), _digest(t)) for name, t in objects.items()}
    assert got == golden


def test_denominator_is_canonical():
    x = gen("X+")
    half = x.scale(Fraction(1, 2))
    assert half.den == 2 and half.data == {pbw_table(ALG).ids[(IDX["X+"],)]: 1}
    whole = half + half
    assert whole.den == 1 and whole == x
    assert (half - half).is_zero and (half - half).den == 1
    third = UEElement(ALG, {(IDX["H"],): Fraction(2, 3), (): Fraction(4, 9)})
    assert third.den == 9 and sorted(third.data.values()) == [4, 6]
    # no common factor survives a product, a scaling or a truncation
    assert half * x.scale(2) == x * x and (half * x.scale(2)).den == 1
    assert half.scale(4).den == 1 and third.scale(3).den == 3
    assert (third * x.scale(3)).den == 3
    assert third.truncate(0).den == 9 and third.truncate(-1).den == 1


def test_a_constant_element_hashes_like_the_scalar_it_equals():
    """An element that compares equal to a scalar hashes like it, so a set
    or dict holds the two as one."""
    one = UEElement.one(ALG)
    for element, scalar in (
        (one, 1),
        (UEElement.zero(ALG), 0),
        (one.scale(Fraction(1, 2)), Fraction(1, 2)),
    ):
        assert element == scalar
        assert hash(element) == hash(scalar)
        assert len({element, scalar}) == 1


def test_equal_tensors_from_different_routes_compare_and_hash_equal():
    v, w, h = gen("v+"), gen("w+"), gen("H")
    direct = UETensor.of(v + h.scale(Fraction(1, 3)), w, g2cap=CAP)
    summed = UETensor.of(v, w, g2cap=CAP) + UETensor.of(h, w, g2cap=CAP).scale(
        Fraction(1, 3)
    )
    via_terms = UETensor(ALG, dict(direct.terms), 2, CAP)
    flipped_twice = direct.flip().flip()
    for other in (summed, via_terms, flipped_twice):
        assert other == direct and hash(other) == hash(direct)
        assert (other.den, other.data) == (direct.den, direct.data)
    foreign = UETensor(OspAlgebra(2), dict(direct.terms), 2, CAP)
    assert foreign != direct


@given(products())
@settings(max_examples=60, deadline=None)
def test_terms_round_trip(case):
    alg, legs, a, b = case
    for t in (a, b, a * b, a - b):
        assert UETensor(alg, t.terms, legs, t.g2cap) == t
        assert len(t.terms) == len(dict(t.terms.items()))
        for key, c in t.terms.items():
            assert t.terms[key] == c and t.coefficient(key) == c


def test_terms_view_is_read_only_and_decodes_lookups():
    t = UETensor.of(gen("v+"), gen("H"), g2cap=CAP)
    key = ((IDX["v+"],), (IDX["H"],))
    assert dict(t.terms) == {key: Fraction(1)}
    assert key in t.terms and ((IDX["H"],), ()) not in t.terms
    assert t.terms.get(((), ((IDX["w+"],) * 3)), "absent") == "absent"
    with pytest.raises(TypeError):
        t.terms[key] = Fraction(2)


def test_poly_coefficient_tensors_through_the_kernel():
    """Poly coefficients stay Poly (den None) through products, sums and
    leg maps, and the products match the reference loop."""
    eta = Poly.var("eta")
    a = UETensor.of(gen("v+") + gen("X+"), gen("w+") + gen("H"), g2cap=CAP).scale(eta)
    b = UETensor.of(gen("H"), gen("v+"), g2cap=CAP) + a.flip().scale(Fraction(1, 2))
    assert a.den is None and b.den is None
    for x, y in ((a, b), (b, a), (a, a.flip())):
        got = x * y
        assert got.terms == reference_product(ALG, x.terms, y.terms, 2, CAP)
        assert all(isinstance(c, Poly) for c in got.terms.values())
    mixed = a * UETensor.of(gen("H"), gen("H"), g2cap=CAP)
    assert mixed.terms == reference_product(
        ALG, a.terms, UETensor.of(gen("H"), gen("H"), g2cap=CAP).terms, 2, CAP
    )
    assert (a - a).is_zero
    # a Poly tensor whose values cancel to rationals reads back as Fractions
    back = (a + UETensor.of(gen("H"), gen("H"), g2cap=CAP)) - a
    assert back == UETensor.of(gen("H"), gen("H"), g2cap=CAP)


def test_embed_places_every_leg():
    """Every choice of positions agrees with the tensor rebuilt from its
    decoded terms."""
    t = UETensor.of(
        gen("v+") + gen("H"), gen("w+") * gen("X+"), gen("Y+") + gen("J"), g2cap=CAP
    ) + UETensor.of(gen("U+"), gen("v+"), gen("H"), g2cap=CAP)
    for total in (3, 4, 5):
        for legs in itertools.combinations(range(1, total + 1), 3):
            want = {}
            for key, c in t.terms.items():
                full = [()] * total
                for pos, mono in zip(legs, key):
                    full[pos - 1] = mono
                want[tuple(full)] = c
            assert t.embed(legs, total).terms == want, legs


def test_to_matrix_leg_by_leg_matches_the_term_sum():
    """The leg-by-leg image equals the sum of one Kronecker product per
    term, on three legs (which checks that nesting the Kronecker products
    from the right agrees with kron_all's left nesting)."""
    from osptwist.repmat import GradedMatrix, kron_all, tensor_pv

    alg1 = build_osp(1)
    g = {name: UEElement.generator(alg1, name, g2cap=6) for name in ("H", "v+", "X+", "v-")}
    t = UETensor.of(g["v+"] + g["H"], g["v-"] + g["v+"], g["X+"] + g["v+"], g2cap=6)
    t = t + t.embed((1, 2, 3), 3).scale(Fraction(1, 3)) * t
    want: dict = {}
    for key, c in t.terms.items():
        for ij, x in kron_all([alg1.monomial_matrix(m) for m in key]).entries.items():
            want[ij] = want.get(ij, 0) + c * x
    assert t.to_matrix() == GradedMatrix(tensor_pv(alg1.pv, 3), want)


def test_capped_products_with_a_negative_grade_letter_do_not_associate():
    """The cut above the cap is an ideal only among grade-nonnegative
    letters: with X- (g2 -2) at cap 8 the two bracketings differ."""
    x_minus, y2, y3 = gen("X-"), gen("Y+") ** 2, gen("Y+") ** 3
    left, right = x_minus * (y2 * y3), (x_minus * y2) * y3
    assert left.is_zero
    assert right == UEElement(ALG, {(IDX["Y+"],) * 5 + (IDX["X-"],): 1}, CAP)
    assert left != right


def test_split_first_leg_sums_back():
    t = UETensor.of(gen("v+") + gen("H"), gen("w+").scale(Fraction(1, 3)), g2cap=CAP)
    t = t * t.flip() + UETensor.of(gen("X+"), gen("H"), g2cap=CAP)
    pieces = t.split_first_leg()
    assert all(isinstance(rest, UEElement) for rest in pieces.values())
    total = UETensor.zero(ALG, 2, CAP)
    for mono, rest in pieces.items():
        total = total + UETensor.of(UEElement(ALG, {mono: 1}, CAP), rest, g2cap=CAP)
    assert total == t
    three = t.embed((1, 3), 3)
    assert all(rest.legs == 2 for rest in three.split_first_leg().values())
    # under a first leg of negative grade the other legs can pass the cap:
    # X- (x) Y+^5 has grade 4 at cap 8, but Y+^5 alone has grade 5
    x_minus, y_plus = IDX["X-"], IDX["Y+"]
    low = UETensor(
        ALG,
        {((x_minus,), (y_plus,) * 5): 1, ((x_minus,), (y_plus,) * 4): 3},
        2,
        CAP,
    )
    assert len(low.terms) == 2
    rest = low.split_first_leg()[(x_minus,)]
    assert rest == UEElement(ALG, {(y_plus,) * 4: 3, (y_plus,) * 5: 1}, CAP)
    assert rest == 3 * gen("Y+") ** 4 and rest.terms == {(y_plus,) * 4: 3}
    with pytest.raises(HeterogeneousOperand):
        UETensor.zero(ALG, 1).one_like().split_first_leg()


def test_keys_out_of_normal_order_are_rewritten_by_constructors():
    """A constructor normal-orders a key given out of order, so the built
    element is its normal form and equals its own product with 1."""
    h, v, w, x = IDX["H"], IDX["v+"], IDX["w+"], IDX["X+"]
    one = UEElement.one(ALG, CAP)
    for word in ((v, v), (w, x), (x, v, h), (w, v, v)):
        e = UEElement(ALG, {word: 2}, CAP)
        want = {m: 2 * c for m, c in normal_form(ALG, word).items()}
        assert e.terms == want
        assert word not in e.terms
        assert e == e * one and e == one * e
        assert e * gen("v+") == UEElement(ALG, normal_form(ALG, word + (v,)), CAP).scale(2)
        assert gen("X+") * e == UEElement(ALG, normal_form(ALG, (x,) + word), CAP).scale(2)
    t = UETensor(ALG, {((v, v), (w, x)): 1}, 2, CAP)
    want = UETensor.of(
        UEElement(ALG, normal_form(ALG, (v, v)), CAP),
        UEElement(ALG, normal_form(ALG, (w, x)), CAP),
    )
    assert t == want and t == t * t.one_like()


# -- one term algebra: kinds, scalars, units -------------------------------------


def term_kinds():
    h = gen("H")
    return (
        h + gen("X+"),
        UETensor.of(h, gen("v+"), g2cap=CAP),
        LieTensor(ALG, 2, {(IDX["H"], IDX["X+"]): 1}),
    )


def test_mixed_kinds_are_refused_in_either_order():
    """An element, a tensor and a classical tensor never add or multiply
    with one another, whichever comes first."""
    for a, b in itertools.permutations(term_kinds(), 2):
        with pytest.raises(HeterogeneousOperand):
            a + b
        with pytest.raises(HeterogeneousOperand):
            a * b


def test_scalar_plus_element_or_tensor_is_a_multiple_of_one():
    """A classical tensor has no unit, so it takes no scalar summand."""
    for x in term_kinds()[:2]:
        for c in (3, Fraction(-1, 2), Poly.var("a")):
            want = x.one_like().scale(c) + x
            assert c + x == want and x + c == want
            assert (x + c).constant_coefficient() == c
    lie = term_kinds()[2]
    with pytest.raises(HeterogeneousOperand):
        lie.one_like()
    with pytest.raises(TypeError):
        lie + 1


def _rep_unit():
    return GradedMatrix(ALG.pv, {(0, 1): 1})


CROSS_KIND = {
    "matrix + lie": lambda m, x, lie: m + lie,
    "lie + matrix": lambda m, x, lie: lie + m,
    "matrix - lie": lambda m, x, lie: m - lie,
    "lie - matrix": lambda m, x, lie: lie - m,
    "element * matrix": lambda m, x, lie: x * m,
    "matrix * element": lambda m, x, lie: m * x,
    "element.scale(matrix)": lambda m, x, lie: x.scale(m),
    "matrix.scale(element)": lambda m, x, lie: m.scale(x),
    "lie * matrix": lambda m, x, lie: lie * m,
    "matrix * lie": lambda m, x, lie: m * lie,
    "element + matrix": lambda m, x, lie: x + m,
    "matrix + element": lambda m, x, lie: m + x,
}


@pytest.mark.parametrize("op", CROSS_KIND.values(), ids=list(CROSS_KIND))
def test_a_matrix_and_a_term_algebra_never_combine(op):
    """A matrix and an element or classical tensor neither add nor
    multiply, in either order: TypeError, never a stored coefficient or
    an endless recursion of reflected operators."""
    x, _, lie = term_kinds()
    with pytest.raises(TypeError):
        op(_rep_unit(), x, lie)


@pytest.mark.parametrize(
    "c", [2, Fraction(-3, 2), Poly.var("a")], ids=["int", "Fraction", "Poly"]
)
def test_a_scalar_scales_every_kind_from_both_sides(c):
    for x in term_kinds() + (_rep_unit(),):
        assert c * x == x * c == x.scale(c)


def test_tensor_of_takes_elements_only():
    """A factor that is a tensor or a classical tensor is refused instead
    of having its packed key overlapped with the others'."""
    x, h = gen("X+"), gen("H")
    lie = LieTensor(ALG, 1, {(IDX["X+"],): 1})
    for factors in (
        (UETensor.of(x, h), x), (x, UETensor.of(x, h)), (lie, x), (x, lie)
    ):
        with pytest.raises(HeterogeneousOperand):
            UETensor.of(*factors)


def test_coefficient_accepts_list_keys():
    h, x = IDX["H"], IDX["X+"]
    el = UEElement(ALG, {(h, x): 3}, CAP)
    t = UETensor(ALG, {((h,), (x, x)): 5}, 2, CAP)
    lie = LieTensor(ALG, 2, {(h, x): 7})
    assert el.coefficient([h, x]) == 3 and el.coefficient([x]) == 0
    assert t.coefficient([[h], [x, x]]) == 5 and t.coefficient([[h]]) == 0
    assert lie.coefficient([h, x]) == 7 and lie.coefficient([x, h]) == 0


@pytest.mark.parametrize("cap", [CAP, 0, None])
def test_one_like_is_the_unit_at_the_same_cap(cap):
    el = gen("v+", cap)
    assert el.one_like() == UEElement.one(ALG, cap)
    assert el.one_like().g2cap == cap
    for legs in (1, 2, 3):
        t = UETensor.of(*[el] * legs)
        assert t.one_like() == UETensor(ALG, {((),) * legs: 1}, legs, cap)
        assert t.one_like().g2cap == cap


# -- coproducts dealt out, and operands grouped once ----------------------------


@st.composite
def dealt_monomials(draw):
    """A normal-ordered monomial of n=1 or n=2, its letters drawn mostly
    odd, each even letter in a run of 1-4, and a leg count of 2 or 3."""
    alg = ALGEBRAS[draw(st.sampled_from((1, 2)))]
    odd = [ix for ix in range(alg.size) if alg.parity(ix)]
    letter = st.one_of(st.sampled_from(odd), st.integers(0, alg.size - 1))
    letters = draw(st.lists(letter, min_size=1, max_size=4, unique=True))
    mono = ()
    for x in sorted(letters):
        mono += (x,) * (1 if alg.parity(x) else draw(st.integers(1, 4)))
    return alg, mono, draw(st.sampled_from((2, 3)))


def _primitive_product(alg, mono, legs):
    """The product, formed by ``*``, of each letter's primitive tensor
    x (x) 1 (x) ... + ... + 1 (x) ... (x) x."""
    one = UEElement.one(alg)
    out = UETensor.zero(alg, legs).one_like()
    for x in mono:
        g = UEElement.generator(alg, x)
        out = out * sum(
            (UETensor.of(*[g if i == l else one for i in range(legs)])
             for l in range(1, legs)),
            UETensor.of(*[g] + [one] * (legs - 1)),
        )
    return out


def _dealt(alg, mono, legs, signed=True):
    """The table's coproduct of one monomial as a tensor; ``signed=False``
    drops every sign, which only odd letters give."""
    table = pbw_table(alg)
    pairs = table.coproduct(table.ids[mono], legs)
    data = {k: c if signed else abs(c) for k, c in pairs}
    return UETensor._wrap(alg, data, 1, legs, None)


@given(dealt_monomials())
@settings(max_examples=120, deadline=None)
def test_dealt_coproduct_is_the_product_of_primitives(case):
    alg, mono, legs = case
    want = _primitive_product(alg, mono, legs)
    assert _dealt(alg, mono, legs) == want
    assert UEElement(alg, {mono: 3}).coproduct(legs) == want.scale(3)


def test_dealt_coproduct_negative_control():
    """With the odd letters' signs dropped, the deal of w+ v+ (the normal
    order of v+ and w+) is not the product of their primitives."""
    mono = (IDX["w+"], IDX["v+"])
    for legs in (2, 3):
        want = _primitive_product(ALG, mono, legs)
        assert _dealt(ALG, mono, legs) == want
        assert _dealt(ALG, mono, legs, signed=False) != want


def test_cold_coproduct_fill_forms_no_product(monkeypatch):
    """A fresh algebra fills its coproduct table without the product
    kernel."""
    def refuse(*args):
        raise AssertionError("the coproduct fill called the product kernel")

    alg = OspAlgebra(2)
    h, v, w, x = (alg.generator_index(s) for s in ("H", "v+", "w+", "X+"))
    mono = tuple(sorted((h, h, h, v, w, x, x)))
    el = UEElement(alg, {mono: 1, (v,): 2})
    monkeypatch.setattr(pbw, "_mul", refuse)
    pieces = [el.coproduct(), el.coproduct(3), el.coproduct().coproduct_leg(2)]
    # the last one deals out every monomial of the second leg
    assert pbw_table(alg).sizes()["coproducts"] > 4
    monkeypatch.undo()
    assert pieces[1] == pieces[2] == 2 * _primitive_product(
        alg, (v,), 3
    ) + _primitive_product(alg, mono, 3)


def _reference(a, b, legs):
    return UETensor(a.algebra, reference_product(
        a.algebra, a.terms, b.terms, legs, _cap(a, b)
    ), legs, _cap(a, b))


@pytest.mark.parametrize("left_first", [True, False])
def test_operand_groupings_are_kept_per_role_and_layout(monkeypatch, left_first):
    """One operand, used as the left and as the right factor, under the
    2-leg layout and under both carried 3-leg layouts (F12 = t (x) 1 and
    F23 = 1 (x) t), and through a truncated copy sharing its data: each
    product is the reference loop's, whichever role comes first, and a
    role and layout met before is not grouped again."""
    walks = []
    for name in ("_walk_left", "_walk_right"):
        def counted(*args, _walk=getattr(pbw, name), _name=name):
            walks.append(_name)
            return _walk(*args)
        monkeypatch.setattr(pbw, name, counted)

    t = _odd_tensor(ALG)
    u = t.flip() + UETensor.of(gen("w+"), gen("v+") + gen("H"), g2cap=CAP)
    z = t.embed((1, 3), 3) * UETensor.of(gen("v+"), gen("J"), gen("w+"), g2cap=CAP) + (
        UETensor.of(gen("H"), gen("w+"), gen("v-"), g2cap=CAP)
    )
    f12, f23 = t.embed((1, 2), 3), t.embed((2, 3), 3)
    same = z.truncate(CAP)
    assert same is not z and same.data is z.data
    pairs = [(t, u), (u, t), (t, t), (z, f12), (f12, z), (f23, z), (z, z),
             (f12, same), (same, f23), (z, f23)]
    if not left_first:
        pairs = [(b, a) for a, b in pairs]
    for a, b in pairs:
        assert a * b == _reference(a, b, a.legs)
    # z was grouped once as the left factor and once under each layout
    walks.clear()
    for a, b in ((z, z), (f12, z), (f23, z), (t, u), (u, t)):
        assert a * b == _reference(a, b, a.legs)
    assert walks == []


def test_walked_operand_is_freed_without_the_cyclic_collector():
    """The groupings an operand keeps refer to nothing that refers back
    to it: with the collector off, operands walked in both roles and
    under a carried layout leave nothing for a collection once dropped."""
    gc.collect()
    gc.disable()
    try:
        t = _odd_tensor(ALG)
        u = t.flip()
        f12 = t.embed((1, 2), 3)
        z = f12 * u.embed((2, 3), 3)
        assert not (t * u).is_zero and not (u * t).is_zero
        assert not (f12 * z).is_zero and not (z * f12).is_zero
        assert t._walks and u._walks and z._walks and f12._walks
        del t, u, f12, z
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


# -- products split with a forked child -----------------------------------------


@contextlib.contextmanager
def _split_everything():
    """Every product split: the threshold at 0 and four CPUs in the
    affinity mask, of which a call uses two, so one child sums a share
    and its new ids collide with this process's.  Yields a record of the
    forks made here and of each child's monomials as it is adopted:
    (the number the child interned, whether one of them collided)."""
    record = {"forks": [], "adopted": []}
    fork, adopt = os.fork, pbw._adopt

    def counted_fork():
        pid = fork()
        if pid:
            record["forks"].append(pid)
        return pid

    def spied_adopt(table, legs, n0, monos, accs):
        clash = any(
            i < len(table.monos) and table.monos[i] != m
            for i, m in enumerate(monos, n0)
        )
        record["adopted"].append((len(monos), clash))
        adopt(table, legs, n0, monos, accs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pbw, "_FORK_PAIRS", 0)
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        mp.setattr(os, "fork", counted_fork)
        mp.setattr(pbw, "_adopt", spied_adopt)
        yield record


def _no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _stored(t):
    """What a product stores, in its order: denominator, cap, items."""
    return t.den, t.g2cap, list(t.data.items())


def _split_then_serial(products):
    """Each thunk's result split, then serial on the now warm table."""
    with _split_everything() as record:
        split = [product() for product in products]
    _no_child_left()
    return split, [product() for product in products], record


@given(sliced_products())
@settings(max_examples=40, deadline=None)
def test_split_products_store_what_the_serial_loop_stores(case):
    """1-, 2- and 3-leg products and differences, with a leg carried or
    not, and Fraction, int and Poly coefficients: split with a child,
    each stores the serial loop's data, denominator and key order, and
    the reference loop's terms."""
    alg, legs, a, b = case
    split, serial, _ = _split_then_serial([
        lambda: a * b, lambda: b * a, lambda: pbw.product_difference(a, b, b, a),
    ])
    assert list(map(_stored, split)) == list(map(_stored, serial))
    assert split[0] == _expected(case)


@given(embedded_products())
@settings(max_examples=30, deadline=None)
def test_split_products_with_carried_legs_store_what_the_serial_loop_stores(case):
    alg, _, x, y, z, w = case
    split, serial, _ = _split_then_serial([
        lambda: x * y, lambda: pbw.product_difference(x, y, z, w),
    ])
    assert list(map(_stored, split)) == list(map(_stored, serial))
    assert split[0] == _expected((alg, 3, x, y))


def test_split_products_of_poly_and_series_coefficients():
    """Poly and LaurentSeries coefficients cross the pipe as they are."""
    eta = Poly.var("eta")
    q = LaurentSeries("t", -1, [1, Fraction(1, 2)], order=3)
    a = UETensor.of(gen("v+") + gen("X+"), gen("w+") + gen("H"), g2cap=CAP).scale(eta)
    b = UETensor.of(gen("H"), gen("v+"), g2cap=CAP) + a.flip().scale(Fraction(1, 2))
    s = a.scale(q)
    pairs = [(a, b), (b, a), (s, b), (b, s), (s, s.flip())]
    split, serial, record = _split_then_serial(
        [lambda x=x, y=y: x * y for x, y in pairs]
    )
    assert record["forks"]
    assert list(map(_stored, split)) == list(map(_stored, serial))
    for (x, y), got in zip(pairs, split):
        assert got.terms == reference_product(ALG, x.terms, y.terms, 2, CAP)
    assert all(isinstance(c, LaurentSeries) for c in split[2].terms.values())


def test_split_product_on_a_cold_table_reads_every_child_monomial():
    """On a fresh algebra, each child interns monomials that collide
    with the ids this process interns meanwhile; every one is interned
    here once, and the products decode to the reference loop's terms."""
    alg = OspAlgebra(2)
    t = _odd_tensor(alg)
    u = t.flip() + UETensor.of(
        *[UEElement.generator(alg, n, CAP) for n in ("w+", "Y+")], g2cap=CAP
    )
    with _split_everything() as record:
        products = [(x, y, x * y) for x, y in ((t, u), (u, t), (t, t))]
        products.append((t * u, u, (t * u) * u))
    _no_child_left()
    assert record["forks"]
    assert sum(n for n, _ in record["adopted"]) > 0
    assert any(clash for _, clash in record["adopted"])
    table = pbw_table(alg)
    assert all(table.ids[m] == i for i, m in enumerate(table.monos))
    assert len(table.g2) == len(table.par) == len(table.units) == len(table.monos)
    for x, y, got in products:
        assert got.terms == reference_product(alg, x.terms, y.terms, 2, CAP)


@pytest.mark.parametrize("where", ["child", "both"])
def test_overflow_in_a_share_is_raised_here_and_no_child_outlives_it(
    monkeypatch, where
):
    """test_packing_width_overflow_raises with the product split: the
    OverflowError of a child that sums every slice reaches this process
    with its type, and when this process raises first, the child is
    stopped.  Either way no child is left, and the table still answers."""
    monkeypatch.setattr(pbw, "_ID_BITS", 3)
    alg = OspAlgebra(2)
    h = UEElement.generator(alg, "H")
    x = sum((UEElement.generator(alg, i) for i in range(6)), h)
    mine = {"child": lambda w: [], "both": sorted}[where]
    with _split_everything() as record:
        monkeypatch.setattr(pbw, "_shares", lambda w: [mine(w), sorted(w)])
        with pytest.raises(OverflowError):
            x * x
    _no_child_left()
    assert len(record["forks"]) == 1
    assert h * h == UEElement(alg, {(IDX["H"], IDX["H"]): 1})


def test_a_call_splits_in_two_whatever_the_cpu_count(monkeypatch):
    """Eight CPUs in the mask still make two shares, balanced by pairs,
    that partition the slices, each in slice order."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    weights = {s: w for s, w in enumerate([5, 1, 4, 1, 3, 2, 2, 6])}
    shares = pbw._shares(weights)
    assert len(shares) == 2
    assert sorted(shares[0] + shares[1]) == sorted(weights)
    assert all(share == sorted(share) for share in shares)
    assert [sum(weights[s] for s in share) for share in shares] == [12, 12]


@pytest.mark.parametrize("how", ["unpicklable sums", "killed"])
def test_child_that_ends_without_its_result_raises_child_process_error(
    monkeypatch, how
):
    """A child whose sums cannot be pickled sends the reason and exits 1;
    one killed before it writes sends nothing.  Either way this process
    checks the exit status before it unpickles, raises ChildProcessError
    (with the child's reason as its cause), and no child is left."""
    import pickle
    import signal

    parent = os.getpid()
    if how == "killed":
        slice_sums = pbw._slice_sums

        def dying(table, prepared, slices):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return slice_sums(table, prepared, slices)

        monkeypatch.setattr(pbw, "_slice_sums", dying)
    else:
        dumps = pickle.dumps

        def refusing(obj, *args):
            if isinstance(obj, tuple):
                raise pickle.PicklingError("refused")
            return dumps(obj, *args)

        monkeypatch.setattr(pickle, "dumps", refusing)
    t = _odd_tensor(ALG)
    u = t.flip() + t
    with _split_everything() as record:
        with pytest.raises(ChildProcessError) as raised:
            t * u
    _no_child_left()
    assert len(record["forks"]) == 1
    cause = raised.value.__cause__
    if how == "killed":
        assert "status -%d" % signal.SIGKILL in str(raised.value)
        assert cause is None
    else:
        assert "status 1" in str(raised.value)
        assert isinstance(cause, RuntimeError) and "refused" in str(cause)
    monkeypatch.undo()
    assert t * u == _reference(t, u, 2)


@pytest.mark.parametrize("why", ["one CPU", "a second thread", "a failed fork"])
def test_serial_loop_is_taken_without_a_fork(monkeypatch, why):
    """One CPU in the affinity mask, or a second live thread (which a
    forked child would not have), keeps every product in this process
    without a fork; a fork that fails leaves its share here."""
    forks = []

    def refuse():
        forks.append(why)
        if why == "a failed fork":
            raise BlockingIOError(11, "Resource temporarily unavailable")
        raise AssertionError("forked")

    monkeypatch.setattr(pbw, "_FORK_PAIRS", 0)
    monkeypatch.setattr(os, "fork", refuse)
    cpus = {0} if why == "one CPU" else {0, 1}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if why == "a second thread":
        thread.start()
    try:
        t = _odd_tensor(ALG)
        u = t.flip() + t
        assert t * u == _reference(t, u, 2)
        assert pbw.product_difference(t, u, u, t) == t * u - u * t
    finally:
        stop.set()
    if why == "a second thread":
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert bool(forks) == (why == "a failed fork")
    _no_child_left()
