"""Exact scalar towers: multivariate polynomials and Laurent series."""

from fractions import Fraction
from functools import partial
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from osptwist.scalars import (
    Poly,
    LaurentSeries,
    fraction_sqrt,
    taylor_exp,
    taylor_log1p,
    taylor_geometric,
    taylor_binomial,
)
from osptwist.errors import (
    ConstantTermPresent,
    DivisionByNonUnit,
    IrrationalExpansionPoint,
    NonInvertibleLeadingCoefficient,
)


fractions = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)


def small_polys(names=("a", "b")):
    """Polynomials with tiny support, enough to exercise the ring ops."""
    monos = st.tuples(
        st.sampled_from(names), st.integers(min_value=0, max_value=3)
    )
    term = st.tuples(monos, fractions)
    return st.lists(term, max_size=4).map(
        lambda ts: sum(
            (Poly.var(n, exponent=e, coefficient=c) for (n, e), c in ts),
            Poly.zero(),
        )
    )


# -- Poly ----------------------------------------------------------------------


def test_poly_constants_and_vars():
    assert not Poly.zero()
    assert Poly.const(Fraction(3, 2)).as_fraction() == Fraction(3, 2)
    a = Poly.var("a")
    assert not a.is_constant
    assert str(a) == "a"
    assert not (a - a)
    assert Poly.var("a", exponent=2, coefficient=3).coefficient("a", 2) == Poly.const(3)


def test_a_ring_with_no_series_refuses_exp_and_log():
    """Poly has no series entry of its own: exp, log and series refuse it
    with a TypeError that names the type."""
    x = Poly.var("x")
    for call in (x.exp, x.log, partial(x.series, taylor_exp)):
        with pytest.raises(TypeError, match="Poly"):
            call()


def test_poly_arithmetic_known_values():
    a, b = Poly.var("a"), Poly.var("b")
    p = (a + b) * (a - b)
    assert p == a * a - b * b
    q = (a + 1) ** 3
    assert q.coefficient("a", 2).as_fraction() == 3
    assert q.coefficient("a", 0).as_fraction() == 1
    assert evaluate(q, {"a": Fraction(1)}) == 8


def test_poly_coefficient_extraction_keeps_other_vars():
    a, b = Poly.var("a"), Poly.var("b")
    p = a * b + 2 * a + 5
    assert p.coefficient("a", 1) == b + 2
    assert p.coefficient("a", 0).as_fraction() == 5


def test_poly_monomial_unit_inverse():
    m = Poly.var("a", exponent=2, coefficient=Fraction(3, 4))
    minv = m.inverse()
    assert (m * minv).as_fraction() == 1
    with pytest.raises(DivisionByNonUnit):
        (Poly.var("a") + 1).inverse()
    with pytest.raises(DivisionByNonUnit):
        Poly.zero().inverse()


def test_poly_division_by_constant():
    a = Poly.var("a")
    assert (a * 6) / 3 == a * 2
    assert a / Fraction(1, 2) == a * 2


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_poly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p + Poly.zero() == p
    assert p * Poly.const(1) == p


@given(small_polys(), fractions.filter(bool))
@settings(max_examples=60, deadline=None)
def test_poly_scaling_and_negation_match_a_fresh_poly(p, c):
    """A nonzero rational scaling and a negation keep every variable; the
    results equal, store and hash like the Poly built from their terms."""
    for got, coeffs in (
        (p * c, {e: v * c for e, v in p.coeffs.items()}),
        (c * p, {e: c * v for e, v in p.coeffs.items()}),
        (p * 3, {e: v * 3 for e, v in p.coeffs.items()}),
        (-p, {e: -v for e, v in p.coeffs.items()}),
    ):
        fresh = Poly(p.vars, coeffs)
        assert got == fresh and hash(got) == hash(fresh)
        assert (got.vars, got.coeffs) == (fresh.vars, fresh.coeffs)
        assert all(type(v) is int or v.denominator != 1 for v in got.coeffs.values())


def test_laurent_product_drops_a_cancelled_variable():
    x, y = Poly.var("x"), Poly.var("y")
    one = x * Poly.var("x", -1)
    assert one.vars == () and one == Poly.const(1) and hash(one) == hash(1)
    p = (x * y * 2) * Poly.var("x", -1)
    assert p.vars == ("y",) and p == y * 2
    assert (x * Poly.var("x", -1) + y).vars == ("y",)


def evaluate(p, point):
    """The exact value of ``p`` at a point that assigns every variable."""
    total = Fraction(0)
    for e, c in p.coeffs.items():
        for name, k in zip(p.vars, e):
            c *= point[name] ** k
        total += c
    return total


@given(small_polys())
@settings(max_examples=40, deadline=None)
def test_poly_evaluate_is_homomorphism(p):
    point = {"a": Fraction(2, 3), "b": Fraction(-1, 2)}
    q = p * p + 3 * p
    lhs = evaluate(q, point)
    v = evaluate(p, point)
    assert lhs == v * v + 3 * v


# -- LaurentSeries -------------------------------------------------------------


def t_series(order=8):
    return LaurentSeries("t", 1, [1], order)


def test_series_basic_arithmetic():
    t = t_series()
    one = LaurentSeries.const("t", 1, order=8)
    s = (one + t) * (one - t)
    assert s == one - t * t
    assert s.coefficient(2) == -1
    assert s.coefficient(1) == 0


def test_series_valuation_and_shift():
    t = t_series()
    assert t.valuation == 1
    assert t.shift(-3).valuation == -2
    assert t.shift(2) == t * t * t


def test_series_geometric_inverse():
    one = LaurentSeries.const("t", 1, order=6)
    g = (one - t_series(6)).invert()
    for k in range(6):
        assert g.coefficient(k) == 1


def test_series_invert_with_pole():
    # 1/(t - t^2) = t^-1 * 1/(1-t) = t^-1 + 1 + t + ...
    t = t_series(6)
    s = (t - t * t).invert()
    assert s.valuation == -1
    assert s.coefficient(-1) == 1
    assert s.coefficient(0) == 1
    assert s.coefficient(1) == 1


def test_series_invert_zero_raises():
    with pytest.raises(NonInvertibleLeadingCoefficient):
        LaurentSeries.zero("t", order=4).invert()


def test_series_exp_log_roundtrip():
    t = t_series()
    x = t + t * t  # positive valuation, no constant term
    assert x.exp().log() == x.truncate(8)
    assert (x.exp() * (-x).exp()).truncate(8) == LaurentSeries.const(
        "t", 1, order=8
    ).truncate(8)


def test_a_zero_series_sums_to_its_first_coefficient_at_its_order():
    """exp(0) = 1 and log(1) = 0, known exactly as far as the argument
    is; an argument known only below t**0 may have a constant term."""
    for order in (None, 1, 3):
        zero, one = LaurentSeries.zero("t", order), LaurentSeries.const("t", 1, order)
        assert zero.exp() == one
        assert one.log() == zero
        assert one.log().order == order
    for order in (-2, 0):
        with pytest.raises(ConstantTermPresent):
            LaurentSeries.zero("t", order).exp()
        with pytest.raises(ConstantTermPresent):
            LaurentSeries.const("t", 1, order).log()


def test_series_exp_requires_no_constant_term():
    s = LaurentSeries.const("t", 1, order=8) + t_series()
    with pytest.raises(ConstantTermPresent):
        s.exp()
    with pytest.raises(ConstantTermPresent):
        t_series().log()  # log needs leading 1, not leading t
    exact_t = LaurentSeries("t", 1, [1])
    for infinite in (exact_t.exp, (exact_t + 1).log):
        with pytest.raises(ValueError) as excinfo:
            infinite()
        assert excinfo.type is ValueError


def test_series_from_poly_roundtrip():
    p = Poly.var("t", exponent=2, coefficient=5) + 7
    s = LaurentSeries.from_poly(p, "t", order=6)
    assert s.coefficient(0) == 7
    assert s.coefficient(2) == 5


@given(
    st.lists(fractions, min_size=1, max_size=4),
    st.lists(fractions, min_size=1, max_size=4),
)
@settings(max_examples=50, deadline=None)
def test_series_product_commutes(cs, ds):
    a = sum(
        (LaurentSeries("t", k, [c], 6) for k, c in enumerate(cs)),
        LaurentSeries.zero("t", order=6),
    )
    b = sum(
        (LaurentSeries("t", k, [c], 6) for k, c in enumerate(ds)),
        LaurentSeries.zero("t", order=6),
    )
    assert a * b == b * a
    assert (a + b) - b == a.truncate(6)


def test_equal_scalars_hash_equal_across_the_tower():
    assert len({Poly.const(2), Fraction(2), LaurentSeries.const("t", 2)}) == 1
    p = Poly.var("t", -1) * Poly.var("a") + 3
    assert len({p, LaurentSeries.from_poly(p, "t")}) == 1


# -- LaurentSeries against a dense coefficient-list reference -----------------
#
# A reference series is (min_deg, coefficient list, order): dense lists
# over the powers of the series variable, with leading and trailing zeros
# stripped, nothing at or beyond the order and constant Polys as
# Fractions, combined by sums and convolutions over the lists.


def _omin(a, b):
    return b if a is None else a if b is None else min(a, b)


def _dense(m, cs, order):
    cs = [
        c.as_fraction() if isinstance(c, Poly) and c.is_constant
        else c if isinstance(c, Poly) else Fraction(c)
        for c in cs
    ]
    while cs and not cs[0]:
        cs.pop(0)
        m += 1
    if order is not None:
        cs = cs[: max(0, order - m)]
    while cs and not cs[-1]:
        cs.pop()
    return (m if cs else 0, cs, order)


def _ref_add(x, y):
    (ma, ca, oa), (mb, cb, ob) = x, y
    lo = min(ma, mb)
    out = [Fraction(0)] * (max(ma + len(ca), mb + len(cb)) - lo)
    for m, cs in ((ma, ca), (mb, cb)):
        for i, c in enumerate(cs):
            out[m - lo + i] = out[m - lo + i] + c
    return _dense(lo, out, _omin(oa, ob))


def _ref_neg(x):
    m, cs, order = x
    return (m, [-c for c in cs], order)


def _ref_mul(x, y):
    (ma, ca, oa), (mb, cb, ob) = x, y
    if (not ca and oa is None) or (not cb and ob is None):
        return (0, [], None)
    va, vb = (ma if ca else oa), (mb if cb else ob)
    order = _omin(
        None if oa is None else oa + vb, None if ob is None else ob + va
    )
    out = [Fraction(0)] * max(len(ca) + len(cb) - 1, 0)
    for i, a in enumerate(ca):
        for j, b in enumerate(cb):
            out[i + j] = out[i + j] + a * b
    return _dense(ma + mb, out, order)


def _ref_shift(x, k):
    m, cs, order = x
    return _dense(m + k, cs, None if order is None else order + k)


def _ref_invert(x):
    """The geometric expansion of 1/(lead t^m (1 + y)); None where the
    inverse does not exist."""
    m, cs, order = x
    if not cs:
        return None
    lead = cs[0]
    if isinstance(lead, Poly):
        if len(lead.coeffs) != 1:
            return None
        lead_inv = lead.inverse()
    else:
        lead_inv = 1 / lead
    if order is None:
        return (-m, [lead_inv], None) if len(cs) == 1 else None
    known = order - m
    y = _dense(1, [lead_inv * c for c in cs[1:]], known)
    acc = y_k = _dense(0, [1], known)
    for c in islice(taylor_geometric(), 1, max(known, 0) + 1):
        y_k = _ref_mul(y_k, y)
        if not y_k[1]:
            break
        acc = _ref_add(acc, _ref_mul((0, [c], None), y_k))
    return _ref_mul(_ref_shift(acc, -m), _dense(0, [lead_inv], None))


def _assert_matches(got, ref):
    m, cs, order = ref
    assert got.order == order
    assert got.min_deg == m and got.valuation == (m if cs else None)
    for k in range(m - 2, m + len(cs) + 2):
        if order is not None and k >= order:
            break
        want = cs[k - m] if m <= k < m + len(cs) else Fraction(0)
        c = got.coefficient(k)
        assert c == want and type(c) is type(want)
    assert got == LaurentSeries("t", m, cs, order)


@st.composite
def dense_series(draw):
    m = draw(st.integers(min_value=-2, max_value=2))
    cs = draw(
        st.lists(
            st.one_of(fractions, st.just(Fraction(0)), small_polys()),
            max_size=4,
        )
    )
    order = draw(st.one_of(st.none(), st.integers(min_value=-2, max_value=7)))
    return LaurentSeries("t", m, cs, order), _dense(m, cs, order)


@given(dense_series(), dense_series(), st.integers(min_value=-3, max_value=3))
@settings(max_examples=150, deadline=None)
def test_series_ops_match_dense_reference(a, b, k):
    (x, rx), (y, ry) = a, b
    _assert_matches(x, rx)
    _assert_matches(x + y, _ref_add(rx, ry))
    _assert_matches(x - y, _ref_add(rx, _ref_neg(ry)))
    _assert_matches(x * y, _ref_mul(rx, ry))
    _assert_matches(x.shift(k), _ref_shift(rx, k))
    _assert_matches(x.truncate(k), _dense(rx[0], rx[1], _omin(rx[2], k)))
    want = _ref_invert(rx)
    if want is None:
        with pytest.raises(NonInvertibleLeadingCoefficient):
            x.invert()
    else:
        _assert_matches(x.invert(), want)


# -- helpers -------------------------------------------------------------------


def test_fraction_sqrt():
    assert fraction_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert fraction_sqrt(Fraction(0)) == 0
    assert fraction_sqrt(Fraction(2)) is None
    assert fraction_sqrt(Fraction(1, 3)) is None


def first(stream, k):
    return list(islice(stream, k))


def test_taylor_tables():
    assert first(taylor_exp(), 5) == [
        Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)
    ]
    # log(1+x) = x - x^2/2 + x^3/3 - ...
    assert first(taylor_log1p(), 4)[1:] == [Fraction(1), Fraction(-1, 2), Fraction(1, 3)]
    assert first(taylor_geometric(), 4) == [
        Fraction(1), Fraction(-1), Fraction(1), Fraction(-1)
    ]
    # (1+x)^(1/2) = 1 + x/2 - x^2/8 + x^3/16 - ...
    assert first(taylor_binomial(Fraction(1, 2)), 4) == [
        Fraction(1), Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16)
    ]


@pytest.mark.parametrize(
    "stream",
    [taylor_exp, taylor_log1p, taylor_geometric, partial(taylor_binomial, Fraction(-1, 2))],
)
def test_taylor_stream_without_a_count_is_the_lazy_list(stream):
    lazy = stream()
    assert not isinstance(lazy, list)
    assert first(lazy, 7) == first(stream(), 7)
    assert all(type(c) is Fraction for c in first(stream(), 7))


def test_taylor_binomial_rejects_irrational_point():
    with pytest.raises(IrrationalExpansionPoint):
        taylor_binomial("half")
