"""The storage rule of the scalar tower: a rational is stored as an int
when it is integral and as a Fraction otherwise, never as a float or a
bool.  Each operation of the matrix and scalar layers is fed int and
Fraction inputs, its stored scalars are checked against the rule and its
result against an oracle written with Fractions only."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from osptwist.algebra import build_osp
from osptwist.pbw import UEElement
from osptwist.repmat import GradedMatrix, embed_legs, kron
from osptwist.scalars import (
    LaurentSeries,
    Poly,
    taylor_exp,
    taylor_geometric,
)

PV = (0, 0, 1, 0, 0)
D = len(PV)

rationals = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)
nonzero = rationals.filter(bool)


def stored_by_the_rule(values):
    """Every value an int (not a bool) or a non-integral Fraction."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1)
        for c in values
    )


# -- a Fraction-only oracle for matrices: dense lists of lists --------------


def dense(m: GradedMatrix):
    return [[Fraction(m[i, j]) for j in range(m.dim)] for i in range(m.dim)]


def o_add(a, b, sign=1):
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def o_mul(a, b):
    d = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(d)), Fraction(0)) for j in range(d)]
        for i in range(d)
    ]


def o_kron(a, pa, b, pb):
    """(A (x) B)[(i,k),(j,l)] = (-1)**((p[k]+p[l]) p[j]) A[i,j] B[k,l]."""
    da, db = len(a), len(b)
    out = [[Fraction(0)] * (da * db) for _ in range(da * db)]
    for i in range(da):
        for j in range(da):
            for k in range(db):
                for l in range(db):
                    sign = -1 if (pb[k] + pb[l]) * pa[j] % 2 else 1
                    out[i * db + k][j * db + l] = sign * a[i][j] * b[k][l]
    return out


def o_eye(d):
    return [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]


def o_series(coeffs, a):
    acc, power = [[Fraction(0)] * len(a) for _ in a], o_eye(len(a))
    for c in coeffs:
        acc = o_add(acc, [[c * x for x in row] for row in power])
        power = o_mul(power, a)
    return acc


def matrices(strict_upper=False):
    """Sparse matrices on PV from int and Fraction entries."""
    index = st.integers(min_value=0, max_value=D - 1)
    entry = st.tuples(index, index, rationals)
    return st.lists(entry, max_size=6).map(
        lambda es: GradedMatrix(
            PV, {(i, j): c for i, j, c in es if not strict_upper or i < j}
        )
    )


def check(m: GradedMatrix, oracle):
    assert stored_by_the_rule(m.entries.values())
    assert dense(m) == oracle


@given(matrices(), matrices(), rationals)
@settings(max_examples=60, deadline=None)
def test_matrix_ring_operations_keep_the_rule(a, b, c):
    assert stored_by_the_rule(a.entries.values())
    da, db = dense(a), dense(b)
    check(a + b, o_add(da, db))
    check(a - b, o_add(da, db, -1))
    check(a.scale(c), [[c * x for x in row] for row in da])
    check(a @ b, o_mul(da, db))
    check(kron(a, b), o_kron(da, PV, db, PV))


@given(matrices())
@settings(max_examples=30, deadline=None)
def test_embed_legs_keeps_the_rule(a):
    da, eye = dense(a), o_eye(D)
    check(embed_legs(a, PV, (1,), 2), o_kron(da, PV, eye, PV))
    check(embed_legs(a, PV, (2,), 2), o_kron(eye, PV, da, PV))


@given(matrices(strict_upper=True))
@settings(max_examples=30, deadline=None)
def test_matrix_series_keep_the_rule(a):
    # a strictly upper matrix on D indices has a**D == 0
    da = dense(a)
    check(a.exp_nilpotent(), o_series(taylor_exp(D), da))
    check(a.series(taylor_geometric), o_series(taylor_geometric(D), da))


# -- a Fraction-only oracle for polynomials: {exponents: Fraction} ----------


def polys():
    term = st.tuples(
        st.integers(min_value=-2, max_value=2),
        st.integers(min_value=0, max_value=2),
        rationals,
    )
    return st.lists(term, max_size=4)


def to_poly(terms):
    return sum(
        (Poly.var("x", i) * Poly.var("y", j) * c for i, j, c in terms),
        Poly.zero(),
    )


def o_poly(terms):
    out: dict = {}
    for i, j, c in terms:
        out[i, j] = out.get((i, j), Fraction(0)) + Fraction(c)
    return {k: v for k, v in out.items() if v}


def o_poly_mul(p, q):
    out: dict = {}
    for e, a in p.items():
        for f, b in q.items():
            g = tuple(x + y for x, y in zip(e, f))
            out[g] = out.get(g, Fraction(0)) + a * b
    return {k: v for k, v in out.items() if v}


def read(p: Poly, names=("x", "y")):
    """{exponents of ``names``: coefficient} of a Poly."""
    at = {v: n for n, v in enumerate(p.vars)}
    return {
        tuple(e[at[v]] if v in at else 0 for v in names): c
        for e, c in p.coeffs.items()
    }


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_poly_operations_keep_the_rule(s, t):
    p, q = to_poly(s), to_poly(t)
    op, oq = o_poly(s), o_poly(t)
    for got, want in (
        (p, op),
        (p + q, o_poly(s + t)),
        (p * q, o_poly_mul(op, oq)),
    ):
        assert stored_by_the_rule(got.coeffs.values())
        assert read(got) == want


@given(
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=0, max_value=2),
    nonzero,
)
@settings(max_examples=40, deadline=None)
def test_monomial_inverse_keeps_the_rule(i, j, c):
    inv = (Poly.var("x", i) * Poly.var("y", j) * c).inverse()
    assert stored_by_the_rule(inv.coeffs.values())
    assert read(inv) == {(-i, -j): 1 / Fraction(c)}
    assert type(Poly.const(c).as_fraction()) is Fraction


@given(
    st.lists(rationals, max_size=4),
    st.lists(rationals, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_exact_series_operations_keep_the_rule(s, t):
    a, b = LaurentSeries("q", -1, s), LaurentSeries("q", 0, t)
    oa = {(k,): Fraction(c) for k, c in enumerate(s, -1) if c}
    ob = {(k,): Fraction(c) for k, c in enumerate(t) if c}
    plus = {k: oa.get(k, 0) + ob.get(k, 0) for k in oa.keys() | ob.keys()}
    for got, want in (
        (a + b, {k: v for k, v in plus.items() if v}),
        (a * b, o_poly_mul(oa, ob)),
    ):
        assert stored_by_the_rule(got.poly.coeffs.values())
        assert read(got.poly, ("q",)) == want


@given(
    st.integers(min_value=-3, max_value=3).filter(bool),
    st.lists(rationals, max_size=4),
    st.integers(min_value=-1, max_value=2),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_series_invert_with_an_integral_lead_keeps_the_rule(lead, tail, m, known):
    s = LaurentSeries("q", m, [lead] + tail, m + known)
    inv = s.invert()
    assert inv.order == m + known - 2 * m
    assert stored_by_the_rule(inv.poly.coeffs.values())
    # b_0 = 1/lead, b_k = -(sum_{i>=1} a_i b_(k-i)) / lead
    a = [Fraction(lead)] + [Fraction(c) for c in tail]
    b = []
    for k in range(known):
        acc = sum(
            (a[i] * b[k - i] for i in range(1, min(k, len(a) - 1) + 1)),
            Fraction(0),
        )
        b.append((int(k == 0) - acc) / a[0])
    assert [inv.coefficient(k - m) for k in range(known)] == b


# -- the algebra layer ----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_brackets_are_fractions(n):
    """The structure constants stay Fractions (the enveloping algebra
    halves them), while the defining matrices follow the rule."""
    alg = build_osp(n)
    for b in alg.basis:
        assert stored_by_the_rule(b.matrix.entries.values())
    for i in range(alg.size):
        for j in range(alg.size):
            assert all(type(c) is Fraction for c in alg.bracket(i, j).values())


def test_rep_image_over_a_denominator_is_exact():
    alg = build_osp(2)
    x = UEElement.generator(alg, "X+") * UEElement.generator(alg, "X-")
    m = x.scale(Fraction(1, 3)).to_matrix()
    assert stored_by_the_rule(m.entries.values())
    want = (alg.generator_matrix("X+") @ alg.generator_matrix("X-")).scale(
        Fraction(1, 3)
    )
    assert dense(m) == dense(want)
