"""The storage rule of the scalar tower: a rational is stored as an int
when it is integral and as a Fraction otherwise, never as a float or a
bool.  Each operation of the matrix and scalar layers is fed int and
Fraction inputs, its stored scalars are checked against the rule and its
result against an oracle written with Fractions only."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from osptwist.algebra import OspAlgebra, build_osp, invert_fraction_matrix
from osptwist.pbw import UEElement
from osptwist.repmat import GradedMatrix, embed_legs, kron
from osptwist.rmatrix import LieTensor, casimir_tensor, standard_r0
from osptwist.scalars import (
    LaurentSeries,
    Poly,
    rref,
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
nonintegral = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
).filter(lambda f: f.denominator != 1)


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


def fresh(m: GradedMatrix):
    """The same entries passed through the public constructor."""
    return GradedMatrix(m.pv, dict(m.entries))


def check_storage(m: GradedMatrix):
    """m reads back by the rule, and is stored as, equals and hashes like
    the same entries passed through the public constructor."""
    assert stored_by_the_rule(
        c for c in m.entries.values() if not isinstance(c, Poly)
    )
    f = fresh(m)
    assert (m.data, m.den) == (f.data, f.den)
    assert m == f and hash(m) == hash(f)


def check(m: GradedMatrix, oracle):
    """A rational result: its stored den is positive and canonical (no
    common factor with the numerators), and it reads as the oracle."""
    check_storage(m)
    assert m.den > 0 and gcd(m.den, *m.data.values()) == 1
    assert dense(m) == oracle


def o_transpose(a):
    return [list(row) for row in zip(*a)]


def o_scale(c, a):
    return [[c * x for x in row] for row in a]


@given(matrices(), matrices(), rationals, nonintegral)
@settings(max_examples=60, deadline=None)
def test_matrix_ring_operations_keep_the_rule(a, b, c, f):
    check(a, dense(a))
    da, db = dense(a), dense(b)
    check(a + b, o_add(da, db))
    check(a - b, o_add(da, db, -1))
    check(-a, o_scale(-1, da))
    check(a.scale(c), o_scale(c, da))
    check(a.scale(f), o_scale(f, da))
    check(f * a, o_scale(f, da))
    check(a.transpose(), o_transpose(da))
    check(a @ b, o_mul(da, db))
    check(kron(a, b), o_kron(da, PV, db, PV))
    check(GradedMatrix.identity(PV), o_eye(D))
    check(a.one_like(), o_eye(D))


# -- matrices with Poly entries: x*A + B, read back one power of x at a time


X = Poly.var("x")


def x_matrix(a, b):
    """The matrix x*A + B, with Poly entries wherever A is nonzero."""
    return a.scale(X) + b


def dense_at(m: GradedMatrix, k):
    """The Fraction matrix of the coefficients of x**k."""
    def at(c):
        if isinstance(c, Poly):
            return c.coefficient("x", k).as_fraction()
        return Fraction(c) if k == 0 else Fraction(0)
    return [[at(m[i, j]) for j in range(m.dim)] for i in range(m.dim)]


def check_x(m: GradedMatrix, oracles):
    """A Poly-entry result: stored with den None while a Poly entry is
    left, and its coefficient of x**k reads as ``oracles[k]``."""
    check_storage(m)
    has_poly = any(isinstance(c, Poly) for c in m.data.values())
    assert (m.den is None) == has_poly
    assert all(m.data.values())
    zero = [[Fraction(0)] * m.dim for _ in range(m.dim)]
    for k in range(-1, 4):
        assert dense_at(m, k) == oracles.get(k, zero)


@given(matrices(), matrices(), matrices(), matrices(), nonintegral)
@settings(max_examples=40, deadline=None)
def test_poly_entry_matrices_keep_the_rule(a, b, c, d, f):
    p, q = x_matrix(a, b), x_matrix(c, d)
    da, db, dc, dd = dense(a), dense(b), dense(c), dense(d)
    check_x(p, {0: db, 1: da})
    check_x(p + q, {0: o_add(db, dd), 1: o_add(da, dc)})
    check_x(p - q, {0: o_add(db, dd, -1), 1: o_add(da, dc, -1)})
    check_x(-p, {0: o_scale(-1, db), 1: o_scale(-1, da)})
    check_x(p.scale(f), {0: o_scale(f, db), 1: o_scale(f, da)})
    check_x(p.transpose(), {0: o_transpose(db), 1: o_transpose(da)})
    check_x(p @ q, {
        0: o_mul(db, dd),
        1: o_add(o_mul(da, dd), o_mul(db, dc)),
        2: o_mul(da, dc),
    })
    check_x(kron(p, b), {0: o_kron(db, PV, db, PV), 1: o_kron(da, PV, db, PV)})
    check_x(embed_legs(p, PV, (2,), 2), {
        0: o_kron(o_eye(D), PV, db, PV), 1: o_kron(o_eye(D), PV, da, PV)
    })


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


scalars = st.one_of(
    st.sampled_from([0, 1, -1, Fraction(0), Fraction(1), Fraction(-1), Fraction(6, 3)]),
    rationals,
)
orders = st.one_of(st.none(), st.integers(min_value=0, max_value=4))


@given(polys(), scalars, st.integers(min_value=-1, max_value=1), orders)
@settings(max_examples=80, deadline=None)
def test_poly_times_a_rational_keeps_the_rule(s, c, m, order):
    """A rational on either side scales the coefficients: the product
    equals the one by the constant Poly, keeps the rule and hashes like
    it, and a zero scalar gives the zero Poly.  A LaurentSeries, whose
    terms are built by such products, scales as before."""
    p = to_poly(s)
    got = p * c
    assert got == c * p == p * Poly.const(c)
    assert hash(got) == hash(c * p) == hash(p * Poly.const(c))
    assert stored_by_the_rule(got.coeffs.values())
    assert read(got) == {e: v * c for e, v in o_poly(s).items() if c}
    assert got.is_zero if not c else got.vars == p.vars
    with pytest.raises(TypeError):
        p * True
    cs = [c, 1, -c]
    series = LaurentSeries("q", m, cs, order)
    known = {(k,): v for k, v in enumerate(cs, m) if order is None or k < order}
    assert read(series.poly, ("q",)) == {k: v for k, v in known.items() if v}
    assert series * c == c * series == LaurentSeries.from_poly(
        series.poly * Poly.const(c), "q", order if c else None
    )


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
    """The structure constants, like the defining matrices, are rationals
    stored by the rule: every one of them is integral, so an int."""
    alg = build_osp(n)
    for b in alg.basis:
        assert stored_by_the_rule(b.matrix.entries.values())
    for i in range(alg.size):
        for j in range(alg.size):
            assert stored_by_the_rule(alg.bracket(i, j).values())


def test_rep_image_over_a_denominator_is_exact():
    alg = build_osp(2)
    x = UEElement.generator(alg, "X+") * UEElement.generator(alg, "X-")
    m = x.scale(Fraction(1, 3)).to_matrix()
    assert stored_by_the_rule(m.entries.values())
    want = (alg.generator_matrix("X+") @ alg.generator_matrix("X-")).scale(
        Fraction(1, 3)
    )
    assert dense(m) == dense(want)


# -- row reduction: a Fraction-only oracle ------------------------------------


def o_rref(rows):
    """Gauss-Jordan elimination with every cell a Fraction."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots, r = [], 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def grids(square=False):
    """Row lists of int and Fraction cells, zero-rich, up to 4 x 5."""
    cell = st.one_of(st.just(0), rationals)
    shape = st.integers(1, 4).flatmap(
        lambda m: st.tuples(st.just(m), st.just(m) if square else st.integers(1, 5))
    )
    return shape.flatmap(
        lambda mn: st.lists(
            st.lists(cell, min_size=mn[1], max_size=mn[1]),
            min_size=mn[0], max_size=mn[0],
        )
    )


@given(grids())
@settings(max_examples=80, deadline=None)
def test_rref_keeps_the_rule(rows):
    got, pivots = rref(rows)
    assert all(stored_by_the_rule(row) for row in got)
    assert (got, pivots) == o_rref(rows)


@given(grids(square=True))
@settings(max_examples=80, deadline=None)
def test_inverse_keeps_the_rule(rows):
    m = len(rows)
    if len(o_rref(rows)[1]) < m:
        with pytest.raises(ValueError):
            invert_fraction_matrix(rows)
        return
    inv = invert_fraction_matrix(rows)
    assert all(stored_by_the_rule(row) for row in inv)
    assert o_mul([[Fraction(x) for x in row] for row in rows], inv) == o_eye(m)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gram_inverse_and_standard_r0_are_exact(n):
    """The Gram inverse follows the rule, and the Cartan block of r0 is an
    exact half of it: r0 + flip(r0) is the invariant two-tensor, and r0
    equals the tensor built from the Fraction-only inverse."""
    alg = build_osp(n)
    inv = alg.gram_inverse()
    assert all(stored_by_the_rule(row) for row in inv)
    oracle = [row[alg.size:] for row in o_rref(
        [list(row) + [int(i == j) for j in range(alg.size)]
         for i, row in enumerate(alg.gram())]
    )[0]]
    assert inv == oracle
    r0 = standard_r0(alg)
    assert all(type(c) is Fraction for c in r0.terms.values())
    assert r0 + r0.flip() == casimir_tensor(alg)
    cartan, pos = alg.cartan_indices(), alg.positive_indices()
    want: dict = {}
    for a in cartan:
        for b in cartan:
            want[a, b] = oracle[a][b] / 2
    for a in pos:
        for b in range(alg.size):
            want[a, b] = want.get((a, b), 0) + oracle[a][b]
    assert r0 == LieTensor(alg, 2, want)


def test_standard_r0_halves_an_int_cell_exactly():
    """Every nonzero Cartan cell of the Gram inverse is 1/2 at n = 1...4, so
    no rank above makes standard_r0 halve an int: a fresh algebra whose
    inverse is doubled (Cartan cells 1) does."""
    alg = OspAlgebra(2)
    doubled = [[Fraction(2 * x) for x in row] for row in build_osp(2).gram_inverse()]
    alg._gram_inv = [
        [x.numerator if x.denominator == 1 else x for x in row] for row in doubled
    ]
    h = alg.cartan_indices()[0]
    assert type(alg.gram_inverse()[h][h]) is int
    r0 = standard_r0(alg)
    assert all(type(c) is Fraction for c in r0.terms.values())
    assert r0.terms[(h, h)] == Fraction(1, 2)
