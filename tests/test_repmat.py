"""Sparse exact matrices over a parity-graded index set."""

import random
from fractions import Fraction

import pytest
from hypothesis import Phase, example, find, given, settings, strategies as st

from osptwist import quantum as qt
from osptwist import repmat
from osptwist.algebra import build_osp
from osptwist.errors import DivisionByNonUnit, LegMismatch, NotNilpotent
from osptwist.pbw import UEElement, UETensor, ue_exp, ue_log
from osptwist.repmat import (
    GradedMatrix,
    embed_legs,
    graded_swap,
    join_monomials,
    kron,
    kron_all,
    split_monomials,
    tensor_pv,
)
from osptwist.scalars import LaurentSeries, Poly, taylor_exp


PV = (0, 0, 1, 0, 0)  # the five-dimensional graded space used throughout

def unit(pv, i, j):
    """The elementary matrix E_ij."""
    return GradedMatrix(pv, {(i, j): 1})


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def sparse_matrices(pv=PV, max_terms=4):
    d = len(pv)
    entry = st.tuples(
        st.integers(min_value=0, max_value=d - 1),
        st.integers(min_value=0, max_value=d - 1),
        fractions,
    )
    return st.lists(entry, max_size=max_terms).map(
        lambda es: sum(
            (unit(pv, i, j).scale(c) for i, j, c in es),
            GradedMatrix.zero(pv),
        )
    )


def homogeneous(pv=PV, parity=0):
    """Single-entry matrices of a fixed parity."""
    d = len(pv)
    pairs = [
        (i, j)
        for i in range(d)
        for j in range(d)
        if (pv[i] + pv[j]) % 2 == parity
    ]
    return st.tuples(st.sampled_from(pairs), fractions).map(
        lambda t: unit(pv, *t[0]).scale(t[1])
    )


def test_identity_and_units():
    I = GradedMatrix.identity(PV)
    E = unit(PV, 1, 3)
    assert I @ E == E
    assert E @ I == E
    assert I[2, 2] == 1
    assert E[1, 3] == 1
    assert E[3, 1] == 0


def test_public_constructor_validates_and_stores_by_the_rule():
    """Keys outside the space raise; zeros are dropped and an integral
    Fraction reads back as an int, over one canonical denominator."""
    for key in ((5, 0), (0, 5), (-1, 0), (0, -1)):
        with pytest.raises(IndexError):
            GradedMatrix(PV, {key: 1})
    with pytest.raises(IndexError):
        GradedMatrix(PV, {(5, 5): 0})
    m = GradedMatrix(
        PV, {(0, 0): Fraction(4, 2), (1, 1): 0, (2, 2): Fraction(0), (3, 3): Fraction(1, 6)}
    )
    assert m.entries == {(0, 0): 2, (3, 3): Fraction(1, 6)}
    assert type(m[0, 0]) is int and type(m.entries[0, 0]) is int
    assert (m.data, m.den) == ({(0, 0): 12, (3, 3): 1}, 6)
    assert m[1, 1] == 0 and (1, 1) not in m.entries
    assert str(m).splitlines()[0] == "[2, 0, 0, 0, 0]"
    assert GradedMatrix(PV, {(0, 0): Fraction(0)}) == GradedMatrix.zero(PV)


def test_supertrace():
    # str = sum over even diagonal minus sum over odd diagonal
    I = GradedMatrix.identity(PV)
    assert I.supertrace() == 4 - 1
    odd_diag = unit(PV, 2, 2)
    assert odd_diag.supertrace() == -1


def test_parity_of_homogeneous_entries():
    assert unit(PV, 0, 1).parity() == 0
    assert unit(PV, 0, 2).parity() == 1
    assert unit(PV, 2, 3).parity() == 1
    assert unit(PV, 2, 2).parity() == 0


@given(sparse_matrices(), sparse_matrices(), sparse_matrices())
@settings(max_examples=50, deadline=None)
def test_matmul_bilinear_associative(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)
    assert (a + b) @ c == a @ c + b @ c
    assert a @ (b + c) == a @ b + a @ c


def polys():
    """Polys in one or two variables with negative exponents allowed, some
    of them constant."""
    names = st.sampled_from([("a",), ("b",), ("a", "b"), ()])
    return names.flatmap(
        lambda vs: st.dictionaries(
            st.tuples(*[st.integers(min_value=-2, max_value=2)] * len(vs)),
            fractions,
            max_size=3,
        ).map(lambda cs: Poly(vs, cs))
    )


def scalar_matrices(pv=PV, max_terms=5):
    d = len(pv)
    index = st.integers(min_value=0, max_value=d - 1)
    scalar = st.one_of(st.integers(min_value=-3, max_value=3), fractions, polys())
    return st.dictionaries(st.tuples(index, index), scalar, max_size=max_terms).map(
        lambda es: GradedMatrix(pv, es)
    )


@given(scalar_matrices(), scalar_matrices())
@settings(max_examples=60, deadline=None)
def test_monomial_split_and_join_round_trip(a, b):
    """Split over the variables of both matrices, each matrix is a sum of
    rational matrices, one per monomial, and joining them back gives a
    matrix that equals and hashes like the input."""
    names, parts = split_monomials((a, b))
    for m, by_exponent in zip((a, b), parts):
        assert all(p.den is not None and len(e) == len(names) for e, p in by_exponent.items())
        back = join_monomials(m.pv, names, by_exponent)
        assert back == m and hash(back) == hash(m)


def test_monomial_split_keeps_a_series_matrix_whole():
    """A matrix with a LaurentSeries entry is its own one part, at the
    zero exponent of the other matrix's variables."""
    series = GradedMatrix(PV, {(0, 1): LaurentSeries("t", -1, [1, 2], order=3), (1, 1): Poly.var("a")})
    poly = GradedMatrix(PV, {(2, 2): Poly.var("b", -1) + 1})
    names, (s_parts, p_parts) = split_monomials((series, poly))
    assert names == ("b",)
    assert s_parts == {(0,): series}
    assert set(p_parts) == {(0,), (-1,)}
    assert join_monomials(PV, names, s_parts) == series


@given(homogeneous(parity=1), homogeneous(parity=1))
@settings(max_examples=40, deadline=None)
def test_super_commutator_symmetric_on_odd(a, b):
    # odd-odd super commutator is the anticommutator, hence symmetric
    assert a.super_commutator(b) == b.super_commutator(a)
    assert a.super_commutator(b) == a @ b + b @ a


@given(homogeneous(parity=0), homogeneous(parity=1))
@settings(max_examples=40, deadline=None)
def test_super_commutator_antisymmetric_mixed(a, b):
    assert a.super_commutator(b) == -(b.super_commutator(a))


def test_kron_koszul_sign():
    """(A x B)(C x D) = (-1)^{p(B)p(C)} (AC x BD) for homogeneous blocks."""
    A = unit(PV, 0, 2)  # odd
    B = unit(PV, 2, 4)  # odd
    C = unit(PV, 2, 3)  # odd
    D = unit(PV, 4, 1)  # even
    lhs = kron(A, B) @ kron(C, D)
    rhs = kron(A @ C, B @ D).scale(Fraction(-1))  # p(B)=p(C)=1
    assert lhs == rhs
    # even-even pairs pick up no sign
    E = unit(PV, 0, 1)
    F = unit(PV, 1, 0)
    assert kron(E, E) @ kron(F, F) == kron(E @ F, E @ F)


def test_kron_all_matches_iterated_kron():
    A = unit(PV, 0, 1)
    B = unit(PV, 2, 3)
    C = unit(PV, 4, 4)
    assert kron_all([A, B, C]) == kron(kron(A, B), C)


def test_graded_swap_involution_and_action():
    P = graded_swap(PV)
    I2 = GradedMatrix.identity(P.pv)
    assert P @ P == I2
    # conjugating a product tensor swaps the factors with the Koszul sign
    A = unit(PV, 0, 2)  # odd
    B = unit(PV, 2, 1)  # odd
    assert P @ kron(A, B) @ P == kron(B, A).scale(Fraction(-1))
    E = unit(PV, 0, 1)  # even
    assert P @ kron(E, A) @ P == kron(A, E)


def leg_factors(pv):
    """A matrix on one leg: even, odd or inhomogeneous, with int,
    non-integral and Poly entries."""
    d = len(pv)
    cells = [
        [(i, j) for i in range(d) for j in range(d) if (pv[i] + pv[j]) % 2 == p]
        for p in (0, 1)
    ]
    scalar = st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]),
        polys(),
    )
    return st.sampled_from([cells[0], cells[1], cells[0] + cells[1]]).flatmap(
        lambda keys: st.dictionaries(
            st.sampled_from(keys), scalar, min_size=1, max_size=3
        ).map(lambda es: GradedMatrix(pv, es))
    )


# (legs, total): mostly with a gap between legs, which only the swaps fill
PLACEMENTS = [
    ((1, 3), 3), ((1, 4), 4), ((2, 4), 4), ((1, 2, 4), 4), ((1, 3, 4), 4),
    ((1, 3), 4), ((3,), 4), ((1, 2), 3), ((2, 3), 3), ((1, 2, 3), 3), ((1,), 1),
]


@st.composite
def embeddings(draw):
    """(pv, legs, total, terms): legs of up to four, gaps included, and
    terms [(c, factors)] of an operator sum c * kron_all(factors) on
    len(legs) legs, the first c being 1."""
    pv = draw(st.sampled_from([PV, (1, 0, 1)]))
    legs, total = draw(st.sampled_from(PLACEMENTS))
    factors = st.lists(leg_factors(pv), min_size=len(legs), max_size=len(legs))
    terms = [(1, draw(factors))]
    if draw(st.booleans()):
        c = draw(st.one_of(st.integers(min_value=-3, max_value=3), fractions, polys()))
        terms.append((c, draw(factors)))
    return pv, legs, total, terms


def _embed_by_definition(pv, legs, total, terms):
    """The embedding's definition: each term's kron_all with identities
    inserted at the free legs."""
    eye = GradedMatrix.identity(pv)
    out = GradedMatrix.zero(tensor_pv(pv, total))
    for c, factors in terms:
        at = dict(zip(legs, factors))
        out = out + kron_all([at.get(l, eye) for l in range(1, total + 1)]).scale(c)
    return out


def _embedded(pv, legs, total, terms):
    m = GradedMatrix.zero(tensor_pv(pv, len(legs)))
    for c, factors in terms:
        m = m + kron_all(factors).scale(c)
    return embed_legs(m, pv, legs, total)


_A, _B, _I = unit(PV, 0, 1), unit(PV, 3, 4), GradedMatrix.identity(PV)


@given(embeddings())
@example((PV, (1,), 2, [(1, [_A])]))
@example((PV, (2,), 2, [(1, [_A])]))
@example((PV, (1, 3), 3, [(1, [_A, _B])]))
@settings(max_examples=120, deadline=None)
def test_embed_legs_is_kron_with_identities(case):
    """Leg numbering is 1-based; the embedding of an operator sum is the
    same sum of kron_all with identities at the free legs, stored alike."""
    got, want = _embedded(*case), _embed_by_definition(*case)
    assert got == want
    assert (got.data, got.den) == (want.data, want.den)


def test_embed_legs_negative_control(monkeypatch):
    """With the swap's Koszul sign dropped, some drawn embedding with a gap
    between its legs differs from the definition, so the test above can
    fail."""
    def unsigned_swap(pv):
        d = len(pv)
        flip = {(b * d + a, a * d + b): 1 for a in range(d) for b in range(d)}
        return GradedMatrix(tensor_pv(pv, 2), flip)

    monkeypatch.setattr(repmat, "graded_swap", unsigned_swap)
    _, legs, _, _ = find(
        embeddings(),
        lambda case: _embedded(*case) != _embed_by_definition(*case),
        settings=settings(
            max_examples=500, deadline=None, database=None,
            phases=(Phase.generate,),
        ),
    )
    assert legs[-1] - legs[0] >= len(legs)


def test_embed_legs_rejects_an_operator_on_another_space():
    """An odd operator on a space of other parities is refused, not
    re-read on the legs' parities (where it would be even); so is one of
    the wrong dimension."""
    odd = GradedMatrix((0, 0, 0, 0, 1), {(0, 4): 1})
    with pytest.raises(LegMismatch):
        embed_legs(odd, PV, (2,), 2)
    with pytest.raises(LegMismatch):
        embed_legs(_I, PV, (1, 2), 2)
    assert embed_legs(_I, PV, (2,), 2) == GradedMatrix.identity(tensor_pv(PV, 2))


def test_embed_legs_even_factors_commute_across_legs():
    A = unit(PV, 0, 1)
    B = unit(PV, 3, 4)
    a0 = embed_legs(A, PV, (1,), 2)
    b1 = embed_legs(B, PV, (2,), 2)
    assert a0 @ b1 == b1 @ a0
    assert a0 @ b1 == kron(A, B)


def test_nilpotent_exp_log_roundtrip():
    N = unit(PV, 0, 1) + unit(PV, 1, 3).scale(
        Fraction(1, 2)
    )
    assert (N ** 3).is_zero
    U = N.exp_nilpotent()
    assert U.log_unipotent() == N
    assert U @ (-N).exp_nilpotent() == GradedMatrix.identity(PV)


def test_series_draws_only_the_coefficients_it_uses():
    """On the 125-dim cube a nilpotent N with N**3 = 0 reads a_0 ... a_3
    from a lazy stream, not dim coefficients; a non-nilpotent matrix is
    refused once A**(dim+1) has not vanished, after dim + 3 of them."""
    drawn = []

    def stream():
        for c in taylor_exp():
            drawn.append(c)
            yield c

    pv = tensor_pv(PV, 3)
    n = unit(pv, 0, 1) + unit(pv, 1, 2)
    assert n.series(stream) == n.exp_nilpotent()
    assert len(drawn) == 4
    drawn.clear()
    with pytest.raises(NotNilpotent):
        GradedMatrix.identity(PV).series(stream)
    assert len(drawn) == len(PV) + 3


def test_exp_rejects_non_nilpotent():
    """exp, log and every other series of a matrix that is not nilpotent
    raise rather than return a truncated sum."""
    eye = GradedMatrix.identity(PV)
    with pytest.raises(NotNilpotent):
        eye.exp_nilpotent()
    with pytest.raises(NotNilpotent):
        eye.scale(2).log()
    with pytest.raises(NotNilpotent):
        eye.series(taylor_exp)


# -- the one series entry of each ring ---------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_the_two_engines_agree_on_exp_and_log_through_rho(n):
    """exp and log summed in the truncated enveloping algebra and summed
    on the matrices agree through the defining representation rho, for a
    grade-positive x at a cap no lower than the spread of the defining
    space's doubled grades (no term the cap drops has a nonzero image)."""
    alg = build_osp(n)
    cap = qt.rep_exact_degree(alg)
    letters = [
        UEElement.generator(alg, i, g2cap=cap)
        for i in alg.positive_indices() if alg.g2(i) > 0
    ]
    x = sum(
        (g.scale(Fraction(k + 1, 2)) for k, g in enumerate(letters)),
        letters[0] * letters[-1],
    )
    assert x.is_grade_positive()
    m = x.to_matrix()
    assert not (m @ m).is_zero
    one = UEElement.one(alg, g2cap=cap)
    assert ue_exp(x).to_matrix() == m.exp()
    assert ue_log(one + x).to_matrix() == (one + x).to_matrix().log()


def _pow_cases():
    """(x, the one of its ring, x's inverse or None) for each ring whose
    ``**`` is the shared square-and-multiply loop."""
    alg = build_osp(2)
    cap = 6
    x = UEElement.generator(alg, "X+", g2cap=cap)
    v = UEElement.generator(alg, "v+", g2cap=cap)
    h = UEElement.generator(alg, "H", g2cap=cap)
    a, b = Poly.var("a"), Poly.var("b")
    monomial = a * b.inverse() * 3
    series = LaurentSeries("eps", -1, [Fraction(2), a, Fraction(-1, 3)], 3)
    return {
        "GradedMatrix": (
            unit(PV, 0, 1)
            + unit(PV, 1, 3)
            + unit(PV, 2, 2).scale(Fraction(1, 2)),
            GradedMatrix.identity(PV),
            None,
        ),
        "UEElement": (
            h + x + v.scale(Fraction(-2, 3)),
            UEElement.one(alg, cap),
            None,
        ),
        "UETensor": (
            UETensor.of(x, h, g2cap=cap) + UETensor.of(v, v, g2cap=cap),
            UETensor.one(alg, 2, cap),
            None,
        ),
        "Poly": (a * 3 + b - Fraction(1, 2), Poly.const(1), None),
        "Poly-monomial": (monomial, Poly.const(1), monomial.inverse()),
        "LaurentSeries": (
            series,
            LaurentSeries.const("eps", 1),
            series.invert(),
        ),
    }


POW_CASES = _pow_cases()


@pytest.mark.parametrize("ring", POW_CASES)
def test_pow(ring):
    """x**k is the k-fold product, x**0 the ring's one, and where the
    ring inverts x, x**-k the k-fold product of the inverse."""
    x, one, inverse = POW_CASES[ring]
    assert x ** 0 == one
    for k in range(1, 5):
        product = one
        for _ in range(k):
            product = product * x
        assert x ** k == product
    if inverse is not None:
        assert x ** -2 == inverse * inverse


@pytest.mark.parametrize("ring", POW_CASES)
def test_ring_protocol(ring):
    """The operations every ring shares: the unit, a - b as a + (-b), and
    a negative power only where the ring inverts its argument."""
    x, one, inverse = POW_CASES[ring]
    y = x * x
    assert x.one_like() == one
    assert x - y == x + (-y)
    assert y - x == -(x - y)
    assert (x - x).is_zero
    if inverse is not None:
        assert x ** -1 == inverse
    else:
        # a ring without inverses refuses the power outright; one that
        # inverts only its units refuses a non-unit
        with pytest.raises(TypeError if x.inverse is None else DivisionByNonUnit):
            x ** -1


def test_super_bracket_matches_the_matrix_super_commutator():
    """The two engines' graded commutators agree: for homogeneous words a,
    b of up to two letters at n = 2 (odd-odd pairs included), the image of
    the PBW bracket [a, b] is the super commutator of the images."""
    alg = build_osp(2)
    letters = range(alg.size)
    words = [()] + [(i,) for i in letters] + [(i, j) for i in letters for j in letters]
    odd = [w for w in words if sum(map(alg.parity, w)) % 2]
    rng = random.Random(0)
    pairs = [(rng.choice(words), rng.choice(words)) for _ in range(30)]
    pairs += [(rng.choice(odd), rng.choice(odd)) for _ in range(30)]
    for wa, wb in pairs:
        a, b = UEElement(alg, {wa: 1}), UEElement(alg, {wb: 1})
        want = a.to_matrix().super_commutator(b.to_matrix())
        assert a.super_bracket(b).to_matrix() == want, (wa, wb)
