"""Sparse exact matrices over a parity-graded index set."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from osptwist.algebra import build_osp
from osptwist.errors import DivisionByNonUnit, NotNilpotent
from osptwist.pbw import UEElement, UETensor
from osptwist.repmat import GradedMatrix, kron, kron_all, graded_swap, embed_legs
from osptwist.scalars import LaurentSeries, Poly


PV = (0, 0, 1, 0, 0)  # the five-dimensional graded space used throughout

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
            (GradedMatrix.unit(pv, i, j).scale(c) for i, j, c in es),
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
        lambda t: GradedMatrix.unit(pv, *t[0]).scale(t[1])
    )


def test_identity_and_units():
    I = GradedMatrix.identity(PV)
    E = GradedMatrix.unit(PV, 1, 3)
    assert I @ E == E
    assert E @ I == E
    assert I[2, 2] == 1
    assert E[1, 3] == 1
    assert E[3, 1] == 0


def test_supertrace():
    # str = sum over even diagonal minus sum over odd diagonal
    I = GradedMatrix.identity(PV)
    assert I.supertrace() == 4 - 1
    odd_diag = GradedMatrix.unit(PV, 2, 2)
    assert odd_diag.supertrace() == -1


def test_parity_of_homogeneous_entries():
    assert GradedMatrix.unit(PV, 0, 1).parity() == 0
    assert GradedMatrix.unit(PV, 0, 2).parity() == 1
    assert GradedMatrix.unit(PV, 2, 3).parity() == 1
    assert GradedMatrix.unit(PV, 2, 2).parity() == 0


@given(sparse_matrices(), sparse_matrices(), sparse_matrices())
@settings(max_examples=50, deadline=None)
def test_matmul_bilinear_associative(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)
    assert (a + b) @ c == a @ c + b @ c
    assert a @ (b + c) == a @ b + a @ c


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
    A = GradedMatrix.unit(PV, 0, 2)  # odd
    B = GradedMatrix.unit(PV, 2, 4)  # odd
    C = GradedMatrix.unit(PV, 2, 3)  # odd
    D = GradedMatrix.unit(PV, 4, 1)  # even
    lhs = kron(A, B) @ kron(C, D)
    rhs = kron(A @ C, B @ D).scale(Fraction(-1))  # p(B)=p(C)=1
    assert lhs == rhs
    # even-even pairs pick up no sign
    E = GradedMatrix.unit(PV, 0, 1)
    F = GradedMatrix.unit(PV, 1, 0)
    assert kron(E, E) @ kron(F, F) == kron(E @ F, E @ F)


def test_kron_all_matches_iterated_kron():
    A = GradedMatrix.unit(PV, 0, 1)
    B = GradedMatrix.unit(PV, 2, 3)
    C = GradedMatrix.unit(PV, 4, 4)
    assert kron_all([A, B, C]) == kron(kron(A, B), C)


def test_graded_swap_involution_and_action():
    P = graded_swap(PV)
    I2 = GradedMatrix.identity(P.pv)
    assert P @ P == I2
    # conjugating a product tensor swaps the factors with the Koszul sign
    A = GradedMatrix.unit(PV, 0, 2)  # odd
    B = GradedMatrix.unit(PV, 2, 1)  # odd
    assert P @ kron(A, B) @ P == kron(B, A).scale(Fraction(-1))
    E = GradedMatrix.unit(PV, 0, 1)  # even
    assert P @ kron(E, A) @ P == kron(A, E)


def test_embed_legs_places_factors():
    # leg numbering is 1-based
    A = GradedMatrix.unit(PV, 0, 1)
    B = GradedMatrix.unit(PV, 3, 4)
    I = GradedMatrix.identity(PV)
    assert embed_legs(A, PV, (1,), 2) == kron(A, I)
    assert embed_legs(A, PV, (2,), 2) == kron(I, A)
    assert embed_legs(kron(A, B), PV, (1, 3), 3) == kron_all([A, I, B])


def test_embed_legs_even_factors_commute_across_legs():
    A = GradedMatrix.unit(PV, 0, 1)
    B = GradedMatrix.unit(PV, 3, 4)
    a0 = embed_legs(A, PV, (1,), 2)
    b1 = embed_legs(B, PV, (2,), 2)
    assert a0 @ b1 == b1 @ a0
    assert a0 @ b1 == kron(A, B)


def test_nilpotent_exp_log_roundtrip():
    N = GradedMatrix.unit(PV, 0, 1) + GradedMatrix.unit(PV, 1, 3).scale(
        Fraction(1, 2)
    )
    assert N.is_nilpotent()
    U = N.exp_nilpotent()
    assert U.log_unipotent() == N
    assert U @ (-N).exp_nilpotent() == GradedMatrix.identity(PV)


def test_exp_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        GradedMatrix.identity(PV).exp_nilpotent()


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
            GradedMatrix.unit(PV, 0, 1)
            + GradedMatrix.unit(PV, 1, 3)
            + GradedMatrix.unit(PV, 2, 2, Fraction(1, 2)),
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
