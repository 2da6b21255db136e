"""Classical r-matrices: Yang-Baxter residuals, cobracket kernels,
the rational spectral solution and its contraction limit."""

from fractions import Fraction

import pytest
from hypothesis import Phase, example, find, given, settings, strategies as st

from osptwist.algebra import build_osp
from osptwist.scalars import Poly, LaurentSeries, rref
from osptwist.rmatrix import (
    LieTensor,
    wedge,
    casimir_tensor,
    standard_r0,
    adjoint_action,
    cybe_residual,
    cobracket,
    cobracket_kernel,
    span_contains,
    kernel_closed_under_bracket,
    r_jordanian,
    r_super_jordanian,
    r_extended_super_jordanian,
    r_cascade,
    r_full_borel,
    r_long_root_wedge,
    trig_r,
    spectral_residual_rational,
    contraction_limit,
    contraction_expected_t_part,
    ContractionResult,
    _Span,
)
from osptwist.errors import NegativePowerSurvives


ALG = build_osp(2)


def unit_vector(alg, name):
    v = [Fraction(0)] * alg.size
    v[alg.generator_index(name)] = Fraction(1)
    return v


# -- Yang-Baxter residuals -------------------------------------------------------


def test_cybe_jordanian():
    assert cybe_residual(r_jordanian(ALG)).terms == {}


def test_cybe_super_jordanian():
    assert cybe_residual(r_super_jordanian(ALG)).terms == {}


def test_cybe_extended_super_jordanian():
    assert cybe_residual(r_extended_super_jordanian(ALG)).terms == {}


def test_cybe_full_borel():
    assert cybe_residual(r_full_borel(ALG)).terms == {}


def test_cybe_extension_by_commuting_long_wedge():
    """Adding the wedge of the two commuting long roots keeps the solution:
    its carrier lies in the cobracket kernel of the base r-matrix."""
    r = r_extended_super_jordanian(ALG) + r_long_root_wedge(ALG, 1, 2)
    assert cybe_residual(r).terms == {}


def test_cybe_cascade_symbolic_weights():
    """The nested family with one free coefficient per stage, kept symbolic."""
    for n in (2, 3):
        alg = build_osp(n)
        res = cybe_residual(r_cascade(alg))
        assert res.terms == {}, n


def test_cybe_cascade_numeric_weights():
    r = r_cascade(ALG, weights=[Fraction(3), Fraction(-2)])
    assert cybe_residual(r).terms == {}


def test_cybe_negative_controls():
    """Sign and normalization errors must be caught, not absorbed."""
    h_x = wedge(ALG, "H", "X+")
    vv = wedge(ALG, "v+", "v+").scale(Fraction(1, 2))  # = v+ (x) v+
    wrong_sign = h_x + vv  # the odd square must be subtracted
    assert cybe_residual(wrong_sign).terms != {}
    # dropping the antisymmetrization of the even part fails too
    bare = LieTensor(
        ALG,
        2,
        {(ALG.generator_index("H"), ALG.generator_index("X+")): Fraction(1)},
    )
    assert cybe_residual(bare).terms != {}


def test_wedge_conventions():
    """wedge(a,b) = a(x)b - (-1)^{p(a)p(b)} b(x)a; odd self-wedge doubles."""
    iH, iX = ALG.generator_index("H"), ALG.generator_index("X+")
    hx = wedge(ALG, "H", "X+")
    assert hx.terms == {(iH, iX): Fraction(1), (iX, iH): Fraction(-1)}
    iv = ALG.generator_index("v+")
    vv = wedge(ALG, "v+", "v+")
    assert vv.terms == {(iv, iv): Fraction(2)}


def test_wedge_accepts_polynomial_coefficients():
    a = Poly.var("a")
    t = wedge(ALG, "H", "X+", coeff=a)
    iH, iX = ALG.generator_index("H"), ALG.generator_index("X+")
    assert t.terms[(iH, iX)] == a
    assert t.terms[(iX, iH)] == -a


# -- quadratic invariant ----------------------------------------------------------


def test_casimir_is_invariant():
    c = casimir_tensor(ALG)
    for i in range(ALG.size):
        assert adjoint_action(i, c).terms == {}, ALG.name_of(i)


def test_standard_r0_polarizes_casimir():
    """r0 + flip-with-signs(r0) reproduces the invariant two-tensor minus
    its Cartan part; equivalently 2*r0 - casimir is antisymmetric."""
    c = casimir_tensor(ALG)
    r0 = standard_r0(ALG)
    d = r0.scale(Fraction(2)) - c
    # graded antisymmetry: coefficient at (j,i) = -(-1)^{p_i p_j} coeff at (i,j)
    for (i, j), v in d.terms.items():
        s = -1 if not (ALG.parity(i) and ALG.parity(j)) else 1
        assert d.terms.get((j, i), Fraction(0)) == s * v


# -- cobracket kernels ------------------------------------------------------------


def test_cobracket_of_kernel_element_vanishes():
    r = r_extended_super_jordanian(ALG)
    assert cobracket(ALG.generator_index("X+"), r).terms == {}
    assert cobracket(ALG.generator_index("v+"), r).terms != {}


def test_extended_r_kernel_contents():
    """The kernel contains the long root of the second block, the dual Cartan
    element, the odd root that squares to it -- and is closed under brackets.

    Note the kernel also contains the opposite-root partners (the cobracket
    kills a raising generator iff it kills its lowering mirror here), so its
    dimension is six, not four.
    """
    r = r_extended_super_jordanian(ALG)
    ker = cobracket_kernel(ALG, r)
    assert len(ker) == 6
    for name in ("J", "Y+", "X+", "w+"):
        assert span_contains(ker, unit_vector(ALG, name)), name
    for name in ("Y-", "w-"):
        assert span_contains(ker, unit_vector(ALG, name)), name
    assert not span_contains(ker, unit_vector(ALG, "v+"))
    assert not span_contains(ker, unit_vector(ALG, "H"))
    assert kernel_closed_under_bracket(ALG, ker)


def test_two_term_super_jordanian_kernel():
    """Without the paired-root extension term the kernel shrinks to four
    dimensions and loses the odd generator w+ (its bracket with v+ is the
    paired-root generator, whose cobracket contribution no longer cancels)."""
    r = r_super_jordanian(ALG)
    ker = cobracket_kernel(ALG, r)
    assert len(ker) == 4
    for name in ("J", "Y+", "X+", "Y-"):
        assert span_contains(ker, unit_vector(ALG, name)), name
    assert not span_contains(ker, unit_vector(ALG, "w+"))
    assert kernel_closed_under_bracket(ALG, ker)


def test_closure_fails_off_a_subalgebra():
    """Two spans that are not closed under the bracket: the odd pair v+, v-
    (their bracket leaves their span) and the extended-block kernel with v+
    added."""
    odd_pair = [unit_vector(ALG, "v+"), unit_vector(ALG, "v-")]
    assert not kernel_closed_under_bracket(ALG, odd_pair)
    ker = cobracket_kernel(ALG, r_extended_super_jordanian(ALG))
    assert not kernel_closed_under_bracket(
        ALG, ker + [unit_vector(ALG, "v+")]
    )


def test_span_contains_rejects_a_length_mismatch():
    span = [[1, 0, 0], [0, 1, 0]]
    with pytest.raises(ValueError):
        span_contains(span, [1, 0, 0, 0])
    with pytest.raises(ValueError):
        span_contains(span, [1, 0])
    with pytest.raises(ValueError):
        span_contains([[1, 0, 0], [0, 1]], [1, 0, 0])


# -- span membership against the two-rref route ------------------------------


def reference_span_contains(span_vectors, vec) -> bool:
    """The membership test the echelon back-substitution replaced: vec is in
    the span iff appending it leaves the rank of the span unchanged."""
    rows = [list(v) for v in span_vectors]
    before, _ = rref(rows)
    after, _ = rref(rows + [list(vec)])
    return len(after) == len(before)


ENTRY = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 5))),
)


def _combination(draw, rows):
    coeffs = draw(st.lists(ENTRY, min_size=len(rows), max_size=len(rows)))
    return [sum(c * x for c, x in zip(coeffs, col)) for col in zip(*rows)]


@st.composite
def memberships(draw):
    """A span of up to five vectors of one width, with fresh, repeated and
    dependent rows, and a vector that is zero, fresh or in the span."""
    width = draw(st.integers(1, 5))
    fresh = st.lists(ENTRY, min_size=width, max_size=width)
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("fresh", "repeat", "combine")))
        if kind == "fresh" or not rows:
            rows.append(draw(fresh))
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(_combination(draw, rows))
    kind = draw(st.sampled_from(("zero", "fresh", "combine")))
    if kind == "zero":
        vec = [0] * width
    elif kind == "fresh" or not rows:
        vec = draw(fresh)
    else:
        vec = _combination(draw, rows)
    return rows, vec


@given(memberships())
@example(([], [0, 0]))
@example(([], [0, Fraction(1, 2)]))
@example(([[1, 2], [2, 4]], [Fraction(1, 3), Fraction(2, 3)]))
@example(([[0, 0, 0]], [0, 0, 0]))
@settings(max_examples=200, deadline=None)
def test_span_contains_matches_reference(case):
    rows, vec = case
    assert span_contains(rows, vec) == reference_span_contains(rows, vec)


def test_span_membership_negative_control():
    """Back-substitution that skips the first pivot row disagrees with the
    reference on some drawn case, so the comparison above can fail."""

    def skipping(rows, vec):
        span = _Span(rows)
        span.rows = span.rows[1:]
        return span.contains(vec)

    rows, vec = find(
        memberships(),
        lambda case: skipping(*case) != reference_span_contains(*case),
        settings=settings(
            max_examples=2000, deadline=None, database=None,
            phases=(Phase.generate,),
        ),
    )
    assert rows and any(vec)
    assert span_contains(rows, vec) == reference_span_contains(rows, vec)


# -- rational spectral solution and contraction -----------------------------------


def test_trig_r_spectral_certificate():
    """The cleared-denominator residual of the invariant tensor vanishes
    identically in the two symbolic leg-difference variables."""
    assert spectral_residual_rational(casimir_tensor(ALG)).terms == {}


def test_trig_r_shape():
    """The one-parameter family is r0 plus the invariant tensor over q - 1;
    q - 1 must be invertible in the chosen scalar tower."""
    t = LaurentSeries.monomial("t", 1, order=6)
    q = LaurentSeries.const("t", 1, order=6) + t
    r = trig_r(ALG, q)
    want = standard_r0(ALG).map_coefficients(
        lambda c: LaurentSeries.const("t", c, order=6)
    ) + casimir_tensor(ALG).map_coefficients(
        lambda c: LaurentSeries.const("t", c, order=6) * t.invert()
    )
    assert r == want
    with pytest.raises(Exception):
        trig_r(ALG, Poly.var("q"))  # q - 1 is not a unit among polynomials


def test_contraction_has_no_pole():
    res = contraction_limit(ALG, order=4)
    assert isinstance(res, ContractionResult)
    assert res.order >= 4
    for coeff in res.series.terms.values():
        assert coeff.valuation >= 0


def test_contraction_constant_term_splits():
    res = contraction_limit(ALG, order=4)
    assert res.constant == res.spectral_part + res.t_part
    assert res.t_part == contraction_expected_t_part(ALG)


def test_contraction_t_part_is_a_solution():
    """Both summands of the contracted constant term solve the Yang-Baxter
    equation separately."""
    t_part = contraction_expected_t_part(ALG)
    assert cybe_residual(t_part).terms == {}
    res = contraction_limit(ALG, order=4)
    # the spectral summand is proportional to the invariant two-tensor;
    # check invariance instead of cYBE (which needs the full spectral form)
    for i in range(ALG.size):
        assert adjoint_action(i, res.spectral_part).terms == {}


def test_contraction_scales_with_theta_factor():
    res1 = contraction_limit(ALG, order=4)
    res3 = contraction_limit(ALG, order=4, theta_factor=Fraction(6))
    assert res3.t_part == res1.t_part.scale(Fraction(3))


def test_contraction_negative_control():
    """Without the compensating rescaling of the inner parameter the pole
    survives and the limit must refuse."""
    with pytest.raises(NegativePowerSurvives):
        contraction_limit(ALG, order=4, eps_power=0)


# -- misc -------------------------------------------------------------------------


def test_lie_tensor_to_matrix_faithful_on_r():
    r = r_extended_super_jordanian(ALG)
    m = r.to_matrix()
    assert not m.is_zero
    # matrix of the wedge = matrix of r - matrix of its graded flip component
    z = LieTensor(ALG, 2, {})
    assert z.to_matrix().is_zero


def test_adjoint_action_is_a_derivation():
    r = r_extended_super_jordanian(ALG)
    s = r_long_root_wedge(ALG, 1, 2)
    i = ALG.generator_index("Z+")
    lhs = adjoint_action(i, r + s)
    assert lhs == adjoint_action(i, r) + adjoint_action(i, s)
