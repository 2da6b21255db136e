"""Classical r-matrices: Yang-Baxter residuals, cobracket kernels,
the rational spectral solution and its contraction limit."""

import random
from fractions import Fraction

import pytest
from hypothesis import (
    Phase, assume, example, find, given, settings, strategies as st,
)

from osptwist.algebra import build_osp
from osptwist.pbw import UETensor
from osptwist.repmat import GradedMatrix, embed_legs
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
    adjoint_exp_tensor,
    spectral_residual_rational,
    contraction_limit,
    contraction_expected_t_part,
    dual_of_opposite,
    ContractionResult,
    _Span,
)
from osptwist.errors import (
    HeterogeneousOperand,
    NegativePowerSurvives,
    NotNilpotent,
    OspTwistError,
)


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


@pytest.mark.parametrize("residual", [cybe_residual, spectral_residual_rational])
@pytest.mark.parametrize("legs", [1, 3])
def test_residuals_need_a_two_leg_tensor(residual, legs):
    h = ALG.generator_index("H")
    t = LieTensor(ALG, legs, {(h,) * legs: Fraction(1)})
    with pytest.raises(HeterogeneousOperand):
        residual(t)


def reference_residual(r, weights):
    """Weighted sum of [r12, r13], [r12, r23] and [r13, r23], each a
    commutator of ``embed_legs`` images of r's defining-rep matrix in the
    cube of the defining space (r is even, so no bracket signs).  The cube
    of the defining representation is faithful on g (x) g (x) g, so this
    checks every coefficient of a residual, not only whether it is zero."""
    m, pv = r.to_matrix(), r.algebra.pv
    r12, r13, r23 = (
        embed_legs(m, pv, legs, 3) for legs in ((1, 2), (1, 3), (2, 3))
    )
    out = GradedMatrix.zero(r12.pv)
    for (a, b), weight in zip(((r12, r13), (r12, r23), (r13, r23)), weights):
        out = out + (a @ b - b @ a).scale(weight)
    return out


def random_even_tensor(alg, seed):
    rng = random.Random(seed)
    keys = [
        (a, b)
        for a in range(alg.size)
        for b in range(alg.size)
        if alg.parity(a) == alg.parity(b)
    ]
    return LieTensor(
        alg,
        2,
        {
            key: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            for key in rng.sample(keys, 5)
        },
    )


ORACLE_CASES = {
    "casimir": casimir_tensor,
    "standard_r0": standard_r0,
    "full_borel": r_full_borel,
    "cascade": r_cascade,
    **{
        "random%d" % seed: (lambda alg, seed=seed: random_even_tensor(alg, seed))
        for seed in range(5)
    },
}


@pytest.mark.parametrize("case", ORACLE_CASES)
@pytest.mark.parametrize("n", [1, 2])
def test_residuals_match_the_defining_rep_oracle(n, case):
    alg = build_osp(n)
    r = ORACLE_CASES[case](alg)
    one = Fraction(1)
    u, w = Poly.var("u"), Poly.var("w")
    cybe = cybe_residual(r).to_matrix()
    assert cybe == reference_residual(r, (one, one, one))
    if case == "casimir":
        assert not cybe.is_zero
    assert spectral_residual_rational(r).to_matrix() == reference_residual(
        r, (w, u + w, u)
    )


def kernel_residual(r):
    """(r12 r13 - r13 r12) + (r12 r23 - r23 r12) + (r13 r23 - r23 r13)
    formed in U(g)^(x)3 by the PBW product kernel, r rebuilt as a
    UETensor whose legs are one-letter monomials.  r is even, so each
    commutator is a plain difference; the Koszul signs are the kernel's."""
    t = UETensor(
        r.algebra,
        {tuple((i,) for i in key): c for key, c in r.terms.items()},
        2,
    )
    r12, r13, r23 = (t.embed(legs, 3) for legs in ((1, 2), (1, 3), (2, 3)))
    return (r12 * r13 - r13 * r12) + (r12 * r23 - r23 * r12) + (
        r13 * r23 - r23 * r13
    )


KERNEL_CASES = {
    "jordanian": r_jordanian,
    "super_jordanian": r_super_jordanian,
    "extended_super_jordanian": r_extended_super_jordanian,
    "cascade": r_cascade,
    "full_borel": r_full_borel,
    "casimir": casimir_tensor,
    **{
        "random%d" % seed: (lambda alg, seed=seed: random_even_tensor(alg, seed))
        for seed in range(3)
    },
}


@pytest.mark.parametrize("case", KERNEL_CASES)
@pytest.mark.parametrize("n", [1, 2])
def test_cybe_residual_matches_the_pbw_kernel(n, case):
    """The closed bracket forms of ``_cybe_brackets`` against the
    commutators in the enveloping algebra, coefficient for coefficient."""
    alg = build_osp(n)
    r = KERNEL_CASES[case](alg)
    residual = cybe_residual(r)
    if case.startswith("random") or case == "casimir":
        assert not residual.is_zero
    want = {
        tuple((i,) for i in key): c for key, c in residual.terms.items()
    }
    assert dict(kernel_residual(r).terms) == want


def test_wedge_conventions():
    """wedge(a,b) = a(x)b - (-1)^{p(a)p(b)} b(x)a; odd self-wedge doubles."""
    iH, iX = ALG.generator_index("H"), ALG.generator_index("X+")
    hx = wedge(ALG, "H", "X+")
    assert hx.terms == {(iH, iX): Fraction(1), (iX, iH): Fraction(-1)}
    iv = ALG.generator_index("v+")
    vv = wedge(ALG, "v+", "v+")
    assert vv.terms == {(iv, iv): Fraction(2)}


@pytest.mark.parametrize("n", [1, 2])
def test_wedge_is_graded_skew_on_every_basis_pair(n):
    """a ^ b is minus its graded flip, and v ^ v is 2 v (x) v for odd v and
    0 for even v."""
    alg = build_osp(n)
    names = [b.name for b in alg.basis]
    for a in names:
        for b in names:
            t = wedge(alg, a, b)
            assert t.flip() == -t, (a, b)
        i = alg.generator_index(a)
        want = {(i, i): Fraction(2)} if alg.parity(i) else {}
        assert wedge(alg, a, a).terms == want, a


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
    t = LaurentSeries("t", 1, [1], 6)
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


def reference_expected_t_part(algebra):
    """contraction_expected_t_part written out with the Koszul sign of each
    wedge e_a ^ y derived by hand."""
    theta = algebra.generator_index("+2e1")
    out = LieTensor.zero(algebra, 2)
    for a in algebra.positive_indices():
        bracket_part: dict = {}
        for b, cb in dual_of_opposite(algebra, a).items():
            for k, sc in algebra.bracket(theta, b).items():
                bracket_part[k] = bracket_part.get(k, Fraction(0)) + cb * sc
        terms: dict = {}
        for k, c in bracket_part.items():
            if not c:
                continue
            # e_a ^ y = e_a (x) y - (-1)^(p(a)p(y)) y (x) e_a
            terms[(a, k)] = terms.get((a, k), 0) + c
            s = algebra.parity(a) and algebra.parity(k)
            terms[(k, a)] = terms.get((k, a), 0) + (c if s else -c)
        out = out + LieTensor(algebra, 2, terms)
    return out.scale(Poly.var("t"))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expected_t_part_matches_the_hand_signed_formula(n):
    alg = build_osp(n)
    assert contraction_expected_t_part(alg) == reference_expected_t_part(alg)


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


# -- legwise adjoint exponential ---------------------------------------------------


def reference_adjoint_exp_tensor(algebra, theta, coeff, t):
    """The orbit route: iterate [theta, -] on each leg's basis element
    until it dies and weight layer k by coeff**k / k!."""

    def orbit(ix):
        layers = [{ix: Fraction(1)}]
        while True:
            nxt = {}
            for j, c in layers[-1].items():
                for k, sc in algebra.bracket(theta, j).items():
                    nxt[k] = nxt.get(k, Fraction(0)) + c * sc
            nxt = {k: c for k, c in nxt.items() if c}
            if not nxt:
                return layers
            layers.append(nxt)
            assert len(layers) <= algebra.size, "orbit does not die"

    out = t
    for leg in range(t.legs):
        nxt = {}
        for key, c in out.terms.items():
            fact, power = Fraction(1), 1
            for depth, layer in enumerate(orbit(key[leg])):
                if depth:
                    fact, power = fact / depth, power * coeff
                scale = c * fact * power if depth else c
                for j, sc in layer.items():
                    newkey = key[:leg] + (j,) + key[leg + 1 :]
                    nxt[newkey] = nxt.get(newkey, 0) + scale * sc
        out = LieTensor(algebra, t.legs, nxt)
    return out


def even_raising(alg):
    return [i for i in alg.positive_indices() if not alg.parity(i)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_adjoint_exp_matches_the_orbit_route(n):
    """The exponential of the ad-theta matrix, applied column by column to
    each leg, equals the orbit sum for every even raising theta, on the
    trigonometric solution with truncated Laurent coefficients."""
    alg = build_osp(n)
    eps = "eps"
    q = LaurentSeries(eps, 1, [Poly.var("s")], 4).exp()
    r = trig_r(alg, q).map_coefficients(
        lambda c: c if isinstance(c, LaurentSeries)
        else LaurentSeries.const(eps, c)
    )
    coeff = LaurentSeries(eps, -1, [Poly.var("t") * 2], None)
    rational = r_full_borel(alg)
    thetas = even_raising(alg)
    assert len(thetas) == n * n
    for theta in thetas:
        got = adjoint_exp_tensor(alg, theta, coeff, r)
        assert got == reference_adjoint_exp_tensor(alg, theta, coeff, r)
        got = adjoint_exp_tensor(alg, theta, Fraction(3), rational)
        assert got == reference_adjoint_exp_tensor(
            alg, theta, Fraction(3), rational
        )


def test_adjoint_exp_of_a_cartan_theta_is_refused():
    """ad(h) is not nilpotent, so its exponential does not terminate; the
    refusal is a library error the CLI reports, not a crash."""
    h = ALG.generator_index("h1")
    with pytest.raises(NotNilpotent) as info:
        adjoint_exp_tensor(ALG, h, Fraction(1), r_full_borel(ALG))
    assert isinstance(info.value, OspTwistError)


def test_adjoint_exp_of_an_odd_theta_is_refused():
    v = ALG.generator_index("+e1")
    with pytest.raises(HeterogeneousOperand):
        adjoint_exp_tensor(ALG, v, Fraction(1), r_full_borel(ALG))


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


# -- the numerator loops against Fraction-only oracles ---------------------------
#
# The oracles are the loops over the decoded ``terms`` view that the stored-
# numerator routines replaced: tuple keys, Fraction (or Poly) coefficients,
# every structure constant read as a Fraction, and the public constructor.


def oracle_adjoint_action(x_index, t):
    alg = t.algebra
    px = alg.parity(x_index)
    out: dict = {}
    for key, c in t.terms.items():
        left_parity = 0
        for leg in range(t.legs):
            coeff = -c if px and left_parity % 2 else c
            for res, sc in alg.bracket(x_index, key[leg]).items():
                newkey = key[:leg] + (res,) + key[leg + 1:]
                out[newkey] = out.get(newkey, 0) + coeff * Fraction(sc)
            left_parity += alg.parity(key[leg])
    return LieTensor(alg, t.legs, out)


def oracle_cybe_brackets(r):
    alg = r.algebra
    terms = list(r.terms.items())
    out: dict = {}
    for (i, j), c1 in terms:
        for (k, l), c2 in terms:
            cc = c1 * c2
            signed = -cc if alg.parity(j) and alg.parity(k) else cc
            for res, sc in alg.bracket(i, k).items():
                out.setdefault((res, j, l), [0, 0, 0])[0] += signed * Fraction(sc)
            for res, sc in alg.bracket(j, k).items():
                out.setdefault((i, res, l), [0, 0, 0])[1] += cc * Fraction(sc)
            for res, sc in alg.bracket(j, l).items():
                out.setdefault((i, k, res), [0, 0, 0])[2] += signed * Fraction(sc)
    return out


def oracle_cybe_residual(r):
    return LieTensor(
        r.algebra,
        3,
        {k: a + b + c for k, (a, b, c) in oracle_cybe_brackets(r).items()},
    )


def oracle_spectral_residual(r):
    u, w = Poly.var("u"), Poly.var("w")
    return LieTensor(
        r.algebra,
        3,
        {
            k: w * a + (u + w) * b + u * d
            for k, (a, b, d) in oracle_cybe_brackets(r).items()
        },
    )


def oracle_kernel_closed(alg, kernel_basis):
    for va in kernel_basis:
        for vb in kernel_basis:
            out = [Fraction(0)] * alg.size
            for i, ca in enumerate(va):
                for j, cb in enumerate(vb):
                    if ca and cb:
                        for k, c in alg.bracket(i, j).items():
                            out[k] += Fraction(ca) * Fraction(cb) * Fraction(c)
            if any(out) and not reference_span_contains(kernel_basis, out):
                return False
    return True


def oracle_cobracket_kernel(alg, r):
    images = [oracle_adjoint_action(i, r) for i in range(alg.size)]
    keys = sorted({k for img in images for k in img.terms})
    mat = [[Fraction(0)] * alg.size for _ in keys]
    for i, img in enumerate(images):
        for k, c in img.terms.items():
            mat[keys.index(k)][i] = c
    rows, pivots = rref(mat)
    basis = []
    for fc in (c for c in range(alg.size) if c not in pivots):
        vec = [Fraction(0)] * alg.size
        vec[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


# drawn from a list, not filtered: a span takes one draw per entry, and a
# filter rejecting a third of the draws failed hypothesis's filter_too_much
# health check in some runs
NONINTEGRAL = st.sampled_from(sorted(
    {Fraction(n, d) for n in range(-7, 8) for d in (2, 3, 4, 6) if n % d}
))
A = Poly.var("a")


@st.composite
def drawn_tensors(draw, legs=2, even=False, poly=False):
    """A LieTensor on osp(1|4) of 1-6 terms: rational with at least one
    non-integral coefficient (so den > 1), or with Poly coefficients in
    ``a`` among rational ones.  ``even`` keeps every term even."""
    keys = draw(st.lists(
        st.tuples(*[st.integers(0, ALG.size - 1)] * legs).filter(
            lambda k: not even or sum(ALG.parity(x) for x in k) % 2 == 0
        ),
        min_size=1, max_size=6, unique=True,
    ))
    coeffs = [draw(NONINTEGRAL)] + [
        draw(st.one_of(ENTRY.filter(bool), NONINTEGRAL)) for _ in keys[1:]
    ]
    if poly:
        coeffs[0] = A * draw(NONINTEGRAL) + draw(ENTRY)
        coeffs[1:] = [c * A if draw(st.booleans()) else c for c in coeffs[1:]]
    t = LieTensor(ALG, legs, dict(zip(keys, coeffs)))
    assume(not t.is_zero)
    assert (t.den is None) == poly and (poly or t.den > 1)
    return t


def same_tensor(got, want):
    """Equal, hashing alike, and stored alike."""
    assert got == want
    assert hash(got) == hash(want)
    assert (got.den, got.data) == (want.den, want.data)


@given(
    st.integers(0, ALG.size - 1),
    st.one_of(
        *[drawn_tensors(legs, poly=poly) for legs in (1, 2, 3)
          for poly in (False, True)]
    ),
)
@settings(max_examples=80, deadline=None)
def test_adjoint_action_matches_the_fraction_oracle(x, t):
    same_tensor(adjoint_action(x, t), oracle_adjoint_action(x, t))


@given(st.one_of(
    drawn_tensors(even=True), drawn_tensors(even=True, poly=True)
))
@settings(max_examples=60, deadline=None)
def test_cybe_residuals_match_the_fraction_oracle(r):
    same_tensor(cybe_residual(r), oracle_cybe_residual(r))
    same_tensor(spectral_residual_rational(r), oracle_spectral_residual(r))


@given(drawn_tensors(even=True))
@settings(max_examples=15, deadline=None)
def test_cobracket_kernel_matches_the_fraction_oracle(r):
    assert cobracket_kernel(ALG, r) == oracle_cobracket_kernel(ALG, r)


@st.composite
def drawn_spans(draw):
    """Kernel vectors scaled by non-integral factors: a subalgebra's
    (a cobracket kernel), or one with a fresh vector or more added."""
    base = draw(st.sampled_from((
        r_extended_super_jordanian, r_super_jordanian, r_jordanian
    )))
    vectors = [
        [draw(NONINTEGRAL) * x for x in v]
        for v in cobracket_kernel(ALG, base(ALG))
    ]
    extra = st.lists(
        st.one_of(st.just(0), NONINTEGRAL), min_size=ALG.size,
        max_size=ALG.size,
    )
    return vectors + draw(st.lists(extra, max_size=2))


@given(drawn_spans())
@settings(max_examples=25, deadline=None)
def test_kernel_closure_matches_the_fraction_oracle(vectors):
    assert kernel_closed_under_bracket(ALG, vectors) == oracle_kernel_closed(
        ALG, vectors
    )
