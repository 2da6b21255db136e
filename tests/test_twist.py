"""The deformation chain: factor construction, cocycle identities, the
conjugation-defined second-link generators, and the exact matrix shadow.

Module tests run at low truncation degree.  The grading quotient is exact:
an identity that holds at degree d holds for every component of total grade
at most 2*d, so low-degree runs genuinely certify those components (the
acceptance gate re-runs the heavy identities at the contract degree).
"""

import gc
import weakref
from fractions import Fraction

import pytest

from osptwist import pbw
from osptwist.algebra import OspAlgebra, build_osp
from osptwist.pbw import UEElement, UETensor, ue_exp, ue_invert
from osptwist.repmat import GradedMatrix, embed_legs, kron
import osptwist.quantum as qt
import osptwist.twist as tws
from osptwist.twist import (
    Twist,
    TwistFactor,
    workshop,
    build_factor,
    extended_super_jordanian,
    full_chain,
    cocycle_residual,
    twisted_coproduct,
    primitive_part,
    rep_cocycle_residual,
    rep_twist_matrix,
    ESJ_KINDS,
    FACTOR_KINDS,
    FULL_CHAIN_KINDS,
)
from osptwist.errors import MissingAlias, MixedAlgebra
from osptwist.scalars import taylor_log1p


ALG = build_osp(2)
DEG = 4  # deep enough to see every qualitative effect (see the negative control)


def ws():
    return workshop(ALG, DEG)


# -- factors ---------------------------------------------------------------------


def test_factor_kinds_and_unknown():
    for kind in FACTOR_KINDS:
        f = build_factor(ALG, kind, DEG)
        assert isinstance(f, Twist)
    with pytest.raises(MissingAlias):
        build_factor(ALG, "nope", DEG)


def test_factor_closed_forms():
    """The first two factors are plain exponentials of one tensor leg."""
    w = ws()
    h, z, u = w.gen("H"), w.gen("Z+"), w.gen("U+")
    fj = ue_exp(UETensor.of(h, w.sigma(), g2cap=w.g2cap))
    assert build_factor(ALG, "jordanian", DEG).element == fj
    fe = ue_exp(
        UETensor.of(z, u * w.exp_neg_sigma(), g2cap=w.g2cap).scale(
            Fraction(1, 2)
        )
    )
    assert build_factor(ALG, "extension", DEG).element == fe


def test_counit_conditions():
    for kind in FACTOR_KINDS:
        assert build_factor(ALG, kind, DEG).counit_ok(), kind
    assert full_chain(ALG, DEG).counit_ok()


def test_extension_and_odd_factor_commute():
    w = ws()
    fe, fs = w.factor("extension"), w.factor("super")
    assert fe * fs == fs * fe


# -- cocycle identities ------------------------------------------------------------


def test_cocycle_jordanian():
    assert cocycle_residual(build_factor(ALG, "jordanian", DEG)).is_zero


def test_cocycle_extension_after_jordanian():
    ext, jor = (build_factor(ALG, k, DEG) for k in ("extension", "jordanian"))
    f = Twist(ext.factors + jor.factors, ext.factorization + jor.factorization)
    assert cocycle_residual(f).is_zero


def test_cocycle_three_factor_chain():
    assert cocycle_residual(extended_super_jordanian(ALG, DEG)).is_zero


def test_cocycle_full_chain():
    assert cocycle_residual(full_chain(ALG, DEG)).is_zero


def test_cocycle_residual_holds_one_product_at_a_time(monkeypatch):
    """Memory regression at degree 3, with the multiplication table warm:
    the traced peak of the residual stays below 1.2 times that of its left
    product F12 (cop (x) id)(F) alone.  The fused residual reads 0.95
    here; holding the left product while the right one is formed, then
    subtracting, peaks at 1.42 times, so the bound sits between the two.
    Degree 3 keeps tracemalloc's slowdown to about a second; the ratios
    depend on the degree (at degree 4 they read 0.96 and 1.53).  Every
    product is summed in this process: tracemalloc cannot see a forked
    child's allocations."""
    import tracemalloc

    monkeypatch.setattr(pbw, "_FORK_PAIRS", float("inf"))
    f = full_chain(ALG, 3)
    el = f.element
    cocycle_residual(f)

    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    left = traced_peak(lambda: el.embed((1, 2), 3) * el.coproduct_leg(1))
    both = traced_peak(lambda: cocycle_residual(f))
    assert both < 1.2 * left, both / left


def test_cocycle_residual_holds_one_slice_at_a_time(monkeypatch):
    """Memory regression at degree 4, with the multiplication table warm:
    the traced peak of the residual, which builds both coproducts of F,
    stays below 1.12 times that of its left product F12 (cop (x) id)(F)
    alone, which builds one.  Summed slice by slice, the residual reads
    0.96 here; with the whole first product held in one accumulator until
    the second cancels it, 1.18.  Every product is summed in this process:
    tracemalloc cannot see a forked child's allocations."""
    import tracemalloc

    monkeypatch.setattr(pbw, "_FORK_PAIRS", float("inf"))
    f = full_chain(ALG, 4)
    el = f.element
    cocycle_residual(f)

    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    left = traced_peak(lambda: el.embed((1, 2), 3) * el.coproduct_leg(1))
    both = traced_peak(lambda: cocycle_residual(f))
    assert both < 1.12 * left, both / left


def test_workshop_is_freed_without_a_cyclic_collection():
    """A workshop is both slots of its factor context without holding
    itself, so one that is dropped, with the factors it built, is freed
    by reference counting alone."""
    alg = OspAlgebra(2)
    gc.collect()
    gc.disable()
    try:
        ws = tws._Workshop(alg, 4)
        assert ws.slots == (ws, ws)
        assert not ws.factor("super").is_zero
        gone = weakref.ref(ws)
        del ws
        assert gone() is None
    finally:
        gc.enable()


def test_extension_factor_alone_is_not_a_cocycle():
    """Order matters: the extension factor only closes after the jordanian
    one has reshaped the coproduct."""
    assert not cocycle_residual(build_factor(ALG, "extension", DEG)).is_zero


def test_coboundary_must_use_the_twisted_coproduct():
    """Negative control for the subtlest convention in the chain.

    The inner factor has the shape (u (x) u) * coproduct(1/u), and the
    coproduct there must be the one already twisted by the jordanian
    factor.  Building the same expression with the plain coproduct gives a
    chain that fails the cocycle identity -- the failure first appears at
    truncation degree four, and is invisible in the defining rep."""
    w = ws()
    wrong_du = w.u_inv().coproduct()
    wrong_c = (
        UETensor.of(w.u_elem(), w.u_elem(), g2cap=w.g2cap) * wrong_du
    )
    vf = w.gen("v+") * w.f1()
    vv = UETensor.of(vf, vf, g2cap=w.g2cap)
    wrong_super = (vv.one_like() - vv) * wrong_c
    f_wrong = wrong_super * w.factor("extension") * w.factor("jordanian")
    res = cocycle_residual(Twist(f_wrong, ("wrong-coboundary",)))
    assert not res.is_zero
    # ... while the correctly built chain is clean at the same degree
    assert cocycle_residual(extended_super_jordanian(ALG, DEG)).is_zero
    # and the defining rep cannot tell the two apart (the residual's
    # support starts above the grades the rep can see)
    assert res.to_matrix().is_zero


# -- twisted coproducts ------------------------------------------------------------


def test_jordanian_coproduct_closed_forms():
    w = ws()
    fj = build_factor(ALG, "jordanian", DEG)
    one = UEElement.one(ALG, g2cap=w.g2cap)
    x = w.gen("X+")
    # the long raising element becomes grouplike-ish: X (x) e^{2 sigma} + 1 (x) X
    want = UETensor.of(x, one + x, g2cap=w.g2cap) + UETensor.of(
        one, x, g2cap=w.g2cap
    )
    assert twisted_coproduct(fj, x) == want
    # sigma stays primitive
    assert twisted_coproduct(fj, w.sigma()) == primitive_part(w.sigma())


def test_second_block_primitives_for_three_factor_coproduct():
    """The conjugation-defined second-block generators are primitive for the
    three-factor coproduct (which is what lets the second link of the chain
    ride on them) -- but not for the full-chain coproduct."""
    w = ws()
    esj = extended_super_jordanian(ALG, DEG)
    for x in (w.sigma(), w.gen("J"), w.y_tilde(), w.w_tilde()):
        assert twisted_coproduct(esj, x) == primitive_part(x)
    fc = full_chain(ALG, DEG)
    assert twisted_coproduct(fc, w.y_tilde()) != primitive_part(w.y_tilde())


# -- factor-wise inverse and conjugation, against the whole-element route -----------


def whole_element_coproduct(f, x):
    return f.element * x.coproduct() * ue_invert(f.element)


def test_factorwise_inverse_matches_whole_element_inverse():
    chain = full_chain(ALG, DEG)
    composed = Twist(
        [p for k in FULL_CHAIN_KINDS for p in build_factor(ALG, k, DEG).factors],
        FULL_CHAIN_KINDS,
    )
    bare = Twist(chain.element, ("bare",))
    assert composed.element == chain.element
    assert len(chain.factors) == len(composed.factors) == 4
    assert len(bare.factors) == 1
    for f in (chain, extended_super_jordanian(ALG, DEG), composed, bare):
        assert f.inverse == ue_invert(f.element), f


def test_factorwise_coproduct_matches_whole_element_conjugation():
    f = full_chain(ALG, DEG)
    entry = qt.l_operator(qt.universal_R(f)).entry(0, 2)
    assert not entry.is_zero
    for x in (ws().gen("J"), ws().gen("U+"), entry):
        assert twisted_coproduct(f, x) == whole_element_coproduct(f, x)


def shift_lowest_coefficient(el):
    """``el`` with the coefficient of its lowest-grade non-constant term
    shifted by 1/7 (a top-grade shift could vanish in every product)."""
    terms = dict(el.terms)
    key = min(
        (k for k in terms if any(k)),
        key=lambda k: (sum(el.algebra.g2(x) for m in k for x in m), k),
    )
    terms[key] += Fraction(1, 7)
    return UETensor(el.algebra, terms, el.legs, el.g2cap)


def test_factorwise_route_cannot_hide_a_wrong_factor():
    """Negative control: one wrong coefficient in one factor, or in one
    factor's kept inverse, must show against the whole-element route.  A
    shifted term may commute with the coproduct of one generator, so the
    coproducts are compared on three (each control is caught by at least
    one of them)."""
    f = full_chain(ALG, DEG)
    xs = [ws().gen(nm) for nm in ("H", "J", "U+")]
    want_inv = ue_invert(f.element)
    want_cops = [whole_element_coproduct(f, x) for x in xs]
    for i, good in enumerate(f.factors):
        wrong_element = TwistFactor(shift_lowest_coefficient(good.element))
        wrong_inverse = TwistFactor(good.element)
        # a wrong value in the slot that keeps the computed inverse
        wrong_inverse._inverse = shift_lowest_coefficient(good.inverse)
        for wrong in (wrong_element, wrong_inverse):
            factors = f.factors[:i] + (wrong,) + f.factors[i + 1:]
            bad = Twist(factors, f.factorization)
            assert bad.inverse != want_inv, f.factorization[i]
            assert any(
                twisted_coproduct(bad, x) != want
                for x, want in zip(xs, want_cops)
            ), f.factorization[i]


def test_tilde_generators_match_closed_forms():
    w = ws()
    assert w.y_tilde() == w.y_tilde_closed()
    assert w.w_tilde() == w.w_tilde_closed()


def test_tilde_generators_leading_terms():
    """ỹ = Y+ + (higher), w̃ = w+ + (higher); corrections carry the paired
    and long raising roots of the first block."""
    w = ws()
    y = w.y_tilde()
    assert y.coefficient((ALG.generator_index("Y+"),)) == 1
    u2 = (ALG.generator_index("U+"), ALG.generator_index("U+"))
    assert y.coefficient(u2) == Fraction(-1, 4)
    wt = w.w_tilde()
    assert wt.coefficient((ALG.generator_index("w+"),)) == 1


# -- exact matrix shadow ------------------------------------------------------------


def test_rep_cocycle_exact():
    assert rep_cocycle_residual(ALG, ("jordanian",)).is_zero
    assert rep_cocycle_residual(
        ALG, ("super", "extension", "jordanian")
    ).is_zero
    assert rep_cocycle_residual(
        ALG, ("sj2", "super", "extension", "jordanian")
    ).is_zero


@pytest.mark.parametrize("legs", [(1, 2), (2, 3), (1, 3)])
def test_summed_legs_are_the_kron_coproduct_image(legs):
    """The summed assignment of two legs of rho^(x)3 sends each generator m
    to the two-leg coproduct image m (x) 1 + 1 (x) m placed on those legs."""
    eye = GradedMatrix.identity(ALG.pv)
    summed = tws.rep_leg(ALG, legs[0], 3) + tws.rep_leg(ALG, legs[1], 3)
    for nm in tws._REP_NAMES:
        m = ALG.generator_matrix(nm)
        want = embed_legs(kron(m, eye) + kron(eye, m), ALG.pv, legs, 3)
        assert summed.gen(nm) == want, nm


def test_rep_chain_matches_truncated_element():
    """Cross-check of the two independent evaluation paths: the matrix of
    the truncated chain element equals the directly assembled rep-side
    twist (nilpotency makes the rep blind beyond low grades, so a modest
    truncation degree already reproduces the exact matrix)."""
    kinds = ("sj2", "super", "extension", "jordanian")
    direct = rep_twist_matrix(ALG, kinds)
    element = full_chain(ALG, DEG).element.to_matrix()
    assert direct == element


def test_rep_tilde_generators_match_closed_forms():
    """At matrix level the tilded generators also come from conjugation,
    and the closed forms are the independent route.  Checked on one leg
    (5-dim), where the corrections vanish, and on the summed assignment of
    two legs (25-dim), whose ingredients are the coproduct images and where
    the corrections show."""
    one_leg = tws.rep_leg(ALG, 1, 1)
    summed = tws.rep_leg(ALG, 1, 2) + tws.rep_leg(ALG, 2, 2)
    for a in (one_leg, summed):
        assert a.y_tilde() == a.y_tilde_closed()
        assert a.w_tilde() == a.w_tilde_closed()
    assert summed.y_tilde() != summed.gen("Y+")
    assert summed.w_tilde() != summed.gen("w+")


REP_CHAINS = (("jordanian",), ESJ_KINDS, FULL_CHAIN_KINDS)


@pytest.mark.parametrize("kinds", REP_CHAINS)
def test_embedded_square_chain_is_the_cube_chain(kinds):
    """Oracle for the F12 and F23 of the matrix cocycle: the chain built
    on two legs of rho^(x)3 equals the chain built on rho^(x)2 and
    embedded in those legs."""
    l1, l2, l3 = (tws.rep_leg(ALG, leg, 3) for leg in (1, 2, 3))
    square = rep_twist_matrix(ALG, kinds)
    assert tws.rep_chain(kinds, l1, l2) == embed_legs(square, ALG.pv, (1, 2), 3)
    assert tws.rep_chain(kinds, l2, l3) == embed_legs(square, ALG.pv, (2, 3), 3)


@pytest.mark.parametrize("kinds", REP_CHAINS)
def test_doubled_square_chain_entry_fails_the_rep_cocycle(monkeypatch, kinds):
    """Negative control for the embedded F12 and F23: doubling one
    off-diagonal entry of the square chain breaks the matrix cocycle."""
    square = rep_twist_matrix(ALG, kinds)
    ij = min(ij for ij in square.entries if ij[0] != ij[1])
    bad = GradedMatrix(square.pv, {**square.entries, ij: 2 * square[ij]})
    monkeypatch.setattr(tws, "rep_twist_matrix", lambda alg, k: bad)
    assert not rep_cocycle_residual(ALG, kinds).is_zero


def test_rep_cocycle_leaves_no_cache_on_the_algebra():
    """The assignments a matrix cocycle shares live for one call: a fresh
    algebra instance gains no attribute and no cache entry."""
    alg = OspAlgebra(2)

    def state():
        return {k: len(v) if isinstance(v, dict) else v for k, v in vars(alg).items()}

    before = state()
    assert rep_cocycle_residual(alg, FULL_CHAIN_KINDS).is_zero
    assert state() == before


def test_rep_cocycle_is_freed_without_a_cyclic_collection():
    """No assignment holds itself (through its raising function or its
    second link), so what a matrix cocycle builds is freed as the call
    returns: with the collector off around the call, a collection after
    it finds no matrix, assignment or ingredient object."""
    gc.collect()
    gc.disable()
    try:
        assert rep_cocycle_residual(ALG, FULL_CHAIN_KINDS).is_zero
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
    finally:
        gc.set_debug(0)
        gc.enable()
    found = [
        type(o).__name__ for o in gc.garbage
        if isinstance(o, (GradedMatrix, tws._Ingredients))
    ]
    gc.garbage.clear()
    assert found == []


def test_corrupted_ingredient_fails_at_both_levels(monkeypatch):
    """Negative control for the shared recipe: with sigma = 1/3 log(1+X+)
    instead of 1/2, the jordanian factor is no cocycle, and both the
    enveloping-algebra and the matrix residual must say so."""

    def third_log(link):
        return link.raising().series(taylor_log1p).scale(
            Fraction(1, 3)
        )

    monkeypatch.setattr(tws._Link, "sigma", third_log)
    fresh = tws._Workshop(ALG, 2 * DEG)  # the memoized workshop stays clean
    jordanian = Twist([fresh.twist_factor("jordanian")], ("jordanian",))
    assert not cocycle_residual(jordanian).is_zero
    assert not rep_cocycle_residual(ALG, ("jordanian",)).is_zero


def test_workshop_is_memoized():
    assert workshop(ALG, DEG) is workshop(ALG, DEG)
    assert workshop(ALG, DEG) is not workshop(ALG, DEG + 1)


def test_workshop_belongs_to_one_algebra_instance():
    """A chain built on a fresh instance with a poisoned structure
    constant is never handed back for the shared algebra of that rank,
    nor the shared one's for it, and the two do not compose."""
    bad = OspAlgebra(2)
    i, j, k = (bad.generator_index(nm) for nm in ("Z+", "U+", "X+"))
    wrong = dict(bad.bracket(i, j))
    wrong[k] = wrong.get(k, Fraction(0)) + 1  # 2X+ -> 3X+
    bad._bracket_cache[(i, j)] = wrong
    poisoned = full_chain(bad, 2)
    clean = full_chain(build_osp(2), 2)
    assert poisoned.element.algebra is bad
    assert clean.element.algebra is build_osp(2)
    assert cocycle_residual(clean).is_zero
    with pytest.raises(MixedAlgebra):
        Twist(poisoned.factors + clean.factors, FULL_CHAIN_KINDS * 2)
