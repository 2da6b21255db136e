"""Quantum side: universal R-operators from the chain, braid relations,
classical limits, the quadratic-exponential solution, and the L-operator
with its bialgebra matrix identities."""

import json
import random
from fractions import Fraction

import pytest

from osptwist.algebra import build_osp
from osptwist.pbw import UEElement, UETensor
import osptwist.rmatrix as rm
import osptwist.twist as tws
import osptwist.quantum as qt
from osptwist.cli import main
from osptwist.repmat import GradedMatrix, embed_legs, tensor_pv
from osptwist.scalars import LaurentSeries, Poly
from osptwist.errors import (
    CubeNotZero,
    HeterogeneousOperand,
    NotFirstOrderLie,
)


ALG = build_osp(2)
DEG = 3  # module-test truncation; the acceptance gate re-runs at contract depth


def jordanian_R():
    return qt.universal_R(tws.build_factor(ALG, "jordanian", DEG))


def chain_R():
    return qt.universal_R(tws.full_chain(ALG, DEG))


# -- universal R --------------------------------------------------------------------


def test_rep_exact_degree_is_the_least_exact_truncation():
    """The rep image of R is the same at the derived degree and one above
    it, and differs one below it."""
    d = qt.rep_exact_degree(ALG)
    assert d == 2 and [qt.rep_exact_degree(build_osp(n)) for n in (1, 3)] == [2, 2]

    def image(degree):
        return qt.universal_R(tws.full_chain(ALG, degree)).rep_matrix

    assert image(d) == image(d + 1) != image(d - 1)


def test_r_is_flipped_inverse():
    """R = flip(F) * F^{-1}; triangularity R21 R = 1 is then structural."""
    r = chain_R()
    assert qt.triangularity_residual(r).is_zero


def test_augmentation():
    r = chain_R()
    assert r.augmentation_ok()


def test_qybe_universal_jordanian():
    assert qt.qybe_residual(jordanian_R()).is_zero


def test_qybe_rep_full_chain():
    assert qt.qybe_residual_rep(chain_R()).is_zero


def test_intertwining_sampled_generators():
    """R * twisted-coproduct = flipped-twisted-coproduct * R on generators
    spanning all three behaviors (Cartan, odd root, long root)."""
    r = chain_R()
    w = tws.workshop(ALG, DEG)
    for nm in ("H", "v+", "X+", "J"):
        assert qt.intertwining_residual(r, w.gen(nm)).is_zero, nm


def test_rmatrix_needs_twist_for_intertwining():
    """A rep-only operator cannot be checked against the universal
    coproduct, whether it is a bare rep image or the exp-r solution."""
    bare = qt.RMatrix(None, None, rep_matrix=chain_R().rep_matrix)
    x = tws.workshop(ALG, DEG).gen("H")
    for r in (bare, qt.exp_r_matrix(ALG)):
        with pytest.raises(HeterogeneousOperand):
            qt.intertwining_residual(r, x)


# Entry points on the exp-r solution, a rep-only R-matrix: the rep-level
# residuals read the algebra it keeps, every reader of the universal
# element raises HeterogeneousOperand naming the cause.
REP_ONLY_ENTRIES = {
    "qybe_residual_rep": (qt.qybe_residual_rep, True),
    "rtt_residual": (qt.rtt_residual, True),
    "augmentation_ok": (qt.RMatrix.augmentation_ok, False),
    "triangularity_residual": (qt.triangularity_residual, False),
    "qybe_residual": (qt.qybe_residual, False),
    "classical_limit": (qt.classical_limit, False),
    "l_operator": (qt.l_operator, False),
    "intertwining_residual": (
        lambda r: qt.intertwining_residual(r, tws.workshop(ALG, DEG).gen("H")),
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(REP_ONLY_ENTRIES))
def test_rep_only_r_matrix_entry_points(name):
    entry, rep_level = REP_ONLY_ENTRIES[name]
    r = qt.exp_r_matrix(ALG)
    assert r.algebra is ALG
    if rep_level:
        assert entry(r).is_zero
    else:
        with pytest.raises(HeterogeneousOperand, match="rep-only"):
            entry(r)


# -- classical limits ---------------------------------------------------------------


def test_classical_limit_of_grading_family():
    """Rescaling each grade-2k component by eta^k makes a one-parameter
    family; its first order in eta is the classical cascade solution."""
    fam = qt.universal_R(tws.full_chain(ALG, DEG), eta="eta")
    assert qt.classical_limit(fam) == rm.r_full_borel(ALG)


def test_equal_classical_tensors_hash_equal():
    """The grading family's classical limit has constant Poly
    coefficients, r_full_borel Fraction ones: equal, so one set element."""
    fam = qt.universal_R(tws.full_chain(ALG, 2), eta="eta")
    assert len({qt.classical_limit(fam), rm.r_full_borel(ALG)}) == 1


def test_classical_limit_of_unparameterized_R():
    """Without the parameter the same information sits in the grade-2
    component (the leading deviation from 1 (x) 1)."""
    r = chain_R()
    assert qt.classical_limit(r) == rm.r_full_borel(ALG)


def test_classical_limit_rejects_composite_legs():
    """A grade-2 term with a quadratic leg is not first order in the Lie
    algebra and has no classical-tensor reading."""
    iv = ALG.generator_index("v+")
    t = UETensor(
        ALG,
        {((iv, iv), ()): Fraction(1)},
        2,
        g2cap=2 * DEG,
    )
    fake = qt.RMatrix(UETensor.one(ALG, 2, 2 * DEG) + t, None)
    with pytest.raises(NotFirstOrderLie):
        qt.classical_limit(fake)


# -- quadratic exponential -----------------------------------------------------------


def test_exp_r_matrix_qybe():
    """exp(eta * rho(r)) solves the braid relation with polynomial entries
    because the cube of the rep image of r vanishes."""
    r = qt.exp_r_matrix(ALG)
    assert qt.qybe_residual_rep(r, ALG).is_zero


def _chain_oracle(r_mat, l_mat, pv):
    """R12 L13 L23 - L23 L13 R12 by plain embeddings and products, entry
    scalars multiplied as they are."""
    r12 = embed_legs(r_mat, pv, (1, 2), 3)
    l13 = embed_legs(l_mat, pv, (1, 3), 3)
    l23 = embed_legs(l_mat, pv, (2, 3), 3)
    return r12 @ l13 @ l23 - l23 @ l13 @ r12


def _random_matrix(rng, pv, scalars, terms=6):
    d = len(pv)
    return GradedMatrix(
        pv,
        {(rng.randrange(d), rng.randrange(d)): rng.choice(scalars) for _ in range(terms)},
    )


def test_exchange_matches_the_plain_chain():
    """The monomial-split exchange equals the plain product chain entry for
    entry at n = 1 (a 27-dim cube): rational and Poly operands with
    different variables, a LaurentSeries entry taken whole, the exp-r
    solution itself (zero residual), and random operands whose residuals
    do not vanish."""
    alg = build_osp(1)
    pv = tensor_pv(alg.pv, 2)
    eta, a = Poly.var("eta"), Poly.var("a")
    rational = [1, -2, Fraction(1, 3)]
    in_eta = rational + [eta, 1 + eta**2 / 4, eta ** -1]
    in_a_eta = rational + [a - eta, a**2 * Fraction(-1, 2), a ** -2 + 3]
    series = in_a_eta + [LaurentSeries("t", -1, [1, Fraction(1, 2)], order=2)]
    exp_r = qt.exp_r_matrix(alg).rep_matrix
    rng = random.Random(7)
    cases = [(exp_r, exp_r)]
    for r_scalars, l_scalars in (
        (rational, rational),
        (in_eta, rational),
        (rational, in_a_eta),
        (in_eta, in_a_eta),
        (in_eta, series),
    ):
        for _ in range(3):
            cases.append((
                _random_matrix(rng, pv, r_scalars) + exp_r,
                _random_matrix(rng, pv, l_scalars) + exp_r,
            ))
    nonzero = 0
    for r_mat, l_mat in cases:
        got = qt._exchange(r_mat, l_mat, alg.pv)
        want = _chain_oracle(r_mat, l_mat, alg.pv)
        assert got == want and hash(got) == hash(want)
        nonzero += not got.is_zero
    assert qt._exchange(exp_r, exp_r, alg.pv).is_zero
    assert nonzero == len(cases) - 1


def _corrupted_exp_r(monkeypatch):
    """Patch exp_r_matrix so that its rep matrix carries an extra
    eta^2 / 3 in its (0, 0) entry."""
    honest = qt.exp_r_matrix

    def corrupted(algebra, r=None):
        mat = honest(algebra, r).rep_matrix
        entries = dict(mat.entries)
        entries[0, 0] = entries.get((0, 0), 0) + Poly.var("eta", 2, Fraction(1, 3))
        return qt.RMatrix(
            None, parameter="eta", rep_matrix=GradedMatrix(mat.pv, entries),
            algebra=algebra,
        )

    monkeypatch.setattr(qt, "exp_r_matrix", corrupted)


def test_corrupted_exp_r_fails_its_braid_check(monkeypatch, capsys):
    """Negative control for quantum.exp-r.qybe: an extra eta^2 / 3 in one
    entry of the exp-r rep matrix makes the n=2 report fail that anchor."""
    _corrupted_exp_r(monkeypatch)
    assert main(["quantum", "--n", "2", "--degree", "2", "--format", "json"]) == 1
    status = {
        c["anchor"]: c["status"]
        for c in json.loads(capsys.readouterr().out)["checks"]
    }
    assert status["quantum.exp-r.qybe"] == "fail"


def test_corrupted_exp_r_residual_matches_the_poly_chain(monkeypatch):
    """At n=3 the corrupted exp-r residual is nonzero and equals the
    residual of the plain Poly-entry chain entry for entry."""
    _corrupted_exp_r(monkeypatch)
    alg = build_osp(3)
    r = qt.exp_r_matrix(alg)
    got = qt.qybe_residual_rep(r)
    want = _chain_oracle(r.rep_matrix, r.rep_matrix, alg.pv)
    assert not got.is_zero
    assert got.entries == want.entries


def test_exp_r_matrix_cube_guard():
    """The construction must refuse a seed whose rep cube survives."""
    with pytest.raises(CubeNotZero):
        qt.exp_r_matrix(ALG, r=rm.casimir_tensor(ALG))


# -- L-operator ---------------------------------------------------------------------


def test_l_operator_shape():
    l = qt.l_operator(chain_R())
    assert l.shape_ok()
    assert l.diagonal_unit_ok()


def test_l_operator_skew_corner_entries():
    """Raising-operator images put zeros below the antidiagonal pattern:
    entry (i,j) pairs row functional i with column vector j, so lower rows
    of the matrix collapse to scalars."""
    l = qt.l_operator(chain_R())
    for i in range(l.dim):
        assert l.entries[i][i].coefficient(()) == 1, i
    # strictly-lower entries vanish
    for i in range(l.dim):
        for j in range(l.dim):
            if i > j:
                assert l.entries[i][j].is_zero, (i, j)


def test_l_rep_consistency():
    r = chain_R()
    assert qt.l_operator(r).to_matrix() == r.rep_matrix


def test_rtt_exact():
    assert qt.rtt_residual(chain_R()).is_zero


def test_rtt_detects_corruption():
    """Poisoning one entry of L must break the quadratic exchange relation."""
    r = chain_R()
    l = qt.l_operator(r)
    cap = l.entries[0][0].g2cap
    l.entries[0][1] = l.entries[0][1] + UEElement.generator(
        ALG, "v+", g2cap=cap
    )
    assert not qt.rtt_residual(r, l=l).is_zero


def test_frt_identity_sampled():
    """Entry coproducts follow the column-first matrix-product law, modulo
    the truncation window (see frt_residual's docstring for the margin)."""
    l = qt.l_operator(chain_R())
    for (i, j) in ((0, 0), (0, 2), (2, 4)):
        assert l.frt_residual(i, j).is_zero, (i, j)


def test_frt_margin_is_needed_at_the_corner():
    """At the far corner the truncation shadow is visible: with no margin
    the difference keeps top-grade debris, with the structural margin it is
    clean.  This documents why the margin exists."""
    l = qt.l_operator(chain_R())
    with_margin = l.frt_residual(0, 4, margin=2)
    without = l.frt_residual(0, 4, margin=0)
    assert with_margin.is_zero
    assert not without.is_zero
    cap = l.entries[0][4].g2cap
    for mono in without.terms:
        g = sum(ALG.g2(x) for m in mono for x in m)
        assert g > cap - 2  # all surviving debris sits above the window
