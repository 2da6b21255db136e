"""Structure of the orthosymplectic superalgebras in the defining rep.

The bracket oracle below was written down independently from the root-system
conventions (h_k dual to e_k, odd generators at the short roots +-e_k, long
roots 2e_k normalized as the square of the short odd generator) and frozen;
the tests require the constructed algebra to reproduce it coefficient for
coefficient.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from osptwist.algebra import build_osp, check_jacobi, OspAlgebra
from osptwist.errors import MissingAlias


ALG = build_osp(2)

# Frozen bracket oracle for rank 2.  Keys are generator-name pairs, values the
# expansion of their super bracket in named coordinates.
BRACKET_ORACLE_N2 = {
    ("h1", "+2e1"): {"+2e1": 2},
    ("h1", "+e1"): {"+e1": 1},
    ("h1", "+e1+e2"): {"+e1+e2": 1},
    ("h1", "+e1-e2"): {"+e1-e2": 1},
    ("h2", "+2e2"): {"+2e2": 2},
    ("h2", "+e2"): {"+e2": 1},
    ("h2", "+e1-e2"): {"+e1-e2": -1},
    ("h2", "+e1+e2"): {"+e1+e2": 1},
    ("+e1-e2", "+e1+e2"): {"+2e1": 2},
    ("+e1-e2", "+2e2"): {"+e1+e2": 1},
    ("+e1-e2", "+e2"): {"+e1": 1},
    ("+e1", "+e2"): {"+e1+e2": 1},
    # squares of the odd generators give the long roots
    ("+e1", "+e1"): {"+2e1": 2},
    ("+e2", "+e2"): {"+2e2": 2},
    # pairings with the opposite root land in the Cartan subalgebra
    ("+2e1", "-2e1"): {"h1": 1},
    ("+2e2", "-2e2"): {"h2": 1},
    ("+e1", "-e1"): {"h1": -1},
    ("+e2", "-e2"): {"h2": -1},
    ("+e1-e2", "-e1+e2"): {"h1": 1, "h2": -1},
    ("+e1+e2", "-e1-e2"): {"h1": 1, "h2": 1},
    # vanishing brackets
    ("h1", "h2"): {},
    ("+2e1", "+2e2"): {},
    ("+2e1", "h2"): {},
    ("+2e1", "+e1"): {},
    ("+2e1", "+e1-e2"): {},
    ("+2e1", "+e1+e2"): {},
}

# The rank-n family: simple even roots e_k - e_{k+1}, one odd simple root e_n,
# long roots as odd squares, and ladder relations between the paired and
# difference roots.  Frozen for rank 3.
BRACKET_ORACLE_N3 = {
    ("h1", "+2e1"): {"+2e1": 2},
    ("h2", "+2e2"): {"+2e2": 2},
    ("h3", "+2e3"): {"+2e3": 2},
    ("h1", "+e1"): {"+e1": 1},
    ("h2", "+e2"): {"+e2": 1},
    ("h3", "+e3"): {"+e3": 1},
    ("+e1-e2", "+e1+e2"): {"+2e1": 2},
    ("+e1-e3", "+e1+e3"): {"+2e1": 2},
    ("+e2-e3", "+e2+e3"): {"+2e2": 2},
    ("+e1", "+e2"): {"+e1+e2": 1},
    ("+e1", "+e3"): {"+e1+e3": 1},
    ("+e2", "+e3"): {"+e2+e3": 1},
    ("+e1-e2", "+e2"): {"+e1": 1},
    ("+e1-e3", "+e3"): {"+e1": 1},
    ("+e2-e3", "+e3"): {"+e2": 1},
    ("h1", "+e1-e2"): {"+e1-e2": 1},
    ("h1", "+e1+e2"): {"+e1+e2": 1},
    ("h1", "+e1-e3"): {"+e1-e3": 1},
    ("h2", "+e2-e3"): {"+e2-e3": 1},
    ("h2", "+e2+e3"): {"+e2+e3": 1},
    # simple-root chain: [e1-e2, e2-e3] = e1-e3
    ("+e1-e2", "+e2-e3"): {"+e1-e3": 1},
}


def bracket_by_name(alg, a, b):
    d = alg.bracket(alg.generator_index(a), alg.generator_index(b))
    return {alg.name_of(k): c for k, c in d.items()}


def test_dimension_formula():
    for n in (1, 2, 3):
        alg = build_osp(n)
        assert alg.size == 2 * n * n + 3 * n
        assert alg.dim_rep == 2 * n + 1
        assert sum(alg.pv) == 1  # exactly one odd coordinate in the rep


def test_bracket_oracle_rank2():
    for (a, b), want in BRACKET_ORACLE_N2.items():
        got = bracket_by_name(ALG, a, b)
        assert got == {k: Fraction(v) for k, v in want.items()}, (a, b, got)


def test_bracket_oracle_rank3():
    alg = build_osp(3)
    for (a, b), want in BRACKET_ORACLE_N3.items():
        got = bracket_by_name(alg, a, b)
        assert got == {k: Fraction(v) for k, v in want.items()}, (a, b, got)


def test_bracket_super_symmetry():
    """[a,b] = -(-1)^{p(a)p(b)} [b,a] for every basis pair."""
    for i in range(ALG.size):
        for j in range(ALG.size):
            fwd = ALG.bracket(i, j)
            bwd = ALG.bracket(j, i)
            sign = -1 if not (ALG.parity(i) and ALG.parity(j)) else 1
            assert fwd == {k: sign * c for k, c in bwd.items()}, (i, j)


def test_jacobi_rank2_clean():
    assert check_jacobi(ALG) == []


def test_jacobi_rank3_clean():
    assert check_jacobi(build_osp(3)) == []


def test_jacobi_detects_corruption():
    """A deliberately poisoned structure constant must show up as violations."""
    bad = OspAlgebra(2)
    i = bad.generator_index("Z+")
    j = bad.generator_index("U+")
    wrong = dict(bad.bracket(i, j))
    k = bad.generator_index("X+")
    wrong[k] = wrong.get(k, Fraction(0)) + 1  # 2X+ -> 3X+
    bad._bracket_cache[(i, j)] = wrong
    assert check_jacobi(bad) != []


@pytest.mark.parametrize("n, poison", [(2, Fraction(1, 2)), (4, 1)])
def test_jacobi_detects_a_poisoned_constant(n, poison):
    """check_jacobi reads the structure constants into a table, integral
    ones as ints and the others as Fractions; a poison of either kind in
    [+e1-e2, +e1+e2] = 2(+2e1) is reported, at rank 2 and at rank 4."""
    bad = OspAlgebra(n)
    i = bad.generator_index("+e1-e2")
    j = bad.generator_index("+e1+e2")
    k = bad.generator_index("+2e1")
    wrong = dict(bad.bracket(i, j))
    assert wrong == {k: 2}
    wrong[k] += poison
    bad._bracket_cache[(i, j)] = wrong
    assert check_jacobi(bad) != []


def test_parity_assignment():
    odd = [b.name for b in ALG.basis if b.parity]
    assert sorted(odd) == sorted(["+e1", "+e2", "-e1", "-e2"])
    alg3 = build_osp(3)
    assert sum(1 for b in alg3.basis if b.parity) == 2 * 3


def test_grading_by_root_height():
    g2 = {b.name: b.g2 for b in ALG.basis}
    assert g2["h1"] == 0 and g2["h2"] == 0
    assert g2["+e1"] == 1 and g2["+e2"] == 1
    assert g2["+2e1"] == 2 and g2["+e1+e2"] == 2
    assert g2["+e1-e2"] == 0
    assert g2["-2e1"] == -2 and g2["-e1"] == -1


def test_aliases_resolve():
    pairs = [
        ("H", "h1"), ("J", "h2"),
        ("X+", "+2e1"), ("Y+", "+2e2"),
        ("v+", "+e1"), ("w+", "+e2"),
        ("Z+", "+e1-e2"), ("U+", "+e1+e2"),
        ("X-", "-2e1"), ("v-", "-e1"),
    ]
    for alias, name in pairs:
        assert ALG.name_of(ALG.generator_index(alias)) == name
    with pytest.raises(MissingAlias):
        ALG.generator_index("Q+")
    with pytest.raises(MissingAlias):
        # the two-subalgebra labels only exist at low rank
        build_osp(3).generator_index("w+")


def test_roots_closed_under_negation():
    """Each root vector of the basis has exactly one partner of the
    opposite root, and it sits at the opposite grade."""
    roots = {b.root: b for b in ALG.basis if b.kind != "cartan"}
    assert len(roots) == ALG.size - ALG.n
    for root, b in roots.items():
        assert roots[tuple(-c for c in root)].g2 == -b.g2


def test_defining_rep_preserves_the_form():
    """Every basis matrix m satisfies  m^st B + B m = 0  in the graded sense."""
    for b in ALG.basis:
        assert ALG.preserves_form(b.matrix), b.name
    alg3 = build_osp(3)
    for b in alg3.basis:
        assert alg3.preserves_form(b.matrix), b.name


def test_rep_is_a_homomorphism():
    """The matrix of [x,y] equals the super commutator of the matrices."""
    for i in range(ALG.size):
        for j in range(i, ALG.size):
            mi, mj = ALG.basis[i].matrix, ALG.basis[j].matrix
            want = mi.super_commutator(mj)
            got = sum(
                (ALG.basis[k].matrix.scale(c) for k, c in ALG.bracket(i, j).items()),
                mi.zero(ALG.pv) if hasattr(mi, "zero") else type(mi).zero(ALG.pv),
            )
            assert got == want, (ALG.name_of(i), ALG.name_of(j))


coeff_lists = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    min_size=14,
    max_size=14,
)


@given(coeff_lists)
@settings(max_examples=30, deadline=None)
def test_expand_in_basis_roundtrip(cs):
    m = sum(
        (ALG.basis[k].matrix.scale(c) for k, c in enumerate(cs)),
        type(ALG.basis[0].matrix).zero(ALG.pv),
    )
    expanded = ALG.expand_in_basis(m)
    got = [Fraction(0)] * ALG.size
    for k, c in expanded.items():
        got[k] = c
    assert got == [Fraction(c) for c in cs]


def test_expand_in_basis_rejects_outside_span():
    from osptwist.repmat import GradedMatrix

    stray = GradedMatrix(ALG.pv, {(0, 0): 1})  # not form-compatible alone
    with pytest.raises(ValueError):
        ALG.expand_in_basis(stray)


def test_gram_matrix_symmetry_and_inverse():
    g = ALG.gram()
    ginv = ALG.gram_inverse()
    n = ALG.size
    # supertrace form: str(ab) = (-1)^{p(a)p(b)} str(ba)
    for i in range(n):
        for j in range(n):
            s = -1 if (ALG.parity(i) and ALG.parity(j)) else 1
            assert g[i][j] == s * g[j][i]
    for i in range(n):
        for j in range(n):
            acc = sum(g[i][k] * ginv[k][j] for k in range(n))
            assert acc == (1 if i == j else 0)


def test_monomial_matrix_matches_products():
    i = ALG.generator_index("v+")
    j = ALG.generator_index("w+")
    k = ALG.generator_index("H")
    prod = ALG.basis[i].matrix @ ALG.basis[j].matrix @ ALG.basis[k].matrix
    assert ALG.monomial_matrix((i, j, k)) == prod


def test_build_osp_is_cached():
    assert build_osp(2) is build_osp(2)
    assert build_osp(2) is not build_osp(3)
