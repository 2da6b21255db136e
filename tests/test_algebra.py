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


def test_jacobi_detects_a_poison_in_the_flipped_entry():
    """The sorted triples read [x_i, x_j] for i <= j in most places; a
    poison written only to the flipped entry (j, i) still breaks graded
    antisymmetry, and that pair is reported, as (i, j)."""
    bad = OspAlgebra(2)
    i = bad.generator_index("+e1-e2")
    j = bad.generator_index("+e1+e2")
    k = bad.generator_index("+2e1")
    assert i < j
    wrong = dict(bad.bracket(j, i))
    wrong[k] += 1
    bad._bracket_cache[(j, i)] = wrong
    assert (i, j) in check_jacobi(bad)


def test_jacobi_detects_a_bracket_off_its_parity():
    """A poison of the wrong parity, written to both entries with the
    antisymmetric sign, is reported as the pair that breaks the grading."""
    bad = OspAlgebra(2)
    i, j = bad.generator_index("h1"), bad.generator_index("+2e1")
    v = bad.generator_index("+e1")
    for a, b, s in ((i, j, 1), (j, i, -1)):
        wrong = dict(bad.bracket(a, b))
        wrong[v] = s
        bad._bracket_cache[(a, b)] = wrong
    assert (i, j) in check_jacobi(bad)


def full_jacobi_oracle(alg):
    """The Jacobiator on every ordered triple, with Fractions, no
    antisymmetry assumed: True when it vanishes on all of them."""
    idx = range(alg.size)
    for i in idx:
        for j in idx:
            sij = -1 if alg.parity(i) and alg.parity(j) else 1
            for k in idx:
                acc: dict = {}
                for m, c in alg.bracket(j, k).items():
                    for r, d in alg.bracket(i, m).items():
                        acc[r] = acc.get(r, 0) + Fraction(c) * d
                for m, c in alg.bracket(i, j).items():
                    for r, d in alg.bracket(m, k).items():
                        acc[r] = acc.get(r, 0) - Fraction(c) * d
                for m, c in alg.bracket(i, k).items():
                    for r, d in alg.bracket(j, m).items():
                        acc[r] = acc.get(r, 0) - sij * Fraction(c) * d
                if any(acc.values()):
                    return False
    return True


def test_sorted_jacobi_agrees_with_the_full_oracle_on_every_poisoned_pair():
    """At rank 2, each basis pair i <= j in turn gets one structure
    constant moved by 1, in an element of the right parity, written to
    both (i, j) and (j, i) with the antisymmetric sign, so only the
    Jacobiator can see it.  The route over sorted triples and the oracle
    over all ordered triples agree on pass or fail every time, and both
    pass on the clean constants."""
    clean = OspAlgebra(2)
    size = clean.size
    for i in range(size):
        for j in range(size):
            clean.bracket(i, j)
    assert check_jacobi(clean) == [] and full_jacobi_oracle(clean)
    for i in range(size):
        for j in range(i, size):
            p = clean.parity(i) ^ clean.parity(j)
            k = next(
                m % size for m in range(i + j, i + j + size)
                if clean.parity(m % size) == p
            )
            bad = OspAlgebra(2)
            bad._bracket_cache = dict(clean._bracket_cache)
            s = 1 if clean.parity(i) and clean.parity(j) else -1
            for a, b, sign in ((i, j, 1), (j, i, s)):
                wrong = dict(clean.bracket(a, b))
                wrong[k] = wrong.get(k, 0) + sign
                bad._bracket_cache[(a, b)] = wrong
            sorted_ok = check_jacobi(bad) == []
            assert sorted_ok == full_jacobi_oracle(bad), (i, j, k)


class _TwoElementBrackets:
    """An even x (index 0) and an odd v (index 1) with [x, v] = v and
    [v, v] = x: graded and graded-antisymmetric, but [v, [v, v]] = -v, so
    only the triples (x, v, v) and (v, v, v), each with an odd element
    twice, break the Jacobi identity."""

    size = 2
    _table = {(0, 0): {}, (0, 1): {1: 1}, (1, 0): {1: -1}, (1, 1): {0: 1}}

    def parity(self, i):
        return i

    def bracket(self, i, j):
        return self._table[i, j]


def test_jacobi_evaluates_triples_with_a_repeated_odd_element():
    """Given antisymmetry a triple with an even element twice cannot fail,
    but one with an odd element twice can, and the sorted route keeps it."""
    alg = _TwoElementBrackets()
    assert check_jacobi(alg) == [(0, 1, 1), (1, 1, 1)]
    assert not full_jacobi_oracle(alg)


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


def test_gram_matrix_is_formed_once_and_shared_immutably():
    """One Gram matrix per algebra, rows as tuples: the inverse and the
    rank check read it, and nothing that reads it can change it."""
    alg = OspAlgebra(2)
    g = alg.gram()
    assert alg.gram() is g
    assert isinstance(g, tuple) and all(isinstance(row, tuple) for row in g)
    with pytest.raises(TypeError):
        g[0][0] = 1
    mats = [b.matrix for b in alg.basis]
    assert g == tuple(tuple((a @ c).supertrace() for c in mats) for a in mats)
    alg.basis = None  # the inverse must not form the matrix again
    assert alg.gram_inverse() == ALG.gram_inverse()


def test_monomial_matrix_matches_products():
    i = ALG.generator_index("v+")
    j = ALG.generator_index("w+")
    k = ALG.generator_index("H")
    prod = ALG.basis[i].matrix @ ALG.basis[j].matrix @ ALG.basis[k].matrix
    assert ALG.monomial_matrix((i, j, k)) == prod


def test_build_osp_is_cached():
    assert build_osp(2) is build_osp(2)
    assert build_osp(2) is not build_osp(3)
