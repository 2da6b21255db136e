"""Quantum layer: universal R-matrix built from a twist, triangularity /
intertwining / quantum Yang-Baxter certificates, classical-limit
extraction back to a classical r-matrix, the nilpotent exponential
R-matrix in the defining representation, and the L-operator with its
graded RTT relation.

Everything is certified twice where the statement allows it: once in the
grade-truncated enveloping algebra (exact coefficients, identity holds in
the quotient) and once through exact matrices in tensor powers of the
defining representation."""

from __future__ import annotations

from fractions import Fraction

from .algebra import OspAlgebra
from .errors import (
    CubeNotZero,
    HeterogeneousOperand,
    LegMismatch,
    NotFirstOrderLie,
)
from .pbw import UEElement, UETensor, product_difference
from .repmat import GradedMatrix, embed_legs, tensor_pv
from .rmatrix import LieTensor, r_full_borel
from .scalars import Poly, nilpotent_series, taylor_exp
from .twist import (
    FULL_CHAIN_KINDS,
    Twist,
    TwistFactor,
    twisted_coproduct,
    workshop,
)


class RMatrix:
    """A quantum R-matrix.

    ``element`` is the universal (2-leg, grade-truncated) form when the
    matrix came from a twist; ``rep_matrix`` is the exact image in the
    tensor square of the defining representation.  ``source`` keeps the
    twist the element came from (used by intertwining and L-operator
    checks); ``parameter`` names the formal deformation symbol when the
    element carries a parameterized family."""

    __slots__ = ("element", "source", "parameter", "_rep")

    def __init__(self, element, source=None, parameter=None, rep_matrix=None):
        if element is not None and element.legs != 2:
            raise LegMismatch("an R-matrix must have exactly 2 tensor legs")
        self.element = element
        self.source = source
        self.parameter = parameter
        self._rep = rep_matrix

    @property
    def rep_matrix(self) -> GradedMatrix:
        if self._rep is None:
            self._rep = self.element.to_matrix()
        return self._rep

    def augmentation_ok(self) -> bool:
        """Counit on either leg must give 1 (universal form)."""
        return self.element.counits_are_one()

    def __repr__(self):
        tag = "rep-only" if self.element is None else "%d terms" % len(
            self.element.terms
        )
        return "RMatrix(%s)" % tag


def rep_exact_degree(algebra: OspAlgebra) -> int:
    """The least truncation degree at which the image of a 2-leg tensor
    (an R-matrix) in the square of the defining representation is exact.

    The Cartan generators give each vector of the defining space its
    doubled principal grade; let s be their spread.  A leg monomial of
    doubled grade g moves a vector's doubled grade by g, so it acts as 0
    once g > s, and no term of total doubled grade above 2s has a nonzero
    image.  Cutting at doubled grade 2 * degree >= 2s, that is at degree
    s, therefore keeps every term that the image sees."""
    cartan = [algebra.basis[h].matrix for h in algebra.cartan_indices()]
    grades = [
        sum(m[(i, i)] for m in cartan) for i in range(algebra.dim_rep)
    ]
    return int(max(grades) - min(grades))


def universal_R(twist: Twist, eta: str | None = None) -> RMatrix:
    """(graded flip of F) * F^(-1).

    The cocycle identity for F is a precondition, certified separately by
    twist.cocycle_residual — it is not re-checked here.

    With ``eta`` given, returns the one-parameter family: each term of
    grade 2m picks up (-2*eta)**m, which is the unique grading-line
    reparameterization making the first-order coefficient of the family
    exactly the classical r-matrix of the chain."""
    el = twist.element.flip() * twist.inverse
    param = None
    if eta is not None:
        el = el.scale_by_grade(Poly.var(eta) * Fraction(-2))
        param = eta
    return RMatrix(el, source=twist, parameter=param)


def triangularity_residual(r: RMatrix) -> UETensor:
    """R21 * R - 1: zero certifies the triangular (unitary) property."""
    return r.element.flip() * r.element - r.element.one_like()


def intertwining_residual(r: RMatrix, x: UEElement) -> UETensor:
    """R * cop_F(x) - (flip of cop_F(x)) * R for the source twist F."""
    if r.source is None:
        raise HeterogeneousOperand(
            "intertwining needs the twist the R-matrix came from"
        )
    cop = twisted_coproduct(r.source, x)
    return product_difference(r.element, cop, cop.flip(), r.element)


def qybe_residual(r: RMatrix) -> UETensor:
    """R12 R13 R23 - R23 R13 R12 in the universal (3-leg) form."""
    el = r.element
    r12 = el.embed((1, 2), 3)
    r13 = el.embed((1, 3), 3)
    r23 = el.embed((2, 3), 3)
    return product_difference(r12 * r13, r23, r23 * r13, r12)


def _exchange(r_mat, l_mat, pv) -> GradedMatrix:
    """R12 L13 L23 - L23 L13 R12 in the cube of the defining space, for
    rep matrices R and L on its square: the RTT relation, and the braid
    relation when L = R."""
    r12 = embed_legs(r_mat, pv, (1, 2), 3)
    l13 = embed_legs(l_mat, pv, (1, 3), 3)
    l23 = embed_legs(l_mat, pv, (2, 3), 3)
    return r12 @ l13 @ l23 - l23 @ l13 @ r12


def qybe_residual_rep(r: RMatrix, algebra: OspAlgebra | None = None) -> GradedMatrix:
    """The same residual evaluated exactly in the cube of the defining
    representation; works for parameterized entries too."""
    alg = algebra if algebra is not None else r.element.algebra
    return _exchange(r.rep_matrix, r.rep_matrix, alg.pv)


def classical_limit(r: RMatrix) -> LieTensor:
    """First-order part of the R-matrix family, as a classical tensor.

    For a family built with universal_R(..., eta=...) this reads off the
    coefficient of eta^1.  For an unparameterized R it inserts the grading
    family internally, which amounts to taking -2 times the grade-2
    component.  Either way the terms must be single generators on both
    legs; anything longer means the family is not first-order a Lie
    tensor and raises NotFirstOrderLie."""
    eta = r.parameter
    terms = {}
    for key, c in r.element.grade_component(2).terms.items():
        if any(len(m) != 1 for m in key):
            raise NotFirstOrderLie(
                "first-order term has a composite leg: %r" % (key,)
            )
        terms[tuple(m[0] for m in key)] = (
            c * Fraction(-2) if eta is None
            else c.coefficient(eta, 1) if isinstance(c, Poly) else 0
        )
    return LieTensor(r.element.algebra, 2, terms)


def multi_parameter_twist(
    algebra: OspAlgebra, params: dict, degree: int = 6
) -> Twist:
    """The several-parameter deformation family: each chain factor is
    rescaled along the grading line by its own formal symbol.  Exposed
    for first-order study only — for distinct parameter values the
    product is NOT claimed to satisfy the cocycle identity, so only its
    first-order (classical) part is certified, against the matching
    combination of classical r-matrix summands."""
    ws = workshop(algebra, degree)
    for kind in FULL_CHAIN_KINDS:
        if kind not in params:
            raise HeterogeneousOperand(
                "missing deformation symbol for factor %r" % kind
            )
    return Twist(
        [
            TwistFactor(ws.factor(kind).scale_by_grade(Poly.var(params[kind])))
            for kind in FULL_CHAIN_KINDS
        ],
        ["%s[%s]" % (kind, params[kind]) for kind in FULL_CHAIN_KINDS],
    )


# --------------------------------------------------------------------------
# Nilpotent exponential R-matrix in the defining representation
# --------------------------------------------------------------------------


def exp_r_matrix(
    algebra: OspAlgebra, eta: str = "eta", r: LieTensor | None = None
) -> RMatrix:
    """exp(eta * r_rho) for the classical r-matrix of the full chain in
    the defining representation.  The cube of r_rho must vanish, so the
    exponential is the exact quadratic polynomial
    1 + eta*r_rho + eta^2*r_rho^2/2; raises CubeNotZero otherwise."""
    if r is None:
        r = r_full_borel(algebra)
    r_rho = r.to_matrix()
    if not (r_rho @ r_rho @ r_rho).is_zero:
        raise CubeNotZero(
            "r in the defining representation does not cube to zero"
        )
    eye = GradedMatrix.identity(r_rho.pv)
    mat = nilpotent_series(taylor_exp(3), r_rho.scale(Poly.var(eta)), eye)
    return RMatrix(None, source="nilpotent-exponential", parameter=eta,
                   rep_matrix=mat)


# --------------------------------------------------------------------------
# L-operator
# --------------------------------------------------------------------------


class LOperator:
    """L = (defining rep on leg 1, identity on leg 2) of the universal
    R-matrix: a (2n+1) x (2n+1) array of enveloping-algebra elements."""

    __slots__ = ("algebra", "entries", "source")

    def __init__(self, algebra: OspAlgebra, entries, source=None):
        self.algebra = algebra
        self.entries = entries
        self.source = source

    @property
    def dim(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> UEElement:
        return self.entries[i][j]

    def shape_ok(self) -> bool:
        """Strictly-lower entries vanish and the central entry is 1."""
        d = self.dim
        mid = d // 2
        one = UEElement.one(self.algebra, self.entries[0][0].g2cap)
        for i in range(d):
            for j in range(i):
                if not self.entries[i][j].is_zero:
                    return False
        return self.entries[mid][mid] == one

    def diagonal_unit_ok(self) -> bool:
        """First and last diagonal entries are mutually inverse (the
        corner pair of the diagonal pattern)."""
        d = self.dim
        one = UEElement.one(self.algebra, self.entries[0][0].g2cap)
        return self.entries[0][0] * self.entries[d - 1][d - 1] == one

    def to_matrix(self) -> GradedMatrix:
        """Evaluate the remaining universal leg in the defining rep too;
        the result must coincide with the rep form of the source R."""
        alg = self.algebra
        d = alg.dim_rep
        out = {}
        for i in range(d):
            for j in range(d):
                block = self.entries[i][j].to_matrix()
                for (k, l), c in block.entries.items():
                    s = (alg.pv[k] + alg.pv[l]) * alg.pv[j]
                    out[(i * d + k, j * d + l)] = -c if s % 2 else c
        return GradedMatrix(tensor_pv(alg.pv, 2), out)

    def frt_residual(self, i: int, j: int, margin: int = 2) -> UETensor:
        """Twisted coproduct of one entry minus the matrix product of the
        operator with itself, column leg first:

            cop_F(L[i][j]) - sum_k L[k][j] (x) L[i][k]

        No Koszul sign appears in this order; flipping each summand
        instead gives sum_k (-1)^((p_i+p_k)(p_k+p_j)) L[i][k] (x) L[k][j]
        for the co-opposite coproduct.  The identity follows from
        (id (x) cop_F)(R) = R13 R12, which holds exactly for the twisted
        structure.

        Entries are leg contractions of a degree-capped element, so both
        sides are only determined through total grade ``cap - margin``;
        components above that window are truncation shadow, and the
        residual is returned cut there (its ``g2cap`` is ``cap - margin``).
        For an arbitrary element margin 4 is sound (no Borel monomial of
        grade above four survives the defining rep - the weight chain is
        too short).  The chain-built
        R tightens this to 2: its first-leg monomials never carry more
        short-difference-root factors than paired-root factors, and every
        such monomial of grade three or more has zero image."""
        if self.source is None or self.source.source is None:
            raise HeterogeneousOperand(
                "the FRT check needs the twist behind the L-operator"
            )
        tw = self.source.source
        alg = self.algebra
        lhs = twisted_coproduct(tw, self.entries[i][j])
        cap = self.entries[i][j].g2cap
        rhs = UETensor.zero(alg, 2, cap)
        for k in range(self.dim):
            if self.entries[i][k].is_zero or self.entries[k][j].is_zero:
                continue
            rhs = rhs + UETensor.of(
                self.entries[k][j], self.entries[i][k], g2cap=cap
            )
        return (lhs - rhs).truncate(cap - margin)


def l_operator(r: RMatrix) -> LOperator:
    """Evaluate leg 1 of the universal R-matrix in the defining rep."""
    alg = r.element.algebra
    d = alg.dim_rep
    cap = r.element.g2cap
    grid = [
        [UEElement.zero(alg, cap) for _ in range(d)] for _ in range(d)
    ]
    for m1, rest in r.element.split_first_leg().items():
        block = alg.monomial_matrix(m1)
        for (i, j), a in block.entries.items():
            grid[i][j] = grid[i][j] + rest.scale(a)
    return LOperator(alg, grid, source=r)


def rtt_residual(r: RMatrix, l: LOperator | None = None) -> GradedMatrix:
    """R12 L1 L2 - L2 L1 R12 evaluated exactly in the cube of the
    defining space, with the L legs at (1,3) and (2,3).

    ``l`` is an LOperator, whose legs come from its own ``to_matrix``
    sign rule.  Without it the L legs are the rep form of ``r`` itself,
    and the residual is the braid relation of :func:`qybe_residual_rep`."""
    r_mat = r.rep_matrix
    l_mat = r_mat if l is None else l.to_matrix()
    return _exchange(r_mat, l_mat, r.element.algebra.pv)
