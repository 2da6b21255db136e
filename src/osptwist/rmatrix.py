"""Classical-layer structures on osp(1|2n): degree-one tensors over the
Lie algebra itself, the invariant two-tensor and its standard splitting,
the trigonometric solution with spectral parameter, constant triangular
solutions of the graded classical Yang-Baxter equation, the cobracket and
its kernel, and the scaling-limit (contraction) computation over truncated
Laurent series.

Sign conventions.  All tensors here are parity-even overall (each stored
term has legs of equal total parity).  For even two-leg tensors
A = sum a (x) b and B = sum c (x) d, embedding into three legs and taking
graded commutators gives the closed forms used below:

    [A12, B13] = sum (-1)**(p(b)p(c)) [a,c] (x) b (x) d
    [A12, B23] = sum             a (x) [b,c] (x) d
    [A13, B23] = sum (-1)**(p(b)p(c)) a (x) c (x) [b,d]

and the adjoint action of x in g on a k-leg tensor acts on leg i with the
Koszul factor (-1)**(p(x) * sum of parities of the legs left of i).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import HeterogeneousOperand, NegativePowerSurvives
from .pbw import (
    _matrix_sum,
    _Terms,
    _tensor_pv,
    format_monomial,
    scalar_inverse,
)
from .repmat import GradedMatrix, kron_all
from .scalars import LaurentSeries, Poly, rref, scalar_is_zero


class LieTensor(_Terms):
    """A combination of elementary tensors of *basis elements* (degree-one
    legs) with coefficients in the exact scalar tower.  Keys are tuples
    of basis indices; sums, scaling, equality, the graded flip and printing
    are the term algebra it shares with the enveloping-algebra classes of
    :mod:`~osptwist.pbw`."""

    __slots__ = ()

    def __init__(self, algebra, legs, terms):
        self._fill(algebra, terms, legs, None)

    def _key(self, key):
        return self._check_legs(tuple(key))

    def term_g2(self, key):
        return sum(self.algebra.g2(i) for i in key)

    def term_parity(self, key):
        return sum(self.algebra.parity(i) for i in key) % 2

    def _leg_parity(self, i):
        return self.algebra.parity(i)

    @staticmethod
    def _sort_key(key):
        return key

    def _body(self, key):
        return " (x) ".join(format_monomial(self.algebra, (i,)) for i in key)

    @classmethod
    def zero(cls, algebra, legs=2):
        return cls(algebra, legs, {})

    def __add__(self, other):
        if not isinstance(other, LieTensor):
            return NotImplemented
        return self._combine(other, 1)

    def to_matrix(self) -> GradedMatrix:
        """Image under the defining representation on every leg."""
        alg = self.algebra
        return _matrix_sum(
            _tensor_pv(alg, self.legs),
            (
                (kron_all([alg.basis[i].matrix for i in key]), c)
                for key, c in self.terms.items()
            ),
        )

    def __repr__(self):
        return "LieTensor(legs=%d, terms=%d)" % (self.legs, len(self.terms))


def wedge(algebra, name_a, name_b, coeff=1) -> LieTensor:
    """a ^ b = a (x) b - (-1)**(p(a)p(b)) b (x) a (so v ^ v = 2 v (x) v for
    odd v)."""
    ia = algebra.generator_index(name_a)
    ib = algebra.generator_index(name_b)
    s = algebra.parity(ia) and algebra.parity(ib)
    if not isinstance(coeff, (Poly, LaurentSeries)):
        coeff = Fraction(coeff)
    terms = {(ia, ib): coeff}
    back = coeff if s else -coeff
    terms[(ib, ia)] = terms.get((ib, ia), 0) + back
    return LieTensor(algebra, 2, terms)


# --------------------------------------------------------------------------
# Invariant two-tensor and its Drinfeld-Jimbo splitting
# --------------------------------------------------------------------------


def casimir_tensor(algebra) -> LieTensor:
    """The invariant two-tensor: the inverse of the supertrace Gram matrix,
    read as an element of g (x) g.  Killed by the adjoint action of every
    basis element; graded-flip symmetric."""
    inv = algebra.gram_inverse()
    m = algebra.size
    terms = {}
    for a in range(m):
        for b in range(m):
            if inv[a][b]:
                terms[(a, b)] = inv[a][b]
    return LieTensor(algebra, 2, terms)


def standard_r0(algebra) -> LieTensor:
    """Half the Cartan block plus the (raising (x) lowering) block of the
    inverse Gram matrix: the standard skew part generator with
    r0 + flip(r0) = the invariant two-tensor."""
    inv = algebra.gram_inverse()
    cartan = set(algebra.cartan_indices())
    pos = set(algebra.positive_indices())
    terms: dict = {}
    for a in cartan:
        for b in cartan:
            if inv[a][b]:
                terms[(a, b)] = inv[a][b] / 2
    for a in pos:
        for b in range(algebra.size):
            if inv[a][b]:
                terms[(a, b)] = terms.get((a, b), 0) + inv[a][b]
    return LieTensor(algebra, 2, terms)


def dual_of_opposite(algebra, pos_index: int):
    """For a raising basis element e, the element dual to it under the
    supertrace form (a multiple of the opposite-root basis element), as
    {index: Fraction}."""
    inv = algebra.gram_inverse()
    row = inv[pos_index]
    return {b: c for b, c in enumerate(row) if c}


# --------------------------------------------------------------------------
# Adjoint action, cobracket, kernel
# --------------------------------------------------------------------------


def adjoint_action(x_index: int, t: LieTensor) -> LieTensor:
    """[x (x) 1 (x) ... + ... + 1 (x) ... (x) x, t] for a basis element x."""
    alg = t.algebra
    px = alg.parity(x_index)
    out: dict = {}
    for key, c in t.terms.items():
        left_parity = 0
        for leg in range(t.legs):
            coeff = c
            if px and left_parity % 2:
                coeff = -coeff
            for res, sc in alg.bracket(x_index, key[leg]).items():
                newkey = key[:leg] + (res,) + key[leg + 1 :]
                v = out.get(newkey, 0) + coeff * sc
                if scalar_is_zero(v):
                    out.pop(newkey, None)
                else:
                    out[newkey] = v
            left_parity += alg.parity(key[leg])
    return LieTensor(alg, t.legs, out)


def cobracket(x_index: int, r: LieTensor) -> LieTensor:
    """delta(x) = [x (x) 1 + 1 (x) x, r]."""
    return adjoint_action(x_index, r)


def cobracket_kernel(algebra, r: LieTensor):
    """Basis of {x in g : cobracket(x, r) = 0}, as a list of coefficient
    vectors over the algebra basis, in reduced echelon form."""
    m = algebra.size
    images = [cobracket(i, r) for i in range(m)]
    keys = sorted({k for img in images for k in img.terms})
    key_pos = {k: j for j, k in enumerate(keys)}
    # matrix of the linear map x -> delta(x); kernel = null space
    mat = [[Fraction(0)] * m for _ in keys]
    for i, img in enumerate(images):
        for k, c in img.terms.items():
            if not isinstance(c, Fraction):
                raise TypeError("kernel computation needs rational tensors")
            mat[key_pos[k]][i] = c
    rref_rows, pivots = rref(mat)
    pivot_set = set(pivots)
    free = [c for c in range(m) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * m
        vec[fc] = Fraction(1)
        for row, pc in zip(rref_rows, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


class _Span:
    """The rational span of some vectors, reduced once to echelon form, so
    that each membership test is one back-substitution."""

    def __init__(self, vectors):
        vectors = list(vectors)
        widths = {len(v) for v in vectors}
        if len(widths) > 1:
            raise ValueError(
                "span vectors differ in length: %s" % sorted(widths)
            )
        # an empty span has no column count; only the zero vector is in it
        self.width = widths.pop() if widths else None
        rows, pivots = rref(vectors)
        # each pivot row as its pivot column and its nonzero entries
        self.rows = [
            (pc, [(j, x) for j, x in enumerate(row) if x])
            for row, pc in zip(rows, pivots)
        ]

    def contains(self, vec) -> bool:
        if self.width is not None and len(vec) != self.width:
            raise ValueError(
                "vector of length %d against a span of length-%d vectors"
                % (len(vec), self.width)
            )
        rest = list(vec)
        # a pivot row is zero in every other pivot column, so clearing one
        # pivot entry leaves the others alone
        for pc, entries in self.rows:
            c = rest[pc]
            if c:
                for j, x in entries:
                    rest[j] -= c * x
        return not any(rest)


def span_contains(span_vectors, vec) -> bool:
    """Exact membership of vec in the rational span of span_vectors.

    The span is reduced once (``scalars.rref``) and vec is cleared against
    its pivot rows; vec is in the span iff nothing is left.  Raises
    ValueError when the span vectors differ in length, or vec's length
    differs from theirs."""
    return _Span(span_vectors).contains(vec)


def kernel_closed_under_bracket(algebra, kernel_basis) -> bool:
    """Is the kernel a subalgebra?  Brackets of kernel vectors must stay
    inside the kernel's span.  The span is reduced once; each nonzero
    bracket then costs one back-substitution against it."""
    m = algebra.size
    span = _Span(kernel_basis)
    for va in kernel_basis:
        for vb in kernel_basis:
            out = [Fraction(0)] * m
            for i, ca in enumerate(va):
                if not ca:
                    continue
                for j, cb in enumerate(vb):
                    if not cb:
                        continue
                    for k, c in algebra.bracket(i, j).items():
                        out[k] += ca * cb * c
            if any(out) and not span.contains(out):
                return False
    return True


# --------------------------------------------------------------------------
# Graded classical Yang-Baxter residual
# --------------------------------------------------------------------------


def _bracket_12_13(a: LieTensor, b: LieTensor) -> dict:
    alg = a.algebra
    out: dict = {}
    for (i, j), c1 in a.terms.items():
        pj = alg.parity(j)
        for (k, l), c2 in b.terms.items():
            sgn = -1 if pj and alg.parity(k) else 1
            cc = sgn * c1 * c2
            for res, sc in alg.bracket(i, k).items():
                key = (res, j, l)
                v = out.get(key, 0) + cc * sc
                if scalar_is_zero(v):
                    out.pop(key, None)
                else:
                    out[key] = v
    return out


def _bracket_12_23(a: LieTensor, b: LieTensor) -> dict:
    alg = a.algebra
    out: dict = {}
    for (i, j), c1 in a.terms.items():
        for (k, l), c2 in b.terms.items():
            cc = c1 * c2
            for res, sc in alg.bracket(j, k).items():
                key = (i, res, l)
                v = out.get(key, 0) + cc * sc
                if scalar_is_zero(v):
                    out.pop(key, None)
                else:
                    out[key] = v
    return out


def _bracket_13_23(a: LieTensor, b: LieTensor) -> dict:
    alg = a.algebra
    out: dict = {}
    for (i, j), c1 in a.terms.items():
        pj = alg.parity(j)
        for (k, l), c2 in b.terms.items():
            sgn = -1 if pj and alg.parity(k) else 1
            cc = sgn * c1 * c2
            for res, sc in alg.bracket(j, l).items():
                key = (i, k, res)
                v = out.get(key, 0) + cc * sc
                if scalar_is_zero(v):
                    out.pop(key, None)
                else:
                    out[key] = v
    return out


def cybe_residual(r: LieTensor) -> LieTensor:
    """[r12, r13] + [r12, r23] + [r13, r23] in g (x) g (x) g.

    Zero iff r solves the graded classical Yang-Baxter equation.  The
    closed bracket formulas require a parity-even tensor (always true for
    the solutions considered here)."""
    if r.legs != 2:
        raise HeterogeneousOperand("the residual needs a 2-leg tensor")
    if not r.is_even():
        raise HeterogeneousOperand("the residual formulas need an even tensor")
    alg = r.algebra
    out: dict = {}
    for part in (_bracket_12_13(r, r), _bracket_12_23(r, r), _bracket_13_23(r, r)):
        for key, c in part.items():
            v = out.get(key, 0) + c
            if scalar_is_zero(v):
                out.pop(key, None)
            else:
                out[key] = v
    return LieTensor(alg, 3, out)


def spectral_residual_rational(c: LieTensor) -> LieTensor:
    """Cleared-denominator certificate that c divided by a difference of
    leg parameters solves the parameter-dependent graded cYBE.

    With pairwise differences u (legs 1-2) and w (legs 2-3), so legs 1-3
    carry u + w, multiplying the three-term residual of c/u, c/(u+w), c/w
    by u*w*(u+w) gives

        w*[c12, c13] + (u+w)*[c12, c23] + u*[c13, c23]

    which must vanish identically as a polynomial in u, w.  (The same c as
    a *constant* solution generally fails: the three brackets cancel only
    with these weights.)"""
    if not c.is_even():
        raise HeterogeneousOperand("the residual formulas need an even tensor")
    u, w = Poly.var("u"), Poly.var("w")
    a1 = LieTensor(c.algebra, 3, _bracket_12_13(c, c))
    a2 = LieTensor(c.algebra, 3, _bracket_12_23(c, c))
    a3 = LieTensor(c.algebra, 3, _bracket_13_23(c, c))
    return a1.scale(w) + a2.scale(u + w) + a3.scale(u)


# --------------------------------------------------------------------------
# Constant triangular solutions (rank-one cascade blocks)
# --------------------------------------------------------------------------


def r_jordanian(algebra, k: int = 1) -> LieTensor:
    """h_k ^ (long raising of root 2 eps_k)."""
    return wedge(algebra, "h%d" % k, "+2e%d" % k)


def r_super_jordanian(algebra, k: int = 1) -> LieTensor:
    """Jordanian block extended by the odd root:  h_k ^ x_k - v_k (x) v_k."""
    vk = "+e%d" % k
    iv = algebra.generator_index(vk)
    return r_jordanian(algebra, k) + LieTensor(
        algebra, 2, {(iv, iv): Fraction(-1)}
    )


def r_extended_super_jordanian(algebra, k: int = 1) -> LieTensor:
    """The full cascade block for root k:
    h_k ^ x_k + sum_{j>k} (eps_k - eps_j) ^ (eps_k + eps_j) - v_k (x) v_k."""
    out = r_super_jordanian(algebra, k)
    for j in range(k + 1, algebra.n + 1):
        out = out + wedge(algebra, "+e%d-e%d" % (k, j), "+e%d+e%d" % (k, j))
    return out


def r_cascade(algebra, weights=None) -> LieTensor:
    """Weighted sum of all cascade blocks; with symbolic weights by default
    (Poly variables a1..an), so residual checks certify the whole family."""
    n = algebra.n
    if weights is None:
        weights = [Poly.var("a%d" % k) for k in range(1, n + 1)]
    out = LieTensor.zero(algebra, 2)
    for k in range(1, n + 1):
        out = out + r_extended_super_jordanian(algebra, k).scale(weights[k - 1])
    return out


def r_full_borel(algebra) -> LieTensor:
    """The cascade with all weights 1 (for n=2: both rank-one blocks)."""
    return r_cascade(algebra, [Fraction(1)] * algebra.n)


def r_long_root_wedge(algebra, k: int, j: int) -> LieTensor:
    """Abelian add-on: x_k ^ x_j (two commuting long raising elements)."""
    return wedge(algebra, "+2e%d" % k, "+2e%d" % j)


# --------------------------------------------------------------------------
# Trigonometric solution and the contraction limit
# --------------------------------------------------------------------------


def trig_r(algebra, q) -> LieTensor:
    """(r0 * q + flip(r0)) / (q - 1)  =  r0 + (invariant tensor)/(q - 1).

    ``q`` is any scalar-tower value with q - 1 invertible (a Laurent
    monomial shift, or a truncated series with unit-led valuation)."""
    inv_qm1 = scalar_inverse(q - 1)
    return standard_r0(algebra) + casimir_tensor(algebra).scale(inv_qm1)


def adjoint_exp_tensor(algebra, theta: int, coeff, t: LieTensor) -> LieTensor:
    """Apply Ad(exp(coeff * ad theta)) on every leg (theta must be even, so
    the legwise application carries no Koszul signs).  The exponential is
    that of the matrix coeff * ad(theta) on the adjoint space; raises
    NotNilpotent when ad(theta) is not nilpotent (a Cartan theta)."""
    if algebra.parity(theta):
        raise HeterogeneousOperand("legwise Ad needs an even generator")
    m = algebra.size
    ad = GradedMatrix(
        [algebra.parity(j) for j in range(m)],
        {
            (k, j): sc
            for j in range(m)
            for k, sc in algebra.bracket(theta, j).items()
        },
    )
    # column j of the exponential is the image of basis element j
    columns: dict = {}
    for (k, j), x in ad.scale(coeff).exp_nilpotent().entries.items():
        columns.setdefault(j, []).append((k, x))
    out = t
    for leg in range(t.legs):
        nxt: dict = {}
        for key, c in out.terms.items():
            for k, x in columns.get(key[leg], ()):
                newkey = key[:leg] + (k,) + key[leg + 1 :]
                v = nxt.get(newkey, 0) + c * x
                if scalar_is_zero(v):
                    nxt.pop(newkey, None)
                else:
                    nxt[newkey] = v
        out = LieTensor(algebra, t.legs, nxt)
    return out


class ContractionResult:
    """Outcome of the scaling limit of the trigonometric solution:

    * ``series``   -- the eps-scaled, conjugated tensor (coefficients are
                      Laurent series in eps with Poly(s, t) coefficients);
    * ``constant`` -- its eps^0 coefficient (coefficients Poly in s, t);
    * ``spectral_part`` / ``t_part`` -- the two summands of the constant:
      (invariant tensor)/s and the paired-root sum multiplied by t.
    """

    def __init__(self, series, constant, spectral_part, t_part, order):
        self.series = series
        self.constant = constant
        self.spectral_part = spectral_part
        self.t_part = t_part
        self.order = order


def contraction_limit(
    algebra,
    order: int = 4,
    eps: str = "eps",
    theta_factor=Fraction(2),
    eps_power: int = 1,
) -> ContractionResult:
    """eps**eps_power * Ad(exp((theta_factor*t/eps) theta))^(x2) applied
    to the trigonometric solution at q = exp(eps*s), expanded as a Laurent
    series in eps.

    Raises NegativePowerSurvives if any negative power of eps remains
    after the combination.  With the default eps_power=1 the poles cancel
    for *any* theta_factor: the conjugation's linear term sends the
    standard skew generator to a multiple of the first cascade block, and
    the long-root raising element stabilizes that block, so the quadratic
    term dies identically.  theta_factor then only rescales the t-part
    (factor/2 times the block); the default 2 gives it unit weight.  Both
    knobs are exposed so the normalization interplay stays inspectable —
    e.g. eps_power=0 leaves the pole of the invariant-tensor part in
    place, which is the negative control for the guard.  The internal
    working order is raised so the returned data is certified at least to
    the requested order."""
    internal = order + 6
    s = Poly.var("s")
    # q = exp(eps*s), truncated
    q = LaurentSeries(eps, 1, [s], internal).exp()
    r = trig_r(algebra, q)
    # every coefficient as a series (uniform type), then conjugate
    r = r.map_coefficients(
        lambda c: c if isinstance(c, LaurentSeries)
        else LaurentSeries.from_poly(c, eps, None) if isinstance(c, Poly)
        else LaurentSeries.const(eps, c)
    )
    theta = algebra.generator_index("+2e%d" % 1)
    coeff = LaurentSeries(eps, -1, [Poly.var("t") * theta_factor], None)
    conj = adjoint_exp_tensor(algebra, theta, coeff, r)
    scaled = conj.map_coefficients(lambda c: c.shift(eps_power))
    for key, c in scaled.terms.items():
        if c.min_deg < 0:
            raise NegativePowerSurvives(
                "coefficient of %r still has eps^%d" % (key, c.min_deg)
            )
    constant = LieTensor(
        algebra, 2,
        {k: c.coefficient(0) for k, c in scaled.terms.items()},
    )
    spectral = casimir_tensor(algebra).scale(Poly.var("s", -1))
    t_part = constant - spectral
    return ContractionResult(scaled, constant, spectral, t_part, order)


def contraction_expected_t_part(algebra) -> LieTensor:
    """t * sum over positive roots of  e_alpha ^ [theta-raising, dual of
    e_alpha], where the dual is taken with respect to the supertrace form
    (for the basis used here the duals differ from the opposite-root basis
    elements by simple rational factors)."""
    theta = algebra.generator_index("+2e1")
    t = Poly.var("t")
    out = LieTensor.zero(algebra, 2)
    for a in algebra.positive_indices():
        dual = dual_of_opposite(algebra, a)
        bracket_part: dict = {}
        for b, cb in dual.items():
            for k, sc in algebra.bracket(theta, b).items():
                bracket_part[k] = bracket_part.get(k, Fraction(0)) + cb * sc
        pa = algebra.parity(a)
        terms: dict = {}
        for k, c in bracket_part.items():
            if not c:
                continue
            # e_a ^ y = e_a (x) y - (-1)^(p(a)p(y)) y (x) e_a
            terms[(a, k)] = terms.get((a, k), 0) + c
            s = pa and algebra.parity(k)
            terms[(k, a)] = terms.get((k, a), 0) + (c if s else -c)
        out = out + LieTensor(algebra, 2, terms)
    return out.scale(t)
