"""Classical-layer structures on osp(1|2n): degree-one tensors over the
Lie algebra itself, the invariant two-tensor and its standard splitting,
the trigonometric solution with spectral parameter, constant triangular
solutions of the graded classical Yang-Baxter equation, the cobracket and
its kernel, and the scaling-limit (contraction) computation over truncated
Laurent series.

Sign conventions.  All tensors here are parity-even overall (each stored
term has legs of equal total parity).  For even two-leg tensors
A = sum a (x) b and B = sum c (x) d, embedding into three legs and taking
graded commutators gives the closed forms below; the classical-YBE
residuals evaluate all three at A = B = r in one pass over pairs of terms:

    [A12, B13] = sum (-1)**(p(b)p(c)) [a,c] (x) b (x) d
    [A12, B23] = sum             a (x) [b,c] (x) d
    [A13, B23] = sum (-1)**(p(b)p(c)) a (x) c (x) [b,d]

and the adjoint action of x in g on a k-leg tensor acts on leg i with the
Koszul factor (-1)**(p(x) * sum of parities of the legs left of i).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import HeterogeneousOperand, NegativePowerSurvives
from .pbw import _Terms, format_monomial, scalar_inverse
from .repmat import GradedMatrix
from .scalars import LaurentSeries, Poly, Stored, _clean, rref


class LieTensor(_Terms):
    """A combination of elementary tensors of *basis elements* (degree-one
    legs) with coefficients in the exact scalar tower.  Keys are tuples
    of basis indices, stored as the packed ids of their one-letter
    monomials in the algebra's :class:`~osptwist.pbw.PBWTable`; sums,
    scaling, equality, the graded flip, printing and the rep image are the
    term algebra it shares with the enveloping-algebra classes of
    :mod:`~osptwist.pbw`."""

    __slots__ = ()

    def __init__(self, algebra, legs, terms):
        self._fill(algebra, terms, legs, None)

    def _key(self, key):
        return tuple((i,) for i in self._check_legs(tuple(key)))

    def _decoder(self):
        table, mask, shifts = self._codec()
        monos = table.monos
        return lambda k: tuple([monos[k >> s & mask][0] for s in shifts])

    @staticmethod
    def _sort_key(key):
        return key

    def _body(self, key):
        return " (x) ".join(format_monomial(self.algebra, (i,)) for i in key)

    @classmethod
    def zero(cls, algebra, legs=2):
        return cls(algebra, legs, {})

    def one_like(self):
        raise HeterogeneousOperand("a classical tensor has no unit")

    # no unit to carry a scalar: only a LieTensor is added
    __add__ = Stored.__add__

    # bound here: the benchmark tracer patches it
    to_matrix = _Terms.to_matrix

    def __repr__(self):
        return "LieTensor(legs=%d, terms=%d)" % (self.legs, len(self.terms))


def _letter_ids(table, size):
    """The stored id of each basis letter's one-letter monomial (the ids
    a LieTensor key packs), interned."""
    return [table.ids[(x,)] for x in range(size)]


def _tensor(algebra, legs, sums, den) -> LieTensor:
    """The LieTensor of {stored key: sum} over ``den`` (int numerators, or
    scalars with den None), cancelled sums dropped; a sum that is not an
    int (a Poly weight, a non-integral constant) makes them scalars."""
    data = {k: v for k, v in sums.items() if v}
    if den is not None and not all(type(v) is int for v in data.values()):
        if den != 1:
            data = {k: v * Fraction(1, den) for k, v in data.items()}
        den = None
    return LieTensor._wrap(algebra, *_clean(data, den), legs, None)


def wedge(algebra, name_a, name_b, coeff=1) -> LieTensor:
    """a ^ b = a (x) b - (-1)**(p(a)p(b)) b (x) a, the elementary tensor
    minus its graded flip (so v ^ v = 2 v (x) v for odd v)."""
    if not isinstance(coeff, (Poly, LaurentSeries)):
        coeff = Fraction(coeff)
    key = (algebra.generator_index(name_a), algebra.generator_index(name_b))
    half = LieTensor(algebra, 2, {key: coeff})
    return half - half.flip()


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
                terms[(a, b)] = Fraction(inv[a][b], 2)
    for a in pos:
        for b in range(algebra.size):
            if inv[a][b]:
                terms[(a, b)] = terms.get((a, b), 0) + inv[a][b]
    return LieTensor(algebra, 2, terms)


def dual_of_opposite(algebra, pos_index: int):
    """For a raising basis element e, the element dual to it under the
    supertrace form (a multiple of the opposite-root basis element), as
    {index: rational}."""
    inv = algebra.gram_inverse()
    row = inv[pos_index]
    return {b: c for b, c in enumerate(row) if c}


# --------------------------------------------------------------------------
# Adjoint action and the cobracket kernel
# --------------------------------------------------------------------------


def adjoint_action(x_index: int, t: LieTensor) -> LieTensor:
    """[x (x) 1 (x) ... + ... + 1 (x) ... (x) x, t] for a basis element x,
    formed on the stored terms."""
    alg = t.algebra
    px = alg.parity(x_index)
    table, mask, shifts = t._codec()
    ids = _letter_ids(table, alg.size)
    brackets = {
        ids[y]: [(ids[r], sc) for r, sc in alg.bracket(x_index, y).items()]
        for y in range(alg.size)
    }
    out: dict = {}
    for key, c in t.data.items():
        odd_left = 0
        for s in shifts:
            m = key >> s & mask
            coeff = -c if px and odd_left else c
            rest = key & ~(mask << s)
            for r, sc in brackets[m]:
                k = rest | r << s
                out[k] = out.get(k, 0) + coeff * sc
            odd_left ^= table.par[m]
    return _tensor(alg, t.legs, out, t.den)


def cobracket_kernel(algebra, r: LieTensor):
    """Basis of {x in g : delta(x) = 0}, as a list of coefficient vectors
    over the algebra basis, in reduced echelon form.  The cobracket
    delta(x) = [x (x) 1 + 1 (x) x, r] is the adjoint action of x on r."""
    m = algebra.size
    # the rows of the linear map x -> delta(x), one per key; kernel = null space
    rows: dict = {}
    for i in range(m):
        img = adjoint_action(i, r)
        if img.den is None:
            raise TypeError("kernel computation needs rational tensors")
        for k, c in img.data.items():
            rows.setdefault(k, [0] * m)[i] = Fraction(c, img.den)
    rref_rows, pivots = rref(list(rows.values()))
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
    bracket then costs one back-substitution against it.  Membership does
    not change under scaling, so each vector's denominators are cleared
    once and the brackets are summed in ints."""
    m = algebra.size
    span = _Span(kernel_basis)
    cleared = []
    for v in kernel_basis:
        d = lcm(*[x.denominator for x in v])
        cleared.append([(i, (x * d).numerator) for i, x in enumerate(v) if x])
    for va in cleared:
        for vb in cleared:
            out = [0] * m
            for i, ca in va:
                for j, cb in vb:
                    for k, c in algebra.bracket(i, j).items():
                        out[k] += ca * cb * c
            if any(out) and not span.contains(out):
                return False
    return True


# --------------------------------------------------------------------------
# Graded classical Yang-Baxter residual
# --------------------------------------------------------------------------


def _cybe_brackets(r: LieTensor, combine) -> LieTensor:
    """The 3-leg tensor of combine([r12, r13], [r12, r23], [r13, r23]),
    coefficient by coefficient, for an even 2-leg tensor r: the three
    brackets from one pass over pairs of stored terms by the closed forms
    of the module docstring, as int numerators over r.den**2 for a
    rational r, else as scalars."""
    if r.legs != 2:
        raise HeterogeneousOperand("the residual needs a 2-leg tensor")
    if not r.is_even():
        raise HeterogeneousOperand("the residual formulas need an even tensor")
    alg = r.algebra
    table, mask, _ = r._codec()
    ids, bits, monos = _letter_ids(table, alg.size), table.bits, table.monos
    terms = [
        (monos[a][0], monos[b][0], a, b, c)
        for a, b, c in ((k >> bits, k & mask, c) for k, c in r.data.items())
    ]
    out: dict = {}
    for i, j, ii, ij, c1 in terms:
        pj = table.par[ij]
        for k, l, ik, il, c2 in terms:
            cc = c1 * c2
            signed = -cc if pj and table.par[ik] else cc
            for res, sc in alg.bracket(i, k).items():
                key = (ids[res] << bits | ij) << bits | il
                out.setdefault(key, [0, 0, 0])[0] += signed * sc
            for res, sc in alg.bracket(j, k).items():
                key = (ii << bits | ids[res]) << bits | il
                out.setdefault(key, [0, 0, 0])[1] += cc * sc
            for res, sc in alg.bracket(j, l).items():
                key = (ii << bits | ik) << bits | ids[res]
                out.setdefault(key, [0, 0, 0])[2] += signed * sc
    sums = {key: combine(*abc) for key, abc in out.items()}
    return _tensor(alg, 3, sums, None if r.den is None else r.den * r.den)


def cybe_residual(r: LieTensor) -> LieTensor:
    """[r12, r13] + [r12, r23] + [r13, r23] in g (x) g (x) g.

    Zero iff r solves the graded classical Yang-Baxter equation.  The
    closed bracket formulas require a parity-even tensor (always true for
    the solutions considered here)."""
    return _cybe_brackets(r, lambda a, b, c: a + b + c)


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
    u, w = Poly.var("u"), Poly.var("w")
    # the weighted sum above, grouped by variable: two scalings, not three
    return _cybe_brackets(c, lambda a, b, d: u * (b + d) + w * (a + b))


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
                nxt[newkey] = nxt.get(newkey, 0) + c * x
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
    q = LaurentSeries("eps", 1, [s], internal).exp()
    r = trig_r(algebra, q)
    # every coefficient as a series (uniform type), then conjugate
    zero = LaurentSeries.zero("eps")
    r = r.map_coefficients(lambda c: zero + c)
    theta = algebra.generator_index("+2e%d" % 1)
    coeff = LaurentSeries("eps", -1, [Poly.var("t") * theta_factor], None)
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
    # the elementary half: sum over a of e_a (x) [theta-raising, dual]
    terms: dict = {}
    for a in algebra.positive_indices():
        for b, cb in dual_of_opposite(algebra, a).items():
            for k, sc in algebra.bracket(theta, b).items():
                terms[(a, k)] = terms.get((a, k), Fraction(0)) + cb * sc
    half = LieTensor(algebra, 2, terms)
    return (half - half.flip()).scale(Poly.var("t"))
