"""Exact sparse matrices on Z2-graded vector spaces.

A :class:`GradedMatrix` is a square matrix over the exact scalar tower
(rational / Poly / LaurentSeries) together with the parity vector of the
space it acts on.  Its entries are stored by the rule the term algebras
of :mod:`~osptwist.pbw` share (:func:`~osptwist.scalars._stored`): a
rational matrix as int numerators over one positive, canonical
denominator ``den``, a matrix with any Poly or LaurentSeries entry as its
scalars with ``den`` None.  Only the public constructor validates; the
products, sums, scalings, tensor products, leg embeddings, transposes and
units build their results from the stored numerators on a trusted path,
so rational arithmetic is int arithmetic.  Read through ``entries``,
``[]``, ``str`` or ``==``, a rational entry is an int when it is integral
and a Fraction otherwise (:func:`~osptwist.scalars._exact`).  The linear
structure (the zero test, that decode, sums and :func:`combination`,
negation, scaling, equality, hashing, parity) is
:class:`~osptwist.scalars.Stored`'s, written once for the matrices and
the term algebras; this module writes the products and the rest.

Ordinary matrix multiplication carries no signs; all of
the grading enters through :func:`kron`, whose entries pick up the Koszul
sign

    (A (x) B)[(i,k),(j,l)] = (-1)**((p[k]+p[l]) * p[j]) * A[i,j] * B[k,l],

i.e. the parity of the B-entry times the parity of the A-column.  That is
exactly the matrix of the operator ``a (x) b`` acting on ``v (x) w`` as
``(-1)**(p(b)p(v)) av (x) bw``, summed over homogeneous components, so it
remains correct for inhomogeneous factors.

A product chain of matrices with Poly entries can also be evaluated
monomial by monomial: :func:`split_monomials` splits the matrices into
one rational matrix per monomial of their variables, :func:`convolve`
multiplies two such expansions by rational (int) products, and
:func:`join_monomials` builds each entry's Poly once, at the end.  The
braid and RTT residuals of :mod:`~osptwist.quantum` evaluate Poly entries
this way; ``matmul`` itself multiplies the Poly scalars.

Also here: the parity vector of a tensor power (the one every tensor
image in the package is built on), the graded swap of two legs, the
embedding of an operator into chosen tensor legs (:func:`kron` with
identities, then graded swaps that slide its factors apart, so the sign
rule above is the only one), and the exponential and logarithm of
nilpotent/unipotent matrices.

These matrices are one of the two rings the twist chain's single recipe
is evaluated over (:mod:`twist`; the other is the truncated enveloping
algebra of :mod:`pbw`).  A :class:`GradedMatrix` is a
:class:`~osptwist.scalars.Ring`: ``**`` and the super commutator
are the shared ones, with the identity as its unit (``one_like``) and no
inverse.  Every power series on these matrices -- ``exp``, log, and
``series(stream)``, which serves the inverses and square roots of the
chain's ingredients -- is a sum of the one loop
:func:`~osptwist.scalars.nilpotent_series`, which stops at the first
vanishing power.
"""

from __future__ import annotations

from itertools import islice
from operator import add

from .errors import LegMismatch, NotNilpotent
from .scalars import (
    LaurentSeries,
    Poly,
    Stored,
    _clean,
    _stored,
    nilpotent_series,
    taylor_exp,
    taylor_log1p,
)


class GradedMatrix(Stored):
    """Square sparse matrix with a parity vector ``pv`` (0/1 per index).

    ``data`` is the zero-free {(i, j): stored entry} dict over ``den``, by
    the shared storage rule: int numerators over a positive canonical
    ``den`` for a rational matrix, else the scalars with ``den`` None.
    ``entries`` reads them back as scalars.  The linear structure is
    :class:`~osptwist.scalars.Stored`'s, on the space ``pv``."""

    __slots__ = ("pv", "data", "den")

    def __init__(self, pv, entries):
        pv = tuple(pv)
        d = len(pv)
        for i, j in entries:
            if not (0 <= i < d and 0 <= j < d):
                raise IndexError("entry (%d,%d) outside dim %d" % (i, j, d))
        _hold(self, pv, *_stored(entries))

    @classmethod
    def _wrap(cls, pv, data, den) -> "GradedMatrix":
        """The trusted path: a matrix on the parity tuple ``pv`` holding
        ``data`` over ``den`` that are already stored by the rule."""
        return _hold(object.__new__(cls), pv, data, den)

    def _like(self, data, den) -> "GradedMatrix":
        return self._wrap(self.pv, data, den)

    def _space(self):
        return self.pv

    def _parities(self):
        pv = self.pv
        return lambda ij: (pv[ij[0]] + pv[ij[1]]) & 1

    def __setattr__(self, *a):
        raise AttributeError("GradedMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, pv) -> "GradedMatrix":
        return cls._wrap(tuple(pv), {}, 1)

    @classmethod
    def identity(cls, pv) -> "GradedMatrix":
        pv = tuple(pv)
        return cls._wrap(pv, {(i, i): 1 for i in range(len(pv))}, 1)

    # -- basics ------------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.pv)

    @property
    def entries(self) -> dict:
        """{(i, j): scalar} of the nonzero entries."""
        return self._scalars()

    def __getitem__(self, ij):
        return self._scalar(self.data.get(ij, 0))

    def __mul__(self, other):
        if isinstance(other, GradedMatrix):
            return self.matmul(other)
        return self.scale(other)

    def __matmul__(self, other):
        return self.matmul(other)

    def matmul(self, other: "GradedMatrix") -> "GradedMatrix":
        """Plain matrix product (signs belong to kron, not to composition):
        int numerators over the product of the two denominators when both
        matrices are rational, else scalars."""
        self._check(other)
        left, right, den = _factors(self, other)
        by_row = {}
        for (k, j), c in right.items():
            by_row.setdefault(k, []).append((j, c))
        out = {}
        for (i, k), a in left.items():
            for j, b in by_row.get(k, ()):
                key = (i, j)
                cur = out.get(key)
                out[key] = a * b if cur is None else cur + a * b
        return _summed(self.pv, out, den)

    def one_like(self) -> "GradedMatrix":
        return GradedMatrix.identity(self.pv)

    # -- graded structure ----------------------------------------------------

    def transpose(self) -> "GradedMatrix":
        return self._wrap(
            self.pv, {(j, i): c for (i, j), c in self.data.items()}, self.den
        )

    def supertrace(self):
        tot = 0
        for (i, j), c in self.data.items():
            if i == j:
                tot = tot + (-c if self.pv[i] else c)
        return self._scalar(tot)

    # -- nilpotent calculus ----------------------------------------------------

    def is_nilpotent(self) -> bool:
        """A**dim == 0, tested by repeated squaring."""
        power, k = self, 1
        while not power.is_zero:
            if k >= self.dim:
                return False
            power, k = power @ power, 2 * k
        return True

    def exp_nilpotent(self) -> "GradedMatrix":
        """exp(A) for nilpotent A (raises NotNilpotent otherwise)."""
        if not self.is_nilpotent():
            raise NotNilpotent("matrix power A^%d is still nonzero" % self.dim)
        return self.series(taylor_exp)

    exp = exp_nilpotent

    def log_unipotent(self) -> "GradedMatrix":
        """log(A) for A = 1 + N with N nilpotent."""
        n = self - self.one_like()
        if not n.is_nilpotent():
            raise NotNilpotent(
                "matrix is not unipotent: (A-1)^%d != 0" % self.dim
            )
        return n.series(taylor_log1p)

    def series(self, stream) -> "GradedMatrix":
        """sum_k a_k A**k for ``stream()`` iterating over a_0, a_1, ...;
        for a nilpotent A, A**dim vanishes, so the first dim coefficients
        reach a vanishing power, and only those up to it are formed."""
        return nilpotent_series(islice(stream(), self.dim), self, self.one_like())

    # -- display -----------------------------------------------------------------

    def __str__(self):
        d = self.dim
        rows = []
        for i in range(d):
            rows.append(
                "[" + ", ".join(str(self[(i, j)]) for j in range(d)) + "]"
            )
        return "\n".join(rows)

    def __repr__(self):
        nz = len(self.data)
        return "GradedMatrix(dim=%d, nonzero=%d)" % (self.dim, nz)


def _hold(m, pv, data, den):
    """Fill the slots of a new matrix."""
    object.__setattr__(m, "pv", pv)
    object.__setattr__(m, "data", data)
    object.__setattr__(m, "den", den)
    return m


def _factors(a, b):
    """(a's entries, b's entries, their products' denominator): int
    numerators over a.den * b.den when both matrices are rational, else
    scalars and None."""
    if a.den is None or b.den is None:
        return a.entries, b.entries, None
    return a.data, b.data, a.den * b.den


def _summed(pv, data, den) -> GradedMatrix:
    """The matrix of a sum formed over ``den`` (stored scalars when den is
    None), whose entries may have cancelled to zero."""
    if den is not None:
        data = {ij: v for ij, v in data.items() if v}
    return GradedMatrix._wrap(pv, *_clean(data, den))


def combination(pv, pairs, den=1) -> GradedMatrix:
    """sum c * m / den over (c, m) pairs of matrices on the parity tuple
    ``pv``: int c over an int ``den``, or scalars c with den None (see
    :meth:`~osptwist.scalars.Stored._combination`)."""
    return GradedMatrix.zero(pv)._combination(pairs, den)


# --------------------------------------------------------------------------
# Graded tensor products and leg embeddings
# --------------------------------------------------------------------------


def kron(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """Graded Kronecker product; see the module docstring for the sign."""
    da, db = a.dim, b.dim
    pv = tuple((pa + pb) % 2 for pa in a.pv for pb in b.pv)
    left, right, den = _factors(a, b)
    out = {}
    for (i, j), x in left.items():
        col_par = a.pv[j]
        for (k, l), y in right.items():
            sign = -1 if col_par and (b.pv[k] + b.pv[l]) % 2 else 1
            v = x * y
            out[(i * db + k, j * db + l)] = -v if sign < 0 else v
    return _summed(pv, out, den)


def kron_all(mats) -> GradedMatrix:
    mats = list(mats)
    if not mats:
        raise ValueError("kron_all needs at least one factor")
    acc = mats[0]
    for m in mats[1:]:
        acc = kron(acc, m)
    return acc


def tensor_pv(pv, k: int):
    """Parity vector of the k-th tensor power of the space with parity
    vector ``pv``, in the index order of :func:`kron` (first leg most
    significant)."""
    out = (0,)
    for _ in range(k):
        out = tuple((pa + pb) % 2 for pa in out for pb in pv)
    return out


def graded_swap(pv) -> GradedMatrix:
    """The graded flip v (x) w -> (-1)**(p(v)p(w)) w (x) v on the square of
    the space with parity vector ``pv``: an even involution, by which
    conjugation turns a (x) b into (-1)**(p(a)p(b)) b (x) a."""
    d = len(pv)
    flip = {
        (b * d + a, a * d + b): -1 if pv[a] and pv[b] else 1
        for a in range(d) for b in range(d)
    }
    return GradedMatrix._wrap(tensor_pv(pv, 2), flip, 1)


def embed_legs(m: GradedMatrix, pv, legs, total: int) -> GradedMatrix:
    """Embed an operator on len(legs) copies of the space with parity ``pv``
    into ``total`` tensor legs (1-based, strictly increasing), acting as the
    identity elsewhere: a (x) b at legs (1, 3) of three is a (x) 1 (x) b.

    :func:`kron` with identities places the operator on the consecutive
    legs from ``legs[0]``; then each of its factors, the last first, slides
    to its own leg by conjugation with the :func:`graded_swap` of two
    neighbouring legs, which carries the Koszul sign of passing them.
    """
    legs = tuple(legs)
    k = len(legs)
    if sorted(set(legs)) != list(legs):
        raise LegMismatch("legs must be strictly increasing, got %r" % (legs,))
    if not legs or legs[0] < 1 or legs[-1] > total:
        raise LegMismatch(
            "legs %r out of range for %d tensor factors" % (legs, total)
        )
    if m.pv != tensor_pv(pv, k):
        raise LegMismatch("operator is not on %d legs of %r" % (k, tuple(pv)))
    eye = GradedMatrix.identity(pv)
    first = legs[0] - 1
    out = kron_all([eye] * first + [m] + [eye] * (total - first - k))
    swap = graded_swap(pv)
    for t in range(k - 1, 0, -1):
        # factor t moves from leg first + t + 1 to legs[t], one leg a swap
        for j in range(first + t, legs[t] - 1):
            s = kron_all([eye] * j + [swap] + [eye] * (total - j - 2))
            out = s @ out @ s
    return out


# --------------------------------------------------------------------------
# Monomial coefficient matrices
# --------------------------------------------------------------------------


def split_monomials(mats):
    """(names, parts) for matrices whose entries are rationals and Polys:
    ``names`` is the sorted union of the variables of their Poly entries,
    and ``parts[t]`` maps each exponent tuple over ``names`` to the
    rational matrix of the coefficients of that monomial in ``mats[t]``,
    so that mats[t] = sum_e x**e * parts[t][e].  A rational matrix is its
    own one part at the zero exponent, and so is a matrix with any
    LaurentSeries entry, which is taken whole."""
    whole = [
        m.den is not None
        or any(isinstance(c, LaurentSeries) for c in m.data.values())
        for m in mats
    ]
    names = tuple(sorted({
        v
        for m, w in zip(mats, whole) if not w
        for c in m.data.values() if isinstance(c, Poly)
        for v in c.vars
    }))
    zero = (0,) * len(names)
    parts = []
    for m, w in zip(mats, whole):
        if w:
            parts.append({zero: m})
            continue
        coeffs: dict = {}
        for ij, c in m.data.items():
            if not isinstance(c, Poly):
                coeffs.setdefault(zero, {})[ij] = c
                continue
            at = [names.index(v) for v in c.vars]
            for e, a in c.coeffs.items():
                full = list(zero)
                for i, k in zip(at, e):
                    full[i] = k
                coeffs.setdefault(tuple(full), {})[ij] = a
        parts.append({
            e: GradedMatrix._wrap(m.pv, *_stored(data))
            for e, data in coeffs.items()
        })
    return names, parts


def join_monomials(pv, names, parts) -> GradedMatrix:
    """sum_e x**e * parts[e] over the variables ``names``, the inverse of
    :func:`split_monomials`: each entry's Poly is built once from its
    rational coefficients, and an entry whose only monomial is the zero
    exponent stays rational.  A part with non-rational scalars (taken
    whole) is added entry by entry."""
    zero = (0,) * len(names)
    coeffs: dict = {}
    scalars: dict = {}
    for e, m in parts.items():
        if m.den is not None:
            for ij, c in m.entries.items():
                coeffs.setdefault(ij, {})[e] = c
            continue
        x = 1 if e == zero else Poly(names, {e: 1})
        for ij, c in m.data.items():
            scalars[ij] = scalars.get(ij, 0) + x * c
    out = {
        ij: cs[zero] if len(cs) == 1 and zero in cs else Poly(names, cs)
        for ij, cs in coeffs.items()
    }
    for ij, c in scalars.items():
        out[ij] = out.get(ij, 0) + c
    return GradedMatrix._wrap(pv, *_stored(out))


def convolve(a: dict, b: dict) -> dict:
    """The product of two monomial expansions {exponent: matrix} (as
    :func:`split_monomials` gives them): a[e1] @ b[e2] summed at e1 + e2."""
    terms: dict = {}
    for e1, x in a.items():
        for e2, y in b.items():
            terms.setdefault(tuple(map(add, e1, e2)), []).append(x @ y)
    return {
        e: combination(ms[0].pv, [(1, m) for m in ms])
        for e, ms in terms.items()
    }

