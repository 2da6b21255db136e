"""Exact sparse matrices on Z2-graded vector spaces.

A :class:`GradedMatrix` is a square matrix over the exact scalar tower
(rational / Poly / LaurentSeries) together with the parity vector of the
space it acts on.  A rational entry is stored by the tower's one rule
(:func:`~osptwist.scalars._exact`): an int when it is integral, a Fraction
otherwise.  Ordinary matrix multiplication carries no signs; all of
the grading enters through :func:`kron`, whose entries pick up the Koszul
sign

    (A (x) B)[(i,k),(j,l)] = (-1)**((p[k]+p[l]) * p[j]) * A[i,j] * B[k,l],

i.e. the parity of the B-entry times the parity of the A-column.  That is
exactly the matrix of the operator ``a (x) b`` acting on ``v (x) w`` as
``(-1)**(p(b)p(v)) av (x) bw``, summed over homogeneous components, so it
remains correct for inhomogeneous factors.

Also here: the parity vector of a tensor power (the one every tensor
image in the package is built on), embedding of an operator into chosen tensor legs (with the signs for sliding factors past
untouched legs), and the exponential and logarithm of nilpotent/unipotent
matrices.

These matrices are one of the two rings the twist chain's single recipe
is evaluated over (:mod:`twist`; the other is the truncated enveloping
algebra of :mod:`pbw`).  A :class:`GradedMatrix` is a
:class:`~osptwist.scalars.Ring`: ``-``, ``**`` and the super commutator
are the shared ones, with the identity as its unit (``one_like``) and no
inverse.  Every power series on these matrices -- ``exp``, log, and
``series(stream)``, which serves the inverses and square roots of the
chain's ingredients -- is a sum of the one loop
:func:`~osptwist.scalars.nilpotent_series`, which stops at the first
vanishing power.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from .errors import LegMismatch, NotNilpotent
from .scalars import Ring, _exact, nilpotent_series, taylor_exp, taylor_log1p


class GradedMatrix(Ring):
    """Square sparse matrix with a parity vector ``pv`` (0/1 per index)."""

    __slots__ = ("pv", "entries")

    def __init__(self, pv, entries):
        pv = tuple(pv)
        d = len(pv)
        cleaned = {}
        for (i, j), c in entries.items():
            if not (0 <= i < d and 0 <= j < d):
                raise IndexError("entry (%d,%d) outside dim %d" % (i, j, d))
            if type(c) is not int and isinstance(c, (int, Fraction)):
                c = _exact(c)
            if c:
                cleaned[(i, j)] = c
        object.__setattr__(self, "pv", pv)
        object.__setattr__(self, "entries", cleaned)

    def __setattr__(self, *a):
        raise AttributeError("GradedMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, pv) -> "GradedMatrix":
        return cls(pv, {})

    @classmethod
    def identity(cls, pv) -> "GradedMatrix":
        return cls(pv, {(i, i): 1 for i in range(len(pv))})

    # -- basics ------------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.pv)

    def __getitem__(self, ij):
        return self.entries.get(ij, 0)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def _check_space(self, other: "GradedMatrix"):
        if self.pv != other.pv:
            raise ValueError("matrices act on different graded spaces")

    def __add__(self, other):
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        self._check_space(other)
        out = dict(self.entries)
        for ij, c in other.entries.items():
            out[ij] = out.get(ij, 0) + c
        return GradedMatrix(self.pv, out)

    def __neg__(self):
        return GradedMatrix(self.pv, {ij: -c for ij, c in self.entries.items()})

    def scale(self, c) -> "GradedMatrix":
        if not c:
            return GradedMatrix.zero(self.pv)
        return GradedMatrix(self.pv, {ij: c * v for ij, v in self.entries.items()})

    # reached only for a scalar c: a matrix on the left multiplies itself
    __rmul__ = scale

    def __mul__(self, other):
        if isinstance(other, GradedMatrix):
            return self.matmul(other)
        return self.scale(other)

    def __matmul__(self, other):
        return self.matmul(other)

    def matmul(self, other: "GradedMatrix") -> "GradedMatrix":
        """Plain matrix product (signs belong to kron, not to composition)."""
        self._check_space(other)
        by_row = {}
        for (k, j), c in other.entries.items():
            by_row.setdefault(k, []).append((j, c))
        out = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                key = (i, j)
                cur = out.get(key)
                out[key] = a * b if cur is None else cur + a * b
        return GradedMatrix(self.pv, out)

    def one_like(self) -> "GradedMatrix":
        return GradedMatrix.identity(self.pv)

    def __eq__(self, other):
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        return self.pv == other.pv and self.entries == other.entries

    def __hash__(self):
        return hash((self.pv, frozenset(self.entries.items())))

    # -- graded structure ----------------------------------------------------

    def parity(self):
        """0 or 1 for a homogeneous matrix (zero counts as even), None if
        the matrix mixes parities."""
        seen = {(self.pv[i] + self.pv[j]) % 2 for (i, j) in self.entries}
        if not seen:
            return 0
        if len(seen) > 1:
            return None
        return seen.pop()

    def transpose(self) -> "GradedMatrix":
        return GradedMatrix(self.pv, {(j, i): c for (i, j), c in self.entries.items()})

    def supertrace(self):
        tot = 0
        for (i, j), c in self.entries.items():
            if i == j:
                tot = tot + (-c if self.pv[i] else c)
        return tot

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
        nz = len(self.entries)
        return "GradedMatrix(dim=%d, nonzero=%d)" % (self.dim, nz)


# --------------------------------------------------------------------------
# Graded tensor products and leg embeddings
# --------------------------------------------------------------------------


def kron(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """Graded Kronecker product; see the module docstring for the sign."""
    da, db = a.dim, b.dim
    pv = tuple((pa + pb) % 2 for pa in a.pv for pb in b.pv)
    out = {}
    for (i, j), x in a.entries.items():
        col_par = a.pv[j]
        for (k, l), y in b.entries.items():
            sign = -1 if col_par and (b.pv[k] + b.pv[l]) % 2 else 1
            v = x * y
            out[(i * db + k, j * db + l)] = -v if sign < 0 else v
    return GradedMatrix(pv, out)


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


def _decode(flat: int, d: int, k: int):
    out = []
    for _ in range(k):
        out.append(flat % d)
        flat //= d
    out.reverse()
    return tuple(out)


def embed_legs(m: GradedMatrix, pv, legs, total: int) -> GradedMatrix:
    """Embed an operator on len(legs) copies of the space with parity ``pv``
    into ``total`` tensor legs (1-based, strictly increasing), acting as the
    identity elsewhere.

    The sign slides each factor of the operator past the untouched legs to
    its left: for every entry, factor t (sitting at leg ``legs[t]``) carries
    the parity of its own matrix entry, and it picks up that parity times
    the parity of each bypassed identity leg.
    """
    legs = tuple(legs)
    k = len(legs)
    if sorted(set(legs)) != list(legs):
        raise LegMismatch("legs must be strictly increasing, got %r" % (legs,))
    if not legs or legs[0] < 1 or legs[-1] > total:
        raise LegMismatch(
            "legs %r out of range for %d tensor factors" % (legs, total)
        )
    d = len(pv)
    if m.dim != d**k:
        raise LegMismatch(
            "operator dim %d does not match %d legs of dim %d"
            % (m.dim, k, d)
        )
    leg_set = set(l - 1 for l in legs)  # to 0-based positions
    free = [p for p in range(total) if p not in leg_set]
    out = {}
    # enumerate diagonal assignments of the free positions
    free_assignments = [[]]
    for _ in free:
        free_assignments = [fa + [x] for fa in free_assignments for x in range(d)]
    for (flat_i, flat_j), c in m.entries.items():
        rows = _decode(flat_i, d, k)
        cols = _decode(flat_j, d, k)
        for fa in free_assignments:
            full_row = [0] * total
            full_col = [0] * total
            for pos, x in zip(free, fa):
                full_row[pos] = x
                full_col[pos] = x
            for t, leg in enumerate(legs):
                full_row[leg - 1] = rows[t]
                full_col[leg - 1] = cols[t]
            sgn = 0
            for t, leg in enumerate(legs):
                p_factor = (pv[rows[t]] + pv[cols[t]]) % 2
                if p_factor:
                    sgn += sum(pv[full_col[pos]] for pos in free if pos < leg - 1)
            fi = 0
            for x in full_row:
                fi = fi * d + x
            fj = 0
            for x in full_col:
                fj = fj * d + x
            val = -c if sgn % 2 else c
            cur = out.get((fi, fj))
            out[(fi, fj)] = val if cur is None else cur + val
    return GradedMatrix(tensor_pv(pv, total), out)
