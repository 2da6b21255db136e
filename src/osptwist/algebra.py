"""The orthosymplectic Lie superalgebra osp(1|2n) in its defining matrix
realization, with a fixed ordered basis of root vectors.

Conventions (all 0-based):

* The defining space is C^(2n+1) with the single odd coordinate in the
  middle: parity vector (0,..,0,1,0,..,0), the 1 at position n.
* The preserved bilinear form is antidiagonal,  B[i, 2n-i] = +1 for
  i <= n and -1 for i > n  (symmetric on the even block, antisymmetric on
  the odd one).
* Weights: the basis vector e_{k-1} has weight eps_k (k = 1..n), e_n has
  weight 0, and e_{2n-k+1} has weight -eps_k.

The basis consists of the Cartan generators ``h1..hn`` plus one root
vector per root, named by the root itself in eps-coordinates, e.g.
``"+e1-e2"``, ``"+2e1"``, ``"-e1"``.  Roots: even ones eps_k - eps_j,
eps_k + eps_j (k < j) and 2 eps_k; odd ones eps_k (short).  Total
dimension 2n^2 + 3n.

Each basis element also carries the additive "principal grade": half the
sum of its root's eps-coefficients, stored doubled (``g2``) so it stays an
integer.  This grade is what the truncation machinery in :mod:`pbw` cuts
on, because it is additive through bracket and product alike.

The basis list is stored already sorted in the order used for normal
ordering in the enveloping algebra: Cartan first, then even raising
elements by height, odd raising elements by height, then the same for
lowering elements.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MissingAlias
from .repmat import GradedMatrix
from .scalars import rref


class BasisElement:
    """One member of the fixed basis: name, matrix, root data, grading."""

    __slots__ = ("name", "index", "matrix", "parity", "root", "g2", "kind",
                 "sign", "lead")

    def __init__(self, name, matrix, parity, root, kind, sign, lead):
        self.name = name
        self.index = None  # assigned after sorting
        self.matrix = matrix
        self.parity = parity
        self.root = root  # tuple of eps-coefficients, all zero for Cartan
        self.g2 = sum(root)  # doubled principal grade
        self.kind = kind  # "cartan" | "diff" | "sum" | "long" | "odd"
        self.sign = sign  # +1 raising, -1 lowering, 0 Cartan
        self.lead = lead  # matrix position that this element alone occupies

    def __repr__(self):
        return "<%s>" % self.name


def _root_name(root) -> str:
    parts = []
    for k, c in enumerate(root, start=1):
        if c == 0:
            continue
        s = "+" if c > 0 else "-"
        mag = abs(c)
        parts.append("%s%se%d" % (s, "" if mag == 1 else str(mag), k))
    return "".join(parts)


def _height(kind: str, n: int, k: int, j: int) -> int:
    """Height of the positive root of the given kind w.r.t. the simple
    system eps_i - eps_{i+1} (i < n), eps_n."""
    if kind == "diff":
        return j - k
    if kind == "sum":
        return 2 * n - k - j + 2
    if kind == "long":
        return 2 * n - 2 * k + 2
    if kind == "odd":
        return n - k + 1
    raise ValueError(kind)


# aliases into the worked low-rank cases; resolved by generator_index()
_ALIASES = {
    1: {
        "H": "h1",
        "X+": "+2e1", "X-": "-2e1",
        "v+": "+e1", "v-": "-e1",
    },
    2: {
        "H": "h1", "J": "h2",
        "v+": "+e1", "v-": "-e1",
        "w+": "+e2", "w-": "-e2",
        "Z+": "+e1-e2", "Z-": "-e1+e2",
        "U+": "+e1+e2", "U-": "-e1-e2",
        "X+": "+2e1", "X-": "-2e1",
        "Y+": "+2e2", "Y-": "-2e2",
    },
}


class OspAlgebra:
    """osp(1|2n) with its ordered root-vector basis and exact structure
    constants (computed once from the defining matrices and memoized)."""

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 1:
            raise ValueError("n must be a positive integer, got %r" % (n,))
        self.n = n
        d = 2 * n + 1
        self.dim_rep = d
        self.pv = tuple(1 if i == n else 0 for i in range(d))
        self.basis = self._build_basis()
        for i, b in enumerate(self.basis):
            b.index = i
        self.size = len(self.basis)
        self._by_name = {b.name: b for b in self.basis}
        self._bracket_cache = {}
        self._mono_matrix_cache = {}
        self._gram_inv = None

    # -- construction -------------------------------------------------------

    def _unit(self, i, j, c=1):
        return GradedMatrix.unit(self.pv, i, j, Fraction(c))

    def _build_basis(self):
        n, make = self.n, self._unit
        elems = []

        def put(name, matrix, parity, root, kind, sign, lead):
            elems.append(
                BasisElement(name, matrix, parity, tuple(root), kind, sign, lead)
            )

        zero_root = (0,) * n
        for k in range(1, n + 1):
            m = make(k - 1, k - 1) - make(2 * n - k + 1, 2 * n - k + 1)
            put("h%d" % k, m, 0, zero_root, "cartan", 0, (k - 1, k - 1))

        def root_of(pairs):
            r = [0] * n
            for k, c in pairs:
                r[k - 1] += c
            return tuple(r)

        for k in range(1, n + 1):
            for j in range(k + 1, n + 1):
                # eps_k - eps_j and its negative
                mp = make(k - 1, j - 1) - make(2 * n - j + 1, 2 * n - k + 1)
                mn = make(j - 1, k - 1) - make(2 * n - k + 1, 2 * n - j + 1)
                rp = root_of([(k, 1), (j, -1)])
                put(_root_name(rp), mp, 0, rp, "diff", 1, (k - 1, j - 1))
                rn = tuple(-c for c in rp)
                put(_root_name(rn), mn, 0, rn, "diff", -1, (j - 1, k - 1))
                # eps_k + eps_j and its negative
                mp = make(k - 1, 2 * n - j + 1) + make(j - 1, 2 * n - k + 1)
                mn = make(2 * n - j + 1, k - 1) + make(2 * n - k + 1, j - 1)
                rp = root_of([(k, 1), (j, 1)])
                put(_root_name(rp), mp, 0, rp, "sum", 1, (k - 1, 2 * n - j + 1))
                rn = tuple(-c for c in rp)
                put(_root_name(rn), mn, 0, rn, "sum", -1, (2 * n - j + 1, k - 1))
            # 2 eps_k and its negative
            mp = make(k - 1, 2 * n - k + 1)
            mn = make(2 * n - k + 1, k - 1)
            rp = root_of([(k, 2)])
            put(_root_name(rp), mp, 0, rp, "long", 1, (k - 1, 2 * n - k + 1))
            rn = tuple(-c for c in rp)
            put(_root_name(rn), mn, 0, rn, "long", -1, (2 * n - k + 1, k - 1))
            # odd eps_k and its negative
            mp = make(k - 1, n) + make(n, 2 * n - k + 1)
            mn = make(2 * n - k + 1, n) - make(n, k - 1)
            rp = root_of([(k, 1)])
            put(_root_name(rp), mp, 1, rp, "odd", 1, (k - 1, n))
            rn = tuple(-c for c in rp)
            put(_root_name(rn), mn, 1, rn, "odd", -1, (2 * n - k + 1, n))

        def order_key(b: BasisElement):
            if b.kind == "cartan":
                return (0, b.lead[0], 0)
            ks = [k + 1 for k, c in enumerate(b.root) if c != 0]
            k = ks[0]
            j = ks[-1]
            h = _height(b.kind, n, k, j)
            if b.sign > 0:
                block = 1 if b.parity == 0 else 2
            else:
                block = 3 if b.parity == 0 else 4
            return (block, h, k, j)

        elems.sort(key=order_key)
        return elems

    # -- lookups --------------------------------------------------------------

    def generator_index(self, name: str) -> int:
        b = self._by_name.get(name)
        if b is not None:
            return b.index
        alias = _ALIASES.get(self.n, {}).get(name)
        if alias is not None:
            return self._by_name[alias].index
        raise MissingAlias(
            "no generator %r in osp(1|%d); canonical names look like "
            "'h1', '+e1-e2', '+2e1', '-e1'" % (name, 2 * self.n)
        )

    def generator_matrix(self, name: str) -> GradedMatrix:
        return self.basis[self.generator_index(name)].matrix

    def name_of(self, index: int) -> str:
        return self.basis[index].name

    def parity(self, index: int) -> int:
        return self.basis[index].parity

    def g2(self, index: int) -> int:
        return self.basis[index].g2

    def negative_of(self, index: int) -> int:
        b = self.basis[index]
        if b.kind == "cartan":
            raise ValueError("Cartan generators have no opposite root")
        return self._by_name[_root_name(tuple(-c for c in b.root))].index

    def cartan_indices(self):
        return tuple(b.index for b in self.basis if b.kind == "cartan")

    def positive_indices(self):
        return tuple(b.index for b in self.basis if b.sign > 0)

    def compatible_with(self, other: "OspAlgebra") -> bool:
        return isinstance(other, OspAlgebra) and other.n == self.n

    # -- form and expansion ------------------------------------------------------

    def form_matrix(self) -> GradedMatrix:
        """The preserved bilinear form as a matrix."""
        n, d = self.n, self.dim_rep
        return GradedMatrix(
            self.pv,
            {(i, 2 * n - i): Fraction(1 if i <= n else -1) for i in range(d)},
        )

    def preserves_form(self, m: GradedMatrix) -> bool:
        """Membership test: <Xv,w> + (-1)**(p(X)p(v)) <v,Xw> = 0.

        In components:  (X^T B)[k,j] + (-1)**(p(X)*pv[k]) (B X)[k,j] = 0.
        The matrix must be parity-homogeneous.
        """
        p = m.parity()
        if p is None:
            raise ValueError("membership test needs a homogeneous matrix")
        b = self.form_matrix()
        lhs = m.transpose() @ b
        rhs = b @ m
        signed = GradedMatrix(
            self.pv,
            {
                (k, j): (-c if (p and self.pv[k]) else c)
                for (k, j), c in rhs.entries.items()
            },
        )
        return (lhs + signed).is_zero

    def expand_in_basis(self, m: GradedMatrix) -> dict:
        """Write a matrix as a combination of basis elements (exact).

        Uses the fact that every basis element owns one matrix position no
        other basis element touches; the remainder after peeling all of
        them off must vanish, otherwise the matrix is not in the algebra.
        """
        out = {}
        rest = m
        for b in self.basis:
            c = rest[b.lead]
            if c:
                out[b.index] = c
                rest = rest - b.matrix.scale(c)
        if not rest.is_zero:
            raise ValueError("matrix does not lie in the span of the basis")
        return out

    # -- structure constants -------------------------------------------------------

    def bracket(self, i: int, j: int) -> dict:
        """[x_i, x_j] as {index: Fraction}, from the defining matrices."""
        key = (i, j)
        hit = self._bracket_cache.get(key)
        if hit is not None:
            return hit
        bi, bj = self.basis[i], self.basis[j]
        m = bi.matrix.super_commutator(bj.matrix)
        out = self.expand_in_basis(m)
        self._bracket_cache[key] = out
        # fill the flip for free: [y,x] = -(-1)**(p(x)p(y)) [x,y]
        s = -1 if not (bi.parity and bj.parity) else 1
        self._bracket_cache[(j, i)] = {k: s * c for k, c in out.items()}
        return out

    def monomial_matrix(self, mono) -> GradedMatrix:
        """Defining-representation image of a product of basis elements:
        the image of the monomial without its last letter, times that
        letter's matrix.  Images of up to six letters are cached, and so
        is every zero image, which then ends the product for each
        monomial that extends it."""
        mono = tuple(mono)
        hit = self._mono_matrix_cache.get(mono)
        if hit is not None:
            return hit
        if not mono:
            acc = GradedMatrix.identity(self.pv)
        else:
            acc = self.monomial_matrix(mono[:-1])
            if not acc.is_zero:
                acc = acc @ self.basis[mono[-1]].matrix
        if len(mono) <= 6 or acc.is_zero:
            self._mono_matrix_cache[mono] = acc
        return acc

    # -- invariant form -------------------------------------------------------------

    def gram(self):
        """Supertrace form on the basis: G[a][b] = str(x_a x_b)."""
        mats = [b.matrix for b in self.basis]
        return [
            [(a @ c).supertrace() for c in mats] for a in mats
        ]

    def gram_inverse(self):
        if self._gram_inv is None:
            self._gram_inv = invert_fraction_matrix(self.gram())
        return self._gram_inv


def check_jacobi(algebra: OspAlgebra):
    """Graded Jacobi identity on basis triples:

        [x,[y,z]] - [[x,y],z] - (-1)**(p(x)p(y)) [y,[x,z]]  =  0.

    Returns the list of violating (i, j, k) triples; empty means every
    triple checks out."""
    idx = range(algebra.size)
    bad = []
    for i in idx:
        pi = algebra.parity(i)
        for j in idx:
            sij = -1 if (pi and algebra.parity(j)) else 1
            bij = algebra.bracket(i, j)
            for k in idx:
                acc: dict = {}
                for m, c in algebra.bracket(j, k).items():
                    for r, d in algebra.bracket(i, m).items():
                        acc[r] = acc.get(r, 0) + c * d
                for m, c in bij.items():
                    for r, d in algebra.bracket(m, k).items():
                        acc[r] = acc.get(r, 0) - c * d
                for m, c in algebra.bracket(i, k).items():
                    for r, d in algebra.bracket(j, m).items():
                        acc[r] = acc.get(r, 0) - sij * c * d
                if any(acc.values()):
                    bad.append((i, j, k))
    return bad


_ALGEBRA_CACHE: dict = {}


def build_osp(n: int) -> OspAlgebra:
    """osp(1|2n) with its fixed basis; instances are cached per rank so the
    memoized structure constants are shared."""
    alg = _ALGEBRA_CACHE.get(n)
    if alg is None:
        alg = OspAlgebra(n)
        _ALGEBRA_CACHE[n] = alg
    return alg


def invert_fraction_matrix(rows):
    """Exact inverse of a square Fraction matrix by Gauss-Jordan
    elimination of [rows | 1]; raises ValueError when it is singular."""
    m = len(rows)
    reduced, pivots = rref(
        [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(rows)]
    )
    if pivots != list(range(m)):
        raise ValueError("matrix is singular")
    return [row[m:] for row in reduced]
