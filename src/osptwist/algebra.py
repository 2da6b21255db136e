"""The orthosymplectic Lie superalgebra osp(1|2n) in its defining matrix
realization, with a fixed ordered basis of root vectors.

Conventions (all 0-based):

* The defining space is C^(2n+1) with the single odd coordinate in the
  middle: parity vector pv = (0,..,0,1,0,..,0), the 1 at position n.
* The preserved bilinear form is antidiagonal,  B[i, 2n-i] = beta_i with
  beta_i = +1 for i <= n and -1 for i > n  (symmetric on the even block,
  antisymmetric on the odd one).
* Weights: w(i) = eps_{i+1} for i < n, w(n) = 0 and w(i) = -eps_{2n+1-i}
  for i > n.

The basis is derived from the form by one rule.  Every matrix entry
(a, b) except the odd diagonal (n, n) pairs with its partner
(2n-b, 2n-a).  A pair's lead is the member whose row comes first when the
odd row n is ranked last, and the pair spans one basis element

    E_ab - (-1)**p beta_a beta_b E_{2n-b, 2n-a},   p = pv[a] + pv[b] mod 2,

of parity p, the form-preserving completion of E_ab; a pair that is one
entry (b = 2n-a, a long root) gives E_ab alone.  Its root is
w(a) - w(b), and it owns the lead position: no other basis element
touches it.  A zero root makes the Cartan generator ``h{a+1}``; every
other element is named by its root in eps-coordinates, e.g. ``"+e1-e2"``,
``"+2e1"``, ``"-e1"``.  Roots: even ones eps_k - eps_j, eps_k + eps_j
(k < j) and 2 eps_k; odd ones eps_k (short).  Total dimension 2n^2 + 3n.

Each basis element also carries the additive "principal grade": half the
sum of its root's eps-coefficients, stored doubled (``g2``) so it stays an
integer.  This grade is what the truncation machinery in :mod:`pbw` cuts
on, because it is additive through bracket and product alike.

The basis list is stored already sorted in the order used for normal
ordering in the enveloping algebra: Cartan first, then even raising
elements, odd raising elements, even lowering and odd lowering ones.
Within a block the order is by height |sum_i c_i (n-i)| of the root
sum_i c_i eps_{i+1} (the height over the simple roots eps_i - eps_{i+1}
and eps_n), then by the first and last eps the root involves (a Cartan
generator's lead row).
"""

from __future__ import annotations

from .errors import MissingAlias, NotHomogeneous, NotInAlgebra
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


# kind of a root by (number of nonzero eps-coefficients, |their sum|)
_KINDS = {(0, 0): "cartan", (1, 1): "odd", (1, 2): "long", (2, 0): "diff",
          (2, 2): "sum"}


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
        self._by_lead = {b.lead: b.index for b in self.basis}
        self._bracket_cache = {}
        self._mono_matrix_cache = {}
        self._gram = self._gram_inv = None

    # -- construction -------------------------------------------------------

    def _build_basis(self):
        n, pv, top = self.n, self.pv, 2 * self.n
        beta = [1 if i <= n else -1 for i in range(top + 1)]
        weight = [[0] * n for _ in range(top + 1)]
        for k in range(n):
            weight[k][k], weight[top - k][k] = 1, -1
        # a pair's lead is its member whose row comes first, the odd row last
        rank = [top + 1 if i == n else i for i in range(top + 1)]
        elems = []
        for a in range(top + 1):
            for b in range(top + 1):
                partner = (top - b, top - a)
                if (a, b) == (n, n) or rank[partner[0]] < rank[a]:
                    continue
                p = (pv[a] + pv[b]) % 2
                entries = {(a, b): 1}
                if partner != (a, b):
                    entries[partner] = -(-1) ** p * beta[a] * beta[b]
                root = tuple(x - y for x, y in zip(weight[a], weight[b]))
                cs = [c for c in root if c]
                kind = _KINDS[len(cs), abs(sum(cs))]
                name = _root_name(root) if cs else "h%d" % (a + 1)
                sign = 0 if not cs else 1 if cs[0] > 0 else -1
                elems.append(BasisElement(
                    name, GradedMatrix(pv, entries), p, root, kind, sign, (a, b)
                ))

        def order_key(b: BasisElement):
            # Cartan; even, odd raising; even, odd lowering
            block = (1 if b.sign > 0 else 3) + b.parity if b.sign else 0
            ks = [k for k, c in enumerate(b.root) if c] or [b.lead[0]]
            height = abs(sum(c * (n - k) for k, c in enumerate(b.root)))
            return (block, height, ks[0], ks[-1])

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
        # a negative index raises instead of counting from the end
        if not 0 <= index < self.size:
            raise IndexError("no basis index %r" % (index,))
        return self.basis[index].parity

    def g2(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise IndexError("no basis index %r" % (index,))
        return self.basis[index].g2

    def cartan_indices(self):
        return tuple(b.index for b in self.basis if b.kind == "cartan")

    def positive_indices(self):
        return tuple(b.index for b in self.basis if b.sign > 0)

    # -- form and expansion ------------------------------------------------------

    def form_matrix(self) -> GradedMatrix:
        """The preserved bilinear form as a matrix."""
        n, d = self.n, self.dim_rep
        return GradedMatrix(
            self.pv,
            {(i, 2 * n - i): 1 if i <= n else -1 for i in range(d)},
        )

    def preserves_form(self, m: GradedMatrix) -> bool:
        """Membership test: <Xv,w> + (-1)**(p(X)p(v)) <v,Xw> = 0.

        In components:  (X^T B)[k,j] + (-1)**(p(X)*pv[k]) (B X)[k,j] = 0.
        The matrix must be parity-homogeneous.
        """
        p = m.parity()
        if p is None:
            raise NotHomogeneous("membership test needs a homogeneous matrix")
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
        """Write a matrix as a combination of basis elements, as
        {index: coefficient} with each coefficient stored by the rule.

        Every basis element owns one matrix position, its lead, that no
        other basis element touches, so its coefficient is the matrix's
        entry there.  The remainder after peeling all of them off must
        vanish, otherwise the matrix is not in the algebra.
        """
        by_lead, entries = self._by_lead, m.entries
        out = dict(sorted(
            (by_lead[ij], c) for ij, c in entries.items() if ij in by_lead
        ))
        rest = dict(entries)
        for i, c in out.items():
            for ij, v in self.basis[i].matrix.entries.items():
                rest[ij] = rest.get(ij, 0) - c * v
        if any(rest.values()):
            raise NotInAlgebra("matrix does not lie in the span of the basis")
        return out

    # -- structure constants -------------------------------------------------------

    def bracket(self, i: int, j: int) -> dict:
        """[x_i, x_j] as {index: coefficient} by the rule, from the
        defining matrices."""
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
        """Supertrace form G[a][b] = str(x_a x_b), formed once, as row tuples."""
        if self._gram is None:
            mats = [b.matrix for b in self.basis]
            self._gram = tuple(tuple((a @ c).supertrace() for c in mats) for a in mats)
        return self._gram

    def gram_inverse(self):
        if self._gram_inv is None:
            self._gram_inv = invert_fraction_matrix(self.gram())
        return self._gram_inv


def check_jacobi(algebra: OspAlgebra):
    """Graded Jacobi identity on basis triples:

        J(x,y,z) = [x,[y,z]] - [[x,y],z] - (-1)**(p(x)p(y)) [y,[x,z]] = 0.

    Every pair is checked too: [x,y] must have parity p(x) + p(y), and
    graded antisymmetry [y,x] = -(-1)**(p(x)p(y)) [x,y] must hold.  Given
    both, J(y,x,z) = -(-1)**(p(x)p(y)) J(x,y,z) and
    J(x,z,y) = -(-1)**(p(y)p(z)) J(x,y,z), so J vanishes on every
    ordering of a triple exactly when it vanishes on the sorted one: it
    is evaluated on triples i <= j <= k only.

    Returns the violations in lexicographic order: the pairs (i, j),
    i <= j, that break the grading or antisymmetry, and the sorted
    triples (i, j, k) with a nonzero Jacobiator; empty means every triple
    checks out."""
    idx = range(algebra.size)
    par = [algebra.parity(i) for i in idx]
    table = [[list(algebra.bracket(i, j).items()) for j in idx] for i in idx]
    bad = []
    for i in idx:
        ti = table[i]
        for j in idx[i:]:
            sij = -1 if par[i] and par[j] else 1
            tj, tij = table[j], ti[j]
            if dict(tj[i]) != {m: -sij * c for m, c in tij} or any(
                par[m] != par[i] ^ par[j] for m, _ in tij
            ):
                bad.append((i, j))
            for k in idx[j:]:
                acc: dict = {}
                for m, c in tj[k]:
                    for r, d in ti[m]:
                        acc[r] = acc.get(r, 0) + c * d
                for m, c in tij:
                    for r, d in table[m][k]:
                        acc[r] = acc.get(r, 0) - c * d
                for m, c in ti[k]:
                    for r, d in tj[m]:
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
