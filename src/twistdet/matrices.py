"""Matrices over a twisted series ring: inversion, LDU, determinant.

The determinant-like invariant D is defined for square matrices whose
augmentation is the identity: D of a 1x1 matrix is its entry, and otherwise
D(M) = d1 * D(d2) where (l, d1, d2, u) is the LDU factorization obtained by
always pivoting at the (1,1) entry. D computes only d1 = a11 and the Schur
complement d2 = a22 - a21 a11^-1 a12, never l; `ldu_decompose` shares the
Schur complement step. The value is a canonical representative;
it is only an invariant modulo the commutator subgroup treated in kgroup,
except in the exactly-multiplicative cases (commutative coefficients, block
upper-triangular assemblies) covered by the checks below.
"""

from __future__ import annotations

from .errors import (
    AugmentationNotIdentity,
    DimensionMismatch,
    NotAUnit,
    NotInvertible,
    RingMismatch,
)
from .rings import Record
from .series import (
    SeriesRing,
    TwistedSeries,
    inverse_entries,
    sums_of_products,
)


class SeriesMatrix:
    """A rectangular matrix of TwistedSeries sharing one ring."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring: SeriesRing, rows):
        rows = tuple(tuple(row) for row in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("ragged matrix")
        for row in rows:
            for entry in row:
                if not isinstance(entry, TwistedSeries) or entry.ring != ring:
                    raise RingMismatch("matrix entries must share the matrix ring")
        self.ring = ring
        self.rows = rows

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @staticmethod
    def identity(ring: SeriesRing, n: int) -> "SeriesMatrix":
        one, zero = ring.one(), ring.zero()
        return SeriesMatrix(ring, [[one if i == j else zero for j in range(n)]
                                   for i in range(n)])

    @staticmethod
    def zero(ring: SeriesRing, n: int, m: int) -> "SeriesMatrix":
        z = ring.zero()
        return SeriesMatrix(ring, [[z for _ in range(m)] for _ in range(n)])

    @staticmethod
    def lift(ring: SeriesRing, coeff_rows) -> "SeriesMatrix":
        """Entrywise lift of a matrix over the coefficient ring."""
        return SeriesMatrix(ring, [[ring.lift(a) for a in row] for row in coeff_rows])

    @staticmethod
    def block(blocks) -> "SeriesMatrix":
        """Assemble from a 2D grid of SeriesMatrix blocks."""
        grid = [list(row) for row in blocks]
        ring = grid[0][0].ring
        for row in grid:
            if any(b.nrows != row[0].nrows for b in row):
                raise DimensionMismatch("block row heights differ")
        for j in range(len(grid[0])):
            if any(grid[i][j].ncols != grid[0][j].ncols for i in range(len(grid))):
                raise DimensionMismatch("block column widths differ")
        rows = []
        for brow in grid:
            for r in range(brow[0].nrows):
                rows.append([entry for blk in brow for entry in blk.rows[r]])
        return SeriesMatrix(ring, rows)

    def entry(self, i: int, j: int) -> TwistedSeries:
        return self.rows[i][j]

    def augmentation(self):
        return tuple(tuple(e.augmentation() for e in row) for row in self.rows)

    def __eq__(self, other):
        return (isinstance(other, SeriesMatrix) and self.ring == other.ring
                and self.rows == other.rows)

    __hash__ = None

    def __repr__(self):
        body = "; ".join(", ".join(repr(e)[1:-1] for e in row) for row in self.rows)
        return f"[{body}]"

    def _check(self, other: "SeriesMatrix"):
        if self.ring != other.ring:
            raise RingMismatch("matrices live in different rings")

    def __add__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("shape mismatch in matrix addition")
        return SeriesMatrix(self.ring, [[a + b for a, b in zip(ra, rb)]
                                        for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self) -> "SeriesMatrix":
        return SeriesMatrix(self.ring, [[-a for a in row] for row in self.rows])

    def __sub__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        return self + (-other)

    def __mul__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        self._check(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        # the whole product in one kernel call: entry (i, j) sums a_it * b_tj
        m, inner = other.ncols, range(self.ncols)
        entries = sums_of_products(self.ring, [[(row[t], other.rows[t][j]) for t in inner]
                                               for row in self.rows for j in range(m)])
        return SeriesMatrix(self.ring, [entries[i * m:(i + 1) * m] for i in range(self.nrows)])


def augmentation_is_identity(m: SeriesMatrix) -> bool:
    """Whether m is square and eps(m) = I: each diagonal entry has
    augmentation 1, and no other entry has a constant term."""
    return m.is_square() and all(e.augmentation_is_one() if i == j else () not in e.vecs
                                 for i, row in enumerate(m.rows) for j, e in enumerate(row))


def mat_is_invertible(m: SeriesMatrix) -> bool:
    """A square series matrix is invertible iff its augmentation is."""
    if not m.is_square():
        return False
    return m.ring.coeff.mat_is_invertible(m.augmentation())


def mat_invert(m: SeriesMatrix) -> SeriesMatrix:
    """Inverse, from the inverse of the augmentation by one solve pass over
    the degrees (series.inverse_entries), which reads q = -inv0 * x+ off the
    entries' own rows and makes no product kernel call."""
    if not m.is_square():
        raise DimensionMismatch("only square matrices can be inverted")
    R, n = m.ring, m.nrows
    try:
        entries = inverse_entries(R, [e for row in m.rows for e in row])
    except NotAUnit:
        raise NotInvertible(f"augmentation matrix is not invertible over {R.coeff.name}") from None
    return SeriesMatrix(R, [entries[i:i + n] for i in range(0, n * n, n)])


class LduFactors(Record):
    """Factors of M = (1 0; l 1)(d1 0; 0 d2)(1 u; 0 1) pivoted at (1,1)."""

    __slots__ = ("l", "d1", "d2", "u")

    def __init__(self, l: SeriesMatrix, d1: TwistedSeries, d2: SeriesMatrix,
                 u: SeriesMatrix):
        self.l = l    # (n-1) x 1
        self.d1 = d1
        self.d2 = d2  # (n-1) x (n-1)
        self.u = u    # 1 x (n-1)

    def recompose(self) -> SeriesMatrix:
        """(d1, d1 u; l d1, l d1 u + d2), the product of the three factors."""
        d1 = SeriesMatrix(self.d2.ring, [[self.d1]])
        d1u, ld1 = d1 * self.u, self.l * d1
        return SeriesMatrix.block([[d1, d1u], [ld1, ld1 * self.u + self.d2]])


def ldu_decompose(m: SeriesMatrix) -> LduFactors:
    """Unique LDU factors at the (1,1) pivot; needs augmentation identity."""
    if not m.is_square() or m.nrows < 2:
        raise DimensionMismatch("LDU needs a square matrix of size >= 2")
    if not augmentation_is_identity(m):
        raise AugmentationNotIdentity("LDU needs augmentation equal to the identity")
    a11 = m.entry(0, 0)
    a11_inv = a11.inverse()
    # the entries of l and u, one kernel call
    lu = sums_of_products(m.ring, [[(row[0], a11_inv)] for row in m.rows[1:]]
                          + [[(a11_inv, e)] for e in m.rows[0][1:]])
    l = SeriesMatrix(m.ring, [[e] for e in lu[:m.nrows - 1]])
    u = SeriesMatrix(m.ring, [lu[m.nrows - 1:]])
    d2 = _schur_complement(m, [e.scale(-1) for e in u.rows[0]])
    return LduFactors(l=l, d1=a11, d2=d2, u=u)


def _schur_complement(m: SeriesMatrix, neg_u: list) -> SeriesMatrix:
    """d2 = a22 - a21 * u for the entries of -u = -a11^-1 * a12: the
    products a21 * -u in one kernel call, each added to its entry of a22."""
    R, n = m.ring, len(neg_u)
    products = sums_of_products(R, [[(row[0], v)] for row in m.rows[1:] for v in neg_u])
    a22 = [e for row in m.rows[1:] for e in row[1:]]
    entries = [a + p for a, p in zip(a22, products)]
    return SeriesMatrix(R, [entries[i:i + n] for i in range(0, n * n, n)])


def dieudonne_det(m: SeriesMatrix) -> TwistedSeries:
    """D(M) for augmentation-identity M: the entry if 1x1, else a11 * D(d2).

    Each step is the LDU step at the (1,1) pivot without l, which D never
    reads: the pivot's inverse (one solve pass, no product), -u =
    -a11^-1 * a12 in one kernel call, and d2 = a22 - a21 * u in another
    (`_schur_complement`)."""
    if not m.is_square() or m.nrows < 1:
        raise DimensionMismatch("determinant needs a nonempty square matrix")
    if not augmentation_is_identity(m):
        raise AugmentationNotIdentity(
            "determinant needs augmentation equal to the identity")
    return _det_rec(m)


def _det_rec(m: SeriesMatrix) -> TwistedSeries:
    a11 = m.entry(0, 0)
    if m.nrows == 1:
        return a11
    neg_inv = a11.inverse().scale(-1)
    neg_u = sums_of_products(m.ring, [[(neg_inv, e)] for e in m.rows[0][1:]])
    return a11 * _det_rec(_schur_complement(m, neg_u))


def whitehead_identity_check(a: SeriesMatrix, b: SeriesMatrix) -> bool:
    """(1 -a; 0 1)(1+ab 0; 0 1)(1 0; b 1) == (1 0; b 1)(1 0; 0 1+ba)(1 -a; 0 1).

    a is n x m and b is m x n; the identity holds unconditionally.
    """
    a._check(b)
    if a.nrows != b.ncols or a.ncols != b.nrows:
        raise DimensionMismatch("need a: n x m and b: m x n")
    ring = a.ring
    n, m = a.nrows, a.ncols
    i_n = SeriesMatrix.identity(ring, n)
    i_m = SeriesMatrix.identity(ring, m)
    z_nm = SeriesMatrix.zero(ring, n, m)
    z_mn = SeriesMatrix.zero(ring, m, n)
    lhs = (SeriesMatrix.block([[i_n, -a], [z_mn, i_m]])
           * SeriesMatrix.block([[i_n + a * b, z_nm], [z_mn, i_m]])
           * SeriesMatrix.block([[i_n, z_nm], [b, i_m]]))
    rhs = (SeriesMatrix.block([[i_n, z_nm], [b, i_m]])
           * SeriesMatrix.block([[i_n, z_nm], [z_mn, i_m + b * a]])
           * SeriesMatrix.block([[i_n, -a], [z_mn, i_m]]))
    return lhs == rhs


def rearrange_inverses_check(a: SeriesMatrix, b: SeriesMatrix) -> bool:
    """1 - b(1+ab)^{-1}a == (1+ba)^{-1} for a: n x m, b: m x n."""
    a._check(b)
    if a.nrows != b.ncols or a.ncols != b.nrows:
        raise DimensionMismatch("need a: n x m and b: m x n")
    ring = a.ring
    i_n = SeriesMatrix.identity(ring, a.nrows)
    i_m = SeriesMatrix.identity(ring, a.ncols)
    try:
        inv_ab = mat_invert(i_n + a * b)
    except NotInvertible:
        raise NotInvertible("1 + ab is not invertible") from None
    return i_m - b * inv_ab * a == mat_invert(i_m + b * a)
