"""Dense linear algebra over GF(2).

All matrices are binary with XOR arithmetic.  Bit index 0 is the
leftmost bit of a written-out vector, so the string "1011" is the
vector [1, 0, 1, 1]; every other module inherits this convention.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np


class BitMatrix:
    """Immutable dense matrix over GF(2).

    Wraps a read-only uint8 array with entries in {0, 1}.  Construct
    from any nested sequence of 0/1 values, or via :meth:`from_strings`,
    :meth:`identity`, :meth:`zeros`.
    """

    __slots__ = ("_a",)

    def __init__(self, data):
        a = np.array(data, dtype=np.uint8)
        if a.ndim == 1:
            a = a.reshape(1, -1)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-D bit array, got ndim={a.ndim}")
        if a.size and a.max() > 1:
            raise ValueError("entries must be 0 or 1")
        a.setflags(write=False)
        self._a = a

    @classmethod
    def from_strings(cls, rows: Iterable[str]) -> "BitMatrix":
        """Build from bitstrings, e.g. ["0111", "1110"]."""
        return cls([[int(ch) for ch in row] for row in rows])

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(np.eye(n, dtype=np.uint8))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(np.zeros((rows, cols), dtype=np.uint8))

    @property
    def a(self) -> np.ndarray:
        """Read-only uint8 view of the entries."""
        return self._a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    def row(self, i: int) -> np.ndarray:
        return self._a[i]

    def to_strings(self) -> list[str]:
        return ["".join(str(int(b)) for b in r) for r in self._a]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self._a.shape == other._a.shape and bool(np.array_equal(self._a, other._a))

    def __hash__(self) -> int:
        return hash((self._a.shape, self._a.tobytes()))

    def __repr__(self) -> str:
        return f"BitMatrix({self.to_strings()!r})"


def rank(m: BitMatrix) -> int:
    """Dimension of the row space over GF(2).  Empty matrices have rank 0.

    Gaussian elimination on rows packed into Python integers, so any
    matrix size works.
    """
    basis: dict[int, int] = {}
    for packed in np.packbits(m.a, axis=1):
        v = int.from_bytes(packed.tobytes(), "big")
        while v:
            p = v.bit_length() - 1
            if p in basis:
                v ^= basis[p]
            else:
                basis[p] = v
                break
    return len(basis)


def mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product with XOR-accumulated dot products."""
    if a.cols != b.rows:
        raise ValueError(
            f"dimension mismatch: {a.rows}x{a.cols} cannot multiply {b.rows}x{b.cols}"
        )
    prod = (a.a.astype(np.uint64) @ b.a.astype(np.uint64)) & 1
    return BitMatrix(prod.astype(np.uint8))


def mulvec(a: Sequence[int], b: BitMatrix) -> np.ndarray:
    """Row vector times matrix; returns a uint8 array of length b.cols.

    A 2-D ``a`` is a stack of row vectors and gives one product per row.
    The product runs in float64, which goes through BLAS and stays exact
    for bit inputs: each entry sums at most ``b.rows`` ones, far below 2^53.
    """
    v = np.asarray(a, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] != b.rows:
        raise ValueError(f"vector length {v.shape} does not match {b.rows} rows")
    return ((v @ b.a.astype(np.float64)) % 2).astype(np.uint8)


def column_select(m: BitMatrix, indices: Sequence[int]) -> BitMatrix:
    """Submatrix of the selected columns, order preserved."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate column indices: {idx}")
    for i in idx:
        if not 0 <= i < m.cols:
            raise ValueError(f"column index {i} out of range for {m.cols} columns")
    if not idx:
        return BitMatrix(np.zeros((m.rows, 0), dtype=np.uint8))
    return BitMatrix(m.a[:, idx])


def stack(top: BitMatrix, bottom: BitMatrix) -> BitMatrix:
    """Vertical concatenation."""
    if top.cols != bottom.cols:
        raise ValueError(f"column mismatch: {top.cols} vs {bottom.cols}")
    return BitMatrix(np.vstack([top.a, bottom.a]))


def complete_basis(g: BitMatrix) -> BitMatrix:
    """Extend a full-row-rank matrix to a basis of the full space.

    Returns an (n - r) x n matrix whose rows, stacked over g, span
    GF(2)^n.  Deterministic rule: try standard-basis rows e_0, e_1, ...
    in order and keep each one that raises the rank.
    """
    r, n = g.rows, g.cols
    if rank(g) != r:
        raise ValueError("input rows are not linearly independent")
    if r >= n:
        raise ValueError(f"nothing to complete: rank {r} already spans GF(2)^{n}")
    chosen = []
    current = g
    cur_rank = r
    for i in range(n):
        e = np.zeros((1, n), dtype=np.uint8)
        e[0, i] = 1
        candidate = BitMatrix(np.vstack([current.a, e]))
        if rank(candidate) > cur_rank:
            chosen.append(e[0])
            current = candidate
            cur_rank += 1
        if cur_rank == n:
            break
    return BitMatrix(np.array(chosen, dtype=np.uint8))


def rref(m: BitMatrix) -> tuple[BitMatrix, list[int]]:
    """Reduced row-echelon form over GF(2) and the pivot column list."""
    a = m.a.copy()
    nrows, ncols = a.shape
    pivots: list[int] = []
    prow = 0
    for col in range(ncols):
        hit = -1
        for r in range(prow, nrows):
            if a[r, col]:
                hit = r
                break
        if hit < 0:
            continue
        if hit != prow:
            a[[prow, hit]] = a[[hit, prow]]
        for r in range(nrows):
            if r != prow and a[r, col]:
                a[r] ^= a[prow]
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    return BitMatrix(a[: len(pivots)] if pivots else np.zeros((0, ncols), dtype=np.uint8)), pivots


def inverse(m: BitMatrix) -> BitMatrix:
    """Inverse of a square matrix over GF(2), by reducing [m | I] to [I | m^-1]."""
    n = m.rows
    if m.cols != n:
        raise ValueError(f"only square matrices have inverses, got {m.rows}x{m.cols}")
    red, pivots = rref(BitMatrix(np.hstack([m.a, BitMatrix.identity(n).a])))
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular over GF(2)")
    return BitMatrix(red.a[:, n:])


def null_space(m: BitMatrix) -> BitMatrix:
    """Basis of {v : m . v^T = 0}, as rows; (n - rank) x n."""
    red, pivots = rref(m)
    n = m.cols
    free = [c for c in range(n) if c not in pivots]
    rows = []
    for f in free:
        v = np.zeros(n, dtype=np.uint8)
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = red.a[i, f]
        rows.append(v)
    if not rows:
        return BitMatrix(np.zeros((0, n), dtype=np.uint8))
    return BitMatrix(np.array(rows, dtype=np.uint8))
