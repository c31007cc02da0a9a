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
    from any nested sequence of 0/1 values, or via :meth:`from_strings`
    or :meth:`identity`.
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


def _pack(a: np.ndarray) -> list[int]:
    """Rows as n-bit Python integers, column 0 the highest bit."""
    pad = -a.shape[1] % 8
    return [int.from_bytes(r.tobytes(), "big") >> pad for r in np.packbits(a, axis=1)]


def _unpack(rows: list[int], n: int) -> np.ndarray:
    """Inverse of :func:`_pack`: a (len(rows), n) uint8 array."""
    pad = -n % 8
    width = (n + pad) // 8
    buf = b"".join((v << pad).to_bytes(width, "big") for v in rows)
    return np.unpackbits(np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), width), axis=1, count=n)


def _echelon(a: np.ndarray) -> dict[int, int]:
    """Forward elimination on packed rows: a basis of the row space keyed
    by each row's leading bit, no two rows sharing one."""
    basis: dict[int, int] = {}
    for v in _pack(a):
        while v:
            p = v.bit_length() - 1
            if p in basis:
                v ^= basis[p]
            else:
                basis[p] = v
                break
    return basis


def rank(m: BitMatrix) -> int:
    """Dimension of the row space over GF(2).  Empty matrices have rank 0."""
    return len(_echelon(m.a))


def mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2): each row of a times b, by :func:`mulvec`."""
    return BitMatrix(mulvec(a.a, b))


def mulvec(a: Sequence[int], b: BitMatrix) -> np.ndarray:
    """Row vector times matrix; returns a uint8 array of length b.cols.

    A 2-D ``a`` is a stack of row vectors and gives one product per row.
    The product runs in float64, which goes through BLAS and stays exact
    for bit inputs: each entry sums at most ``b.rows`` ones, far below 2^53.
    Its parity is the low bit of the integer sum; the float ``% 2`` cost
    about ten times the product itself.
    """
    v = np.asarray(a, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] != b.rows:
        raise ValueError(f"vector length {v.shape} does not match {b.rows} rows")
    return ((v @ b.a.astype(np.float64)).astype(np.int64) & 1).astype(np.uint8)


def rref(m: BitMatrix) -> tuple[BitMatrix, list[int]]:
    """Reduced row-echelon form over GF(2) and the pivot column list.

    The forward pass of :func:`rank`, then back-substitution from the
    rightmost pivot leftwards: each row is cleared of the lead bits it
    holds, highest first, by rows already reduced.  Those hold no other
    lead, so each step clears one hit and adds only non-lead bits.
    """
    basis = _echelon(m.a)
    leads = sorted(basis)
    lead_mask = 0
    for p in leads:
        hits = basis[p] & lead_mask
        while hits:
            q = hits.bit_length() - 1
            basis[p] ^= basis[q]
            hits ^= 1 << q
        lead_mask |= 1 << p
    leads.reverse()
    return BitMatrix(_unpack([basis[p] for p in leads], m.cols)), [m.cols - 1 - p for p in leads]


def null_space(m: BitMatrix) -> BitMatrix:
    """Reduced row-echelon basis of {v : m . v^T = 0}; (n - rank) x n.

    One reduction of m with its columns reversed makes each pivot the
    rightmost one of its row, so the vector of free column f, 1 at f and
    pivot entries only right of f, leads at f, where all others are 0.
    """
    red, pivots = rref(BitMatrix(m.a[:, ::-1]))
    free = sorted(set(range(m.cols)) - set(pivots))
    out = np.zeros((len(free), m.cols), dtype=np.uint8)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = red.a[:, free].T
    return BitMatrix(out[::-1, ::-1])
