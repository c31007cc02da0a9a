"""Coset wiretap encoder/decoder and exact equivocation analysis.

A k-bit message selects a coset of an (n, n-k) linear code C; the
auxiliary (n-k)-bit word picks the coset element uniformly.  The message
part G' of the encoder satisfies G'.H^T = I, so decoding is one product
with H^T: the syndrome is the message.  Leakage to an erasure-channel
eavesdropper is always an integer number of bits and is catalogued per
erasure pattern in the equivocation matrix, with the worst case per
pattern weight given by the generalized Hamming weights of the dual code.
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass
from math import comb

import numpy as np

from . import bitlinalg, codes
from .bitlinalg import BitMatrix
from .codes import GHWProfile, LinearCode


@dataclass(frozen=True)
class EquivocationMatrix:
    """counts[e, mu] = number of mu-position erasure patterns that leave
    exactly e bits of message equivocation."""

    n: int
    k: int
    counts: np.ndarray

    def column_sums_ok(self) -> bool:
        return all(int(self.counts[:, mu].sum()) == comb(self.n, mu) for mu in range(self.n + 1))

    def worst_case_leakage(self, mu: int) -> int:
        """Max leakage over the tallied patterns with mu revealed bits."""
        nz = np.nonzero(self.counts[:, mu])[0]
        return self.k - int(nz[0])

    def to_csv(self) -> str:
        """Rows are equivocation levels descending, columns mu ascending."""
        buf = io.StringIO()
        buf.write("equivocation_bits," + ",".join(f"mu={m}" for m in range(self.n + 1)) + "\n")
        for e in range(self.k, -1, -1):
            buf.write(str(e) + "," + ",".join(str(int(c)) for c in self.counts[e]) + "\n")
        return buf.getvalue()


def _checked_encoder(
    base_code: LinearCode, dual_code: LinearCode, gprime: BitMatrix
) -> tuple[LinearCode, BitMatrix, BitMatrix]:
    """(C-perp, G', decoder H^T) once H is found orthogonal to the base
    generator and G'.H^T = I; refuses anything else."""
    n = base_code.n
    k = n - base_code.dim
    if gprime.rows != k or gprime.cols != n:
        raise ValueError(f"gprime must be {k}x{n}, got {gprime.rows}x{gprime.cols}")
    if dual_code.dim != k or dual_code.n != n:
        raise ValueError(f"dual code must be ({n}, {k}), got ({dual_code.n}, {dual_code.dim})")
    ht = BitMatrix(dual_code.generator.a.T)
    if np.any(bitlinalg.mul(base_code.generator, ht).a):
        raise ValueError("dual code is not orthogonal to the base code")
    if bitlinalg.mul(gprime, ht) != BitMatrix.identity(k):
        raise ValueError("gprime.h^T must be the identity")
    return dual_code, gprime, ht


class WiretapCode:
    """Coset wiretap code built on a base code C of dimension n - k.

    ``dual_code`` is C-perp, and its generator ``h`` is the parity-check
    matrix; ``gprime`` carries the message part of the encoder, with
    G'.H^T = I.  A received word y has syndrome y.H^T = m.G'.H^T = m, so
    ``decoder`` = H^T.  G'.H^T = I also makes G' a complement of C.

    The constructor refuses C unless 0 < dim < n.  A published encoder,
    ``dual_code`` with ``gprime``, is checked at once; without one, both
    are derived, by the same checks, when ``dual_code``, ``h``, ``gprime``
    or ``decoder`` is first read, so ``codes.dual`` runs at most once in
    the code's life and never for a code whose encoder is not read.
    """

    def __init__(self, base_code: LinearCode, dual_code: LinearCode | None = None,
                 gprime: BitMatrix | None = None, label: str | None = None):
        if not 0 < base_code.dim < base_code.n:
            raise ValueError(f"base code must satisfy 0 < dim < n, got dim={base_code.dim}, n={base_code.n}")
        if (dual_code is None) != (gprime is None):
            missing = "gprime" if gprime is None else "dual_code"
            raise ValueError(f"a published encoder needs both dual_code and gprime, {missing} is missing")
        self.base_code = base_code
        self.n = base_code.n
        self.k = base_code.n - base_code.dim
        self.label = label or base_code.label
        self._dual_ghw: GHWProfile | None = None
        if dual_code is not None:
            self._encoder = _checked_encoder(base_code, dual_code, gprime)

    @functools.cached_property
    def _encoder(self) -> tuple[LinearCode, BitMatrix, BitMatrix]:
        """H is the dual's RREF generator and G' the identity rows at H's
        pivot columns.  H is the identity on those columns, so G'.H^T = I
        and the syndrome is the message itself."""
        d = codes.dual(self.base_code)
        gprime = BitMatrix(np.eye(self.n, dtype=np.uint8)[d.generator.a.argmax(axis=1)])
        return _checked_encoder(self.base_code, d, gprime)

    @property
    def dual_code(self) -> LinearCode:
        return self._encoder[0]

    @property
    def gprime(self) -> BitMatrix:
        return self._encoder[1]

    @property
    def decoder(self) -> BitMatrix:
        return self._encoder[2]

    @property
    def h(self) -> BitMatrix:
        return self.dual_code.generator

    def dual_ghw(self) -> GHWProfile:
        """Weight hierarchy of C-perp (cached).  For a Reed-Muller base it
        is the closed form of RM(m - u - 1, m), read off C's parameters,
        so no dual is built; otherwise the tally gets the base code as
        C-perp's dual, so no second ``codes.dual`` runs."""
        if self._dual_ghw is None:
            perp = codes.rm_dual_params(self.base_code.rm_params)
            if perp is None:
                self._dual_ghw = codes.ghw_of(self.dual_code, dual_code=self.base_code)
            else:
                self._dual_ghw = codes.ghw_rm(*perp)
        return self._dual_ghw


def build(c: LinearCode, label: str | None = None) -> WiretapCode:
    """The wiretap code with base code C = c: ``WiretapCode(c, label=label)``,
    which refuses c unless 0 < dim < n and derives its encoder on first read."""
    return WiretapCode(c, label=label)


def encode(w: WiretapCode, m, mprime) -> np.ndarray:
    """x = m.G' xor m'.G: the coset of C selected by m, element by m'.

    m and m' are single words, or (trials, bits) arrays that encode one
    word per row.
    """
    m = np.asarray(m, dtype=np.uint8)
    mprime = np.asarray(mprime, dtype=np.uint8)
    if m.ndim not in (1, 2) or m.shape[-1] != w.k:
        raise ValueError(f"message must have {w.k} bits, got shape {m.shape}")
    if mprime.shape != m.shape[:-1] + (w.n - w.k,):
        raise ValueError(f"auxiliary word must have {w.n - w.k} bits, got shape {mprime.shape}")
    return bitlinalg.mulvec(m, w.gprime) ^ bitlinalg.mulvec(mprime, w.base_code.generator)


def decode(w: WiretapCode, y) -> np.ndarray:
    """Recover the message from an error-free received word: y.decoder.

    y is one word or a (trials, n) array of words, one per row.
    """
    y = np.asarray(y, dtype=np.uint8)
    if y.ndim not in (1, 2) or y.shape[-1] != w.n:
        raise ValueError(f"received word must have {w.n} bits, got shape {y.shape}")
    return bitlinalg.mulvec(y, w.decoder)


def leakage(w: WiretapCode, revealed: tuple[int, ...]) -> int:
    """Bits of message information the revealed positions R give Eve: |R| - rank(G_R).
    Refuses duplicate or out-of-range positions."""
    idx = list(revealed)
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate column indices: {idx}")
    for i in idx:
        if not 0 <= i < w.n:
            raise ValueError(f"column index {i} out of range for {w.n} columns")
    return len(idx) - bitlinalg.rank(BitMatrix(w.base_code.generator.a[:, idx]))


def equivocation_matrix(w: WiretapCode) -> EquivocationMatrix:
    """Tally equivocation over every erasure pattern of every weight.

    A pattern that erases the set T (and reveals mu = n - |T| positions)
    leaves |T| - dim C(T) bits of equivocation, C(T) being the subcode of
    the base code supported inside T, so counts[t - f, n - t] is the
    subcode tally's h[t, f]; column mu sums to C(n, mu).  The tally gets
    the dual that ``w`` holds, so no ``codes.dual`` runs here.  It takes
    every n <= ``codes.SUBSET_RANK_CAP`` and, up to n = 64, base codes
    whose smaller side (C or C-perp) has dimension <= 9, such as RM(1,5),
    RM(3,5), RM(1,6) and RM(4,6).
    """
    h = codes.subcode_tally(w.base_code, dual_code=w.dual_code)
    t, f = np.nonzero(h)
    counts = np.zeros((w.k + 1, w.n + 1), dtype=np.int64)
    counts[t - f, w.n - t] = h[t, f]
    return EquivocationMatrix(n=w.n, k=w.k, counts=counts)


def example_code() -> WiretapCode:
    """The built-in rate-1/2, n=4 demonstration code.

    Base code generated by [0111; 1110] with the published
    G' = H = [1101; 1011], H generating the dual code.  Those rows are
    orthonormal, so G'.H^T = I and the decoded syndrome is the message
    itself.
    """
    g = BitMatrix.from_strings(["0111", "1110"])
    h = BitMatrix.from_strings(["1101", "1011"])
    c = LinearCode(n=4, dim=2, generator=g, label="demo(4,2)")
    return WiretapCode(c, LinearCode(n=4, dim=2, generator=h), gprime=h)
