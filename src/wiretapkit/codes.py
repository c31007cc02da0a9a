"""Linear block codes, Reed-Muller construction, and generalized Hamming weights.

The generalized Hamming weight d_r of a code is the smallest support
size of any r-dimensional subcode.  For the coset construction in
``wiretap``, the weights of the dual of the base code pinpoint exactly
how many bits an eavesdropper's worst-case erasure pattern leaks.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import bitlinalg
from .bitlinalg import BitMatrix

DEFAULT_ENUM_CAP = 24
# The subset-rank tally holds one uint16 count per coordinate subset
# (32 MB at n = 24) and finishes the transform and the tally in blocks of
# 2^_BLOCK_BITS subsets (64 KB, cache-resident).  On 2 vCPUs it takes
# 10-13 ms at n = 20 and 0.18-0.26 s at n = 24, and its memory peak stays
# within 0.5 MB of the count array.  It bounds equivocation matrices and
# the exhaustive GHW search, which any code but a Reed-Muller code takes;
# Reed-Muller codes take the closed form at every n.
SUBSET_RANK_CAP = 24
_BLOCK_BITS = 15
# Largest Reed-Muller degree m (n = 2^m) anything here builds: on 2 vCPUs
# the sweep's candidate family with its dual GHW profiles, all in closed
# form, takes 0.13-0.15 s at m = 9 and 0.49-0.56 s at m = 10.
RM_MAX_DEGREE = 9


@dataclass(frozen=True)
class LinearCode:
    """A binary (n, dim) code given by a full-row-rank generator matrix."""

    n: int
    dim: int
    generator: BitMatrix
    label: str = ""
    rm_params: tuple[int, int] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.generator.rows != self.dim or self.generator.cols != self.n:
            raise ValueError(
                f"generator shape {self.generator.rows}x{self.generator.cols} "
                f"does not match (dim={self.dim}, n={self.n})"
            )
        if self.dim > self.n:
            raise ValueError(f"dim {self.dim} exceeds blocklength {self.n}")
        if bitlinalg.rank(self.generator) != self.dim:
            raise ValueError("generator matrix does not have full row rank")


@dataclass(frozen=True)
class GHWProfile:
    """Weight hierarchy d_1 < d_2 < ... < d_dim of a code.

    ``source`` records which path produced the numbers, "monomial" or
    "exact": closed form for every Reed-Muller code, exhaustive search
    for any other code up to n = 24.
    """

    weights: tuple[int, ...]
    source: str = "exact"

    def __post_init__(self):
        w = self.weights
        if any(w[i] >= w[i + 1] for i in range(len(w) - 1)):
            raise ValueError(f"weights must be strictly increasing, got {w}")

    def leakage_at(self, mu: int) -> int:
        """Number of weights <= mu: the worst-case leakage in bits."""
        return bisect.bisect_right(self.weights, mu)


def _monomial_rows(u: int, m: int) -> np.ndarray:
    """Evaluation vectors of the monomials of degree <= u over all 2^m points,
    one row each, in graded lexicographic order of their supports.

    Point j assigns x_i the bit (j >> (m-1-i)) & 1, so variable 0 is the
    leftmost bit of the point index, matching the global bit convention; a
    monomial is 1 where j covers its mask, the sum of 2^(m-1-i) over its support.
    """
    supports = itertools.chain.from_iterable(itertools.combinations(range(m), d) for d in range(u + 1))
    masks = np.array([sum(1 << (m - 1 - i) for i in s) for s in supports])[:, None]
    return ((np.arange(2**m) & masks) == masks).astype(np.uint8)


def reed_muller(order: int, degree: int) -> LinearCode:
    """The Reed-Muller code RM(order, degree): n = 2^degree,
    dim = sum_{i<=order} C(degree, i).

    Generator rows are evaluation vectors of monomials in graded
    lexicographic order, so the matrix is deterministic.  Refuses
    (order, degree) outside 0 <= order <= degree <= RM_MAX_DEGREE.
    """
    if not 1 <= degree <= RM_MAX_DEGREE:
        raise ValueError(f"degree must lie in [1, {RM_MAX_DEGREE}], got {degree}")
    if not 0 <= order <= degree:
        raise ValueError(f"order must satisfy 0 <= order <= degree, got ({order}, {degree})")
    u, m = order, degree
    gen = BitMatrix(_monomial_rows(u, m))
    return LinearCode(
        n=2**m,
        dim=sum(comb(m, i) for i in range(u + 1)),
        generator=gen,
        label=f"RM({u},{m})",
        rm_params=(u, m),
    )


def dual(c: LinearCode) -> LinearCode:
    """The dual code, generated by the reduced null-space basis of c's generator."""
    ns = bitlinalg.null_space(c.generator)
    rm = None
    label = f"{c.label}^perp" if c.label else ""
    if c.rm_params is not None:
        u, m = c.rm_params
        if m - u - 1 >= 0:
            rm = (m - u - 1, m)
            label = f"RM({m - u - 1},{m})"
    return LinearCode(n=c.n, dim=c.n - c.dim, generator=ns, label=label, rm_params=rm)


def enumerate_codewords(c: LinearCode, cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """All 2^dim codewords as a (2^dim, n) uint8 array.

    Row t is the XOR combination of generator rows selected by the
    dim-bit binary expansion of t (leftmost bit selects row 0), one
    :func:`bitlinalg.mulvec` product; dim 0 gives the zero word alone.
    """
    if c.dim > cap:
        raise ValueError(f"dim {c.dim} exceeds enumeration cap {cap} (2^{c.dim} codewords)")
    bits = np.arange(2**c.dim)[:, None] >> np.arange(c.dim - 1, -1, -1) & 1
    return bitlinalg.mulvec(bits, c.generator)


def _zeta_pass(a: np.ndarray, stride: int) -> None:
    """One subset-sum step in place: a[j + stride] += a[j] for every j
    whose bit ``stride`` is clear."""
    pairs = a.reshape(-1, 2, stride)
    pairs[:, 1, :] += pairs[:, 0, :]


def subset_rank_tallies(c: LinearCode) -> np.ndarray:
    """Tally GF(2) ranks of the generator's column-subset submatrices.

    Returns an (n+1) x (n+1) int64 array ``out`` with ``out[s, r]`` the
    number of s-subsets S of coordinates whose columns G_S have rank r.

    Let F(S) count the codewords of D, the smaller of C and C-perp, whose
    support lies inside S.  One subset-sum (zeta) transform of D's
    support indicator gives F for every S at once, and F(S) is a power
    of two: log2 F(S) = |S| - rank(G_S) when D = C-perp, and
    log2 F(complement of S) = dim - rank(G_S) when D = C.  Enumerating
    the smaller side keeps every count at or below 2^(n/2).

    The transform's per-bit passes commute, so they run in the order that
    suits the cache.  The passes for bits at or above ``_BLOCK_BITS`` run
    over the whole array, where they are long and contiguous.  Then each
    block of 2^_BLOCK_BITS consecutive subsets gets its remaining passes
    and is tallied while it is still in cache; the lowest bits, whose
    passes would run in short inner loops, go through a transposed copy.
    """
    n = c.n
    if n > SUBSET_RANK_CAP:
        raise ValueError(f"blocklength {n} exceeds subset-rank cap {SUBSET_RANK_CAP} (2^{n} subsets)")
    use_dual = 2 * c.dim > n
    side = dual(c) if use_dual else c
    supports = enumerate_codewords(side, cap=side.dim).astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))
    counts = np.zeros(1 << n, dtype=np.uint16)
    counts[supports] = 1
    block_bits = min(n, _BLOCK_BITS)
    low_bits = min(block_bits, 5)
    for i in range(block_bits, n):
        _zeta_pass(counts, 1 << i)
    # The tally key of S is size * (n+1) + rank of the subset it stands for:
    # S itself when D = C-perp (rank |S| - free), its complement when D = C
    # (size n - |S|, rank dim - free), with free = log2 F(S).  Either way
    # key = base + step * |S| - free, and |S| = popcount(block) + popcount(offset),
    # so each block is one bincount of offset keys, tallied by block popcount.
    base, step = (0, n + 2) if use_dual else (n * (n + 1) + c.dim, -(n + 1))
    shift = side.dim - min(0, step) * block_bits  # keeps offset keys >= 0
    offset_keys = step * np.bitwise_count(np.arange(1 << block_bits)).astype(np.int16) + shift
    width = int(offset_keys.max()) + 1
    by_popcount = np.zeros((n - block_bits + 1, width), dtype=np.int64)
    for b, block in enumerate(counts.reshape(-1, 1 << block_bits)):
        low = block.reshape(-1, 1 << low_bits).T.copy()
        for i in range(low_bits):
            _zeta_pass(low, low.shape[1] << i)
        block.reshape(-1, 1 << low_bits)[:] = low.T
        for i in range(low_bits, block_bits):
            _zeta_pass(block, 1 << i)
        block -= 1
        by_popcount[b.bit_count()] += np.bincount(offset_keys - np.bitwise_count(block), minlength=width)
    keys = base - shift + step * np.arange(len(by_popcount))[:, None] + np.arange(width)
    hit = by_popcount > 0
    out = np.zeros((n + 1) ** 2, dtype=np.int64)
    np.add.at(out, keys[hit], by_popcount[hit])
    return out.reshape(n + 1, n + 1)


def ghw_exact(c: LinearCode) -> GHWProfile:
    """Weight hierarchy by exhaustive search over coordinate subsets.

    Uses the identity: the largest subcode supported inside a coordinate
    set S has dimension dim - rank(G restricted to the complement of S),
    so d_r is the smallest |S| for which that dimension reaches r.  The
    smallest rank at each subset size is the first nonzero column of the
    subset-rank tally, which bounds n (``SUBSET_RANK_CAP``).
    """
    minrank = (subset_rank_tallies(c) > 0).argmax(axis=1)
    weights = []
    for r in range(1, c.dim + 1):
        for mu in range(1, c.n + 1):
            if c.dim - minrank[c.n - mu] >= r:
                weights.append(mu)
                break
    return GHWProfile(weights=tuple(weights), source="exact")


def _ghw_rm_monomial(u: int, m: int) -> GHWProfile:
    """Reed-Muller hierarchy in closed form from nested monomial spans.

    RM codes satisfy the chain condition and attain every d_r on a span of
    monomials.  Write monomial x_S as the point mask s of its variables; it
    is 1 on the points that contain s.  Adding the masks of popcount <= u
    in decreasing order, a point p is first covered by its top min(|p|, u)
    bits, so a mask of popcount u adds ``s & -s`` points (2^m when s = 0),
    any other mask one point, and d_r is the running sum.
    """
    masks = [s for s in range((1 << m) - 1, -1, -1) if s.bit_count() <= u]
    new_points = [(s & -s or 1 << m) if s.bit_count() == u else 1 for s in masks]
    return GHWProfile(weights=tuple(itertools.accumulate(new_points)), source="monomial")


def ghw_of(c: LinearCode) -> GHWProfile:
    """Hierarchy of an arbitrary code.

    Closed form for every Reed-Muller code, exhaustive search for any
    other code up to n = ``SUBSET_RANK_CAP``.  The profile's ``source``
    records which ran.
    """
    if c.dim == 0:
        return GHWProfile(weights=())
    if c.rm_params is not None:
        return _ghw_rm_monomial(*c.rm_params)
    return ghw_exact(c)


def random_code(n: int, dim: int, rng: np.random.Generator, label: str = "") -> LinearCode:
    """A uniformly random (n, dim) code, for test corpora."""
    if not 0 < dim <= n:
        raise ValueError(f"need 0 < dim <= n, got ({n}, {dim})")
    while True:
        g = BitMatrix(rng.integers(0, 2, size=(dim, n), dtype=np.uint8))
        if bitlinalg.rank(g) == dim:
            return LinearCode(n=n, dim=dim, generator=g, label=label or f"random({n},{dim})")
