"""Linear block codes, Reed-Muller construction, and generalized Hamming weights.

The generalized Hamming weight d_r of a code is the smallest support
size of any r-dimensional subcode.  For the coset construction in
``wiretap``, the weights of the dual of the base code pinpoint exactly
how many bits an eavesdropper's worst-case erasure pattern leaks.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import bitlinalg
from .bitlinalg import BitMatrix

DEFAULT_ENUM_CAP = 24
# Subcode tallies (equivocation matrices, and the exhaustive GHW search
# that any code but a Reed-Muller code takes) run one of two ways, picked
# by a cost estimate in seconds fitted to best-of-7 timings on 2 vCPUs at
# n = 8-64 and d = 1-9, where d is the dimension of the smaller of C and
# C-perp; the fit was within about 25 % of each timing.  Enumeration has
# since got 15-40 % faster at d <= 7; re-timed at n = 16-64, d = 4-9, the
# rule still takes the faster way in every cell (at n = 16, d = 7 the two
# tie), so the constants stand.  The solve after the enumeration is d + 1
# array steps, so it has no term of its own; dropping the per-product term
# that priced its former back-substitution changed no choice at
# n = 16-24, d = 1-12, nor the cap.
# - The zeta transform holds one uint16 count per coordinate subset (32 MB
#   at n = 24) and finishes in blocks of 2^_BLOCK_BITS subsets (64 KB,
#   cache-resident): 0.7-1.0 ms at n = 16, 9-16 ms at n = 20 and
#   0.17-0.27 s at n = 24, whatever d.
# - Subcode enumeration costs about one OR per subspace of the smaller
#   side and a few numpy calls per pivot set:
#   0.14-0.26 ms at d = 5 (0.5 ms at n = 64), 2.4-3.6 ms at d = 8 and
#   36-53 ms at d = 9 (36 MB peak), whatever n up to _SUBCODE_MAX_N,
#   where a support fills a uint64.
# So subcode enumeration runs for d <= 6 at n = 16, d <= 8 at n = 20 and
# d <= 9 at n = 24, the transform for the rest.
# A code is refused only where the cheaper way would cost more than the
# transform at n = SUBSET_RANK_CAP; above that n this leaves d <= 9.
SUBSET_RANK_CAP = 24
_BLOCK_BITS = 15
_SUBCODE_MAX_N = 64
_ZETA_S = 1.2e-4
_ZETA_S_PER_SUBSET_BIT = 7e-10
_SUBCODE_S = 1e-4
_SUBCODE_S_PER_PIVOT_SET = 6e-6
_SUBCODE_S_PER_SUBSPACE = 8e-9
# Largest Reed-Muller degree m (n = 2^m) anything here builds.  No cost
# measured on 2 vCPUs sets it any more: the sweep's candidate family with
# its dual GHW profiles, all in closed form and with no encoder derived,
# takes 10-16 ms at m = 9 and 34-50 ms at m = 10; the m = 10 sweep of the
# bundled grid 54 ms, and deriving one member's encoder 25-28 ms.
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
    for any other code the subcode tally takes.
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


def rm_dual_params(params: tuple[int, int] | None) -> tuple[int, int] | None:
    """Parameters of the dual of RM(u, m), which is RM(m - u - 1, m); None
    when ``params`` is None or u = m, whose dual is the zero code."""
    if params is None or params[0] == params[1]:
        return None
    u, m = params
    return (m - u - 1, m)


def dual(c: LinearCode) -> LinearCode:
    """The dual code, generated by the reduced null-space basis of c's generator."""
    ns = bitlinalg.null_space(c.generator)
    rm = rm_dual_params(c.rm_params)
    label = f"RM({rm[0]},{rm[1]})" if rm else f"{c.label}^perp" if c.label else ""
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


@functools.cache
def _gaussian_binomials(d: int) -> np.ndarray:
    """g[f, j] = [f choose j]_2, the number of j-dimensional subspaces of
    GF(2)^f, for f, j <= d: read-only, built once per d, in uint64, which
    holds them up to d = 15; only the solve's d <= 9 reaches it."""
    g = [[1]]
    for f in range(1, d + 1):
        prev = g[-1] + [0]
        g.append([1] + [prev[j - 1] + (1 << j) * prev[j] for j in range(1, f + 1)])
    table = np.array([row + [0] * (d - f) for f, row in enumerate(g)], dtype=np.uint64)
    table.setflags(write=False)
    return table


@functools.cache
def _pascal(n: int) -> np.ndarray:
    """p[w, s] = C(n - w, s - w), the number of s-subsets of n coordinates
    that cover a given w-subset (0 for s < w): row w is row n - w of
    Pascal's triangle shifted right by w.  Read-only, built once per n, in
    uint64; every entry is at most C(64, 32) < 2^63 for n <= _SUBCODE_MAX_N."""
    table = np.zeros((n + 1, n + 1), dtype=np.uint64)
    for w in range(n + 1):
        table[w, w:] = [comb(n - w, k) for k in range(n - w + 1)]
    table.setflags(write=False)
    return table


def _zeta_cost(n: int) -> float:
    return _ZETA_S + _ZETA_S_PER_SUBSET_BIT * n * 2**n


def _subspace_count(d: int) -> int:
    """G_d, the number of subspaces of GF(2)^d, by the Galois recurrence
    G_0 = 1, G_1 = 2, G_(e+1) = 2 G_e + (2^e - 1) G_(e-1), in Python ints."""
    prev, count = 1, 1
    for e in range(d):
        prev, count = count, 2 * count + ((1 << e) - 1) * prev
    return count


def _subcode_cost(d: int) -> float:
    """Estimated seconds of :func:`_subcode_free_counts`: 2^d pivot sets
    and every subspace, whatever n is."""
    return _SUBCODE_S + _SUBCODE_S_PER_PIVOT_SET * 2**d + _SUBCODE_S_PER_SUBSPACE * _subspace_count(d)


def _subcode_max_dim() -> int:
    """Largest d whose subcode enumeration stays within the cap."""
    d = 0
    while _subcode_cost(d + 1) <= _zeta_cost(SUBSET_RANK_CAP):
        d += 1
    return d


def _support_masks(side: LinearCode) -> np.ndarray:
    """Support bitmask (bit i = coordinate i) of each of the 2^dim codewords,
    in the order of :func:`enumerate_codewords`."""
    return enumerate_codewords(side, cap=side.dim) @ (np.uint64(1) << np.arange(side.n, dtype=np.uint64))


def _zeta_free_counts(side: LinearCode) -> np.ndarray:
    """h[s, f] for D = ``side`` by one subset-sum (zeta) transform.

    The transform of D's support indicator gives F(S), the number of
    codewords supported inside S, for every S at once, and log2 F(S) is
    dim D(S).  Its per-bit passes commute, so they run in the order that
    suits the cache.  The passes for bits at or above ``_BLOCK_BITS`` run
    over the whole array, where they are long and contiguous.  Then each
    block of 2^_BLOCK_BITS consecutive subsets gets its remaining passes
    and is tallied while it is still in cache; the lowest bits, whose
    passes would run in short inner loops, go through a transposed copy.
    """
    n, d = side.n, side.dim
    supports = _support_masks(side)
    counts = np.zeros(1 << n, dtype=np.uint16)
    counts[supports] = 1
    block_bits = min(n, _BLOCK_BITS)
    low_bits = min(block_bits, 5)
    for i in range(block_bits, n):
        _zeta_pass(counts, 1 << i)
    # Within a block, S is keyed by popcount(offset) * (d+1) + log2 F(S),
    # and F(S) - 1 has log2 F(S) one bits; the block's own popcount
    # shifts |S| for the whole block.
    offset_keys = np.bitwise_count(np.arange(1 << block_bits)).astype(np.int16) * (d + 1)
    width = (block_bits + 1) * (d + 1)
    by_popcount = np.zeros((n - block_bits + 1, width), dtype=np.int64)
    for b, block in enumerate(counts.reshape(-1, 1 << block_bits)):
        low = block.reshape(-1, 1 << low_bits).T.copy()
        for i in range(low_bits):
            _zeta_pass(low, low.shape[1] << i)
        block.reshape(-1, 1 << low_bits)[:] = low.T
        for i in range(low_bits, block_bits):
            _zeta_pass(block, 1 << i)
        block -= 1
        by_popcount[b.bit_count()] += np.bincount(offset_keys + np.bitwise_count(block), minlength=width)
    h = np.zeros((n + 1, d + 1), dtype=np.int64)
    for p, rows in enumerate(by_popcount.reshape(len(by_popcount), block_bits + 1, d + 1)):
        h[p : p + block_bits + 1] += rows
    return h


def _subspace_support_counts(side: LinearCode) -> np.ndarray:
    """cnt[j, w], the number of j-dimensional subspaces of D = ``side``
    whose support has w coordinates, by enumerating the subspaces of D.

    Every subspace E of D is one reduced echelon basis of coefficient
    vectors, the pivot of a vector being its lowest set bit.  Choosing
    pivots from the highest down, a vector with pivot p is free in the
    coordinates above p that are not pivots already, so each subspace is
    reached once, and its support is the OR of its basis vectors' codeword
    masks.
    """
    n, d = side.n, side.dim
    vectors = np.arange(1, 1 << d)
    vectors = vectors[np.argsort(np.bitwise_count((vectors & -vectors) - 1), kind="stable")]
    masks = _support_masks(side)[vectors]
    # A node holds the supports of every subspace with the pivot set
    # ``pivots``, all at or above ``bound``.  It adds one vector with a
    # lower pivot to each; vectors are sorted by pivot, so those with a
    # pivot below ``bound`` come first, 2^d - 2^(d-bound) of them, and
    # the ones with pivot p free in the d-1-p-|pivots| coordinates.
    found = [[] for _ in range(d + 1)]
    stack = [(d, 0, np.zeros(1, dtype=np.uint64))] if d else []
    while stack:
        bound, pivots, supports = stack.pop()
        head = slice((1 << d) - (1 << (d - bound)))
        grown = (masks[head][(vectors[head] & pivots) == 0][:, None] | supports).ravel()
        found[pivots.bit_count() + 1].append(np.bitwise_count(grown))
        start = 0
        for p in range(bound):
            end = start + (len(supports) << (d - 1 - p - pivots.bit_count()))
            if p:
                stack.append((p, pivots | 1 << p, grown[start:end]))
            start = end
    cnt = np.zeros((d + 1, n + 1), dtype=np.int64)
    cnt[0, 0] = 1
    for j in range(1, d + 1):
        cnt[j] = np.bincount(np.concatenate(found[j]), minlength=n + 1)
    return cnt


def _subcode_free_counts(side: LinearCode) -> np.ndarray:
    """h[s, f] for D = ``side`` from its subspace counts cnt[j, w]
    (:func:`_subspace_support_counts`).

    An s-subset S holds a subspace E iff it covers E's support, and D(S)
    holds [f choose j]_2 subspaces of dimension j when dim D(S) = f, so

        A[j, s] = sum_w cnt[j, w] C(n - w, s - w) = sum_f [f choose j]_2 h[s, f],

    a unit triangle in f.  The covers C(n - w, s - w) are the rows of
    :func:`_pascal`, A is one product, and the triangle is solved from
    f = dim downward, one array step per f:
    h[:, f] = A[f] - sum_{e > f} [e choose f]_2 h[:, e].  All of it runs in
    uint64, whose arithmetic is exact modulo 2^64.  The triangle is unit and
    integral, so it has one solution modulo 2^64, and the true h is one.  A
    and the partial sums may wrap (A reaches about 2^78 at n = 64, dim = 8),
    but 0 <= h[s, f] <= C(64, 32) < 2^63, so the residues are h itself.
    """
    cnt = _subspace_support_counts(side)
    g = _gaussian_binomials(side.dim)
    a = cnt.astype(np.uint64) @ _pascal(side.n)
    h = np.empty_like(a)
    for f in range(side.dim, -1, -1):
        h[f] = a[f] - g[f + 1 :, f] @ h[f + 1 :]
    return h.T.astype(np.int64)


def subcode_tally(c: LinearCode, *, dual_code: LinearCode | None = None) -> np.ndarray:
    """Tally the subcodes of c by support: an (n+1) x (dim+1) int64 array
    ``h`` with ``h[s, f]`` the number of s-subsets S of coordinates whose
    subcode C(S), the codewords supported inside S, has dimension f.

    Both ways of counting run on D, the smaller of C and C-perp: a
    subset-sum (zeta) transform over all 2^n subsets, or an enumeration of
    D's subspaces that costs about G_d, the number of subspaces, whatever
    n is, and then solves a (dim+1)-step triangle over tabled binomials.
    The cheaper way by a cost estimate runs, and a code is refused only
    where both would cost more than the transform at
    n = ``SUBSET_RANK_CAP``.  When D = C-perp, one flip turns D's tally
    into C's: dim C(S) = dim C - |S^c| + dim C-perp(S^c), so
    h[n - t, dim - t + g] = h_D[t, g].  ``dual_code``, if given, must be
    C-perp (a ``WiretapCode`` holds it); otherwise it is derived when D
    is C-perp.
    """
    n = c.n
    use_dual = 2 * c.dim > n
    d = n - c.dim if use_dual else c.dim
    zeta = _zeta_cost(n)
    subcode = _subcode_cost(d) if n <= _SUBCODE_MAX_N else np.inf
    if min(zeta, subcode) > _zeta_cost(SUBSET_RANK_CAP):
        raise ValueError(
            f"({n}, {c.dim}) code exceeds the subset-rank cap: above n = {SUBSET_RANK_CAP} the tally "
            f"enumerates the subcodes of the smaller of C and C-perp, which needs n <= {_SUBCODE_MAX_N} "
            f"and dimension <= {_subcode_max_dim()}, here {d}"
        )
    if use_dual and dual_code is None:
        dual_code = dual(c)
    side = dual_code if use_dual else c
    h = _subcode_free_counts(side) if subcode < zeta else _zeta_free_counts(side)
    if not use_dual:
        return h
    t, g = np.nonzero(h)
    out = np.zeros((n + 1, c.dim + 1), dtype=np.int64)
    out[n - t, c.dim - t + g] = h[t, g]
    return out


def ghw_exact(c: LinearCode, *, dual_code: LinearCode | None = None) -> GHWProfile:
    """Weight hierarchy by exhaustive search over coordinate subsets.

    d_r is the smallest |S| whose subcode C(S) reaches dimension r.  The
    largest dimension at each subset size is the last nonzero column of
    the subcode tally, nondecreasing in |S|, which takes every
    n <= ``SUBSET_RANK_CAP`` and, up to n = 64, codes whose smaller side
    (the code or its dual) has dimension <= 9.  ``dual_code``, if given,
    must be C-perp; the tally then derives no dual.
    """
    reach = c.dim - (subcode_tally(c, dual_code=dual_code)[:, ::-1] > 0).argmax(axis=1)
    weights = np.searchsorted(reach, np.arange(1, c.dim + 1))
    return GHWProfile(weights=tuple(weights.tolist()), source="exact")


def ghw_rm(u: int, m: int) -> GHWProfile:
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


def ghw_of(c: LinearCode, *, dual_code: LinearCode | None = None) -> GHWProfile:
    """Hierarchy of an arbitrary code.

    Closed form for every Reed-Muller code, exhaustive search for any
    other code the subcode tally takes (see :func:`ghw_exact`, which gets
    ``dual_code``, C-perp if given).  The profile's ``source`` records
    which ran.
    """
    if c.dim == 0:
        return GHWProfile(weights=())
    if c.rm_params is not None:
        return ghw_rm(*c.rm_params)
    return ghw_exact(c, dual_code=dual_code)


def random_code(n: int, dim: int, rng: np.random.Generator, label: str = "") -> LinearCode:
    """A uniformly random (n, dim) code, for test corpora."""
    if not 0 < dim <= n:
        raise ValueError(f"need 0 < dim <= n, got ({n}, {dim})")
    while True:
        g = BitMatrix(rng.integers(0, 2, size=(dim, n), dtype=np.uint8))
        if bitlinalg.rank(g) == dim:
            return LinearCode(n=n, dim=dim, generator=g, label=label or f"random({n},{dim})")
