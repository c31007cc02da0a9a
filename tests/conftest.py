"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own linear-algebra
paths: rank is measured by enumerating the row space, weight
hierarchies by exhaustive subcode-support search over codeword tuples,
and Eve's message posterior by matching her observation against all
2^n coset words.  The sweep oracle is the plain loop over Eve locations
that the vectorised sweep replaced; it finds regions, Eve locations and
Bob's reference by its own scans of each location's label.  The grid
oracle is the per-location loop that ``channel.synth_grid``'s array
passes replaced; each location takes its fading from its row of the DFT
product over its whole chunk of 512 rows of one ``standard_normal`` call
per block of 4,096 locations.  The elimination
oracle is the per-row numpy Gauss-Jordan that ``bitlinalg``'s packed-row
elimination replaced, and
the wiretap-matrix oracle the greedy basis completion and GF(2) inverse
that ``wiretap.build``'s pivot rows replaced.  The Reed-Muller generator
oracle builds one monomial row at a time, where ``codes._monomial_rows``
builds them in one broadcast; the Reed-Muller monomial oracle is the
frozenset greedy search that ``codes.ghw_rm``'s closed form
replaced.  The subcode-solve oracle is the ``math.comb`` covers and
generator back-substitution in Python ints that
``codes._subcode_free_counts``'s binomial tables and uint64 array solve
replaced.  The family oracle replays the rule of the candidate loop that
``sweep.default_code_family`` replaced on Reed-Muller parameters alone.
Library results are checked against these, never against themselves.

The helpers at the end build grids from (x, y, label) cells, read each
location's label, and write the inputs the commands read: synthetic
sounding captures with their sidecars, and grids as CSV text.
"""

import functools
import io
import itertools
import json
import math

import numpy as np
import pytest

from wiretapkit import bitlinalg, channel, codes, sweep
from wiretapkit.bitlinalg import BitMatrix
from wiretapkit.channel import CARRIERS, FFT_LENGTH, ChannelGrid, SoundingCapture, write_grid_csv


def oracle_rank(rows) -> int:
    """GF(2) rank by counting the row space (independent of bitlinalg.rank)."""
    masks = [int("".join(str(int(b)) for b in r), 2) if not isinstance(r, int) else r for r in rows]
    space = {0}
    for m in masks:
        space |= {v ^ m for v in space}
    return int(math.log2(len(space)))


def oracle_rref(m: BitMatrix) -> tuple[BitMatrix, list[int]]:
    """Reduced row-echelon form and pivot columns by per-row numpy Gauss-Jordan."""
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


def oracle_inverse(m: BitMatrix) -> BitMatrix:
    """Inverse by reducing [m | I] to [I | m^-1] with :func:`oracle_rref`."""
    n = m.rows
    if m.cols != n:
        raise ValueError(f"only square matrices have inverses, got {m.rows}x{m.cols}")
    red, pivots = oracle_rref(BitMatrix(np.hstack([m.a, BitMatrix.identity(n).a])))
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular over GF(2)")
    return BitMatrix(red.a[:, n:])


def oracle_null_space(m: BitMatrix) -> BitMatrix:
    """Null-space basis read off :func:`oracle_rref`, one row per free column."""
    red, pivots = oracle_rref(m)
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


def oracle_complete_basis(g: BitMatrix) -> BitMatrix:
    """Greedy completion: keep each e_0, e_1, ... that raises the rank.

    One ``bitlinalg.rank`` call per candidate; the row-space oracle rank
    would enumerate up to 2^n vectors here.
    """
    r, n = g.rows, g.cols
    if bitlinalg.rank(g) != r:
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
        if bitlinalg.rank(candidate) > cur_rank:
            chosen.append(e[0])
            current = candidate
            cur_rank += 1
        if cur_rank == n:
            break
    return BitMatrix(np.array(chosen, dtype=np.uint8))


def oracle_wiretap_matrices(c: codes.LinearCode) -> tuple[BitMatrix, BitMatrix, BitMatrix]:
    """(G', H, decoder) of ``wiretap.build(c)`` by the general construction:
    H the dual's RREF, G' the greedy completion of c's generator and
    decoder = H^T.(G'.H^T)^-1, every elimination by the oracles."""
    h, _ = oracle_rref(oracle_null_space(c.generator))
    gprime = oracle_complete_basis(c.generator)
    ht = BitMatrix(h.a.T)
    return gprime, h, bitlinalg.mul(ht, oracle_inverse(bitlinalg.mul(gprime, ht)))


def old_carrier_capacity(db: np.ndarray) -> np.ndarray:
    """The capacity formula ``channel._carrier_capacity`` used before it
    dropped its -inf guard: -inf dB mapped to linear 0 by ``np.where``."""
    return 0.5 * np.log2(1.0 + np.where(np.isneginf(db), 0.0, 10.0 ** (db / 10.0)))


def oracle_leakage(generator: np.ndarray, revealed) -> int:
    """mu - rank of the revealed columns, using the row-space rank oracle."""
    sub = generator[:, list(revealed)]
    if sub.shape[1] == 0:
        return 0
    return len(revealed) - oracle_rank(sub)


def oracle_codeword_set(generator: np.ndarray) -> set[tuple[int, ...]]:
    """All XOR combinations of the rows, as a set of bit tuples."""
    dim, n = generator.shape
    out = set()
    for picks in itertools.product([0, 1], repeat=dim):
        w = np.zeros(n, dtype=np.uint8)
        for p, row in zip(picks, generator):
            if p:
                w ^= row
        out.add(tuple(int(b) for b in w))
    return out


def oracle_ghw(generator: np.ndarray) -> tuple[int, ...]:
    """Weight hierarchy by brute force over r-tuples of codewords.

    d_r = min support size over all r-dimensional subcodes; a subcode is
    identified by any r independent codewords spanning it.  Exponential
    in dim, so only run on corpus codes with dim <= 4.
    """
    dim, n = generator.shape
    words = [np.array(w, dtype=np.uint8) for w in oracle_codeword_set(generator) if any(w)]
    weights = []
    for r in range(1, dim + 1):
        best = n + 1
        for combo in itertools.combinations(words, r):
            if oracle_rank(np.array(combo)) != r:
                continue
            support = np.zeros(n, dtype=np.uint8)
            for w in combo:
                support |= w
            best = min(best, int(support.sum()))
        weights.append(best)
    return tuple(weights)


def oracle_ghw_rm_monomial(u: int, m: int) -> codes.GHWProfile:
    """Reed-Muller hierarchy from minimal-support monomial subcodes, as sets.

    An r-dimensional span of monomials has support equal to the union of
    their evaluation supports; RM codes attain every d_r on such spans
    (they satisfy the chain condition), so a greedy minimal-growth
    ordering of the monomials yields the full hierarchy.  Ties prefer
    higher degree (smaller supports first), then graded-lex order.
    """
    npoints = 2**m
    supports = []
    for deg in range(u, -1, -1):
        for s in itertools.combinations(range(m), deg):
            mask = 0
            for i in s:
                mask |= 1 << (m - 1 - i)
            pts = frozenset(p for p in range(npoints) if (p & mask) == mask)
            supports.append(pts)
    covered: set[int] = set()
    remaining = list(range(len(supports)))
    weights = []
    while remaining:
        best = min(remaining, key=lambda j: (len(supports[j] - covered), j))
        covered |= supports[best]
        remaining.remove(best)
        weights.append(len(covered))
    return codes.GHWProfile(weights=tuple(weights), source="monomial")


def oracle_column_rank_tallies(generator: np.ndarray) -> np.ndarray:
    """out[s, r] = number of s-column subsets of rank r, by depth-first search.

    Walks every column subset, keeping a row-echelon basis of the chosen
    columns (as integer bitmasks) so each step costs one reduction.
    """
    dim, n = generator.shape
    cols = [sum(int(generator[i, j]) << i for i in range(dim)) for j in range(n)]
    out = np.zeros((n + 1, n + 1), dtype=np.int64)
    basis: dict[int, int] = {}

    def dfs(i: int, count: int, rank: int) -> None:
        if i == n:
            out[count, rank] += 1
            return
        dfs(i + 1, count, rank)
        v = cols[i]
        while v and (v.bit_length() - 1) in basis:
            v ^= basis[v.bit_length() - 1]
        if v:
            basis[v.bit_length() - 1] = v
            dfs(i + 1, count + 1, rank + 1)
            del basis[v.bit_length() - 1]
        else:
            dfs(i + 1, count + 1, rank)

    dfs(0, 0, 0)
    return out


def oracle_gaussian_binomials(d: int) -> list[list[int]]:
    """g[f][j] = [f choose j]_2 for j <= f <= d, in Python ints, by the
    recurrence [f choose j]_2 = [f-1 choose j-1]_2 + 2^j [f-1 choose j]_2."""
    g = [[1]]
    for f in range(1, d + 1):
        prev = g[-1] + [0]
        g.append([1] + [prev[j - 1] + (1 << j) * prev[j] for j in range(1, f + 1)])
    return g


def oracle_subcode_solve(cnt: np.ndarray, n: int, d: int) -> np.ndarray:
    """h[s, f] of a d-dimensional length-n code from its subspace counts
    cnt[j, w]: per-weight binomial covers built by ``math.comb`` and the
    back-substitution over (e, f) one Python generator at a time.

    Solves sum_w cnt[j, w] C(n - w, s - w) = sum_f h[s, f] [f choose j]_2
    from f = d downward, exactly in Python ints, with the Gaussian
    binomials from :func:`oracle_gaussian_binomials`.
    """
    g = oracle_gaussian_binomials(d)
    covers = np.array([[0] * w + [math.comb(n - w, k) for k in range(n - w + 1)] for w in range(n + 1)], dtype=object)
    a = cnt.astype(object) @ covers
    h = [0] * (d + 1)
    for f in range(d, -1, -1):
        h[f] = a[f] - sum(g[e][f] * h[e] for e in range(f + 1, d + 1))
    return np.array(h, dtype=np.int64).T


def oracle_sweep_point(w, grid, regions, tau: float, interleave: bool = False) -> sweep.SweepPoint:
    """One (code, threshold) point by a loop over Eve locations.

    The per-Eve scoring loop the vectorised ``sweep.sweep`` replaced,
    with each bit of a block placed on a carrier one at a time (see
    ``_oracle_carrier_bits``).  Worst case charges Eve's e readable
    carriers as the e heaviest of one block on all a active carriers;
    interleaved scores block b as the carriers b, b + B, b + 2B, ... of
    the active list (B = max(1, ceil(a / n))) and keeps the worst block.
    A later Eve replaces the current one only when strictly worse.
    Regions, Eve locations and Bob's reference come from scans of each
    location's label (:func:`region_of`), not from ``region_indices``.
    """
    labels = set(region_of(grid))
    missing = ({regions.bob_region} | regions.eve_regions) - labels
    if missing:
        raise ValueError(f"regions {sorted(missing)} not present in grid")
    wanted = regions.eve_regions - regions.excluded_regions
    eve_idxs = [i for i, label in enumerate(region_of(grid)) if label in wanted]
    if not eve_idxs:
        raise ValueError("no candidate Eve locations")
    bob_idx = oracle_bob_reference(grid, regions.bob_region)
    active = np.nonzero(channel.erase_mask(grid.snr_db[bob_idx], tau))[0]
    a = int(active.size)
    min_pct = 100.0
    worst_eve = eve_idxs[0]
    for i in eve_idxs:
        eve_read = channel.erase_mask(grid.snr_db[i], tau)[active]
        if interleave:
            pct = _oracle_interleaved_pct(w, eve_read)
        else:
            heaviest = sorted(_oracle_carrier_bits(w.n, a), reverse=True) if a else []
            mu_star = sum(heaviest[: int(eve_read.sum())])
            pct = 100.0 * (w.k - w.dual_ghw().leakage_at(mu_star)) / w.k
        if pct < min_pct:
            min_pct = pct
            worst_eve = i
    return sweep.SweepPoint(
        code_label=w.label,
        n=w.n,
        k=w.k,
        rate=w.k / w.n,
        tau_db=tau,
        active_carriers=a,
        throughput=w.k * a / w.n if a > 0 else 0.0,
        min_equivocation_pct=min_pct,
        worst_eve_location=worst_eve,
        bob_location=bob_idx,
    )


def oracle_bob_reference(grid, bob_region: str) -> int:
    """First location of ``bob_region`` with the most summed capacity
    0.5 log2(1 + 10^(x/10)) over its carriers, one location at a time."""
    best, best_cap = -1, -math.inf
    for i, label in enumerate(region_of(grid)):
        if label == bob_region:
            cap = float(np.sum(0.5 * np.log2(1.0 + 10.0 ** (grid.snr_db[i] / 10.0))))
            if cap > best_cap:
                best, best_cap = i, cap
    if best < 0:
        raise ValueError(f"no grid locations in Bob region {bob_region!r}")
    return best


def _oracle_carrier_bits(n: int, carriers: int) -> list[int]:
    """Bits per carrier when bit i of an n-bit block goes on carrier i mod c."""
    bits = [0] * carriers
    for i in range(n):
        bits[i % carriers] += 1
    return bits


def _oracle_interleaved_pct(w, eve_read: np.ndarray) -> float:
    a = eve_read.size
    if a == 0:
        return 100.0
    nblocks = -(-a // w.n)
    worst = 0
    for b in range(nblocks):
        block_read = eve_read[b::nblocks]
        bits = _oracle_carrier_bits(w.n, block_read.size)
        mu = sum(c for c, r in zip(bits, block_read) if r)
        worst = max(worst, w.dual_ghw().leakage_at(mu))
    return 100.0 * (w.k - worst) / w.k


def oracle_sweep(code_list, grid, regions, taus, interleave: bool = False) -> list:
    """Code-major, threshold-minor list of oracle points."""
    return [oracle_sweep_point(w, grid, regions, t, interleave) for w in code_list for t in taus]


def oracle_sweep_by_eve(code_list, grid, regions, taus, interleave: bool = False) -> list:
    """:func:`oracle_sweep` with each point's loop over Eve locations run
    as array passes over all of them, fast enough for the bundled grid at
    many thresholds.

    Every Eve is scored on her own read mask, with no grouping of Eves
    that read alike: worst case, her e readable carriers carry the e
    heaviest loads of :func:`_oracle_carrier_bits` (sorted, summed);
    interleaved, block b of B = ceil(a / n) holds active carriers b, b + B,
    ... and the worst block counts.  ``np.argmax`` blames the first Eve
    that leaks the most.
    """
    labels = region_of(grid)
    wanted = regions.eve_regions - regions.excluded_regions
    eve_idxs = [i for i, label in enumerate(labels) if label in wanted]
    bob_idx = oracle_bob_reference(grid, regions.bob_region)
    points = []
    for w in code_list:
        table = np.array([w.dual_ghw().leakage_at(mu) for mu in range(w.n + 1)])
        for tau in taus:
            active = np.nonzero(channel.erase_mask(grid.snr_db[bob_idx], tau))[0]
            a = int(active.size)
            read = channel.erase_mask(grid.snr_db[eve_idxs], tau)[:, active].astype(int)
            if a == 0:
                leak = np.zeros(len(eve_idxs), dtype=int)
            elif interleave:
                blocks = -(-a // w.n)
                leak = np.max([
                    table[read[:, b::blocks] @ _oracle_carrier_bits(w.n, read[:, b::blocks].shape[1])]
                    for b in range(blocks)
                ], axis=0)
            else:
                heaviest = np.cumsum([0] + sorted(_oracle_carrier_bits(w.n, a), reverse=True))
                leak = table[heaviest[read.sum(axis=1)]]
            worst = int(np.argmax(leak))
            points.append(
                sweep.SweepPoint(
                    code_label=w.label,
                    n=w.n,
                    k=w.k,
                    rate=w.k / w.n,
                    tau_db=tau,
                    active_carriers=a,
                    throughput=w.k * a / w.n if a > 0 else 0.0,
                    min_equivocation_pct=100.0 * (w.k - int(leak[worst])) / w.k,
                    worst_eve_location=eve_idxs[worst],
                    bob_location=bob_idx,
                )
            )
    return points


def _segments_cross(p1, p2, q1, q2) -> bool:
    """Proper/improper intersection test via orientation signs."""

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (v > 1e-12) - (v < -1e-12)

    def on_seg(a, b, c):
        return (
            min(a[0], b[0]) - 1e-12 <= c[0] <= max(a[0], b[0]) + 1e-12
            and min(a[1], b[1]) - 1e-12 <= c[1] <= max(a[1], b[1]) + 1e-12
        )

    o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
    o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_seg(p1, p2, q1):
        return True
    if o2 == 0 and on_seg(p1, p2, q2):
        return True
    if o3 == 0 and on_seg(q1, q2, p1):
        return True
    if o4 == 0 and on_seg(q1, q2, p2):
        return True
    return False


# Locations per fading Generator and per fading product, as the block and
# chunk rules state them.
ORACLE_FADING_BLOCK = 4096
ORACLE_FADING_CHUNK = 512


@functools.lru_cache(maxsize=4)
def oracle_block_draws(seed: int, block: int, taps: int) -> np.ndarray:
    """The (4096, 2 taps) standard normals of fading block ``block``:
    one ``standard_normal`` call on ``default_rng([seed, block])``."""
    z = np.random.default_rng([seed, block]).standard_normal((ORACLE_FADING_BLOCK, 2 * taps))
    z.flags.writeable = False
    return z


@functools.lru_cache(maxsize=4)
def _chunk_fading_db(cfg: channel.FadingModel, seed: int, block: int, start: int) -> np.ndarray:
    """Fading in dB of the 512 draw rows from ``start`` on of block ``block``.

    H(f) = sum_j tap_j e^(-2 pi i f j / 64) of each row's taps, its real
    and imaginary parts taken as products of the 512 rows with the tap
    amplitudes times the cosines and sines, one (2 taps, 64) matrix each.
    """
    z = oracle_block_draws(seed, block, cfg.taps)[start:start + ORACLE_FADING_CHUNK]
    powers = np.exp(-np.arange(cfg.taps) / cfg.delay_spread)
    powers /= powers.sum()
    turns = np.arange(cfg.taps)[:, None] * np.arange(channel.CARRIERS) % channel.CARRIERS
    w = np.sqrt(powers / 2)[:, None] * np.exp((-2j * np.pi / channel.CARRIERS) * turns)
    re = z @ np.concatenate([w.real, -w.imag])
    im = z @ np.concatenate([w.imag, w.real])
    db = cfg.sigma_scale * 10.0 * np.log10(np.maximum(re * re + im * im, 1e-12))
    db.flags.writeable = False
    return db


def _fading_db(cfg: channel.FadingModel, seed: int, loc_index: int) -> np.ndarray:
    """Frequency-selective fading in dB from a seeded multipath draw.

    A short complex tap profile with exponentially decaying power gives
    |H(f)|^2 across the 64 subcarriers, H being the tap profile's 64-point
    DFT.  Location i takes row i mod 4096 of its block's draw
    (:func:`oracle_block_draws` of block i // 4096), real parts first, and
    its fading is row i mod 512 of the product over the whole chunk of 512
    draw rows that holds it (:func:`_chunk_fading_db`), never a product
    over fewer rows, so the grid is the same under any evaluation order
    and any grid size.
    """
    if not cfg.enabled:
        return np.zeros(channel.CARRIERS)
    block, row = divmod(loc_index, ORACLE_FADING_BLOCK)
    start, row = divmod(row, ORACLE_FADING_CHUNK)
    return _chunk_fading_db(cfg, seed, block, start * ORACLE_FADING_CHUNK)[row]


def oracle_synth_grid(cfg, seed: int) -> channel.ChannelGrid:
    """Synthetic SNR grid by a loop over locations, one fading row each.

    The per-location loop the array passes of ``channel.synth_grid``
    replaced: Python scalar wall tests, path loss and one fading draw and
    transform per location.  Path loss calls numpy's ``hypot`` and
    ``log10`` on the location's scalars, the ufuncs that ``synth_grid``
    runs over the lattice arrays.
    """
    nx, ny = cfg.lattice
    cells: list[tuple[float, float, str]] = []
    rows: list[np.ndarray] = []
    for iy in range(ny):
        for ix in range(nx):
            x = ix * cfg.grid_spacing
            y = iy * cfg.grid_spacing
            label = next((r.label for r in cfg.regions if r.contains(x, y)), "open")
            d = np.hypot(x - cfg.tx[0], y - cfg.tx[1])
            path_loss = 10.0 * cfg.path_loss_exponent * np.log10(
                max(d, cfg.ref_distance) / cfg.ref_distance
            )
            wall_loss = sum(
                w.loss_db
                for w in cfg.walls
                if _segments_cross(cfg.tx, (x, y), (w.x1, w.y1), (w.x2, w.y2))
            )
            base = cfg.ref_snr_db + cfg.tx_power_offset_db - path_loss - wall_loss
            rows.append(base + _fading_db(cfg.fading, seed, len(cells)))
            cells.append((x, y, label))
    return cells_grid(cells, rows)


# The coset codebook holds all 2^n words: 1 MB of uint8 at n = 16.
CODEBOOK_CAP = 16


def posterior_oracle(w, z) -> dict[str, float]:
    """Brute-force message posterior given an erased observation.

    z is a string over {0, 1, ?} (or a sequence using None for
    erasures).  Assuming uniform (m, m'), each message's probability is
    proportional to how many of its coset's words match z on the
    revealed positions.  The entropy of the result is exactly
    k - leakage(pattern of z).
    """
    revealed, values = _parse_observation(z, w.n)
    words, owner = coset_codebook(w)
    match = np.all(words[:, revealed] == values[None, :], axis=1)
    hits = np.bincount(owner[match], minlength=2**w.k)
    total = int(hits.sum())
    if total == 0:
        raise ValueError("observation is inconsistent with every codeword")
    return {format(mi, f"0{w.k}b"): int(h) / total for mi, h in enumerate(hits) if h}


def coset_codebook(w) -> tuple[np.ndarray, np.ndarray]:
    """Every transmittable word and the message that selects it.

    Returns ``(words, owner)``: ``words`` is the (2^n, n) uint8 array of
    m.G' xor m'.G over all (m, m'), and ``owner[i]`` is the index of the
    message behind row i, whose k-bit binary expansion (leftmost bit
    first) is m.  Refuses n above ``CODEBOOK_CAP``.
    """
    if w.n > CODEBOOK_CAP:
        raise ValueError(f"blocklength {w.n} exceeds codebook cap {CODEBOOK_CAP} (2^{w.n} words)")
    msgs = codes.enumerate_codewords(
        codes.LinearCode(n=w.n, dim=w.k, generator=w.gprime, label="gprime"), cap=w.k
    )
    cosets = codes.enumerate_codewords(w.base_code, cap=w.base_code.dim)
    words = (msgs[:, None, :] ^ cosets[None, :, :]).reshape(-1, w.n)
    owner = np.repeat(np.arange(2**w.k), 2 ** (w.n - w.k))
    return words, owner


def posterior_entropy(dist: dict[str, float]) -> float:
    """Shannon entropy in bits of a posterior returned by the oracle."""
    probs = np.array([p for p in dist.values() if p > 0])
    return float(-(probs * np.log2(probs)).sum())


def _parse_observation(z, n: int) -> tuple[list[int], np.ndarray]:
    if isinstance(z, str):
        symbols = [None if ch == "?" else int(ch) for ch in z]
    else:
        symbols = [None if v is None else int(v) for v in z]
    if len(symbols) != n:
        raise ValueError(f"observation must have {n} symbols, got {len(symbols)}")
    revealed = [i for i, v in enumerate(symbols) if v is not None]
    values = np.array([symbols[i] for i in revealed], dtype=np.uint8)
    return revealed, values


def random_corpus(max_n: int, count: int, seed: int = 71) -> list[codes.LinearCode]:
    """Deterministic corpus of random full-rank codes with 4 <= n <= max_n."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(4, max_n + 1))
        dim = int(rng.integers(1, n))
        out.append(codes.random_code(n, dim, rng, label=f"corpus{len(out)}({n},{dim})"))
    return out


def oracle_rm_generator(u: int, m: int) -> np.ndarray:
    """RM(u, m)'s generator one monomial row at a time, as uint8.

    Supports come in graded lexicographic order; the row of support s is
    the AND of the point-index bit columns of its variables (variable 0
    the leftmost bit), all ones for the empty support.
    """
    points = np.arange(2**m)[:, None] >> (m - 1 - np.arange(m)) & 1
    supports = [s for d in range(u + 1) for s in itertools.combinations(range(m), d)]
    return np.array([points[:, list(s)].all(axis=1) for s in supports], dtype=np.uint8)


def rm_family_codes(max_m: int) -> list[codes.LinearCode]:
    """All proper RM(u, m) codes with m <= max_m, both as given and dualized."""
    fam = []
    for m in range(1, max_m + 1):
        for u in range(0, m + 1):
            rm = codes.reed_muller(u, m)
            for c in (rm, codes.dual(rm)):
                if 0 < c.dim < c.n:
                    fam.append(c)
    return fam


def oracle_family_params(max_m: int) -> list[tuple[str, tuple[int, int]]]:
    """(label, base RM parameters) of each ``sweep.default_code_family``
    member, by the rule of the loop that tried every RM(u, m) with
    0 < u <= m <= max_m and its dual, in that order, on parameters alone.
    RM(u, m) has dimension sum_{i <= u} C(m, i) and dual RM(m - u - 1, m);
    a degenerate or already-seen base is dropped.  No code is built."""
    out = []
    seen = set()
    for m in range(1, max_m + 1):
        for u in range(1, m + 1):
            for suffix, order in (("C", u), ("Cperp", m - u - 1)):
                dim = sum(math.comb(m, i) for i in range(order + 1))
                if 0 < dim < 2**m and (order, m) not in seen:
                    seen.add((order, m))
                    out.append((f"RM({u},{m})|{suffix}", (order, m)))
    return out


@pytest.fixture
def no_location_objects(monkeypatch):
    """Make building a ``channel.Location`` fail, so a test shows that the
    paths it runs use the grid's columns alone."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("a channel.Location was built")

    monkeypatch.setattr(channel, "Location", refuse)


@pytest.fixture
def dual_calls(monkeypatch):
    """The arguments of every ``codes.dual`` call made during the test."""
    calls = []
    real_dual = codes.dual

    def counting_dual(c):
        calls.append(c)
        return real_dual(c)

    monkeypatch.setattr(codes, "dual", counting_dual)
    return calls


@pytest.fixture
def null_space_calls(monkeypatch):
    """The arguments of every ``bitlinalg.null_space`` call made during the test."""
    calls = []
    real_null_space = bitlinalg.null_space

    def counting_null_space(m):
        calls.append(m)
        return real_null_space(m)

    monkeypatch.setattr(bitlinalg, "null_space", counting_null_space)
    return calls


@pytest.fixture(scope="session")
def small_corpus():
    """>= 20 random codes with n <= 10 plus the small RM family."""
    return random_corpus(max_n=10, count=22) + rm_family_codes(max_m=3)


@pytest.fixture(scope="session")
def medium_corpus(small_corpus):
    """Codes up to n = 16: the small corpus plus larger random and RM codes."""
    extra = random_corpus(max_n=16, count=10, seed=72)
    extra = [c for c in extra if c.n > 10]
    rm4 = [c for c in rm_family_codes(max_m=4) if c.n == 16]
    return small_corpus + extra + rm4


# ---------------------------------------------------------------------------
# File-format helpers


def synth_capture(
    snr_db,
    seed: int,
    periods: int = 32,
    noiseless: bool = False,
) -> SoundingCapture:
    """Synthetic 64-tone capture whose estimator-measured SNR targets snr_db.

    Tone amplitudes are calibrated against unit-variance complex AWGN so
    that each tone's power over the noise's is the configured SNR.  The
    even bin holds tone and noise, so the even-bin/odd-bin power ratio of
    ``snr_estimate`` is SNR + 1 in expectation: the estimate reads high by
    10 log10(1 + 1/SNR) dB.
    """
    snr_db = np.broadcast_to(np.asarray(snr_db, dtype=float), (CARRIERS,))
    rng = np.random.default_rng(seed)
    t = np.arange(FFT_LENGTH)
    amps = np.sqrt(10.0 ** (snr_db / 10.0) / FFT_LENGTH)
    phases = rng.uniform(0, 2 * np.pi, size=CARRIERS)
    period = np.zeros(FFT_LENGTH, dtype=complex)
    for i in range(CARRIERS):
        period += amps[i] * np.exp(1j * (2 * np.pi * (2 * i) * t / FFT_LENGTH + phases[i]))
    iq = np.tile(period, periods)
    if not noiseless:
        noise = (rng.standard_normal(iq.size) + 1j * rng.standard_normal(iq.size)) / np.sqrt(2)
        iq = iq + noise
    return SoundingCapture(iq=iq, periods=periods)


def cells_grid(cells, snr_db) -> ChannelGrid:
    """A grid of (x, y, label) cells and their SNR rows; labels get ids in
    order of first appearance."""
    xs, ys, names = zip(*cells)
    labels = tuple(dict.fromkeys(names))
    return ChannelGrid(
        x=np.array(xs, dtype=float),
        y=np.array(ys, dtype=float),
        region_id=np.array([labels.index(name) for name in names], dtype=np.intp),
        labels=labels,
        snr_db=np.array(snr_db, dtype=float),
    )


def region_of(grid: ChannelGrid) -> list[str]:
    """The region label of each location, read from the columns."""
    return [grid.labels[i] for i in grid.region_id.tolist()]


def grid_to_csv(grid: ChannelGrid) -> str:
    """The text :func:`write_grid_csv` writes, as one string."""
    buf = io.StringIO()
    write_grid_csv(grid, buf)
    return buf.getvalue()


def save_capture(
    cap: SoundingCapture, iq_path, sidecar_path, center_freq_hz: float = 1250e6, sample_rate_hz=20e6
) -> None:
    """Write the I/Q file and its JSON sidecar; ``sample_rate_hz`` is written
    as given, so a test can store a value ``load_capture`` refuses."""
    inter = np.empty(2 * cap.iq.size, dtype="<f4")
    inter[0::2] = cap.iq.real
    inter[1::2] = cap.iq.imag
    inter.tofile(iq_path)
    with open(sidecar_path, "w") as fh:
        json.dump(
            {
                "sample_rate_hz": sample_rate_hz,
                "periods": cap.periods,
                "carriers": CARRIERS,
                "center_freq_hz": center_freq_hz,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
