"""Code-versus-threshold optimization over a sounded channel grid.

Evaluates every candidate wiretap code at every SNR threshold, scoring
secure throughput (code rate times Bob-reliable subcarriers) against the
minimum worst-case equivocation over all candidate eavesdropper
locations, then selects the best fully-secure operating point.  A Monte
Carlo validator replays the end-to-end encode/observe/decode loop.
"""

from __future__ import annotations

import csv
import io
import operator
from dataclasses import dataclass

import numpy as np

from . import channel, codes, maps, wiretap
from .channel import ChannelGrid, RegionMap
from .wiretap import WiretapCode


class NoSecureOperatingPoint(Exception):
    """Raised when no sweep point satisfies the equivocation constraint."""


@dataclass(frozen=True)
class SweepPoint:
    """One (code, threshold) evaluation."""

    code_label: str
    n: int
    k: int
    rate: float
    tau_db: float
    active_carriers: int
    throughput: float
    min_equivocation_pct: float
    worst_eve_location: int
    bob_location: int

    @property
    def reliable(self) -> bool:
        return self.active_carriers > 0


# Summed-capacity floor per dB of positive SNR: 0.5 * log2(10) / 10 b/cu.
_FLOOR_PER_DB = 0.05 * np.log2(10.0)
# Below this SNR 10^(x/10), and so a carrier's capacity, stays finite.
_FINITE_CAPACITY_DB = 3000.0


def bob_reference_index(grid: ChannelGrid, regions: RegionMap) -> int:
    """Capacity-argmax location in Bob's region (ties: lowest index).

    With s = x log2(10) / 10, a carrier at x dB holds 0.5 log2(1 + 2^s),
    which lies in [0.5 max(0, s), 0.5 max(0, s) + 0.5).  A location's
    floor, the sum of the lower ends, is thus within 0.5 per carrier
    (32 b/cu over 64) of its capacity, and one whose floor is that far
    or further below the best floor cannot win.  The exact
    ``channel.capacity_sum`` runs only on the others (8 of the bundled
    grid's 600 cells); a 1e-6 margin absorbs rounding.  Should some SNR
    reach ``_FINITE_CAPACITY_DB``, where capacities may overflow to inf,
    every cell is scored.
    """
    idxs = grid.region_indices((regions.bob_region,))
    if idxs.size == 0:
        raise ValueError(f"no grid locations in Bob region {regions.bob_region!r}")
    snr = grid.snr_db[idxs]
    if snr.max() < _FINITE_CAPACITY_DB:
        floor = _FLOOR_PER_DB * np.maximum(snr, 0.0).sum(axis=1)
        near = floor >= floor.max() - 0.5 * snr.shape[1] - 1e-6
        idxs, snr = idxs[near], snr[near]
    return int(idxs[np.argmax(channel.capacity_sum(snr))])


def evaluate(
    w: WiretapCode,
    grid: ChannelGrid,
    regions: RegionMap,
    tau: float,
) -> SweepPoint:
    """Score one code at one threshold: a one-point worst-case :func:`sweep`."""
    return sweep([w], grid, regions, [tau])[0]


def _block_layout(n: int, a: int, blocks: int) -> np.ndarray:
    """Carrier of each bit of each block, (blocks, n): block b holds the
    carriers b, b + B, ... (c_b = ceil((a - b) / B) of them, B = blocks
    <= a) and puts bit i on its carrier i mod c_b."""
    b = np.arange(blocks)[:, None]
    return b + blocks * (np.arange(n) % -(-(a - b) // blocks))


def _revealed_bits(read: np.ndarray, readable: np.ndarray, n: int, interleave: bool) -> np.ndarray:
    """Bits of an n-bit block Eve reads, per Eve (rows) and block (columns).

    ``read`` is her (Eve x active carrier) read mask and ``readable`` its
    row counts; the blocks are laid out by :func:`_block_layout`.
    Interleaved: B = ceil(a / n) blocks, each Eve charged her concrete
    bits.  Worst case: one block on all a carriers, and Eve's e readable
    carriers are charged as the e that carry the most bits.
    """
    a = read.shape[1]
    if a == 0:
        return np.zeros((read.shape[0], 1), dtype=int)
    if interleave:
        return read[:, _block_layout(n, a, -(-a // n))].sum(axis=2)
    heaviest = np.sort(np.bincount(_block_layout(n, a, 1)[0], minlength=a))[::-1]
    return np.concatenate(([0], heaviest.cumsum()))[readable[:, None]]


def _mask_keys(read: np.ndarray) -> np.ndarray:
    """Each row of a (..., 64) carrier mask packed into one uint64, carrier
    c on bit c."""
    return np.packbits(read, axis=-1, bitorder="little").view("<u8")[..., 0]


def sweep(
    code_list: list[WiretapCode],
    grid: ChannelGrid,
    regions: RegionMap,
    taus: list[float],
    interleave: bool = False,
) -> list[SweepPoint]:
    """Score every code at every threshold, code-major then threshold-minor.

    Only subcarriers reliable at Bob's reference location are active.
    For each Eve location, a block is charged the bits she reads (see
    :func:`_revealed_bits`): the default worst-case rule assumes the
    least favorable alignment of codeword bits onto her readable
    carriers, counting every channel use when n exceeds the a active
    carriers; ``interleave`` instead scores a concrete round-robin map
    of B = max(1, ceil(a / n)) blocks, and the worst block counts.  A
    point's equivocation is set by the first Eve location, in grid
    order, that leaks the most.

    The regions are checked once, on the region ids the grid resolved
    at construction, and Eve's rows are gathered once by an index array.
    Per threshold, her SNRs are compared once and each read mask is
    ANDed with Bob's and packed into one 64-bit key; Eves sharing a key
    leak alike, so only the distinct masks (1-12 of the bundled grid's
    1,170 Eves at 25-31 dB), each standing for its first Eve, are
    scored.  Their readable carriers are counted once, each
    blocklength's revealed bits are built once, and a code's leakage at
    each mu comes from a lookup table over its dual weight hierarchy.
    The masks are kept in order of their first Eve, so the first mask
    that leaks the most names the first such Eve in grid order.
    """
    if not code_list or not taus:
        raise ValueError("need at least one code and one threshold")
    listed: set[float] = set()
    for tau in taus:
        if tau in listed:
            raise ValueError(f"threshold {tau:g} dB listed twice")
        listed.add(tau)
    regions.validate_against(grid)
    eve_idxs = regions.eve_indices(grid)
    if eve_idxs.size == 0:
        raise ValueError("no candidate Eve locations (empty or fully excluded Eve regions)")
    bob_idx = bob_reference_index(grid, regions)
    eve_snr = grid.snr_db[eve_idxs]
    leak_tables = [
        np.array([w.dual_ghw().leakage_at(mu) for mu in range(w.n + 1)]) for w in code_list
    ]
    per_code: list[list[SweepPoint]] = [[] for _ in code_list]
    for tau in taus:
        bob_read = channel.erase_mask(grid.snr_db[bob_idx], tau)
        active = np.flatnonzero(bob_read)
        a = int(active.size)
        eve_read = channel.erase_mask(eve_snr, tau)
        keys = _mask_keys(eve_read) & _mask_keys(bob_read)
        # np.unique returns each key's first index, so sorted they list
        # the distinct masks in order of their first Eve.
        first = np.sort(np.unique(keys, return_index=True)[1])
        read = eve_read[first[:, None], active]
        readable = np.count_nonzero(read, axis=1)
        revealed: dict[int, np.ndarray] = {}
        for w, table, points in zip(code_list, leak_tables, per_code):
            if w.n not in revealed:
                revealed[w.n] = _revealed_bits(read, readable, w.n, interleave)
            per_mask = table[revealed[w.n]].max(axis=1)
            worst = int(np.argmax(per_mask))
            points.append(
                SweepPoint(
                    code_label=w.label,
                    n=w.n,
                    k=w.k,
                    rate=w.k / w.n,
                    tau_db=float(tau),
                    active_carriers=a,
                    throughput=w.k * a / w.n,
                    min_equivocation_pct=100.0 * (w.k - int(per_mask[worst])) / w.k,
                    worst_eve_location=int(eve_idxs[first[worst]]),
                    bob_location=bob_idx,
                )
            )
    return [p for points in per_code for p in points]


def select_best(points: list[SweepPoint], require_full_equivocation: bool = True) -> SweepPoint:
    """Max-throughput point subject to the security constraint.

    Ties break toward smaller blocklength, then lower threshold.  Raises
    NoSecureOperatingPoint when nothing qualifies.
    """
    if not points:
        raise ValueError("empty point list")
    pool = [p for p in points if p.reliable]
    if require_full_equivocation:
        pool = [p for p in pool if p.min_equivocation_pct == 100.0]
    if not pool:
        raise NoSecureOperatingPoint(
            "no operating point meets the equivocation constraint"
        )
    return min(pool, key=lambda p: (-p.throughput, p.n, p.tau_db, p.code_label))


# Trials drawn, encoded and decoded together; memory stays flat at any trial count.
MC_CHUNK = 1024


def simulate_mc(
    w: WiretapCode,
    grid: ChannelGrid,
    regions: RegionMap,
    tau: float,
    trials: int,
    seed: int,
) -> dict:
    """Monte Carlo end-to-end check at the worst Eve location.

    The block is laid out on the a active carriers at Bob's reference
    location by ``_block_layout(n, a, 1)``: bit i goes on carrier
    ``active[i % a]`` in channel use i // a, so any blocklength fits;
    only a = 0 is refused.  Bob reads every active carrier, so each
    trial encodes a uniform (m, m') draw and must decode it exactly;
    trials run in chunks of ``MC_CHUNK``.
    Eve's threshold erasures reveal the fixed positions R of the bits
    on her readable carriers.  Her posterior is then uniform over an
    affine set of messages whose size depends on R alone, so every
    trial leaks exactly |R| - rank(G_R) bits (``wiretap.leakage``); the
    bound is the worst case over all patterns of |R| positions.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    point = evaluate(w, grid, regions, tau)
    active = np.nonzero(channel.erase_mask(grid.snr_db[point.bob_location], tau))[0]
    if active.size == 0:
        raise ValueError(f"no active carriers at tau={tau}; a block needs at least one")
    eve_read = channel.erase_mask(grid.snr_db[point.worst_eve_location], tau)[active]
    revealed = tuple(int(i) for i in np.nonzero(eve_read[_block_layout(w.n, active.size, 1)[0]])[0])
    leak = float(wiretap.leakage(w, revealed))

    bob_errors = 0
    for chunk, start in enumerate(range(0, trials, MC_CHUNK)):
        size = min(MC_CHUNK, trials - start)
        rng = np.random.default_rng([seed, chunk])
        m = rng.integers(0, 2, size=(size, w.k), dtype=np.uint8)
        mprime = rng.integers(0, 2, size=(size, w.n - w.k), dtype=np.uint8)
        decoded = wiretap.decode(w, wiretap.encode(w, m, mprime))
        bob_errors += int(np.any(decoded != m, axis=1).sum())
    return {
        "bob_error_rate": bob_errors / trials,
        "eve_leakage_bits_mean": leak,
        "eve_leakage_bits_max": leak,
        "trials": trials,
        "eve_location": int(point.worst_eve_location),
        "worst_case_bound": w.dual_ghw().leakage_at(len(revealed)),
    }


def default_code_family(max_m: int = 5) -> list[WiretapCode]:
    """Reed-Muller wiretap candidates in both coset orientations.

    For each RM(u, m) with 0 < u < m <= max_m the code is tried both as
    the base code C and, through the dual its C member carries, as
    C-perp, since either role is a legitimate reading of an RM-labelled
    coset code.  The dual of RM(u, m) is RM(m - u - 1, m), so a code
    already in the family as an earlier dual, or as its own, is skipped.
    ``max_m`` below 2 or above ``codes.RM_MAX_DEGREE`` is refused before
    anything is built.
    """
    if max_m < 2:
        raise ValueError(f"max_m must be at least 2, got {max_m}: every Reed-Muller base with m <= 1 is degenerate")
    if max_m > codes.RM_MAX_DEGREE:
        raise ValueError(f"max_m {max_m} exceeds the Reed-Muller degree bound {codes.RM_MAX_DEGREE}")
    family: list[WiretapCode] = []
    seen: set[tuple[int, int]] = set()
    for m in range(2, max_m + 1):
        for u in range(1, m):
            if (u, m) in seen:
                continue
            member = wiretap.build(codes.reed_muller(u, m), label=f"RM({u},{m})|C")
            family.append(member)
            perp = member.dual_code
            if perp.rm_params != (u, m):
                family.append(wiretap.build(perp, label=f"RM({u},{m})|Cperp"))
            seen.update({(u, m), perp.rm_params})
    return family


# The frontier CSV's columns, in order: SweepPoint fields.  best.json
# holds all but worst_eve_location.
FRONTIER_COLUMNS = (
    "code_label", "n", "k", "rate", "tau_db", "active_carriers",
    "throughput", "min_equivocation_pct", "worst_eve_location",
)


def frontier_csv(points: list[SweepPoint]) -> str:
    """Sweep output schema used by the CLI and the golden-file tests:
    ``FRONTIER_COLUMNS``, floats to 6 significant digits.

    Code labels contain commas (e.g. "RM(1,2)|C"), so rows go through a
    real CSV writer with minimal quoting.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FRONTIER_COLUMNS)
    row = operator.attrgetter(*FRONTIER_COLUMNS)
    for p in points:
        writer.writerow(["%.6g" % v if isinstance(v, float) else v for v in row(p)])
    return buf.getvalue()


_SVG_WIDTH, _SVG_HEIGHT = 480.0, 360.0  # frontier plot size, SVG user units


def frontier_svg(points: list[SweepPoint]) -> str:
    """Throughput vs equivocation scatter, threshold mapped to color."""
    if not points:
        raise ValueError("empty point list")
    taus = sorted({p.tau_db for p in points})
    tmax = max(p.throughput for p in points) or 1.0
    width, height, pad = _SVG_WIDTH, _SVG_HEIGHT, 30.0
    parts = [f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>']
    span = max(len(taus) - 1, 1)
    for p in points:
        t = taus.index(p.tau_db) / span
        cx = pad + (width - 2 * pad) * p.min_equivocation_pct / 100.0
        cy = height - pad - (height - 2 * pad) * p.throughput / tmax
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="{_tau_color(t)}"/>')
    return maps.svg_document(width, height, parts)


def _tau_color(t: float) -> str:
    r = round(255 * (1 - t))
    b = round(255 * t)
    return f"#{r:02x}00{b:02x}"
