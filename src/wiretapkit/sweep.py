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
    ``channel.capacity_sum`` runs only on the others (10 of the bundled
    grid's 600 cells); a 1e-6 margin absorbs rounding.  The floors take
    one gather, one clip in place and one product.  A carrier at
    ``_FINITE_CAPACITY_DB`` or above, whose capacity may overflow to inf,
    lifts its row's floor to ``_FLOOR_PER_DB * _FINITE_CAPACITY_DB`` or
    more; such a row is scored whatever its floor.
    """
    idxs = grid.region_indices((regions.bob_region,))
    if idxs.size == 0:
        raise ValueError(f"no grid locations in Bob region {regions.bob_region!r}")
    pos = np.take(grid.snr_db, idxs, axis=0)
    np.maximum(pos, 0.0, out=pos)
    floor = _FLOOR_PER_DB * (pos @ np.ones(pos.shape[1]))
    near = floor >= floor.max() - 0.5 * pos.shape[1] - 1e-6
    hot = np.flatnonzero(~near & (floor >= _FLOOR_PER_DB * _FINITE_CAPACITY_DB))
    near[hot] = pos[hot].max(axis=1) >= _FINITE_CAPACITY_DB
    idxs = idxs[near]
    return int(idxs[np.argmax(channel.capacity_sum(grid.snr_db[idxs]))])


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


def _worst_case_bits(readable: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
    """Most bits of one n-bit block, laid out on all a active carriers,
    that e readable carriers can hold, elementwise over (e, a).

    Bit i sits on carrier i mod a (``_block_layout(n, a, 1)``), so n mod a
    carriers carry floor(n / a) + 1 bits and the rest floor(n / a); the e
    heaviest carry e floor(n / a) + min(e, n mod a).  With a = 0 Eve
    reads nothing (e = 0), and so learns nothing.
    """
    a = np.maximum(a, 1)
    return readable * (n // a) + np.minimum(readable, n % a)


def _interleaved_bits(keys: np.ndarray, starts: np.ndarray, bob_read: np.ndarray, n: int) -> np.ndarray:
    """Most bits any of B = max(1, ceil(a / n)) interleaved n-bit blocks
    reveals, per read-mask key: threshold t owns the keys from starts[t]
    to starts[t + 1], and its active carriers are those of
    ``bob_read[t]``, laid out by :func:`_block_layout`."""
    read = np.unpackbits(keys.view(np.uint8), bitorder="little").reshape(-1, bob_read.shape[1])
    revealed = np.zeros(len(keys), dtype=np.intp)
    for start, stop, bob in zip(starts.tolist(), starts[1:].tolist() + [len(keys)], bob_read):
        active = np.flatnonzero(bob)
        if active.size:
            carriers = active[_block_layout(n, active.size, -(-active.size // n))]
            revealed[start:stop] = read[start:stop, carriers].sum(axis=2).max(axis=1)
    return revealed


def _mask_keys(read: np.ndarray) -> np.ndarray:
    """Each row of a (..., 64) carrier mask packed into one uint64, carrier
    c on bit c.  Rows of 64 fill whole bytes, so the mask is packed flat,
    several times faster than along its last axis."""
    return np.packbits(read.ravel(), bitorder="little").view("<u8").reshape(read.shape[:-1])


def sweep(
    code_list: list[WiretapCode],
    grid: ChannelGrid,
    regions: RegionMap,
    taus: list[float],
    interleave: bool = False,
) -> list[SweepPoint]:
    """Score every code at every threshold, code-major then threshold-minor.

    Only subcarriers reliable at Bob's reference location are active.
    For each Eve location, a block is charged the bits she reads: the
    default worst-case rule assumes the least favorable alignment of
    codeword bits onto her readable carriers, counting every channel use
    when n exceeds the a active carriers (:func:`_worst_case_bits`);
    ``interleave`` instead scores a concrete round-robin map of
    B = max(1, ceil(a / n)) blocks, and the worst block counts
    (:func:`_interleaved_bits`).  A point's equivocation is set by the
    first Eve location, in grid order, that leaks the most.

    The regions are checked once, on the region ids the grid resolved
    at construction, and Eve's rows are gathered once by an index array.
    Each threshold compares her SNRs once and packs each read mask, ANDed
    with Bob's, into one 64-bit key.  Eves sharing a key leak alike, so
    each distinct key (1-12 of the bundled grid's 1,170 Eves at 25-31 dB)
    is one row, standing for the first Eve in grid order that reads it;
    one stable sort of every threshold's keys finds the rows.

    Cost: numpy passes per threshold (compare and pack) and per
    blocklength, never per (threshold, code).  Per blocklength, each row
    is reduced to the most bits a block reveals (in closed form in the
    worst case; interleaved, one gather per threshold), one gather reads
    every code's leakage at that count from a table of its dual weight
    hierarchy, and two segmented reductions over each threshold's rows
    give its most leakage and the first Eve that reaches it.  Building
    the output takes one Python step per point.
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
    bob_read = np.array([channel.erase_mask(grid.snr_db[bob_idx], tau) for tau in taus])
    bob_keys = _mask_keys(bob_read)
    eve_snr = np.take(grid.snr_db, eve_idxs, axis=0)
    keys = np.array([_mask_keys(channel.erase_mask(eve_snr, tau)) for tau in taus])
    keys &= bob_keys[:, None]
    # Stably sorted, each run of equal keys starts at the first Eve, in
    # grid order, that reads its mask; each run is one row.
    order = np.argsort(keys, axis=1, kind="stable")
    keys = np.take(keys, order + np.arange(0, keys.size, keys.shape[1])[:, None])
    run_start = np.ones(keys.shape, dtype=bool)
    np.not_equal(keys[:, 1:], keys[:, :-1], out=run_start[:, 1:])
    row_tau, row_at = np.nonzero(run_start)
    row_keys, first = keys[run_start], order[row_tau, row_at]
    starts = np.flatnonzero(row_at == 0)
    active = np.bitwise_count(bob_keys).astype(np.intp)
    readable, row_active = np.bitwise_count(row_keys), active[row_tau]
    # A row scores leakage * E + (E - 1 - its first Eve), E Eves in all, so
    # the highest score among a threshold's rows holds its most leakage and
    # the first Eve that reaches it.
    eve_count = eve_idxs.size
    tiebreak = eve_count - 1 - first
    by_n: dict[int, list[int]] = {}
    for i, w in enumerate(code_list):
        by_n.setdefault(w.n, []).append(i)
    leaked = np.empty((len(code_list), len(taus)), dtype=np.intp)
    blamed = np.empty_like(leaked)
    for n, members in by_n.items():
        if interleave:
            revealed = _interleaved_bits(row_keys, starts, bob_read, n)
        else:
            revealed = _worst_case_bits(readable, row_active, n)
        # Column mu of a table is GHWProfile.leakage_at(mu), the weights <= mu;
        # it never falls as mu grows, so a row's most revealed bits give its
        # most leakage.
        mus = np.arange(n + 1)
        weights = [np.array(code_list[i].dual_ghw().weights) for i in members]
        tables = np.array([np.searchsorted(ws, mus, side="right") for ws in weights])
        score = np.maximum.reduceat(tables[:, revealed] * eve_count + tiebreak, starts, axis=1)
        leaked[members], blamed[members] = np.divmod(score, eve_count)
    worst_eve = eve_idxs[eve_count - 1 - blamed].tolist()
    # Positional arguments in SweepPoint's field order: 98 points build in
    # three quarters of the time keywords take.
    tau_db, active = [float(tau) for tau in taus], active.tolist()
    return [
        SweepPoint(w.label, w.n, w.k, w.k / w.n, tau, a, w.k * a / w.n, 100.0 * (w.k - leak) / w.k, eve, bob_idx)
        for w, leaks, eves in zip(code_list, leaked.tolist(), worst_eve)
        for tau, a, leak, eve in zip(tau_db, active, leaks, eves)
    ]


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
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
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
        "frontier_min_equivocation_pct": point.min_equivocation_pct,
    }


def default_code_family(max_m: int = 5) -> list[WiretapCode]:
    """Reed-Muller wiretap candidates in both coset orientations.

    For each RM(u, m) with 0 < u < m <= max_m the code is tried both as
    the base code C and as C-perp, since either role is a legitimate
    reading of an RM-labelled coset code.  The dual of RM(u, m) is
    RM(m - u - 1, m), so the Cperp member is built on that code, and a
    code already in the family as an earlier dual, or as its own, is
    skipped.  Members are chosen and built from their parameters alone:
    no dual is derived here, nor by ``dual_ghw``, and each member's
    encoder follows on first read.  ``max_m`` below 2 or above
    ``codes.RM_MAX_DEGREE`` is refused before anything is built.
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
            perp = codes.rm_dual_params((u, m))
            family.append(wiretap.build(codes.reed_muller(u, m), label=f"RM({u},{m})|C"))
            if perp != (u, m):
                family.append(wiretap.build(codes.reed_muller(*perp), label=f"RM({u},{m})|Cperp"))
            seen.update({(u, m), perp})
    return family


# The frontier CSV's columns, in order: SweepPoint fields, the label
# first.  best.json holds all but worst_eve_location.
FRONTIER_COLUMNS = (
    "code_label", "n", "k", "rate", "tau_db", "active_carriers",
    "throughput", "min_equivocation_pct", "worst_eve_location",
)


# One frontier row: floats to 6 significant digits, the other fields as
# str() writes them, the label already quoted.
_FRONTIER_ROW = ",".join(
    "%.6g" if SweepPoint.__annotations__[c] == "float" else "%s" for c in FRONTIER_COLUMNS
) + "\n"


def _csv_field(text: str) -> str:
    """``text`` as a CSV writer with minimal quoting writes it in a row of
    several fields: quoted only when it holds a comma, quote or newline."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def frontier_csv(points: list[SweepPoint]) -> str:
    """Sweep output schema used by the CLI and the golden-file tests:
    ``FRONTIER_COLUMNS``, floats to 6 significant digits.

    Code labels contain commas (e.g. "RM(1,2)|C"), so each distinct label
    is quoted once by a real CSV writer with minimal quoting; every row is
    then one ``%`` template.
    """
    labels = {label: _csv_field(label) for label in {p.code_label for p in points}}
    rest = operator.attrgetter(*FRONTIER_COLUMNS[1:])
    head = ",".join(FRONTIER_COLUMNS) + "\n"
    return head + "".join(_FRONTIER_ROW % ((labels[p.code_label],) + rest(p)) for p in points)


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
