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
import logging
from dataclasses import dataclass

import numpy as np

from . import bitlinalg, channel, codes, wiretap
from .channel import ChannelGrid, RegionMap
from .wiretap import WiretapCode

log = logging.getLogger(__name__)


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
    reliable: bool = True


def bob_reference_index(grid: ChannelGrid, regions: RegionMap) -> int:
    """Capacity-argmax location in Bob's region (ties: lowest index)."""
    idxs = grid.region_indices(regions.bob_region)
    if not idxs:
        raise ValueError(f"no grid locations in Bob region {regions.bob_region!r}")
    caps = [channel.capacity_sum(grid.snr_db[i]) for i in idxs]
    return idxs[int(np.argmax(caps))]


def evaluate(
    w: WiretapCode,
    grid: ChannelGrid,
    regions: RegionMap,
    tau: float,
    interleave: bool = False,
) -> SweepPoint:
    """Score one code at one threshold.

    Only subcarriers reliable at Bob's reference location are active.
    For each Eve location, e counts her readable active carriers; the
    default worst-case rule charges a whole block with mu* = min(n, e)
    revealed bits, assuming the least favorable alignment of codeword
    bits onto her carriers.  ``interleave`` instead scores a concrete
    round-robin bit-to-carrier map per block.
    """
    regions.validate_against(grid)
    eve_idxs = regions.eve_location_indices(grid)
    if not eve_idxs:
        raise ValueError("no candidate Eve locations (empty or fully excluded Eve regions)")
    bob_idx = bob_reference_index(grid, regions)
    bob_mask = channel.erase_mask(grid.snr_db[bob_idx], tau)
    active = np.nonzero(bob_mask)[0]
    a = int(active.size)
    reliable = a > 0
    throughput = w.k * a / w.n

    min_pct = 100.0
    worst_eve = eve_idxs[0]
    for i in eve_idxs:
        eve_read = channel.erase_mask(grid.snr_db[i], tau)[active]
        if interleave:
            pct = _interleaved_equivocation_pct(w, eve_read)
        else:
            mu_star = min(w.n, int(eve_read.sum()))
            pct = 100.0 * (w.k - wiretap.worst_case_leakage(w, mu_star)) / w.k
        if pct < min_pct:
            min_pct = pct
            worst_eve = i
    return SweepPoint(
        code_label=w.label,
        n=w.n,
        k=w.k,
        rate=w.k / w.n,
        tau_db=tau,
        active_carriers=a,
        throughput=throughput if reliable else 0.0,
        min_equivocation_pct=min_pct,
        worst_eve_location=worst_eve,
        reliable=reliable,
    )


def _interleaved_equivocation_pct(w: WiretapCode, eve_read: np.ndarray) -> float:
    """Round-robin interleaver: active carrier j feeds block j mod B."""
    a = eve_read.size
    if a == 0:
        return 100.0
    nblocks = -(-a // w.n)
    worst = 0
    for b in range(nblocks):
        mu = min(w.n, int(eve_read[b::nblocks].sum()))
        worst = max(worst, wiretap.worst_case_leakage(w, mu))
    return 100.0 * (w.k - worst) / w.k


def sweep(
    code_list: list[WiretapCode],
    grid: ChannelGrid,
    regions: RegionMap,
    taus: list[float],
    interleave: bool = False,
) -> list[SweepPoint]:
    """Cartesian-product evaluation, code-major then threshold-minor.

    A failing point is logged and skipped rather than aborting the rest.
    """
    if not code_list or not taus:
        raise ValueError("need at least one code and one threshold")
    points: list[SweepPoint] = []
    for w in code_list:
        for tau in taus:
            try:
                points.append(evaluate(w, grid, regions, tau, interleave=interleave))
            except ValueError as exc:
                log.warning("skipping %s at tau=%s: %s", w.label, tau, exc)
    return points


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


def simulate_mc(
    w: WiretapCode,
    grid: ChannelGrid,
    regions: RegionMap,
    tau: float,
    trials: int,
    seed: int,
    oracle_cap: int = wiretap.DEFAULT_ORACLE_CAP,
) -> dict:
    """Monte Carlo end-to-end check at the worst Eve location.

    Each trial encodes a uniform (m, m') draw, hands the block to Bob
    over the first n active carriers (error-free, so decoding must be
    exact) and to Eve through her threshold erasures; trial leakage is
    k minus the entropy of the brute-force posterior.
    """
    if w.n > oracle_cap:
        raise ValueError(f"blocklength {w.n} exceeds oracle cap {oracle_cap}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    point = evaluate(w, grid, regions, tau)
    bob_idx = bob_reference_index(grid, regions)
    active = np.nonzero(channel.erase_mask(grid.snr_db[bob_idx], tau))[0]
    if active.size < w.n:
        raise ValueError(
            f"only {active.size} active carriers at tau={tau}; need {w.n} for one block"
        )
    block_carriers = active[: w.n]
    eve_read = channel.erase_mask(grid.snr_db[point.worst_eve_location], tau)[block_carriers]

    # Enumerate the codebook once; the per-trial posterior is then a
    # vectorized match on Eve's revealed positions, equivalent to
    # wiretap.posterior_oracle but without re-enumerating every trial.
    words, owner = wiretap.coset_codebook(w)
    rev = np.nonzero(eve_read)[0]

    bob_errors = 0
    leaks = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        m = rng.integers(0, 2, size=w.k, dtype=np.uint8)
        mprime = rng.integers(0, 2, size=w.n - w.k, dtype=np.uint8)
        x = wiretap.encode(w, m, mprime)
        if not np.array_equal(wiretap.decode(w, x), m):
            bob_errors += 1
        if rev.size:
            match = np.all(words[:, rev] == x[rev][None, :], axis=1)
            hits = np.bincount(owner[match], minlength=2**w.k)
        else:
            hits = np.full(2**w.k, 2 ** (w.n - w.k))
        probs = hits[hits > 0] / hits.sum()
        leaks[t] = w.k + float((probs * np.log2(probs)).sum())
    return {
        "bob_error_rate": bob_errors / trials,
        "eve_leakage_bits_mean": round(float(leaks.mean()), 9),
        "eve_leakage_bits_max": round(float(leaks.max()), 9),
        "trials": trials,
        "eve_location": int(point.worst_eve_location),
        "worst_case_bound": wiretap.worst_case_leakage(w, min(w.n, int(eve_read.sum()))),
    }


def default_code_family(max_m: int = 5) -> list[WiretapCode]:
    """Reed-Muller wiretap candidates in both coset orientations.

    For each RM(u, m) with 0 < u <= m <= max_m the code is tried both as
    the base code C and (via its dual) as C-perp, since either role is a
    legitimate reading of an RM-labelled coset code.  Degenerate bases
    and duplicates (RM duals are RM codes) are dropped.
    """
    family: list[WiretapCode] = []
    seen: set[tuple[int, bytes]] = set()
    for m in range(1, max_m + 1):
        for u in range(1, m + 1):
            rm = codes.reed_muller(u, m)
            for suffix, base in (("C", rm), ("Cperp", codes.dual(rm))):
                if not 0 < base.dim < base.n:
                    continue
                canon, _ = bitlinalg.rref(base.generator)
                key = (base.n, canon.a.tobytes())
                if key in seen:
                    continue
                seen.add(key)
                try:
                    family.append(wiretap.build(base, label=f"RM({u},{m})|{suffix}"))
                except ValueError as exc:
                    log.info("skipping RM(%d,%d)|%s: %s", u, m, suffix, exc)
    return family


def frontier_csv(points: list[SweepPoint]) -> str:
    """Sweep output schema used by the CLI and the golden-file tests.

    Code labels contain commas (e.g. "RM(1,2)|C"), so rows go through a
    real CSV writer with minimal quoting.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "code_label", "n", "k", "rate", "tau_db", "active_carriers",
            "throughput", "min_equivocation_pct", "worst_eve_location",
        ]
    )
    for p in points:
        writer.writerow(
            [
                p.code_label, p.n, p.k, f"{p.rate:.6g}", f"{p.tau_db:.6g}",
                p.active_carriers, f"{p.throughput:.6g}",
                f"{p.min_equivocation_pct:.6g}", p.worst_eve_location,
            ]
        )
    return buf.getvalue()


def frontier_svg(points: list[SweepPoint], width: float = 480.0, height: float = 360.0) -> str:
    """Throughput vs equivocation scatter, threshold mapped to color."""
    if not points:
        raise ValueError("empty point list")
    taus = sorted({p.tau_db for p in points})
    tmax = max(p.throughput for p in points) or 1.0
    pad = 30.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
    ]
    span = max(len(taus) - 1, 1)
    for p in points:
        t = taus.index(p.tau_db) / span
        cx = pad + (width - 2 * pad) * p.min_equivocation_pct / 100.0
        cy = height - pad - (height - 2 * pad) * p.throughput / tmax
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="{_tau_color(t)}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _tau_color(t: float) -> str:
    r = round(255 * (1 - t))
    b = round(255 * t)
    return f"#{r:02x}00{b:02x}"
