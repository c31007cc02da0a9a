"""Channel-sounding data model and processing.

Covers Welch-periodogram SNR estimation for a 64-subcarrier sounding
waveform, a synthetic indoor-propagation grid generator, the threshold
erasure model, and capacity / secrecy-capacity computations.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CARRIERS = 64
FFT_LENGTH = 2 * CARRIERS
# At the cap on 2 shared vCPUs, synth_grid takes 0.11-0.12 s at 4 taps
# (0.27-0.30 s at 64) and 103 MB peak RSS, 0.07-0.11 s (0.23-0.25 s) of it
# the seeded fading; the synth command, which also writes the CSV, takes
# 1.7-2.0 s.
MAX_GRID_LOCATIONS = 100_000


@dataclass(frozen=True)
class SoundingCapture:
    """Raw complex-baseband recording of the periodic sounding signal."""

    iq: np.ndarray
    periods: int = 32

    def __post_init__(self):
        if isinstance(self.periods, bool) or not isinstance(self.periods, int) or self.periods < 1:
            raise ValueError(f"periods must be an integer >= 1, got {self.periods!r}")
        need = self.periods * FFT_LENGTH
        if self.iq.size < need:
            raise ValueError(
                f"capture has {self.iq.size} samples, need >= {need} "
                f"({self.periods} periods of {FFT_LENGTH})"
            )


@dataclass(frozen=True)
class Location:
    x: float
    y: float
    region: str


def check_region_label(label, name: str) -> None:
    """Refuse a region label that a grid CSV row cannot carry: a non-string,
    or one holding a comma or a line break, which would split the row."""
    if not isinstance(label, str) or "," in label or len(f"{label}.".splitlines()) > 1:
        raise ValueError(f"{name} must be a string with no comma or line break, got {label!r}")


@dataclass(frozen=True)
class ChannelGrid:
    """Per-location, per-subcarrier SNR measurements on a physical grid, as columns.

    Location i lies at (x[i], y[i]) in region labels[region_id[i]] and has
    the 64 SNRs snr_db[i].  ``labels`` holds each label that some location
    has, once.  The columns become float64 and intp arrays and are checked
    once, here.
    """

    x: np.ndarray  # (N,)
    y: np.ndarray  # (N,)
    region_id: np.ndarray  # (N,)
    labels: tuple[str, ...]
    snr_db: np.ndarray  # (N, 64)

    def __post_init__(self):
        n = np.size(self.x)
        for name, shape, dtype in (
            ("x", (n,), float), ("y", (n,), float), ("region_id", (n,), np.intp), ("snr_db", (n, CARRIERS), float)
        ):
            column = np.asarray(getattr(self, name), dtype=dtype)
            object.__setattr__(self, name, column)
            if column.shape != shape:
                raise ValueError(f"{name} shape {column.shape} does not match {shape}")
            if dtype is float and not np.isfinite(column).all():
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(set(self.labels)) < len(self.labels):
            raise ValueError(f"labels must be distinct, got {self.labels}")
        ids, count = self.region_id, len(self.labels)
        if (ids.size and not 0 <= ids.min() <= ids.max() < count) or not np.bincount(ids, minlength=count).all():
            raise ValueError(f"region_id must take each value in [0, {count}), one per label, and no other")

    @functools.cached_property
    def locations(self) -> tuple[Location, ...]:
        """Read-only per-location view, built on first use."""
        regions = map(self.labels.__getitem__, self.region_id.tolist())
        return tuple(map(Location, self.x.tolist(), self.y.tolist(), regions))

    def region_indices(self, labels) -> np.ndarray:
        """Ascending indices of the locations whose region is one of ``labels``."""
        wanted = np.array([label in labels for label in self.labels], dtype=bool)
        return np.flatnonzero(wanted[self.region_id])

    def region_labels(self) -> set[str]:
        return set(self.labels)


@dataclass(frozen=True)
class RegionMap:
    """Which grid regions hold Bob, candidate Eves, and excluded space."""

    bob_region: str
    eve_regions: frozenset[str]
    excluded_regions: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.bob_region in self.eve_regions:
            raise ValueError(f"bob region {self.bob_region!r} also listed as an Eve region")

    def validate_against(self, grid: ChannelGrid) -> None:
        labels = grid.region_labels()
        missing = ({self.bob_region} | self.eve_regions) - labels
        if missing:
            raise ValueError(f"regions {sorted(missing)} not present in grid (has {sorted(labels)})")

    def eve_indices(self, grid: ChannelGrid) -> np.ndarray:
        """Ascending indices of the candidate Eve locations: Eve regions, less the excluded."""
        return grid.region_indices(self.eve_regions - self.excluded_regions)

    @classmethod
    def from_dict(cls, d: dict) -> "RegionMap":
        bob, eve, excluded = d["bob_region"], d["eve_regions"], d.get("excluded_regions", [])
        check_region_label(bob, "bob_region")
        for key, labels in (("eve_regions", eve), ("excluded_regions", excluded)):
            if not isinstance(labels, list):
                got = f"the string {labels!r}" if isinstance(labels, str) else repr(labels)
                raise ValueError(f"{key} must be a list of region labels, got {got}")
            for i, label in enumerate(labels):
                check_region_label(label, f"{key}[{i}]")
        return cls(bob_region=bob, eve_regions=frozenset(eve), excluded_regions=frozenset(excluded))

    def to_dict(self) -> dict:
        return {
            "bob_region": self.bob_region,
            "eve_regions": sorted(self.eve_regions),
            "excluded_regions": sorted(self.excluded_regions),
        }


# ---------------------------------------------------------------------------
# PSD / SNR estimation


def welch_psd(cap: SoundingCapture) -> np.ndarray:
    """Averaged periodogram over non-overlapping rectangular segments.

    Segment length equals one sounding period (FFT_LENGTH samples), so
    subcarriers stay centered on even FFT bins and odd bins hold only
    noise.  Returns FFT_LENGTH nonnegative powers.
    """
    nseg = cap.iq.size // FFT_LENGTH
    segs = cap.iq[: nseg * FFT_LENGTH].reshape(nseg, FFT_LENGTH)
    spectra = np.fft.fft(segs, axis=1)
    return (np.abs(spectra) ** 2).mean(axis=0) / FFT_LENGTH


def snr_estimate(cap: SoundingCapture) -> np.ndarray:
    """Per-subcarrier SNR in dB: even-bin power over the mean odd-bin power."""
    psd = welch_psd(cap)
    noise = float(psd[1::2].mean())
    # guard against numerically-zero odd bins (e.g. a noiseless synthetic
    # capture, where only FFT round-off lands off the tone bins)
    if noise <= 1e-15 * max(float(psd[0::2].mean()), 1e-300):
        raise ValueError("zero noise estimate: all odd FFT bins empty (degenerate capture)")
    signal = psd[0::2]
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(signal / noise)


# ---------------------------------------------------------------------------
# Erasure model and capacities


def erase_mask(snrs, tau: float) -> np.ndarray:
    """True where the symbol is received: SNR >= tau (boundary included)."""
    if not math.isfinite(tau):
        raise ValueError(f"threshold tau must be finite, got {tau}")
    return np.asarray(snrs, dtype=float) >= tau


def _carrier_capacity(db: np.ndarray) -> np.ndarray:
    """Gaussian capacity 1/2 log2(1 + SNR_linear) of each subcarrier; -inf dB
    gives 10^-inf = 0 exactly, so capacity 0."""
    return 0.5 * np.log2(1.0 + 10.0 ** (db / 10.0))


def capacity_sum(snrs) -> float | np.ndarray:
    """Total Gaussian capacity over parallel subcarriers, bits/channel use, summed
    over the last axis: a float for one location's row, an array for a stack of rows."""
    total = _carrier_capacity(np.asarray(snrs, dtype=float)).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def secrecy_capacity(bob_snrs, eve_snrs) -> float | np.ndarray:
    """Sum of positive per-subcarrier capacity advantages of Bob over Eve.

    Sums over the last axis, as :func:`capacity_sum` does; Bob's row is
    broadcast against a stack of Eve rows.
    """
    b = np.asarray(bob_snrs, dtype=float)
    e = np.asarray(eve_snrs, dtype=float)
    if b.shape[-1:] != e.shape[-1:]:
        raise ValueError(f"shape mismatch: {b.shape} vs {e.shape}")
    total = np.maximum(_carrier_capacity(b) - _carrier_capacity(e), 0.0).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


# ---------------------------------------------------------------------------
# Synthetic environment


@dataclass(frozen=True)
class Wall:
    x1: float
    y1: float
    x2: float
    y2: float
    loss_db: float


@dataclass(frozen=True)
class RegionRect:
    label: str
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def contains(self, x, y):
        """Whether (x, y) lies in the half-open rectangle; elementwise on arrays."""
        return (self.x_min <= x) & (x < self.x_max) & (self.y_min <= y) & (y < self.y_max)


@dataclass(frozen=True)
class FadingModel:
    enabled: bool = True
    taps: int = 4
    delay_spread: float = 1.5
    sigma_scale: float = 1.0


@dataclass(frozen=True)
class EnvironmentConfig:
    """Floor-plan and propagation parameters for synthetic grids."""

    width: float
    height: float
    grid_spacing: float
    tx: tuple[float, float]
    ref_snr_db: float
    ref_distance: float = 1.0
    path_loss_exponent: float = 3.0
    tx_power_offset_db: float = 0.0
    walls: tuple[Wall, ...] = ()
    regions: tuple[RegionRect, ...] = ()
    fading: FadingModel = field(default_factory=FadingModel)
    region_map: RegionMap | None = None

    def __post_init__(self):
        finite = {"width_m": self.width, "height_m": self.height, "grid_spacing_m": self.grid_spacing,
                  "ref_distance_m": self.ref_distance, "tx.x": self.tx[0], "tx.y": self.tx[1],
                  "ref_snr_db": self.ref_snr_db, "tx_power_offset_db": self.tx_power_offset_db,
                  "path_loss_exponent": self.path_loss_exponent,
                  "fading sigma_scale": self.fading.sigma_scale,
                  "fading delay_spread": self.fading.delay_spread}
        for i, w in enumerate(self.walls):
            finite.update({f"walls[{i}].{f}": getattr(w, f) for f in ("x1", "y1", "x2", "y2", "loss_db")})
        for i, r in enumerate(self.regions):
            check_region_label(r.label, f"regions[{i}].label")
            finite.update({f"regions[{i}].{f}": getattr(r, f) for f in ("x_min", "x_max", "y_min", "y_max")})
        for name, value in finite.items():
            if isinstance(value, bool) or not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not (self.width >= 0 and self.height >= 0 and self.grid_spacing > 0):
            raise ValueError(
                "floor plan needs width and height >= 0 and a grid spacing > 0, "
                f"got {self.width}, {self.height}, {self.grid_spacing}"
            )
        if self.ref_distance <= 0:
            raise ValueError(f"ref_distance must be > 0, got {self.ref_distance}")
        if not isinstance(self.fading.enabled, bool):
            raise ValueError(f"fading enabled must be true or false, got {self.fading.enabled!r}")
        # Taps t and t + CARRIERS give every subcarrier the same phase.
        taps = self.fading.taps
        if isinstance(taps, bool) or not isinstance(taps, int) or not 1 <= taps <= CARRIERS:
            raise ValueError(f"fading taps must be an integer in [1, {CARRIERS}], got {taps!r}")
        if not self.fading.delay_spread > 0:
            raise ValueError(f"fading delay_spread must be > 0, got {self.fading.delay_spread}")
        nx, ny = self.lattice
        if nx * ny > MAX_GRID_LOCATIONS:
            raise ValueError(
                f"grid spacing {self.grid_spacing} gives {nx} x {ny} locations, "
                f"above the cap of {MAX_GRID_LOCATIONS}"
            )

    @property
    def lattice(self) -> tuple[int, int]:
        """Grid points along x and along y.

        A side whose quotient by the spacing overflows to inf counts inf
        points, never converted to an int, so the location cap refuses it.
        """
        spans = (self.width / self.grid_spacing, self.height / self.grid_spacing)
        return tuple(math.floor(q) + 1 if q < math.inf else q for q in spans)

    @classmethod
    def from_dict(cls, d: dict) -> "EnvironmentConfig":
        if not isinstance(d, dict):
            raise ValueError(f"environment config must be an object, got {d!r}")
        for key in ("tx", "fading", "region_map"):
            if key in d and not isinstance(d[key], dict):
                raise ValueError(f"{key} must be an object, got {d[key]!r}")
        for key in ("walls", "regions"):
            items = d.get(key, [])
            if not isinstance(items, list):
                raise ValueError(f"{key} must be a list of objects, got {items!r}")
            for i, item in enumerate(items):
                if not isinstance(item, dict):
                    raise ValueError(f"{key}[{i}] must be an object, got {item!r}")
        return cls(
            width=d["width_m"],
            height=d["height_m"],
            grid_spacing=d.get("grid_spacing_m", 0.102),
            tx=(d["tx"]["x"], d["tx"]["y"]),
            ref_snr_db=d["ref_snr_db"],
            ref_distance=d.get("ref_distance_m", 1.0),
            path_loss_exponent=d.get("path_loss_exponent", 3.0),
            tx_power_offset_db=d.get("tx_power_offset_db", 0.0),
            walls=tuple(Wall(w["x1"], w["y1"], w["x2"], w["y2"], w["loss_db"]) for w in d.get("walls", [])),
            regions=tuple(
                RegionRect(r["label"], r["x_min"], r["x_max"], r["y_min"], r["y_max"])
                for r in d.get("regions", [])
            ),
            fading=FadingModel(**d.get("fading", {})),
            region_map=RegionMap.from_dict(d["region_map"]) if "region_map" in d else None,
        )

    @classmethod
    def from_json_file(cls, path) -> "EnvironmentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# Locations whose fading is drawn and transformed together.  Per chunk
# the FFT's complex (locations, 64) output takes 128 KB; one for a whole
# grid would take 101 MB at the cap.  On the bundled plan, chunks of 256
# and 512 locations timed within 10 % of 128 at 4 and at 64 taps.
FADING_CHUNK = 128
# Locations that draw their fading from one Generator: block b draws from
# default_rng([seed, b]).  Fixed for cost (one seeding per 4,096
# locations), and a multiple of FADING_CHUNK; changing it changes every
# synthesized grid.
FADING_BLOCK = 4096


def _orient(a, b, c):
    """Turn direction a -> b -> c as -1, 0 or 1, zero within 1e-12 (arrays broadcast)."""
    v = np.subtract((b[0] - a[0]) * (c[1] - a[1]), (b[1] - a[1]) * (c[0] - a[0]))
    return (v > 1e-12).astype(np.int8) - (v < -1e-12).astype(np.int8)


def _on_segment(a, b, c):
    """Whether c lies in the bounding box of segment ab, within 1e-12."""
    return (
        (np.minimum(a[0], b[0]) - 1e-12 <= c[0]) & (c[0] <= np.maximum(a[0], b[0]) + 1e-12)
        & (np.minimum(a[1], b[1]) - 1e-12 <= c[1]) & (c[1] <= np.maximum(a[1], b[1]) + 1e-12)
    )


def _wall_loss(cfg: EnvironmentConfig, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Summed loss of the walls the ray from the transmitter to each location meets.

    A ray and a wall meet when they cross properly or when an endpoint of
    one lies on the other (orientation signs).  The tests run for every
    wall at once, as (walls, locations) arrays; walls add in config order.
    """
    loss = np.zeros(x.shape)
    ends = np.array([(w.x1, w.y1, w.x2, w.y2) for w in cfg.walls], dtype=float).reshape(-1, 4, 1)
    tx, p, q1, q2 = cfg.tx, (x, y), (ends[:, 0], ends[:, 1]), (ends[:, 2], ends[:, 3])
    o1, o2 = _orient(tx, p, q1), _orient(tx, p, q2)
    o3, o4 = _orient(q1, q2, tx), _orient(q1, q2, p)
    meets = (
        ((o1 != o2) & (o3 != o4))
        | ((o1 == 0) & _on_segment(tx, p, q1))
        | ((o2 == 0) & _on_segment(tx, p, q2))
        | ((o3 == 0) & _on_segment(q1, q2, tx))
        | ((o4 == 0) & _on_segment(q1, q2, p))
    )
    for w, hit in zip(cfg.walls, meets):
        loss[hit] += w.loss_db
    return loss


def _fading_into(cfg: FadingModel, seed: int, out: np.ndarray) -> None:
    """Write frequency-selective fading in dB into each row of a zeroed ``out``.

    Row i draws a short complex tap profile with exponentially decaying
    power and takes |H(f)|^2 across the 64 subcarriers.  Block b of
    ``FADING_BLOCK`` rows draws from ``default_rng([seed, b])``: row i is
    row i mod ``FADING_BLOCK`` of that Generator's
    ``standard_normal((FADING_BLOCK, 2 taps))``, the real parts of its taps
    first.  So each row depends on the seed, its index and the tap count
    alone, not on the grid size.  Rows are drawn and transformed
    ``FADING_CHUNK`` at a time; successive draws from one Generator continue
    its stream.  The transform H(f) = sum_j tap_j e^(-2 pi i f j / 64) is
    the 64-point DFT of the tap profile, computed by FFT; taps never exceed
    64, so ``n=64`` pads and never truncates.
    """
    if not cfg.enabled:
        return
    powers = np.exp(-np.arange(cfg.taps) / cfg.delay_spread)
    powers /= powers.sum()
    amp = np.sqrt(powers / 2)
    for start in range(0, out.shape[0], FADING_CHUNK):
        if start % FADING_BLOCK == 0:
            rng = np.random.default_rng([seed, start // FADING_BLOCK])
        chunk = out[start:start + FADING_CHUNK]
        z = rng.standard_normal((chunk.shape[0], 2 * cfg.taps))
        taps = (z[:, : cfg.taps] + 1j * z[:, cfg.taps:]) * amp
        np.abs(np.fft.fft(taps, CARRIERS, axis=1), out=chunk)
        np.maximum(chunk, 1e-6, out=chunk)
        np.log10(chunk, out=chunk)
        chunk *= cfg.sigma_scale * 20.0


def synth_grid(cfg: EnvironmentConfig, seed: int) -> ChannelGrid:
    """Deterministic synthetic SNR grid from the environment config.

    Per-subcarrier SNR = reference SNR + power offset - log-distance
    path loss - accumulated wall losses on the direct ray + a seeded
    frequency-selective fading draw.  Locations run x-fastest; block b of
    ``FADING_BLOCK`` locations draws its fading from one Generator seeded
    with the pair (seed, b), so location i's fading depends on the seed,
    i and the tap count alone, not on the grid size or evaluation order.
    The grid is built as columns, by array passes over all locations; no
    per-location object is made.  Path loss (numpy's ``hypot`` and
    ``log10``), walls and fading are bit-exact with the per-location loop
    kept in the tests as the oracle, which calls the same ufuncs.  Each
    location's fading is the 64-point DFT of its tap profile, computed by
    FFT over a chunk of locations at a time (see :func:`_fading_into`).
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    nx, ny = cfg.lattice
    iy, ix = np.divmod(np.arange(nx * ny), nx)
    x = ix * cfg.grid_spacing
    y = iy * cfg.grid_spacing
    # The first region that contains a location labels it, else "open".  Ids are first
    # indices in names, so regions that share a label are one; unused labels are dropped.
    names = [r.label for r in cfg.regions] + ["open"]
    region_id = np.full(x.shape, names.index("open"))
    for r in reversed(cfg.regions):
        region_id[r.contains(x, y)] = names.index(r.label)
    used = np.bincount(region_id, minlength=len(names)) > 0
    labels = tuple(name for name, kept in zip(names, used.tolist()) if kept)
    dist = np.hypot(x - cfg.tx[0], y - cfg.tx[1])
    path_loss = 10.0 * cfg.path_loss_exponent * np.log10(np.maximum(dist, cfg.ref_distance) / cfg.ref_distance)
    base = cfg.ref_snr_db + cfg.tx_power_offset_db - path_loss - _wall_loss(cfg, x, y)
    snr_db = np.zeros((x.size, CARRIERS))
    _fading_into(cfg.fading, seed, snr_db)
    snr_db += base[:, None]
    return ChannelGrid(x, y, (np.cumsum(used) - 1)[region_id], labels, snr_db)


# ---------------------------------------------------------------------------
# File formats


def write_grid_csv(grid: ChannelGrid, fh) -> None:
    """Write one row per location to a text file as it is formatted:
    x, y, region, then the 64 SNR values in dB, numbers to 6 significant digits."""
    fh.write("x,y,region," + ",".join(f"snr_{i:02d}" for i in range(CARRIERS)) + "\n")
    row = "%.6g,%.6g,%s" + ",%.6g" * CARRIERS + "\n"
    regions = map(grid.labels.__getitem__, grid.region_id.tolist())
    for x, y, region, snrs in zip(grid.x.tolist(), grid.y.tolist(), regions, grid.snr_db):
        fh.write(row % (x, y, region, *snrs.tolist()))


def grid_from_csv(text: str) -> ChannelGrid:
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("empty grid file; expected a header x,y,region,snr_00..snr_63")
    header = lines[0].split(",")
    if header[:3] != ["x", "y", "region"] or len(header) != 3 + CARRIERS:
        raise ValueError(f"bad grid header: expected x,y,region,snr_00..snr_63, got {header[:4]}...")
    if len(lines) == 1:
        raise ValueError("grid file has no locations; expected rows after the header")
    rows, region_id, ids = [], [], {}
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3 + CARRIERS:
            raise ValueError(f"line {ln}: expected {3 + CARRIERS} columns, got {len(parts)}")
        try:
            rows.append([float(v) for v in parts[:2] + parts[3:]])
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from None
        region_id.append(ids.setdefault(parts[2], len(ids)))
    values = np.array(rows)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise ValueError(f"line {bad[0] + 2}: x, y and the SNRs must be finite")
    return ChannelGrid(values[:, 0], values[:, 1], region_id, tuple(ids), values[:, 2:])


def load_capture(iq_path, sidecar_path) -> SoundingCapture:
    """Raw capture: interleaved little-endian float32 I,Q + JSON sidecar.

    The estimator works in FFT bins, so the sidecar's ``sample_rate_hz``
    is only checked to be positive, not kept.
    """
    with open(sidecar_path) as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError("sidecar must be a JSON object")
    if meta.get("carriers", CARRIERS) != CARRIERS:
        raise ValueError(f"sidecar lists {meta['carriers']} carriers; captures have {CARRIERS}")
    raw = np.fromfile(iq_path, dtype="<f4")
    if raw.size % 2:
        raise ValueError(f"odd sample count {raw.size}, expected interleaved I,Q pairs")
    rate = meta.get("sample_rate_hz", 20e6)
    if isinstance(rate, bool) or not (isinstance(rate, numbers.Real) and math.isfinite(rate) and rate > 0):
        raise ValueError(f"sample_rate_hz must be positive and finite, got {rate!r}")
    iq = raw[0::2].astype(float) + 1j * raw[1::2].astype(float)
    return SoundingCapture(iq=iq, periods=meta.get("periods", 32))


def default_environment() -> EnvironmentConfig:
    """The bundled synthetic environment (offices flanking a hallway)."""
    path = Path(__file__).parent / "data" / "default_env.json"
    return EnvironmentConfig.from_json_file(path)


DEFAULT_GRID_SEED = 2024


def default_grid() -> ChannelGrid:
    """The bundled synthetic grid: default environment at the fixed seed."""
    return synth_grid(default_environment(), seed=DEFAULT_GRID_SEED)
