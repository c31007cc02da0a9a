"""Seeded inputs, operations and output checks for each benchmark workload.

An operation ("op") makes the same public calls, in the same order, as
the CLI command it mirrors:

- ``sweep`` / ``interleave``: ``channel.synth_grid`` ->
  ``sweep.default_code_family`` -> ``WiretapCode.dual_ghw`` for each code
  -> ``sweep.sweep`` -> ``sweep.select_best`` -> ``sweep.frontier_csv``;
- ``eqmatrix``: ``wiretap.equivocation_matrix``;
- ``ghw``: ``codes.dual`` -> ``codes.ghw_exact``;
- ``simulate``: ``sweep.simulate_mc`` with the CLI's 1000 trials.

Every run reports every end-to-end metric, so every workload runs all
five kinds.  ``frontier`` runs ``sweep`` and ``interleave`` at full size
on the bundled plan and one seeded perturbation of it; ``analysis`` runs
``eqmatrix`` and ``ghw`` on a seeded corpus of codes with n = 16 to 20
and ``simulate`` on the members of ``default_code_family(4)`` at seeded
thresholds.  The other kinds run at a small fixed size ("side" ops) and
take a minor share of the run.

A run draws a fixed list of ops from the workload seed, one op per
input, and repeats the list until its time is up, so every input is
timed several times.  The run keeps each input's fastest time: the host
shares its cores, and its speed changes in phases of seconds, in which
the same op on the same input takes up to 1.8 times as long.  Strata
(low/high threshold, the same rates and blocklengths) and narrow
perturbation ranges give every seed the same mix of cheap and costly
inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from wiretapkit import channel, codes, sweep, wiretap

WORKLOADS = ("frontier", "analysis")
KINDS = ("sweep", "interleave", "eqmatrix", "ghw", "simulate")

# Defaults of the CLI commands the ops mirror.
TAUS = [25.0, 26.0, 27.0, 28.0, 29.0, 30.0, 31.0]
FAMILY_MAX_M = 5
MC_TRIALS = 1000

GOLDEN = Path("tests") / "data" / "golden_frontier.csv"

# Side sweeps: the bundled floor plan re-surveyed on a 0.3 m lattice
# (294 locations) and scored with ``--max-m 3`` (codes up to n = 8).
SURVEY_SPACING_M = 0.3
SURVEY_MAX_M = 3

# Monte Carlo thresholds are drawn from this lattice.  Below LOW_TAU_DB
# the worst-case Eve on the bundled grid reads 4 to 8 bits of a 16-bit
# block, so the posterior match has work to do; above it she reads none.
# Within a band the cost of an op moves by about 10 %.  25 dB, where she
# reads 2 bits, is left out: ops there cost up to 1.5 times as much.
TAU_LATTICE = [float(t) for t in (*range(19, 25), *range(26, 32))]
LOW_TAU_DB = 25.0

# The members of ``default_code_family(4)`` as CLI code specs
# (``--code rm:U,M --orientation O``).
POOL_SPECS = [
    (1, 2, "C"), (1, 2, "Cperp"), (1, 3, "C"), (2, 3, "C"), (2, 3, "Cperp"),
    (1, 4, "C"), (1, 4, "Cperp"), (3, 4, "C"), (3, 4, "Cperp"),
]

# Each side kind runs on one input of steady cost: one code and, for
# simulate, one threshold below LOW_TAU_DB.  The pool's n = 16 codes
# differ by up to 30 % in matrix and GHW time, and simulate time varies
# with the threshold; one input keeps a side kind's figures apart from
# the seed.
SIDE_EXACT_SPEC = (1, 4, "C")
SIDE_SIM_SPEC = (1, 3, "C")
SIDE_SIM_TAU_DB = 24.0
# Side inputs do not depend on the seed: the fading seed of the side
# sweeps and the draws of the side simulate.
SIDE_FADING_SEED = channel.DEFAULT_GRID_SEED
SIDE_MC_SEED = 0

# Times each side op appears in the list, spaced between the main ops.
SIDE_REPEATS = 3

# analysis: base-code dimensions for low, middle and high rate at each n.
CORPUS_DIMS = {16: (4, 8, 12), 18: (5, 9, 13), 20: (5, 10, 15)}


class CheckFailed(Exception):
    """An op completed but its output is wrong."""


@dataclass(eq=False)  # hashed by identity: a run keys its samples by op
class Op:
    kind: str
    run: Callable[[Any], Any]  # tracer -> result; the timed part
    check: Callable[[Any], None]  # raises CheckFailed
    info: dict = field(default_factory=dict)
    counts: Callable[[Any], dict] | None = None  # traced runs only
    extras: Callable[[Any], None] | None = None  # traced runs only, untimed


def resolve_code(tracer, u: int, m: int, orientation: str) -> wiretap.WiretapCode:
    """What ``--code rm:U,M --orientation O`` resolves to in the CLI."""
    base = codes.reed_muller(u, m)
    if orientation == "Cperp":
        base = codes.dual(base)
    with tracer.span("wiretap.build"):
        return wiretap.build(base, label=f"RM({u},{m})|{orientation}")


def rm_candidates(max_m: int) -> int:
    """Distinct non-degenerate Reed-Muller bases ``default_code_family`` tries.

    RM duals are RM codes, so a base is identified by its RM parameters.
    """
    seen = set()
    for m in range(1, max_m + 1):
        for u in range(1, m + 1):
            rm = codes.reed_muller(u, m)
            seen.update(c.rm_params for c in (rm, codes.dual(rm)) if 0 < c.dim < c.n)
    return len(seen)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# sweep / interleave


@dataclass
class SweepResult:
    grid: channel.ChannelGrid
    family: list
    profiles: list
    points: list
    best: Any
    csv: str


def _run_sweep(tr, env, fading_seed: int, max_m: int, interleave: bool) -> SweepResult:
    with tr.span("channel.synth_grid"):
        grid = channel.synth_grid(env, seed=fading_seed)
    with tr.span("sweep.default_code_family"):
        family = sweep.default_code_family(max_m=max_m)
    with tr.span("wiretap.dual_ghw"):
        profiles = [w.dual_ghw() for w in family]
    with tr.span("sweep.sweep_interleave" if interleave else "sweep.sweep"):
        points = sweep.sweep(family, grid, env.region_map, TAUS, interleave=interleave)
    with tr.span("sweep.select_best"):
        try:
            best = sweep.select_best(points)
        except sweep.NoSecureOperatingPoint:
            best = None
    with tr.span("sweep.frontier_csv"):
        text = sweep.frontier_csv(points)
    return SweepResult(grid, family, profiles, points, best, text)


def _check_sweep(res: SweepResult, env, golden: str | None, worst: SweepResult | None) -> None:
    if golden is not None and res.csv != golden:
        raise CheckFailed(f"frontier differs from {GOLDEN}")
    if len(res.points) != len(res.family) * len(TAUS):
        raise CheckFailed(f"{len(res.points)} points for {len(res.family)} codes x {len(TAUS)} thresholds")
    bob = res.grid.snr_db[sweep.bob_reference_index(res.grid, env.region_map)]
    for p in res.points:
        a = int((bob >= p.tau_db).sum())
        if p.active_carriers != a or p.throughput != (p.k * a / p.n if a else 0.0):
            raise CheckFailed(f"{p.code_label} at {p.tau_db:g} dB: throughput is not k*a/n with a={a}")
    secure = [p for p in res.points if p.reliable and p.min_equivocation_pct == 100.0]
    if not secure:
        if res.best is not None:
            raise CheckFailed("select_best returned a point although none is fully secure")
    elif res.best is None or res.best not in secure or res.best.throughput != max(p.throughput for p in secure):
        raise CheckFailed("select_best is not the highest-throughput fully secure point")
    if worst is not None:
        floor = {(p.code_label, p.tau_db): p.min_equivocation_pct for p in worst.points}
        for p in res.points:
            if p.min_equivocation_pct < floor[(p.code_label, p.tau_db)]:
                raise CheckFailed(f"{p.code_label} at {p.tau_db:g} dB: interleaved below worst case")


def _eve_cells(grid: channel.ChannelGrid, regions: channel.RegionMap) -> int:
    wanted = regions.eve_regions - regions.excluded_regions
    return sum(loc.region in wanted for loc in grid.locations)


def sweep_pair(env, fading_seed: int, max_m: int, candidates: int, digests: dict, key, golden=None) -> list[Op]:
    """The ``sweep`` op and the ``sweep --interleave`` op on one environment.

    Each is a complete command: the interleaved op rebuilds the grid and
    the family.  Its check compares against the worst-case op's points.
    """
    done: dict[str, SweepResult] = {}
    info = {"env": key, "max_m": max_m}

    def make(kind: str) -> Op:
        interleave = kind == "interleave"

        def check(res: SweepResult) -> None:
            d = digest(res.csv)
            if digests.setdefault(str(key), {}).setdefault(kind, d) != d:
                raise CheckFailed(f"{key} {kind}: frontier differs from the first run of the same input")
            done[kind] = res
            _check_sweep(res, env, golden if not interleave else None, done.get("sweep") if interleave else None)

        def counts(res: SweepResult) -> dict:
            eve = _eve_cells(res.grid, env.region_map)
            out = {
                "channel.synth_grid.locations": len(res.grid.locations),
                "sweep.default_code_family.codes": len(res.family),
                "sweep.default_code_family.candidates": candidates,
                "codes.ghw.exact_profiles": sum(p.source == "exact" for p in res.profiles),
                "codes.ghw.monomial_profiles": sum(p.source == "monomial" for p in res.profiles),
            }
            if interleave:
                blocks = sum(-(-p.active_carriers // p.n) for p in res.points)
                out["sweep.sweep_interleave.block_evals"] = blocks * eve
            else:
                out["sweep.sweep.eve_evals"] = len(res.points) * eve
            return out

        return Op(kind, lambda tr: _run_sweep(tr, env, fading_seed, max_m, interleave), check, info, counts)

    return [make("sweep"), make("interleave")]


# ---------------------------------------------------------------------------
# eqmatrix / ghw


def exact_pair(w: wiretap.WiretapCode) -> list[Op]:
    """``eqmatrix`` then ``ghw`` on one code; the second check ties them."""
    slot: dict[str, wiretap.EquivocationMatrix] = {}
    info = {"n": w.n, "code": w.label}

    def run_eq(tr):
        with tr.span("wiretap.equivocation_matrix"):
            return wiretap.equivocation_matrix(w)

    def check_eq(mat) -> None:
        slot["mat"] = mat
        if not mat.column_sums_ok():
            raise CheckFailed(f"{w.label}: equivocation-matrix columns do not sum to C(n, mu)")

    def run_ghw(tr):
        with tr.span("codes.dual"):
            d = codes.dual(w.base_code)
        with tr.span("codes.ghw_exact"):
            return codes.ghw_exact(d)

    def check_ghw(profile) -> None:
        mat = slot.pop("mat", None)
        if mat is None:  # the matrix op failed and was counted already
            return
        for mu in range(w.n + 1):
            if mat.worst_case_leakage(mu) != profile.leakage_at(mu):
                raise CheckFailed(f"{w.label}: matrix and GHW disagree at mu={mu}")

    return [
        Op("eqmatrix", run_eq, check_eq, info, lambda _: {"wiretap.equivocation_matrix.subsets": 2**w.n}),
        Op("ghw", run_ghw, check_ghw, info, lambda _: {"codes.ghw_exact.subsets": 2**w.n}),
    ]


# ---------------------------------------------------------------------------
# simulate


def simulate_op(w: wiretap.WiretapCode, grid, regions, tau: float, mc_seed: int) -> Op:
    def run(tr):
        with tr.span("sweep.simulate_mc"):
            return sweep.simulate_mc(w, grid, regions, tau, trials=MC_TRIALS, seed=mc_seed)

    def check(rep: dict) -> None:
        if rep["bob_error_rate"] != 0:
            raise CheckFailed(f"{w.label} at {tau:g} dB: Bob decoded wrongly")
        if rep["trials"] != MC_TRIALS:
            raise CheckFailed(f"{w.label}: {rep['trials']} trials run, {MC_TRIALS} asked")
        # One erasure pattern per call, so every trial leaks the same.
        if rep["eve_leakage_bits_mean"] != rep["eve_leakage_bits_max"]:
            raise CheckFailed(f"{w.label} at {tau:g} dB: leakage varies between trials")
        if rep["eve_leakage_bits_max"] > rep["worst_case_bound"]:
            raise CheckFailed(f"{w.label} at {tau:g} dB: leakage above the worst-case bound")

    def extras(tr) -> None:
        """The steps inside simulate_mc, timed apart over the same inputs and draws."""
        with tr.span("sweep.evaluate"):
            sweep.evaluate(w, grid, regions, tau)
        with tr.span("codes.enumerate_codewords"):
            msgs = codes.LinearCode(n=w.n, dim=w.k, generator=w.gprime, label="gprime")
            codes.enumerate_codewords(msgs, cap=w.k)
            codes.enumerate_codewords(w.base_code, cap=w.base_code.dim)
        with tr.span("wiretap.encode_decode"):
            for t in range(MC_TRIALS):
                rng = np.random.default_rng([mc_seed, t])
                m = rng.integers(0, 2, size=w.k, dtype=np.uint8)
                mprime = rng.integers(0, 2, size=w.n - w.k, dtype=np.uint8)
                wiretap.decode(w, wiretap.encode(w, m, mprime))

    def counts(rep: dict) -> dict:
        return {"mc.trials": rep["trials"], "mc.codebook_words": 2**w.n}

    info = {"n": w.n, "code": w.label, "tau": tau}
    return Op("simulate", run, check, info, counts, extras)


# ---------------------------------------------------------------------------
# workloads


def _perturbed(base: channel.EnvironmentConfig, rng: np.random.Generator):
    """The bundled plan with the transmitter moved along the hallway in
    front of Bob's door, new wall losses, reference SNR and fading seed.

    The ranges keep Bob on most carriers, so the perturbed op costs
    about what the bundled one does whatever the seed.
    """
    walls = tuple(dataclasses.replace(w, loss_db=float(rng.uniform(9.0, 11.0))) for w in base.walls)
    env = dataclasses.replace(
        base,
        tx=(float(rng.uniform(1.8, 2.8)), base.tx[1]),
        ref_snr_db=float(rng.uniform(31.5, 32.5)),
        walls=walls,
    )
    return env, int(rng.integers(2**31))


class Plan:
    """Set-up products of one workload; ``ops`` is the run's fixed list of
    ops, which the run repeats until its time is up."""

    def __init__(self, workload: str, seed: int, tracer, root: Path):
        self.workload = workload
        self.seed = seed
        self.digests: dict[str, dict[str, str]] = {}
        self.env = channel.default_environment()
        self.regions = self.env.region_map
        self.grid = channel.default_grid()
        self.survey = dataclasses.replace(self.env, grid_spacing=SURVEY_SPACING_M)
        self.candidates = {m: rm_candidates(m) for m in (SURVEY_MAX_M, FAMILY_MAX_M)}
        self.pool = [resolve_code(tracer, *spec) for spec in POOL_SPECS]
        for w in self.pool:
            w.dual_ghw()
        self.side_exact = self.pool[POOL_SPECS.index(SIDE_EXACT_SPEC)]
        self.side_sim = self.pool[POOL_SPECS.index(SIDE_SIM_SPEC)]
        # Bob's active carriers depend on the threshold alone.
        self.active = {
            tau: sweep.evaluate(self.pool[0], self.grid, self.regions, tau).active_carriers
            for tau in TAU_LATTICE
        }
        if workload == "frontier":
            self.golden = (root / GOLDEN).read_text()
        if workload == "analysis":
            self.corpus = self._corpus(tracer)
        self.ops = self._ops()

    def _rng(self, tag: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, tag])

    def _corpus(self, tracer) -> list[wiretap.WiretapCode]:
        """One random code per rate at n = 16, 18 and 20, plus RM(1,4),
        RM(2,4) and RM(3,4)."""
        rng = self._rng(9)
        bases = []
        for n, dims in CORPUS_DIMS.items():
            bases += [codes.random_code(n, d, rng) for d in dims]
        bases += [codes.reed_muller(u, 4) for u in (1, 2, 3)]
        built = []
        for base in bases:
            with tracer.span("wiretap.build"):
                built.append(wiretap.build(base))
        return built

    def _tau(self, rng: np.random.Generator, n: int, low: bool) -> float:
        ok = [t for t in TAU_LATTICE if self.active[t] >= n]
        band = [t for t in ok if (t < LOW_TAU_DB) == low] or ok
        return float(rng.choice(band))

    def _ops(self) -> list[Op]:
        rng = self._rng(0)
        if self.workload == "frontier":
            main = [
                [op]
                for key, (env, fading), golden in (
                    ("bundled", (self.env, channel.DEFAULT_GRID_SEED), self.golden),
                    ("perturbed", _perturbed(self.env, rng), None),
                )
                for op in sweep_pair(env, fading, FAMILY_MAX_M, self.candidates[FAMILY_MAX_M], self.digests, key, golden)
            ]
            side = [exact_pair(self.side_exact),
                    [simulate_op(self.side_sim, self.grid, self.regions, SIDE_SIM_TAU_DB, SIDE_MC_SEED)]]
        else:
            main = [exact_pair(w) for w in self.corpus] + [
                [simulate_op(w, self.grid, self.regions, self._tau(rng, w.n, i % 2 == 0), int(rng.integers(2**31)))]
                for i, w in enumerate(self.pool)
            ]
            side = [sweep_pair(
                self.survey, SIDE_FADING_SEED, SURVEY_MAX_M, self.candidates[SURVEY_MAX_M], self.digests, "survey"
            )]
        return spaced(main, side * SIDE_REPEATS)


def spaced(main: list[list[Op]], side: list[list[Op]]) -> list[Op]:
    """The main op groups in order, with the side groups spaced evenly after them.

    The host's speed drifts in phases of seconds, so side ops spread over
    the list see the same mix of phases as the main ops, where a block of
    them at one end would see whatever phase that stretch had.
    """
    ops = []
    for i, group in enumerate(main):
        ops += group
        ops += [op for j, g in enumerate(side) if j * len(main) // len(side) == i for op in g]
    return ops
