"""End-to-end harness: deployments, seeded trials, presets, and reports."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .adversary import FakingSearchConfig, Region, optimize_fake_positions
from .calibration import CalibrationMeta, ThetaTable, cached_theta_table, load_theta_table
from .channel import SignalParams, ideal_received_power
from .codec import from_json, read_json, to_json, write_csv, write_json
from .pool import pool_map
from .protocol import (
    FilterResult,
    Node,
    NodeKind,
    accuse_approve,
    filter_fixpoint,
    quantile_filter,
)

NEGLIGIBLE_FACTOR = 1e-6
RECALIBRATE = "recalibrate"

NOISE_MODES = ("negligible", "significant", "explicit")
FILTER_MODES = ("standard", "quantile")

# seed-derivation domains; deployment and measurement noise stay independent
_DOMAIN_TRIAL = 11
_DOMAIN_DEPLOY = 12
_DOMAIN_NOISE = 13


@dataclass(frozen=True)
class NoiseMode:
    """How the channel sigma is picked: tied to the region scale, or given."""

    mode: str
    sigma: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in NOISE_MODES:
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if self.sigma is not None and not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite, got {self.sigma}")
        if self.mode == "explicit":
            if self.sigma is None or self.sigma <= 0:
                raise ValueError("explicit noise needs a positive sigma")
        elif self.sigma is not None:
            raise ValueError(f"{self.mode} noise derives sigma; do not pass one")

    def sigma_for(self, signal: SignalParams, region: Region) -> float:
        """The channel sigma this mode gives ``signal`` over ``region``."""
        if self.mode == "explicit":
            return float(self.sigma)
        scale = compute_noise_scale(signal, region)
        return NEGLIGIBLE_FACTOR * scale if self.mode == "negligible" else scale


def compute_noise_scale(signal: SignalParams, region: Region) -> float:
    """One third of the ideal received power across the region diagonal.

    Even the two farthest-apart honest nodes then read a positive power
    with probability ~0.999, so ranging between them almost never fails.
    """
    return float(ideal_received_power(signal, region.diagonal)) / 3.0


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: who gets deployed where, channel, filter, trials."""

    n: int
    n0: int
    region: Region
    signal: SignalParams
    noise_mode: NoiseMode
    faking: FakingSearchConfig
    filter_mode: str = "standard"
    theta_source: str = RECALIBRATE
    seed: int = 0
    trials: int = 1
    calibration_positions: int = 25
    calibration_sets: int = 20

    def __post_init__(self) -> None:
        if not 2 <= self.n0 <= self.n:
            raise ValueError(f"need 2 <= n0 <= n, got n0={self.n0}, n={self.n}")
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.filter_mode not in FILTER_MODES:
            raise ValueError(f"unknown filter mode {self.filter_mode!r}")
        if self.signal.noise_sigma != 0.0:
            raise ValueError("set noise through noise_mode, not on signal")
        if self.calibration_positions < 1 or self.calibration_sets < 1:
            raise ValueError("calibration sample counts must be positive")

    @property
    def n1(self) -> int:
        return self.n - self.n0

    def noise_sigma(self) -> float:
        return self.noise_mode.sigma_for(self.signal, self.region)

    def resolved_signal(self) -> SignalParams:
        return replace(self.signal, noise_sigma=self.noise_sigma())

    def calibration_meta(self) -> CalibrationMeta:
        """What this config's theta table is calibrated from."""
        return CalibrationMeta(
            self.resolved_signal(),
            self.region,
            self.faking,
            self.calibration_positions,
            self.calibration_sets,
            self.seed,
        )


def config_to_dict(c: ExperimentConfig) -> dict:
    """The config file layout: ``signal`` without ``noise_sigma`` (noise is
    set through ``noise_mode``), and the calibration sample counts nested
    as ``calibration: {positions, sets}``."""
    d = to_json(c)
    del d["signal"]["noise_sigma"]
    d["calibration"] = {
        "positions": d.pop("calibration_positions"),
        "sets": d.pop("calibration_sets"),
    }
    return d


def config_from_dict(d: dict) -> ExperimentConfig:
    d = dict(d)
    # the file spells the counts one way only, as config_to_dict writes them
    flat = sorted({"calibration_positions", "calibration_sets"} & d.keys())
    if flat:
        raise ValueError(f"unknown ExperimentConfig keys {flat}: the counts go under calibration")
    calibration = from_json(dict[str, object], d.pop("calibration", {}))
    d.update({f"calibration_{k}": v for k, v in calibration.items()})
    return from_json(ExperimentConfig, d)


def load_config(path) -> ExperimentConfig:
    return read_json(path, "config", config_from_dict)


def _spawned_seed(master: int, domain: int, index: int = 0) -> int:
    ss = np.random.SeedSequence(entropy=master, spawn_key=(domain, index))
    return int(ss.generate_state(1, np.uint64)[0])


def deploy(config: ExperimentConfig, seed: int) -> list[Node]:
    """Draw true positions uniformly; honest nodes claim them, the others
    claim their optimized fake. Ids 0..n0-1 are genuine, n0..n-1 malicious.
    """
    params = config.resolved_signal()
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(_DOMAIN_DEPLOY,))
    )
    positions = config.region.sample(rng, config.n)
    genuine_pos = positions[: config.n0]
    nodes = [
        Node(i, NodeKind.GENUINE, tuple(p), tuple(p))
        for i, p in enumerate(genuine_pos.tolist())
    ]
    fakes = optimize_fake_positions(
        params, config.region, positions[config.n0 :], genuine_pos, config.faking
    )
    for k, fake in enumerate(fakes, start=config.n0):
        truth = tuple(positions[k].tolist())
        nodes.append(Node(k, NodeKind.MALICIOUS, truth, fake.fake_position))
    return nodes


def resolve_theta_table(config: ExperimentConfig, workers: int = 1) -> ThetaTable:
    """The table the config names: a file, the cache, or a fresh calibration."""
    meta = config.calibration_meta()
    if config.theta_source == RECALIBRATE:
        return cached_theta_table(config.n, meta, workers=workers)
    table = load_theta_table(config.theta_source)
    if table.n != config.n:
        raise ValueError(
            f"theta table {config.theta_source} is for n={table.n}, config has n={config.n}"
        )
    # a table from another channel or region holds another adversary's
    # optimum; faking, sample counts and seed may differ
    for group in ("signal", "region"):
        have, want = getattr(table.meta, group), getattr(meta, group)
        for f in fields(want):
            if getattr(have, f.name) != getattr(want, f.name):
                raise ValueError(
                    f"theta table {config.theta_source} is for {group}.{f.name}="
                    f"{getattr(have, f.name)!r}, config has {getattr(want, f.name)!r}"
                )
    return table


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    result: FilterResult
    malicious_removed: int
    genuine_retained: int
    success: bool


@dataclass(frozen=True)
class StepRow:
    """One table row: the state going into a pass and what the pass deleted."""

    step: int
    genuine_active: int
    malicious_active: int
    threshold: float
    genuine_deleted: int
    malicious_deleted: int
    deleted_approvals: str

    def csv_cells(self) -> list[str]:
        return [
            str(self.step),
            str(self.genuine_active),
            str(self.malicious_active),
            f"{self.threshold:.2f}",
            str(self.genuine_deleted),
            str(self.malicious_deleted),
            self.deleted_approvals,
        ]


CSV_COLUMNS = tuple(f.name for f in fields(StepRow))


def _approval_span(approvals) -> str:
    if not approvals:
        return "---"
    lo, hi = min(approvals), max(approvals)
    return str(lo) if lo == hi else f"{lo}-{hi}"


def step_rows(result: FilterResult, n0: int) -> tuple[StepRow, ...]:
    """Per-pass deletion table for one trial; ids below n0 count as genuine
    (the deploy convention). The step column is the schedule index, so a
    step spanning several passes contributes several rows.
    """
    active = set(result.final_genuine_set) | set(result.final_filtered_set)
    rows = []
    for rnd in result.rounds:
        g_active = sum(1 for i in active if i < n0)
        g_deleted = sum(1 for i in rnd.removed_ids if i < n0)
        rows.append(
            StepRow(
                step=rnd.step,
                genuine_active=g_active,
                malicious_active=len(active) - g_active,
                threshold=rnd.threshold,
                genuine_deleted=g_deleted,
                malicious_deleted=len(rnd.removed_ids) - g_deleted,
                deleted_approvals=_approval_span(rnd.removed_approvals),
            )
        )
        active.difference_update(rnd.removed_ids)
    return tuple(rows)


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    theta_star: int
    schedule: tuple[float, ...]
    per_trial: tuple[TrialRecord, ...]
    success_rate: float
    mean_genuine_retained: float
    mean_rounds: float
    step_table: tuple[StepRow, ...]


# report layout: these fields are grouped under "theta" and "aggregate"
_THETA_KEYS = ("theta_star", "schedule")
_AGGREGATE_KEYS = ("success_rate", "mean_genuine_retained", "mean_rounds", "step_table")


def report_to_dict(r: ExperimentReport) -> dict:
    d = to_json(r)
    d["config"] = config_to_dict(r.config)
    d["theta"] = {k: d.pop(k) for k in _THETA_KEYS}
    d["aggregate"] = {k: d.pop(k) for k in _AGGREGATE_KEYS}
    return d


def report_from_dict(d: dict) -> ExperimentReport:
    d = dict(d)
    d.update(d.pop("theta"))
    d.update(d.pop("aggregate"))
    d["config"] = config_from_dict(d["config"])
    return from_json(ExperimentReport, d)


def _trial(job) -> TrialRecord:
    """Trial ``t`` of ``config`` against ``table``; a pool job, so top level."""
    config, table, t = job
    trial_seed = _spawned_seed(config.seed, _DOMAIN_TRIAL, t)
    nodes = deploy(config, trial_seed)
    matrix = accuse_approve(
        nodes, config.resolved_signal(), _spawned_seed(trial_seed, _DOMAIN_NOISE)
    )
    if config.filter_mode == "quantile":
        result = quantile_filter(matrix, table)
    else:
        result = filter_fixpoint(matrix, float(table.theta_star))
    genuine_kept = sum(1 for i in result.final_genuine_set if i < config.n0)
    malicious_gone = sum(1 for i in result.final_filtered_set if i >= config.n0)
    return TrialRecord(
        trial=t,
        seed=trial_seed,
        result=result,
        malicious_removed=malicious_gone,
        genuine_retained=genuine_kept,
        success=(malicious_gone == config.n1 and genuine_kept >= 1),
    )


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Run every trial of the config and aggregate.

    ``workers`` processes share the calibration cells (when the table is
    not cached) and then the trials. Per-trial streams are derived from
    the config seed by trial index and trials are collected in index
    order, so reports come out identical whatever the worker count. A
    trial succeeds when every malicious node is removed and at least one
    genuine node survives.
    """
    table = resolve_theta_table(config, workers=workers)
    if config.filter_mode == "quantile":
        schedule = table.schedule()
    else:
        schedule = (float(table.theta_star),)

    records = pool_map(_trial, [(config, table, t) for t in range(config.trials)], workers)

    return ExperimentReport(
        config=config,
        theta_star=table.theta_star,
        schedule=schedule,
        per_trial=tuple(records),
        success_rate=sum(r.success for r in records) / len(records),
        mean_genuine_retained=sum(r.genuine_retained for r in records) / len(records),
        mean_rounds=sum(len(r.result.rounds) for r in records) / len(records),
        step_table=step_rows(records[0].result, config.n0),
    )


def emit_report(report: ExperimentReport, fmt: str, path) -> None:
    """Write the report: ``json`` round-trips, ``csv`` is the step table."""
    if fmt == "json":
        write_json(path, report_to_dict(report))
    elif fmt == "csv":
        write_csv(path, CSV_COLUMNS, (row.csv_cells() for row in report.step_table))
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def load_report(path) -> ExperimentReport:
    return read_json(path, "report", report_from_dict)


def _preset(n: int, n0: int, noise: str, filter_mode: str, seed: int) -> ExperimentConfig:
    # exclusion ball of 0.2 diagonals: small enough to leave most of the
    # region claimable, big enough that a faker cannot sit just outside it
    # and ride the flat far-field power curve past every distant receiver
    region = Region(0.0, 100.0, 0.0, 100.0)
    diag = region.diagonal
    return ExperimentConfig(
        n=n,
        n0=n0,
        region=region,
        signal=SignalParams(transmit_power=1.0, wavelength=0.125),
        noise_mode=NoiseMode(noise),
        faking=FakingSearchConfig(exclusion_radius=0.2 * diag, grid_step=diag / 30.0),
        filter_mode=filter_mode,
        seed=seed,
    )


# Single-trial configurations for the narrated boundary cases; run with more
# trials via dataclasses.replace(PRESETS[name], trials=...). Seeds are pinned
# so the one-trial runs reproduce the narrated round structure exactly.
PRESETS: dict[str, ExperimentConfig] = {
    "neg-noise-52": _preset(100, 52, "negligible", "standard", seed=1),
    "neg-noise-51": _preset(100, 51, "negligible", "standard", seed=1),
    "neg-noise-101-52": _preset(101, 52, "negligible", "standard", seed=0),
    "neg-noise-101-51": _preset(101, 51, "negligible", "standard", seed=0),
    "sig-noise-62": _preset(100, 62, "significant", "standard", seed=0),
    "sig-noise-q-60": _preset(100, 60, "significant", "quantile", seed=0),
    "sig-noise-q-55": _preset(100, 55, "significant", "quantile", seed=0),
}
