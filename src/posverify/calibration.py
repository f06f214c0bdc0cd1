"""Calibration of the deception allowance used by the filtering protocol.

Monte-Carlo estimate of how many receivers the best-placed faker deceives
in expectation, tabulated as an integer ceiling (theta_star) plus decile
quantiles of the sampled objective. Tables are deterministic functions of
the seed and are cached to disk as JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from .adversary import FakingSearchConfig, Region, optimize_fake_positions
from .channel import TRUTHFUL_ACCEPT_PROB, SignalParams
from .codec import FieldError, read_json, to_json, write_json
from .pool import pool_map

ENV_CACHE_DIR = "POSVERIFY_THETA_CACHE"
QUANTILE_TENTHS = tuple(range(1, 10))  # 0.1 .. 0.9
_DECILES = tuple(t / 10 for t in QUANTILE_TENTHS)

# Domain tags keeping the x0 stream and the per-cell genuine-set streams
# apart while staying reproducible under any execution order.
_DOMAIN_X0 = 1
_DOMAIN_GENUINE = 2

# Cells per lockstep search, and per pool job: 4 and 20 jobs for 100- and
# 500-cell tables, an even split over 2 workers. Seconds a table, fresh
# process a run (2-CPU x86 host), chunks of 10 -> 25 -> 50 cells:
# - 500 negligible-noise n=100 cells, 1 worker: 0.55-0.58 -> 0.45-0.48 ->
#   0.45-0.53;
# - 500 significant-noise n=100 cells, 2 workers: 0.87-1.05 -> 0.82-0.94;
# - 100 significant-noise n=200 cells, 2 workers: 0.49-0.62 -> 0.46-0.61 ->
#   0.50-0.60.
CHUNK_CELLS = 25


@dataclass(frozen=True)
class CalibrationMeta:
    """Everything that went into a table, enough to reproduce it exactly."""

    signal: SignalParams
    region: Region
    faking: FakingSearchConfig
    num_x0: int
    num_x_per_x0: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("num_x0", "num_x_per_x0"):
            if getattr(self, name) < 1:
                raise FieldError(name, f"must be positive, got {getattr(self, name)}")
        if self.seed < 0:
            raise FieldError("seed", f"must be nonnegative, got {self.seed}")
        # calibration needs a noisy channel
        sigma = self.signal.noise_sigma
        if not sigma > 0:
            raise FieldError("signal.noise_sigma", f"must be positive, got {sigma}")


@dataclass(frozen=True)
class ThetaTable:
    """Calibrated deception allowance for networks of ``n`` nodes.

    ``samples`` holds every optimizer value, x0-major: the j-th draw for the
    i-th faker position sits at index i * num_x_per_x0 + j.
    """

    n: int
    theta_star: int
    quantiles: dict[float, float]
    samples: tuple[float, ...]
    calibration_meta: CalibrationMeta

    def __post_init__(self) -> None:
        if self.n < 2:
            raise FieldError("n", f"must be at least 2, got {self.n}")
        if self.theta_star < 0:
            raise FieldError("theta_star", f"must be nonnegative, got {self.theta_star}")
        if sorted(self.quantiles) != list(_DECILES):
            raise FieldError("quantiles", f"must be the deciles {list(_DECILES)}")
        meta = self.calibration_meta
        cells = meta.num_x0 * meta.num_x_per_x0
        if len(self.samples) != cells:
            raise ValueError(f"{len(self.samples)} samples for {cells} calibration cells")
        # an expected count of deceived receivers; a NaN would filter nobody
        values = [(f"quantiles.{q}", v) for q, v in self.quantiles.items()]
        for key, v in values + [(f"samples.{i}", v) for i, v in enumerate(self.samples)]:
            if not 0.0 <= v < math.inf:
                raise FieldError(key, f"must be finite and nonnegative, got {v}")

    def schedule(self) -> tuple[float, ...]:
        """Escalating thresholds for the quantile variant of the filter."""
        return (0.0,) + tuple(self.quantiles[q] for q in _DECILES) + (float(self.theta_star),)


def _decile_rank(tenths: int, count: int) -> int:
    # nearest-rank index for q = tenths/10, in exact integer arithmetic
    return (tenths * count + 9) // 10 - 1


def _cell_rng(seed: int, domain: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(domain, *key)))


def _cell_x0(meta: CalibrationMeta, i: int) -> np.ndarray:
    """Faker position i, (2,), from its own stream."""
    return meta.region.sample(_cell_rng(meta.seed, _DOMAIN_X0, i), 1)[0]


def _cell_inputs(meta: CalibrationMeta, n_genuine: int, i: int, j: int):
    """Cell (i, j)'s faker position (2,) and genuine set (n_genuine, 2),
    from their own streams."""
    return _cell_x0(meta, i), meta.region.sample(
        _cell_rng(meta.seed, _DOMAIN_GENUINE, i, j), n_genuine
    )


def _per_x0_means(samples, meta: CalibrationMeta) -> list[float]:
    """Each faker position's mean optimizer value over its genuine sets."""
    sets = meta.num_x_per_x0
    return [float(np.mean(samples[i * sets : (i + 1) * sets])) for i in range(meta.num_x0)]


def _calibration_chunk(job) -> list[float]:
    """Optimizer values of the cells ``cells``, a range of x0-major cell
    indices, searched in lockstep; each equals the cell searched alone."""
    meta, n_genuine, cells = job
    x0, genuine = zip(
        *(_cell_inputs(meta, n_genuine, *divmod(k, meta.num_x_per_x0)) for k in cells)
    )
    outcomes = optimize_fake_positions(
        meta.signal, meta.region, np.array(x0), np.array(genuine), meta.faking
    )
    return [o.expected_deceived for o in outcomes]


def estimate_theta_table(n: int, meta: CalibrationMeta, workers: int = 1) -> ThetaTable:
    """Sample the faker's optimum for networks of ``n`` nodes and summarize
    it as a ThetaTable calibrated from ``meta``.

    Draws ``meta.num_x0`` true positions; against each,
    ``meta.num_x_per_x0`` independent sets of ceil(n/2) genuine receivers,
    and runs ``meta.faking``'s search over ``meta.region`` on
    ``meta.signal``'s channel, which must be noisy. theta_star is the
    ceiling of the worst per-position mean, the pessimistic integer budget
    for how many honest votes a faker can steal. Bit-identical for a given
    ``meta.seed`` regardless of ``workers``.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")

    n_genuine = math.ceil(n / 2)
    cells = meta.num_x0 * meta.num_x_per_x0
    jobs = [
        (meta, n_genuine, range(lo, min(lo + CHUNK_CELLS, cells)))
        for lo in range(0, cells, CHUNK_CELLS)
    ]
    samples = [s for chunk in pool_map(_calibration_chunk, jobs, workers) for s in chunk]

    pooled = sorted(samples)
    return ThetaTable(
        n=n,
        theta_star=math.ceil(max(_per_x0_means(samples, meta))),
        quantiles={t / 10: float(pooled[_decile_rank(t, len(pooled))]) for t in QUANTILE_TENTHS},
        samples=tuple(float(s) for s in samples),
        calibration_meta=meta,
    )


@dataclass(frozen=True)
class ThetaStarSource:
    """The faker position whose mean set a table's theta_star: its index and
    coordinates, its mean over its genuine sets, that mean's standard error
    over the sets (NaN with one set), and the margin theta_star - mean."""

    position: int
    x0: tuple[float, float]
    mean: float
    stderr: float
    margin: float


def theta_star_source(table: ThetaTable) -> ThetaStarSource:
    """Which position set ``table``'s theta_star, the first on a tie, with
    how far its mean sits below theta_star and how well its sets pin it."""
    meta = table.calibration_meta
    means = _per_x0_means(table.samples, meta)
    i = int(np.argmax(means))
    sets = meta.num_x_per_x0
    row = np.array(table.samples[i * sets : (i + 1) * sets])
    stderr = float(row.std(ddof=1) / math.sqrt(sets)) if sets > 1 else math.nan
    x, y = _cell_x0(meta, i)
    return ThetaStarSource(i, (float(x), float(y)), means[i], stderr, table.theta_star - means[i])


def threshold(active_count: int, theta: float) -> float:
    """Approval count a node must reach to stay: (active + theta) / 2."""
    if active_count < 1:
        raise ValueError(f"active_count must be positive, got {active_count}")
    if not theta >= 0:  # NaN too
        raise ValueError(f"theta must be nonnegative, got {theta}")
    return (active_count + theta) / 2.0


def malicious_approval_bound(n: int, theta_ceil_half: float) -> float:
    """Upper bound on a faker's expected approvals when at most floor(n/2)
    nodes are malicious: every malicious vote plus the calibrated number of
    stolen honest votes."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if theta_ceil_half < 0:
        raise ValueError(f"theta_ceil_half must be nonnegative, got {theta_ceil_half}")
    return n // 2 + theta_ceil_half


def genuine_acceptance_prob(
    n: int, n0: int, theta: float, link_prob: float = TRUTHFUL_ACCEPT_PROB
) -> float:
    """Normal approximation to the chance a genuine node clears the first
    filtering threshold when ``n0`` of ``n`` nodes are genuine.

    Its approvals are 1 (self) plus a Binomial(n0-1, link_prob); the tail
    beyond (n + theta)/2 is taken under the Gaussian limit. Degenerate
    link probabilities have no Gaussian limit and are rejected.
    """
    if not 2 <= n0 <= n:
        raise ValueError(f"need 2 <= n0 <= n, got n0={n0}, n={n}")
    if not 0.0 < link_prob < 1.0:
        raise ValueError(f"link_prob must lie strictly inside (0, 1), got {link_prob}")
    tau = (n + theta - 2 * n0 * link_prob) / (
        2.0 * math.sqrt(link_prob * (1.0 - link_prob) * (n0 - 1))
    )
    return float(1.0 - ndtr(tau))


# ---------------------------------------------------------------------------
# persistence


def meta_hash(meta: CalibrationMeta) -> str:
    payload = json.dumps(to_json(meta), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def theta_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "posverify"


def theta_cache_path(n: int, meta: CalibrationMeta) -> Path:
    """Where the cache keeps the table for ``n`` nodes calibrated from ``meta``."""
    return theta_cache_dir() / f"theta_n{n}_{meta_hash(meta)}.json"


def save_theta_table(table: ThetaTable) -> Path:
    path = theta_cache_path(table.n, table.calibration_meta)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_json(path, table)
    return path


def load_theta_table(path: str | os.PathLike) -> ThetaTable:
    """Read a table file; ValueError, naming the file, if it does not hold one."""
    return read_json(path, "theta table", ThetaTable)


def cached_theta_table(n: int, meta: CalibrationMeta, workers: int = 1) -> ThetaTable:
    """The table for ``n`` nodes calibrated from ``meta``: loaded from the
    cache, or estimated on ``workers`` processes and stored there.

    A cache file that does not decode, does not hold a well-formed table,
    or holds a table for other inputs is recomputed and overwritten with a
    warning that names it. A table that cannot be stored is returned with
    a warning that names the cache file.
    """
    path = theta_cache_path(n, meta)
    if path.exists():
        try:
            table = load_theta_table(path)
            if (table.n, table.calibration_meta) != (n, meta):
                raise ValueError(f"bad theta table {path}: made for other inputs")
            return table
        except ValueError as exc:
            warnings.warn(f"{exc}; recomputing it", stacklevel=2)
    table = estimate_theta_table(n, meta, workers=workers)
    try:
        save_theta_table(table)
    except OSError as exc:
        warnings.warn(f"cannot cache theta table {path}: {exc}", stacklevel=2)
    return table
