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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from .adversary import FakingSearchConfig, Region, optimize_fake_position
from .channel import TRUTHFUL_ACCEPT_PROB, SignalParams
from .codec import from_json, read_json, to_json, write_json

ENV_CACHE_DIR = "POSVERIFY_THETA_CACHE"
QUANTILE_TENTHS = tuple(range(1, 10))  # 0.1 .. 0.9

# Domain tags keeping the x0 stream and the per-cell genuine-set streams
# apart while staying reproducible under any execution order.
_DOMAIN_X0 = 1
_DOMAIN_GENUINE = 2


@dataclass(frozen=True)
class CalibrationMeta:
    """Everything that went into a table, enough to reproduce it exactly."""

    signal: SignalParams
    region: Region
    faking: FakingSearchConfig
    num_x0: int
    num_x_per_x0: int
    seed: int


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
    meta: CalibrationMeta

    def schedule(self) -> tuple[float, ...]:
        """Escalating thresholds for the quantile variant of the filter."""
        return (0.0,) + tuple(self.quantiles[t / 10] for t in QUANTILE_TENTHS) + (
            float(self.theta_star),
        )


def _decile_rank(tenths: int, count: int) -> int:
    # nearest-rank index for q = tenths/10, in exact integer arithmetic
    return (tenths * count + 9) // 10 - 1


def _cell_rng(seed: int, domain: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(domain, *key)))


def _calibration_cell(args) -> float:
    params, region, config, n_genuine, seed, i, j = args
    x0 = _cell_rng(seed, _DOMAIN_X0, i).uniform(
        (region.x_min, region.y_min), (region.x_max, region.y_max)
    )
    genuine = region.sample(_cell_rng(seed, _DOMAIN_GENUINE, i, j), n_genuine)
    return optimize_fake_position(params, region, x0, genuine, config).expected_deceived


def estimate_theta_table(
    params: SignalParams,
    region: Region,
    n: int,
    num_x0: int,
    num_x_per_x0: int,
    config: FakingSearchConfig,
    seed: int,
    workers: int = 1,
) -> ThetaTable:
    """Sample the faker's optimum and summarize it as a ThetaTable.

    Draws ``num_x0`` true positions; against each, ``num_x_per_x0``
    independent sets of ceil(n/2) genuine receivers. theta_star is the
    ceiling of the worst per-position mean, the pessimistic integer budget
    for how many honest votes a faker can steal. Bit-identical for a given
    seed regardless of ``workers``.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if num_x0 < 1 or num_x_per_x0 < 1:
        raise ValueError("sample counts must be positive")
    if params.noise_sigma <= 0:
        raise ValueError("calibration requires positive noise_sigma")

    n_genuine = math.ceil(n / 2)
    jobs = [
        (params, region, config, n_genuine, seed, i, j)
        for i in range(num_x0)
        for j in range(num_x_per_x0)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            samples = list(pool.map(_calibration_cell, jobs, chunksize=8))
    else:
        samples = [_calibration_cell(job) for job in jobs]

    per_x0_means = [
        float(np.mean(samples[i * num_x_per_x0 : (i + 1) * num_x_per_x0]))
        for i in range(num_x0)
    ]
    theta_star = math.ceil(max(per_x0_means))

    pooled = sorted(samples)
    count = len(pooled)
    quantiles = {t / 10: float(pooled[_decile_rank(t, count)]) for t in QUANTILE_TENTHS}

    meta = CalibrationMeta(params, region, config, num_x0, num_x_per_x0, seed)
    return ThetaTable(
        n=n,
        theta_star=theta_star,
        quantiles=quantiles,
        samples=tuple(float(s) for s in samples),
        meta=meta,
    )


def threshold(active_count: int, theta: float) -> float:
    """Approval count a node must reach to stay: (active + theta) / 2."""
    if active_count < 1:
        raise ValueError(f"active_count must be positive, got {active_count}")
    if theta < 0:
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


def table_to_dict(table: ThetaTable) -> dict:
    d = to_json(table)
    d["calibration_meta"] = d.pop("meta")
    return d


def table_from_dict(d: dict) -> ThetaTable:
    d = dict(d)
    d["meta"] = d.pop("calibration_meta")
    return from_json(ThetaTable, d)


def theta_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "posverify"


def theta_cache_path(n: int, meta: CalibrationMeta) -> Path:
    """Where the cache keeps the table for ``n`` nodes calibrated from ``meta``."""
    return theta_cache_dir() / f"theta_n{n}_{meta_hash(meta)}.json"


def save_theta_table(table: ThetaTable) -> Path:
    path = theta_cache_path(table.n, table.meta)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_json(path, table_to_dict(table))
    return path


def load_theta_table(path: str | os.PathLike) -> ThetaTable:
    """Read a table file; ValueError, naming the file, if it does not hold one."""
    return read_json(path, "theta table", table_from_dict)


def cached_theta_table(
    params: SignalParams,
    region: Region,
    n: int,
    num_x0: int,
    num_x_per_x0: int,
    config: FakingSearchConfig,
    seed: int,
    workers: int = 1,
) -> ThetaTable:
    """Load the table for these inputs from the cache, or build and store it.

    A cache file that does not decode, or holds a table for other inputs,
    is recomputed and overwritten with a warning that names it.
    """
    meta = CalibrationMeta(params, region, config, num_x0, num_x_per_x0, seed)
    path = theta_cache_path(n, meta)
    if path.exists():
        try:
            table = load_theta_table(path)
            if (table.n, table.meta) != (n, meta):
                raise ValueError(f"bad theta table {path}: made for other inputs")
            return table
        except ValueError as exc:
            warnings.warn(f"{exc}; recomputing it", stacklevel=2)
    table = estimate_theta_table(
        params, region, n, num_x0, num_x_per_x0, config, seed, workers=workers
    )
    save_theta_table(table)
    return table
