"""Worst-case position faking against signal-strength ranging.

A node at one point claims to be at another. Each genuine receiver checks
the claim against its own power reading, so the faker wants the point
whose claimed distances survive as many of those checks as possible, in
expectation over the channel noise. This module scores candidate fakes and
searches a rectangular deployment region for the best one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SignalParams, _deception_prob_arrays, ideal_received_power

# Candidate-generation constants: samples per distance circle, and how many
# top-scoring candidates get their own pattern-search refinement.
CIRCLE_SAMPLES = 16
REFINE_STARTS = 5

_COMPASS = np.array(
    [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)], dtype=float
)


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle where nodes live, metres."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(
                f"degenerate region [{self.x_min}, {self.x_max}] x [{self.y_min}, {self.y_max}]"
            )

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def diagonal(self) -> float:
        return float(np.hypot(self.width, self.height))

    def contains(self, points) -> np.ndarray | bool:
        p = np.asarray(points, dtype=float)
        ok = (
            (p[..., 0] >= self.x_min)
            & (p[..., 0] <= self.x_max)
            & (p[..., 1] >= self.y_min)
            & (p[..., 1] <= self.y_max)
        )
        return bool(ok) if ok.ndim == 0 else ok

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Uniform points, shape (count, 2)."""
        return rng.uniform(
            (self.x_min, self.y_min), (self.x_max, self.y_max), size=(count, 2)
        )

    def clip(self, points: np.ndarray) -> np.ndarray:
        return np.clip(
            points, (self.x_min, self.y_min), (self.x_max, self.y_max)
        )


@dataclass(frozen=True)
class FakingSearchConfig:
    """Search controls for the fake-position optimizer.

    exclusion_radius keeps the fake away from the true position: claiming
    (nearly) where you are deceives everyone and defeats nobody, so the
    interesting adversary is one forced to lie by at least this much.
    """

    exclusion_radius: float
    grid_step: float
    refine_iters: int = 25

    def __post_init__(self) -> None:
        if self.exclusion_radius <= 0:
            raise ValueError(f"exclusion_radius must be positive, got {self.exclusion_radius}")
        if self.grid_step <= 0:
            raise ValueError(f"grid_step must be positive, got {self.grid_step}")
        if self.refine_iters < 0:
            raise ValueError(f"refine_iters must be nonnegative, got {self.refine_iters}")


@dataclass(frozen=True)
class FakingOutcome:
    fake_position: tuple[float, float]
    expected_deceived: float
    per_node_probs: tuple[float, ...]


# scipy's ndtr is exactly 0.0 for z <= -38.5 and exactly 1.0 for z >= 8.3.
# When a claim's ideal power lies more than _BAND_BELOW noise sigmas under
# the receiver's true ideal power, both ends of its 3-sigma window sit at
# z <= -45; more than _BAND_ABOVE sigmas over it, both sit at z >= 14.8.
# Either way the deception probability is exactly 0.0, with 6.5 sigmas to
# spare. _BAND_SLACK widens the band in distance to cover rounding, which
# dominates when sigma is far below the float resolution of the powers.
_BAND_BELOW = 48.0
_BAND_ABOVE = 17.8
_BAND_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class _Receivers:
    """One genuine set as seen from each faker's true position.

    ``r``, ``near2`` and ``far2`` are (receivers, fakers): the true
    distances, and the squared claimed distances outside of which a claim
    deceives the receiver with probability exactly 0.0.
    """

    gp: np.ndarray
    x0: np.ndarray
    r: np.ndarray
    near2: np.ndarray
    far2: np.ndarray


def _receivers(params: SignalParams, true_positions, genuine_positions) -> _Receivers:
    x0 = np.asarray(true_positions, dtype=float).reshape(-1, 2)
    gp = np.asarray(genuine_positions, dtype=float).reshape(-1, 2)
    if gp.shape[0] == 0:
        raise ValueError("need at least one genuine position")
    r = np.hypot(gp[:, 0, None] - x0[None, :, 0], gp[:, 1, None] - x0[None, :, 1])
    if np.any(r <= 0):
        raise ValueError("a genuine node coincides with the faker's true position")
    # claimed distance c has ideal power ideal(r) * (r/c)**m, so the power
    # band [ideal(r) - below*sigma, ideal(r) + above*sigma] maps to
    # [r * (1 + above*q)**(-1/m), r * (1 - below*q)**(-1/m)], q = sigma/ideal(r)
    m = params.path_loss_exponent
    with np.errstate(over="ignore", divide="ignore"):  # an edge may go to 0 or inf
        q = params.noise_sigma / ideal_received_power(params, r)
        near = r * (1.0 + _BAND_ABOVE * q) ** (-1.0 / m) * (1.0 - _BAND_SLACK)
        bounded = _BAND_BELOW * q < 1.0
    far = np.full_like(r, np.inf)
    far[bounded] = (
        r[bounded] * (1.0 - _BAND_BELOW * q[bounded]) ** (-1.0 / m) * (1.0 + _BAND_SLACK)
    )
    return _Receivers(gp, x0, r, near * near, far * far)


def _theta_batch(params: SignalParams, rx: _Receivers, points, owner) -> np.ndarray:
    """Expected number of deceived receivers for each point.

    Point p is claimed by faker ``owner[p]``; a scalar ``owner`` claims
    them all. Only (receiver, point) pairs inside that faker's band reach
    the channel. Every other pair scores exactly 0.0, as it would if
    scored, so the sums are bit-identical to scoring every pair.

    Each point's receivers are summed along contiguous memory, in numpy's
    pairwise order, which is also the order of a one-point batch and of a
    per-node probability row's ``sum()``. A point therefore scores the same
    whatever else is in the batch.
    """
    # temporaries are freed as soon as they are spent, so the peak stays
    # below that of scoring every pair even when most pairs are in the band
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    bands = np.reshape(owner, -1)  # one faker's column for all points, or one per point
    d2 = np.subtract.outer(rx.gp[:, 0], pts[:, 0])
    d2 *= d2
    dy2 = np.subtract.outer(rx.gp[:, 1], pts[:, 1])
    dy2 *= dy2
    d2 += dy2
    del dy2
    inside = d2 >= rx.near2[:, bands]
    inside &= d2 <= rx.far2[:, bands]
    del d2
    rows, cols = np.divmod(np.flatnonzero(inside), len(pts))
    claimed = np.hypot(rx.gp[rows, 0] - pts[cols, 0], rx.gp[rows, 1] - pts[cols, 1])
    true = rx.r[rows, owner if np.ndim(owner) == 0 else owner[cols]]
    del rows, cols
    probs = _deception_prob_arrays(params, true, claimed)
    del true, claimed
    # column-major, so each point's receivers are contiguous for the sum; the
    # elementwise work above keeps (receivers, points) for its long rows
    out = np.zeros(inside.shape, order="F")
    out[inside] = probs
    return out.sum(axis=0)


def theta_for_fake(
    params: SignalParams, true_position, fake_position, genuine_positions
) -> float:
    """Expected count of genuine receivers deceived by claiming ``fake_position``.

    Sums, over receivers, the probability that the claimed distance passes
    the receiver's 3-sigma check given the true one.
    """
    rx = _receivers(params, true_position, genuine_positions)
    return float(_theta_batch(params, rx, fake_position, 0)[0])


def _pair_reflections(x0: np.ndarray, gp: np.ndarray) -> np.ndarray:
    """Second intersection of each pair of equal-range circles.

    Every circle "points at distance r_j from receiver j" passes through the
    true position; for a pair of receivers the other crossing is the mirror
    image of the true position across the line joining them. Those points
    keep two claimed distances exactly truthful and are the payoff spots
    when the noise band is thin.
    """
    n = gp.shape[0]
    if n < 2:
        return np.empty((0, 2))
    ii, jj = np.triu_indices(n, k=1)
    a, b = gp[ii], gp[jj]
    ab = b - a
    norm2 = np.einsum("ij,ij->i", ab, ab)
    keep = norm2 > 1e-18
    a, ab, norm2 = a[keep], ab[keep], norm2[keep]
    t = np.einsum("ij,ij->i", x0 - a, ab) / norm2
    proj = a + t[:, None] * ab
    return 2.0 * proj - x0


def _circle_points(x0: np.ndarray, gp: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Evenly spaced points on each receiver's equal-range circle."""
    ang = np.linspace(0.0, 2.0 * np.pi, CIRCLE_SAMPLES, endpoint=False)
    offs = np.stack([np.cos(ang), np.sin(ang)], axis=1)  # (K, 2)
    return (gp[:, None, :] + r[:, None, None] * offs[None, :, :]).reshape(-1, 2)


def _grid_points(region: Region, step: float) -> np.ndarray:
    nx = max(2, int(round(region.width / step)) + 1)
    ny = max(2, int(round(region.height / step)) + 1)
    xs = np.linspace(region.x_min, region.x_max, nx)
    ys = np.linspace(region.y_min, region.y_max, ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def _feasible(region: Region, x0: np.ndarray, radius: float, pts: np.ndarray) -> np.ndarray:
    dist = np.hypot(pts[:, 0] - x0[0], pts[:, 1] - x0[1])
    return pts[(dist >= radius) & region.contains(pts)]


def _ranked(points: np.ndarray, values: np.ndarray, *major) -> np.ndarray:
    """Indices that order the last axis by the ``major`` keys, then by
    highest value, then by lowest (x, y): the search's one ranking rule."""
    return np.lexsort((points[..., 1], points[..., 0], -values, *reversed(major)), axis=-1)


def _refine(
    params: SignalParams,
    region: Region,
    rx: _Receivers,
    config: FakingSearchConfig,
    pts: np.ndarray,
    vals: np.ndarray,
    owner: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy compass walk with step halving from each start, in lockstep.

    Start i searches for faker ``owner[i]``. Each iteration every start
    moves to its best feasible compass neighbour by ``_ranked`` if that
    beats its value, and halves its step otherwise. All starts' moves are
    scored in one batch; since ``_theta_batch`` sums each point in one
    order, each start walks exactly as it would alone.
    """
    pts, vals = pts.copy(), vals.copy()
    rows = np.arange(len(pts))
    steps = np.full(len(pts), config.grid_step / 2.0)
    x0 = rx.x0[owner]
    move_owner = np.broadcast_to(owner[:, None], (len(pts), len(_COMPASS)))
    for _ in range(config.refine_iters):
        moves = region.clip(pts[:, None, :] + steps[:, None, None] * _COMPASS)
        dist = np.hypot(moves[..., 0] - x0[:, 0, None], moves[..., 1] - x0[:, 1, None])
        ok = (dist >= config.exclusion_radius) & region.contains(moves)
        mvals = np.full(ok.shape, -np.inf)
        mvals[ok] = _theta_batch(params, rx, moves[ok], move_owner[ok])
        best = _ranked(moves, mvals)[:, 0]
        cand_pts, cand_vals = moves[rows, best], mvals[rows, best]
        up = cand_vals > vals
        pts[up], vals[up] = cand_pts[up], cand_vals[up]
        steps[~up] /= 2.0
    return pts, vals


def optimize_fake_positions(
    params: SignalParams,
    region: Region,
    true_positions,
    genuine_positions,
    config: FakingSearchConfig,
) -> list[FakingOutcome]:
    """Best position to claim from each of ``true_positions``, by expected
    deceptions of the one shared set of genuine receivers.

    Deterministic search, per faker: a coarse grid over the region, plus
    geometry candidates (pairwise circle crossings and points on each
    equal-range circle, which carry the optima when the noise band is too
    thin for any grid), filtered to the feasible set, then greedy compass
    refinement with step halving from the top few candidates. All fakers'
    refinements walk in lockstep, in groups whose batches hold no more
    points than the smallest candidate set; each faker gets exactly the
    outcome it would get searched alone.

    Every choice, of starts, of moves and of the fake, takes the highest
    value and breaks ties toward the lowest (x, y) (``_ranked``). A point
    scores the same in every batch, so ``expected_deceived`` is exactly the
    value the search maximised.
    """
    rx = _receivers(params, true_positions, genuine_positions)
    corners = np.array(
        [
            (region.x_min, region.y_min),
            (region.x_min, region.y_max),
            (region.x_max, region.y_min),
            (region.x_max, region.y_max),
        ]
    )
    grid = _grid_points(region, config.grid_step)
    starts = []
    for f, x0 in enumerate(rx.x0):
        if not region.contains(x0):
            raise ValueError("true_position lies outside the region")
        corner_dist = np.hypot(corners[:, 0] - x0[0], corners[:, 1] - x0[1])
        if corner_dist.max() < config.exclusion_radius:
            raise ValueError("exclusion ball covers the whole region; no feasible fake exists")
        cands = np.concatenate(
            [grid, _pair_reflections(x0, rx.gp), _circle_points(x0, rx.gp, rx.r[:, f])]
        )
        cands = _feasible(region, x0, config.exclusion_radius, cands)
        values = _theta_batch(params, rx, cands, f)
        # refine from the strongest few starts; cheap insurance against the
        # greedy walk stalling on a local ridge
        top = _ranked(cands, values)[:REFINE_STARTS]
        starts.append((cands[top], values[top], np.full(len(top), f), len(cands)))
    if not starts:
        return []

    pts, vals, owner, sizes = zip(*starts)
    pts, vals, owner = np.concatenate(pts), np.concatenate(vals), np.concatenate(owner)
    group = max(1, min(sizes) // len(_COMPASS))
    for lo in range(0, len(pts), group):
        part = slice(lo, lo + group)
        pts[part], vals[part] = _refine(
            params, region, rx, config, pts[part], vals[part], owner[part]
        )
    # a walk moves only to a strictly better point, so a faker's first
    # refined start by rank is at least as good as its best candidate
    order = _ranked(pts, vals, owner)
    fakes = pts[order[np.unique(owner[order], return_index=True)[1]]]
    claimed = np.hypot(
        rx.gp[None, :, 0] - fakes[:, 0, None], rx.gp[None, :, 1] - fakes[:, 1, None]
    )
    probs = _deception_prob_arrays(params, rx.r.T, claimed)
    return [
        FakingOutcome(
            fake_position=(float(pt[0]), float(pt[1])),
            expected_deceived=float(row.sum()),
            per_node_probs=tuple(float(q) for q in row),
        )
        for pt, row in zip(fakes, probs)
    ]


def optimize_fake_position(
    params: SignalParams,
    region: Region,
    true_position,
    genuine_positions,
    config: FakingSearchConfig,
) -> FakingOutcome:
    """Best position to claim from ``true_position``, by expected deceptions:
    the one-faker case of ``optimize_fake_positions``."""
    return optimize_fake_positions(
        params, region, np.reshape(true_position, (1, 2)), genuine_positions, config
    )[0]
