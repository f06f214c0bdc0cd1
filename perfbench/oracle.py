"""Optimality gap of the fake-position search against an independent oracle.

The oracle scores claims with its own implementation of the deception
objective (cross-checked against the public ``theta_for_fake``), searches a
dense grid plus every pair reflection and circle point, and refines the best
starts by compass search until the step is negligible. The searched point is
always one of the starts, so ``oracle >= found`` holds by construction.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

DENSE_STEP = 0.5  # metres between dense-grid candidates
REFINE_STARTS = 24
REFINE_ITERS = 200
MIN_STEP = 1e-9  # metres; a start stops refining below this step
CROSS_CHECK_POINTS = 8
CROSS_CHECK_RTOL = 1e-9
_CHUNK = 4096  # candidates scored per array pass, bounds oracle memory

_COMPASS = np.array(
    [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)], dtype=float
)


def deceived(params, x0, genuine, points) -> np.ndarray:
    """Expected deceived receivers for each claimed point, shape (len(points),)."""
    half_m = params.path_loss_exponent / 2.0
    # received power is scale / squared_distance ** (m / 2)
    scale = params.transmit_power * (params.wavelength / (4.0 * math.pi)) ** params.path_loss_exponent
    sigma = params.noise_sigma
    true_sq = (genuine[:, 0] - x0[0]) ** 2 + (genuine[:, 1] - x0[1]) ** 2
    true_power = (scale / true_sq**half_m)[:, None]
    out = np.empty(len(points))
    for lo_i in range(0, len(points), _CHUNK):
        pts = points[lo_i : lo_i + _CHUNK]
        sq = (genuine[:, 0, None] - pts[None, :, 0]) ** 2 + (genuine[:, 1, None] - pts[None, :, 1]) ** 2
        ok = sq > 0
        sq = np.where(ok, sq, 1.0)
        claim_power = scale / (sq if half_m == 1.0 else sq**half_m)
        hi = (claim_power + 3.0 * sigma - true_power) / sigma
        lo = (np.maximum(claim_power - 3.0 * sigma, 0.0) - true_power) / sigma
        prob = ndtr(hi) - ndtr(lo)
        out[lo_i : lo_i + len(pts)] = np.where(ok, prob, 0.0).sum(axis=0)
    return out


def _feasible_mask(region, x0, radius, pts) -> np.ndarray:
    inside = (
        (pts[..., 0] >= region.x_min)
        & (pts[..., 0] <= region.x_max)
        & (pts[..., 1] >= region.y_min)
        & (pts[..., 1] <= region.y_max)
    )
    return inside & (np.hypot(pts[..., 0] - x0[0], pts[..., 1] - x0[1]) >= radius)


def _candidates(region, x0, genuine) -> np.ndarray:
    xs = np.arange(region.x_min, region.x_max + DENSE_STEP / 2, DENSE_STEP)
    ys = np.arange(region.y_min, region.y_max + DENSE_STEP / 2, DENSE_STEP)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    # mirror images of x0 across each receiver pair keep two ranges exact
    ii, jj = np.triu_indices(len(genuine), k=1)
    a, ab = genuine[ii], genuine[jj] - genuine[ii]
    t = np.einsum("ij,ij->i", x0 - a, ab) / np.einsum("ij,ij->i", ab, ab)
    mirrors = 2.0 * (a + t[:, None] * ab) - x0
    # points on each receiver's equal-range circle, denser than the search's
    r = np.hypot(genuine[:, 0] - x0[0], genuine[:, 1] - x0[1])
    ang = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    ring = genuine[:, None, :] + r[:, None, None] * np.stack([np.cos(ang), np.sin(ang)], 1)
    return np.concatenate([grid, mirrors, ring.reshape(-1, 2)])


def oracle_value(params, region, faking, x0, genuine, found_point) -> float:
    """Best expected deception the oracle finds, never below ``found_point``'s."""
    radius = faking.exclusion_radius
    cands = _candidates(region, x0, genuine)
    cands = cands[_feasible_mask(region, x0, radius, cands)]
    values = deceived(params, x0, genuine, cands)
    top = np.argsort(-values, kind="stable")[:REFINE_STARTS]
    pts = np.concatenate([cands[top], np.asarray(found_point, dtype=float)[None, :]])
    vals = np.concatenate([values[top], deceived(params, x0, genuine, pts[-1:])])
    step = np.full(len(pts), DENSE_STEP)
    for _ in range(REFINE_ITERS):
        live = np.flatnonzero(step >= MIN_STEP)
        if live.size == 0:
            break
        moves = np.clip(
            pts[live, None, :] + step[live, None, None] * _COMPASS,
            (region.x_min, region.y_min),
            (region.x_max, region.y_max),
        )
        ok = _feasible_mask(region, x0, radius, moves)
        mvals = deceived(params, x0, genuine, moves.reshape(-1, 2)).reshape(ok.shape)
        mvals = np.where(ok, mvals, -np.inf)
        best = mvals.argmax(axis=1)
        bval = mvals[np.arange(live.size), best]
        up = bval > vals[live]
        pts[live[up]] = moves[np.arange(live.size), best][up]
        vals[live[up]] = bval[up]
        step[live[~up]] /= 2.0
    return float(vals.max())


def cross_check(params, x0, genuine, points, theta_for_fake) -> float:
    """Largest relative disagreement between ``deceived`` and the public scorer."""
    ours = deceived(params, x0, genuine, points)
    worst = 0.0
    for p, v in zip(points, ours):
        ref = theta_for_fake(params, x0, p, genuine)
        worst = max(worst, abs(v - ref) / max(1.0, abs(ref)))
    return worst
