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
from scipy.special import ndtr

from .channel import (
    NEGLIGIBLE_FACTOR,
    SIGMA_BAND,
    SignalParams,
    _deception_prob_arrays,
    _distance_window,
    compute_noise_scale,
    require_finite,
)
from .codec import FieldError

# Candidate-generation constants: samples per equal-range circle, and how
# many top-scoring candidates get their own pattern-search refinement. Circle
# points are made only where they can reach those starts: in noise above the
# negligible level, or for a faker with fewer than REFINE_STARTS feasible
# pair reflections (optimize_fake_positions). Where made, they count: in
# significant noise they move 63-81 cells of each 500-cell table.
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
        require_finite(self)
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
        require_finite(self)
        if self.exclusion_radius <= 0:
            raise FieldError("exclusion_radius", f"must be positive, got {self.exclusion_radius}")
        if self.grid_step <= 0:
            raise FieldError("grid_step", f"must be positive, got {self.grid_step}")
        if self.refine_iters < 0:
            raise FieldError("refine_iters", f"must be nonnegative, got {self.refine_iters}")


@dataclass(frozen=True)
class FakingOutcome:
    fake_position: tuple[float, float]
    expected_deceived: float
    per_node_probs: tuple[float, ...]


# scipy's ndtr is exactly 0.0 for z <= -38.5 and exactly 1.0 for z >= 8.3.
# When a claim's ideal power lies more than _BAND_BELOW noise sigmas under
# the receiver's true ideal power, both ends of its 3-sigma window sit at
# z <= -45; more than _BAND_ABOVE sigmas over it, both sit at z >= 14.8.
# Either way the deception probability is exactly +0.0, with 6.5 sigmas to
# spare, so a scorer may skip such a pair or score it. _BAND_SLACK widens
# the band in distance to cover rounding, which dominates when sigma is far
# below the float resolution of the powers.
_BAND_BELOW = 48.0
_BAND_ABOVE = 17.8
_BAND_SLACK = 1e-9

# A claim whose ideal power lies at least e noise sigmas from the receiver's
# true ideal power deceives it with probability at most
# ndtr(3 + e) - ndtr(e - 3): the 3-sigma window's mass at its least-offset
# position (clamping the window at zero power only removes mass). Candidate
# bounds count each in-band pair at the bound of the highest level it
# clears, 1 below the first. _BOUND_SLACK widens a candidate's summed bound
# over the rounding of both sums, so it never falls below the exact score.
_LEVELS = np.array([3.0, 4.0, 5.0, 6.5])
_LEVEL_BOUNDS = np.concatenate(
    [[1.0], ndtr(SIGMA_BAND + _LEVELS) - ndtr(_LEVELS - SIGMA_BAND)]
)
_BOUND_SLACK = 1e-9

# The float32 screen (_screen) tests a faker's candidate pairs in its
# search's frame (_frame): coordinates less a centre c, times 1/s, where s
# is the largest |x - c| of any receiver or corner of the search's region,
# so every coordinate lies in [-1, 1] and every squared distance D in
# [0, 8]. With e = 2**-24, float32's unit roundoff (float64's
# rounding adds under 2**-27 e to each term below):
# - a coordinate rounds to float32 within e;
# - D is the float32 dot product of (-2gx, -2gy, |g|^2, 1) and
#   (px, py, 1, |p|^2): the cross terms' inputs are off by at most
#   2(e + e) each and the squared norms, rounded from float64, by 2e each,
#   12e in all; the 4-term dot product, in any order and with or without
#   FMA, rounds by at most 4e times the sum of the terms' sizes, 2+2+2+2 =
#   8, so 32e. |D' - D| <= 44e;
# - an edge E/s^2 rounds to float32 within 9e wherever a D' <= 8 + 44e
#   can reach it; farther edges are clipped to 16, beyond every D'.
# So a margin of 64e > 53e, applied outward to every edge, keeps every pair
# that the float64 test keeps and counts a pair beyond a level edge only
# when its float64 squared distance lies beyond it. The level bounds are
# rounded up to float32 (_SCREEN_BOUNDS, which ends in 0.0 for a pair
# beyond the band's edge and every level's), so each screened pair bound is
# at least the float64 one.
_SCREEN_MARGIN = 2.0**-18
_SCREEN_BOUNDS = np.append(_LEVEL_BOUNDS.astype(np.float32), np.float32(0.0))
_SCREEN_BOUNDS[:-1] = np.where(
    _SCREEN_BOUNDS[:-1] < _LEVEL_BOUNDS,
    np.nextafter(_SCREEN_BOUNDS[:-1], np.float32(2.0)),
    _SCREEN_BOUNDS[:-1],
)
# One float32 product in OpenBLAS over a (100, 2606) batch took 1.08 ms on
# two threads, in column blocks of at most this many cells 75 us on one
# (2-CPU x86 host): blocks keep each product under its threading threshold.
_SCREEN_BLOCK = 16384

# A band is thin when at most this share of a candidate batch's (receiver,
# point) pairs lie in it, or of the (receiver, start) pairs a walk can reach
# at its first step (_reachable). _candidate_values then scores every point
# from its list of the screen's kept pairs, as the level bound would keep
# about the points that have any, and the search walks with _refine_live;
# wider bands are bound-pruned and walk with _refine. Measured on preset
# deploys and calibration chunks (2-CPU x86 host): in-band shares
# 0.011-0.023 in negligible noise and 0.42-0.64 in significant noise;
# reachable shares 0.08-0.11 and 0.68-0.81. The cut sits between both pairs.
# It picks scorers and walks only: a thin band is not where circle points
# stop counting (at 1e-4 of the significant sigma they still do).
_THIN_SHARE = 0.3


@dataclass(frozen=True, eq=False)
class _Receivers:
    """Genuine receivers as seen from each faker's true position.

    ``gp`` is one set shared by every faker, (receivers, 2), or one set
    per faker, (fakers, receivers, 2). ``coords`` is (2, receivers,
    fakers): x and y of each faker's own receivers, a column per faker.
    ``r``, ``near2`` and ``far2`` are (receivers, fakers), each faker's
    column from its own set: the true distances, and the squared claimed
    distances outside of which a claim deceives the receiver with
    probability exactly 0.0.
    """

    gp: np.ndarray
    x0: np.ndarray
    coords: np.ndarray
    r: np.ndarray
    near2: np.ndarray
    far2: np.ndarray


def _receivers(params: SignalParams, true_positions, genuine_positions) -> _Receivers:
    """``genuine_positions`` is one shared set, or with three axes one set
    per true position."""
    x0 = np.asarray(true_positions, dtype=float).reshape(-1, 2)
    gp = np.asarray(genuine_positions, dtype=float)
    if gp.ndim == 3:
        if gp.shape[0] != len(x0) or gp.shape[1] == 0 or gp.shape[2] != 2:
            raise ValueError(
                f"genuine sets of shape {gp.shape} for true positions of shape {x0.shape}: "
                f"need one set of at least one receiver per true position, ({len(x0)}, receivers, 2)"
            )
        coords = np.ascontiguousarray(gp.transpose(2, 1, 0))
    else:
        gp = gp.reshape(-1, 2)
        if gp.shape[0] == 0:
            raise ValueError("need at least one genuine position")
        coords = np.repeat(gp.T[:, :, None], len(x0), axis=2)
    r = np.hypot(coords[0] - x0[:, 0], coords[1] - x0[:, 1])
    if np.any(r <= 0):
        raise ValueError("a genuine node coincides with the faker's true position")
    return _Receivers(gp, x0, coords, r, *_squared_edges(params, r, _BAND_ABOVE, _BAND_BELOW))


def _squared_edges(params: SignalParams, r, above, below) -> tuple[np.ndarray, np.ndarray]:
    """Squared (near, far) claimed distances of ``_distance_window`` from
    true distances ``r``, widened by ``_BAND_SLACK``, so rounding never
    moves a pair inward."""
    near, far = _distance_window(params, r, above, below)
    return np.square(near * (1.0 - _BAND_SLACK)), np.square(far * (1.0 + _BAND_SLACK))


class _Scratch:
    """Work arrays of one search, reused by every batch it scores.

    ``get`` views a named buffer at the shape and dtype asked for, so a
    search allocates its large temporaries once instead of once a batch.
    Each buffer holds ``_SHARES`` bytes for each of ``cells`` (receiver,
    point) pairs, the pairs of the largest batch it serves, and never
    grows: a request beyond it raises numpy's ``TypeError``. A view holds
    stale values until written, and its contents last only until the next
    ``get`` of its name.
    Stages share a name only between arrays that are never alive at once:

    - "d2": a batch's squared distances (receivers, points), float32 in the
      screen and then its pair bounds; then per pair its column, y offset
      and true distance, and the score matrix.
    - "work": gathered receiver coordinates and band edges, and the squared
      y distances; the screen's level indices; then per pair the claims'
      coordinates and the channel's output.
    - "pairs": per pair the claimed distance.
    - "inside" and "mask": in-band masks, or the screen's kept pairs; "mask"
      also holds the screen's comparisons and level counts.
    """

    # bytes per cell: the float arrays above, the masks, and two level counts
    _SHARES = {"d2": 8, "work": 8, "pairs": 8, "inside": 1, "mask": 2}

    def __init__(self, cells: int) -> None:
        self.cells = cells
        self._buffers = {
            name: np.empty(share * cells, dtype=np.uint8) for name, share in self._SHARES.items()
        }

    def get(self, name: str, shape, dtype=np.float64, order: str = "C") -> np.ndarray:
        return np.ndarray(shape, dtype, buffer=self._buffers[name], order=order)


def _theta_batch(
    params: SignalParams, rx: _Receivers, points, owner, scratch: _Scratch | None = None
) -> np.ndarray:
    """Expected number of deceived receivers for each point: the one exact
    scorer.

    Point p is claimed by faker ``owner[p]``; a scalar ``owner`` claims
    them all. Only (receiver, point) pairs inside that faker's band reach
    the channel (``_in_band``). Every other pair scores exactly 0.0, as it
    would if scored, so the sums are bit-identical to scoring every pair.

    Each point's receivers are summed along contiguous memory, in numpy's
    pairwise order, which is also the order of a one-point batch and of a
    per-node probability row's ``sum()``. A point therefore scores the same
    whatever else is in the batch.

    Large temporaries come from ``scratch`` (``_Scratch``): the points are
    scored in batches of at most ``scratch.cells // receivers``. Without
    one the call sizes one for all its points.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    scratch = _Scratch(rx.r.shape[0] * len(pts)) if scratch is None else scratch
    width = max(1, scratch.cells // rx.r.shape[0])
    values = np.empty(len(pts))
    for at in (slice(lo, lo + width) for lo in range(0, len(pts), width)):
        part = owner if np.ndim(owner) == 0 else owner[at]
        inside = _in_band(rx, pts[at], part, scratch)
        values[at] = _scores(params, rx, pts[at], part, inside, scratch)
    return values


def _candidate_values(
    params: SignalParams,
    rx: _Receivers,
    pts: np.ndarray,
    f: int,
    scratch: _Scratch,
    frame: _Frame,
) -> np.ndarray:
    """Faker ``f``'s candidate values, for ranking its ``REFINE_STARTS``
    best: the search's one candidate scorer.

    The batch is screened in float32 in ``frame`` (``_screen``), which
    keeps a superset of its in-band pairs, and every point is scored from
    the kept pairs alone: a pair outside the band scores exactly +0.0, so
    any superset gives the same exact values. A batch that keeps at most
    ``_THIN_SHARE`` of its pairs sums every point from its list of kept
    pairs (``_pair_sums``). A wider batch gives only the points that can
    rank among the ``REFINE_STARTS`` best their exact value (``_scores``),
    the others -inf, so ``_ranked`` picks the same points as over every
    exact value. Points are scored in order of the screen's upper bound
    (``_screen_bounds``): first the ``REFINE_STARTS`` highest, whose lowest
    exact value is the floor, then every other point whose bound reaches
    the floor, ties included. The rest cannot beat the floor.
    """
    inside, d2, levels = _screen(rx, pts, f, frame, scratch)
    if np.count_nonzero(inside) <= _THIN_SHARE * inside.size:
        # flatnonzero and divmod outpace a 2-D nonzero several times over
        rcv, cols = np.divmod(np.flatnonzero(inside), inside.shape[1])
        # each pair's entry in the (receivers, fakers) tables of rx
        at = rcv * rx.r.shape[1] + f
        dx = rx.coords[0].take(at) - pts[cols, 0]
        dy = rx.coords[1].take(at) - pts[cols, 1]
        return _pair_sums(params, rx, pts, f, rx.r.take(at), dx, dy, cols, scratch)
    bound = _screen_bounds(inside, d2, levels, scratch)[1]
    values = np.full(len(pts), -np.inf)
    first = np.sort(np.argsort(bound, kind="stable")[-REFINE_STARTS:])
    values[first] = _scores(params, rx, pts[first], f, inside[:, first], scratch)
    rest = np.setdiff1d(np.flatnonzero(bound >= values[first].min()), first, assume_unique=True)
    values[rest] = _scores(params, rx, pts[rest], f, inside[:, rest], scratch)
    return values


def _columns(table: np.ndarray, owner, out=None) -> np.ndarray:
    """Each point's column of a (receivers, fakers) ``table``: its faker's,
    as one (receivers, 1) column that broadcasts against every point when
    ``owner`` is a scalar, else as column p of a (receivers, points) array,
    gathered into ``out`` when given."""
    if np.ndim(owner) == 0:
        return table[:, owner, None]
    return np.take(table, owner, axis=1, out=out, mode="clip")


def _receiver_columns(rx: _Receivers, k: int, owner, out=None) -> np.ndarray:
    """Coordinate ``k`` of the receivers that score each point, as
    ``_columns``; a shared set's columns are all equal, so its first one
    serves every point."""
    return _columns(rx.coords[k], 0 if rx.gp.ndim == 2 else owner, out)


def _in_band(rx: _Receivers, pts: np.ndarray, owner, scratch: _Scratch) -> np.ndarray:
    """Which (receiver, point) pairs (receivers, points) lie inside the
    band of the point's faker, by their squared distance: a view into
    ``scratch``'s "inside"."""
    shape = (rx.r.shape[0], len(pts))
    d2, work = scratch.get("d2", shape), scratch.get("work", shape)
    np.subtract(_receiver_columns(rx, 0, owner, work), pts[:, 0], out=d2)
    d2 *= d2
    dy2 = np.subtract(_receiver_columns(rx, 1, owner, work), pts[:, 1], out=work)
    dy2 *= dy2
    d2 += dy2
    inside = np.greater_equal(
        d2, _columns(rx.near2, owner, work), out=scratch.get("inside", shape, bool)
    )
    inside &= np.less_equal(
        d2, _columns(rx.far2, owner, work), out=scratch.get("mask", shape, bool)
    )
    return inside


@dataclass(frozen=True, eq=False)
class _Frame:
    """What the float32 screen needs of a search, for batches whose
    receivers and points all lie in one box: its ``centre`` and ``inv``,
    1 / the largest offset from the centre; each receiver set's factors
    ``lhs`` (sets, receivers, 4), (-2x, -2y, x^2 + y^2, 1) in the frame,
    one set for a shared one; and ``edges`` (2, levels + 1, receivers,
    fakers), the band's and the levels' squared edges, near and far, in the
    frame, each moved out by ``_SCREEN_MARGIN``, float32."""

    centre: np.ndarray
    inv: float
    lhs: np.ndarray
    edges: np.ndarray


def _frame(params: SignalParams, rx: _Receivers, lo, hi) -> _Frame:
    """The screen's frame for the box that holds ``rx``'s receivers and the
    corners ``lo`` and ``hi``."""
    lo = np.minimum(rx.coords.min(axis=(1, 2)), lo)
    hi = np.maximum(rx.coords.max(axis=(1, 2)), hi)
    centre = (lo + hi) / 2.0
    # rounding is monotone and symmetric, so no |x - centre| exceeds this
    inv = 1.0 / (max(np.max(hi - centre), np.max(centre - lo)) or 1.0)
    g = (rx.coords[:, :, : 1 if rx.gp.ndim == 2 else None] - centre[:, None, None]) * inv
    lhs = np.empty((g.shape[2], g.shape[1], 4), np.float32)
    lhs[..., :2] = g.T
    lhs[..., :2] *= -2.0
    lhs[..., 2], lhs[..., 3] = np.square(g).sum(axis=0).T, 1.0
    # near and far, each the band's edge and then the levels'
    levels = _LEVELS[:, None, None]
    level_near, level_far = _squared_edges(params, rx.r, levels, levels)
    edges = np.stack(
        [np.concatenate([rx.near2[None], level_near]), np.concatenate([rx.far2[None], level_far])]
    )
    margin = np.array([-_SCREEN_MARGIN, _SCREEN_MARGIN])[:, None, None, None]
    edges = np.minimum(edges * inv * inv + margin, 16.0).astype(np.float32)
    return _Frame(centre, inv, lhs, edges)


def _screen(
    rx: _Receivers, pts: np.ndarray, f: int, frame: _Frame, scratch: _Scratch
) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Float32 screen of faker ``f``'s (receiver, point) pairs in
    ``frame``: which may lie in band, a superset of ``_in_band``'s pairs (a
    view into ``scratch``'s "inside"), and the squared distances (float32,
    in "d2") and level edges that ``_screen_bounds`` reads."""
    shape = (rx.r.shape[0], len(pts))
    q = (pts.T - frame.centre[:, None]) * frame.inv
    rhs = np.empty((4, len(pts)), np.float32)
    rhs[:2], rhs[2], rhs[3] = q, 1.0, q[0] * q[0] + q[1] * q[1]
    # d2 = |g|^2 + |p|^2 - 2 g.p, one matrix product of the factors
    d2 = scratch.get("d2", shape, np.float32)
    lhs = frame.lhs[0 if len(frame.lhs) == 1 else f]
    width = max(1, _SCREEN_BLOCK // shape[0])
    for at in range(0, len(pts), width):
        np.matmul(lhs, rhs[:, at : at + width], out=d2[:, at : at + width])
    # near and far, (receivers, 1) each: the band's edge, then each level's
    (near, *level_near), (far, *level_far) = frame.edges[..., f, None]
    inside = np.greater_equal(d2, near, out=scratch.get("inside", shape, bool))
    inside &= np.less_equal(d2, far, out=scratch.get("mask", shape, bool))
    return inside, d2, (level_near, level_far)


def _screen_bounds(
    inside: np.ndarray, d2: np.ndarray, levels, scratch: _Scratch
) -> tuple[np.ndarray, np.ndarray]:
    """Upper bounds from a batch's ``_screen``: each pair's (receivers,
    points), float32 in ``scratch``'s "d2", which ``d2`` may hold, and
    each point's, its pairs' bounds summed in float64.

    A pair takes ``_SCREEN_BOUNDS`` at the count of edges it lies beyond:
    the band's, then each level's. On one side of a receiver the edges
    nest, so the count is the highest level passed; where rounded edges
    tie out of order, the count is lower and its bound higher. A pair
    beyond the band's edge and every level's scores 0.0."""
    counts = scratch.get("mask", (2, *d2.shape), np.uint8)
    level, beyond = counts[0], counts[1].view(bool)
    np.logical_not(inside, out=level.view(bool))
    for level_near, level_far in zip(*levels):
        level += np.less(d2, level_near, out=beyond).view(np.uint8)
        level += np.greater(d2, level_far, out=beyond).view(np.uint8)
    index = scratch.get("work", d2.shape, np.intp)
    index[...] = level
    pairs = _SCREEN_BOUNDS.take(index, out=scratch.get("d2", d2.shape, np.float32), mode="clip")
    return pairs, pairs.sum(axis=0, dtype=np.float64) * (1.0 + _BOUND_SLACK) + _BOUND_SLACK


def _scores(
    params: SignalParams,
    rx: _Receivers,
    pts: np.ndarray,
    owner,
    inside: np.ndarray,
    scratch: _Scratch,
) -> np.ndarray:
    """Exact scores of ``pts`` from ``inside`` (receivers, points), a mask
    of their (receiver, point) pairs that holds every in-band one; it must
    not be a view of ``scratch``'s "d2", "work" or "pairs"."""
    # "d2" ends as the score matrix, which outsizes the pair arrays before it
    out = scratch.get("d2", inside.shape, order="F")
    at = np.flatnonzero(inside)
    n = len(at)
    cols = scratch.get("d2", n, np.intp)
    np.divmod(at, inside.shape[1], out=(at, cols))
    # each pair's entry in the (receivers, fakers) tables of rx
    at *= rx.r.shape[1]
    if np.ndim(owner) == 0:
        at += owner
    else:
        at += np.take(owner, cols, out=scratch.get("work", n, np.intp), mode="clip")
    claimed = np.take(rx.coords[0], at, out=scratch.get("pairs", n), mode="clip")
    claim = scratch.get("work", n)
    claimed -= np.take(pts[:, 0], cols, out=claim, mode="clip")
    np.take(pts[:, 1], cols, out=claim, mode="clip")
    dy = np.take(rx.coords[1], at, out=scratch.get("d2", n), mode="clip")  # cols are spent
    dy -= claim
    np.hypot(claimed, dy, out=claimed)
    true = np.take(rx.r, at, out=dy, mode="clip")
    probs = _deception_prob_arrays(params, true, claimed, out=claim)
    # column-major, so each point's receivers are contiguous for the sum; the
    # elementwise work above keeps (receivers, points) for its long rows. The
    # kernel has spent true's storage.
    out.fill(0.0)
    out[inside] = probs
    return out.sum(axis=0)


def _pair_sums(
    params: SignalParams,
    rx: _Receivers,
    pts: np.ndarray,
    owner,
    true,
    dx,
    dy,
    cols,
    scratch: _Scratch,
) -> np.ndarray:
    """Each of ``pts``' sum over its listed pairs, claimed by ``owner`` as
    ``_columns``. Pair i, of point ``cols[i]``, is a receiver at true
    distance ``true[i]`` and at offset (``dx[i]``, ``dy[i]``) from the
    claim; ``dx`` and ``dy`` are spent.

    The list must hold every in-band pair; a pair outside the band scores
    exactly +0.0. A point's pairs are added in list order. For a point with
    at most two, that is ``_scores``' sum: every other entry of its dense
    column is +0.0, which leaves any sum unchanged, so both give 0.0, a, or
    fl(a + b) in either order. With three or more the order can move the
    last bit, so those points are scored densely, by ``_theta_batch``.
    """
    claimed = np.hypot(dx, dy, out=dx)
    probs = _deception_prob_arrays(params, true, claimed, out=dy)
    # an empty list counts into integers, whatever its weights
    sums = np.bincount(cols, probs, len(pts)).astype(float, copy=False)
    many = np.flatnonzero(np.bincount(cols, minlength=len(pts)) > 2)
    if len(many):
        part = owner if np.ndim(owner) == 0 else owner[many]
        sums[many] = _theta_batch(params, rx, pts[many], part, scratch)
    return sums


def theta_for_fake(
    params: SignalParams, true_position, fake_position, genuine_positions
) -> float:
    """Expected count of genuine receivers deceived by claiming ``fake_position``.

    Sums, over receivers, the probability that the claimed distance passes
    the receiver's 3-sigma check given the true one.
    """
    rx = _receivers(params, true_position, genuine_positions)
    return float(_theta_batch(params, rx, fake_position, 0)[0])


def _receiver_pairs(gp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each pair of distinct receivers as (a, b - a, |b - a|**2): what
    ``_pair_reflections`` needs of them, shared by every faker."""
    ii, jj = np.triu_indices(gp.shape[0], k=1)
    a, b = gp[ii], gp[jj]
    ab = b - a
    norm2 = np.einsum("ij,ij->i", ab, ab)
    keep = norm2 > 1e-18
    return a[keep], ab[keep], norm2[keep]


def _pair_reflections(x0: np.ndarray, pairs) -> np.ndarray:
    """Second intersection of each pair of equal-range circles.

    Every circle "points at distance r_j from receiver j" passes through the
    true position; for a pair of receivers (``_receiver_pairs``) the other
    crossing is the mirror image of the true position across the line
    joining them. Those points keep two claimed distances exactly truthful
    and are the payoff spots when the noise band is thin.
    """
    a, ab, norm2 = pairs
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


def _clear(x0: np.ndarray, radius: float, pts: np.ndarray) -> np.ndarray:
    """Which of ``pts`` (..., 2) lie at least ``radius`` from ``x0``, which
    broadcasts against them: ``_feasible`` for points inside the region."""
    return np.hypot(pts[..., 0] - x0[..., 0], pts[..., 1] - x0[..., 1]) >= radius


def _feasible(region: Region, x0: np.ndarray, radius: float, pts: np.ndarray) -> np.ndarray:
    """Which of ``pts`` (..., 2) a faker at ``x0`` may claim: in the region,
    and at least ``radius`` from ``x0``, which broadcasts against them."""
    return _clear(x0, radius, pts) & region.contains(pts)


def _ranked(points: np.ndarray, values: np.ndarray, *major) -> np.ndarray:
    """Indices that order the last axis by the ``major`` keys, then by
    highest value, then by lowest (x, y): the search's one ranking rule."""
    return np.lexsort((points[..., 1], points[..., 0], -values, *reversed(major)), axis=-1)


def _top(points: np.ndarray, values: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` (at least 1) of the finite ``values`` by ``_ranked``.
    Only values at or above the k-th highest, ties included, can be among
    them, so only those are ranked."""
    top = np.flatnonzero(values > -np.inf)
    if len(top) > k:
        top = top[values[top] >= np.partition(values[top], -k)[-k]]
    return top[_ranked(points[top], values[top])[:k]]


def _walk(
    region: Region,
    rx: _Receivers,
    config: FakingSearchConfig,
    pts: np.ndarray,
    vals: np.ndarray,
    owner: np.ndarray,
    score,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy compass walk with step halving from each start, in lockstep.

    Start i searches for faker ``owner[i]``. Each iteration every start
    moves to its best feasible compass neighbour by ``_ranked`` if that
    beats its value, and halves its step otherwise. ``score(moves, ok,
    moved, pts, steps)`` values the (starts, 8) ``moves`` from ``pts``,
    -inf where ``ok`` is False; ``moved`` marks the starts that moved last
    iteration, every start before the first.

    A start that moved compares each new move with its nine points of the
    iteration before: its eight moves and the point it left. A move at
    exactly the coordinates of one of them takes that point's value and
    does not reach ``score``. A point's value and feasibility depend only
    on its coordinates and its faker, so the walk ends as if every move
    were scored. The point a start left counts only once the start has
    moved before, as the value it had there came from a scored move; a
    start's first value is the caller's.
    """
    pts, vals = pts.copy(), vals.copy()
    rows = np.arange(len(pts))
    steps = np.full(len(pts), config.grid_step / 2.0)
    x0 = rx.x0[owner, None]
    moved = np.ones(len(pts), dtype=bool)
    walked = np.zeros(len(pts), dtype=bool)
    # the starts that moved last iteration; with none, nothing is compared
    at = rows[:0]
    for _ in range(config.refine_iters):
        moves = region.clip(pts[:, None, :] + steps[:, None, None] * _COMPASS)
        ok = _clear(x0, config.exclusion_radius, moves)
        if len(at):
            match = (moves[at, :, None] == seen_pts[:, None]).all(-1)
            known = np.zeros(ok.shape, dtype=bool)
            known[at] = match.any(-1)
            mvals = score(moves, ok & ~known, moved, pts, steps)
            prior = np.take_along_axis(seen_vals, match.argmax(-1), axis=1)
            mvals[at] = np.where(known[at], prior, mvals[at])
        else:
            mvals = score(moves, ok, moved, pts, steps)
        best = _ranked(moves, mvals)[:, 0]
        cand_pts, cand_vals = moves[rows, best], mvals[rows, best]
        moved = cand_vals > vals
        at = np.flatnonzero(moved)
        if len(at):
            # each moving start's nine points, and their values
            seen_pts = np.concatenate([moves[at], pts[at, None]], axis=1)
            # NaN equals no move: a first value is not one the walk scored
            seen_pts[~walked[at], -1] = np.nan
            seen_vals = np.concatenate([mvals[at], vals[at, None]], axis=1)
            walked |= moved
        pts[moved], vals[moved] = cand_pts[moved], cand_vals[moved]
        steps[~moved] /= 2.0
    return pts, vals


def _refine(
    params: SignalParams,
    region: Region,
    rx: _Receivers,
    config: FakingSearchConfig,
    pts: np.ndarray,
    vals: np.ndarray,
    owner: np.ndarray,
    scratch: _Scratch,
) -> tuple[np.ndarray, np.ndarray]:
    """``_walk`` scoring every move against every receiver
    (``_theta_batch``); since it sums each point in one order, each start
    walks exactly as it would alone.
    """
    move_owner = np.repeat(owner, len(_COMPASS))

    def score(moves, ok, *_):
        mvals = np.full(ok.shape, -np.inf)
        at = np.flatnonzero(ok)
        mvals.flat[at] = _theta_batch(params, rx, moves.reshape(-1, 2)[at], move_owner[at], scratch)
        return mvals

    return _walk(region, rx, config, pts, vals, owner, score)


def _reachable(
    rx: _Receivers, pts: np.ndarray, owner: np.ndarray, steps: np.ndarray
) -> np.ndarray:
    """Which receivers (receivers, starts) some compass move of ``steps``
    from each start could claim inside the band of the start's faker.

    A compass move lies within step·√2 of its start, clipped or not: the
    start lies inside the region, and clipping to a box is a projection onto
    a convex set, which never lengthens a move from a point inside it. So a
    move's distance to a receiver lies within step·√2 of the start's
    (triangle inequality), and a receiver whose band misses that interval is
    out of band for all 8 moves. The reach is widened by ``_BAND_SLACK`` of
    the start's coordinates, over the rounding of the move, and the interval
    by ``_BAND_SLACK`` of the distances, over the rounding of ``d2``; so no
    pair that ``_in_band`` keeps is dropped. A start's step only shrinks
    while it stays put, so its receivers stay valid until it moves.
    """
    dist = np.hypot(
        _receiver_columns(rx, 0, owner) - pts[:, 0], _receiver_columns(rx, 1, owner) - pts[:, 1]
    )
    reach = steps * np.sqrt(2.0) + _BAND_SLACK * (np.abs(pts).sum(axis=1) + steps)
    near = np.square((dist + reach) * (1.0 + _BAND_SLACK))
    far = np.square(np.maximum(dist - reach, 0.0) * (1.0 - _BAND_SLACK))
    return (near >= rx.near2[:, owner]) & (far <= rx.far2[:, owner])


def _refine_live(
    params: SignalParams,
    region: Region,
    rx: _Receivers,
    config: FakingSearchConfig,
    pts: np.ndarray,
    vals: np.ndarray,
    owner: np.ndarray,
    scratch: _Scratch,
) -> tuple[np.ndarray, np.ndarray]:
    """``_walk`` testing each start only against the receivers its moves
    can reach (``_reachable``).

    Each live (receiver, start) pair carries its receiver's coordinates,
    band edges and true distance. The pairs of every start are re-found
    whenever a start has moved, and kept otherwise. A move's pairs take
    ``_in_band``'s per-pair ``d2`` and test, so a move has the same in-band
    pairs as in ``_refine``, and each move is summed from its own in-band
    pairs (``_pair_sums``): a feasible move with none scores exactly 0.0,
    and the few with more than two are scored densely, as in ``_refine``.
    So every move sums as in ``_refine``, and the walks end byte-equal.
    """
    move_owner = np.repeat(owner, len(_COMPASS))
    live = None

    def score(moves, ok, moved, pts, steps):
        nonlocal live
        if moved.any():
            rcv, start = np.nonzero(_reachable(rx, pts, owner, steps))
            band = owner[start]
            edges = (rx.near2[rcv, band], rx.far2[rcv, band], rx.r[rcv, band])
            live = (start, *rx.coords[:, rcv, band], *edges)
        # live pairs: start, and the receiver's x, y, band edges and true distance
        start, gx, gy, near2, far2, r = live
        # _in_band's d2 and test on each (live pair, move)
        dx = gx[:, None] - moves[start, :, 0]
        dy = gy[:, None] - moves[start, :, 1]
        d2 = np.square(dx)
        d2 += np.square(dy)
        inside = (d2 >= near2[:, None]) & (d2 <= far2[:, None]) & ok[start]
        at = np.flatnonzero(inside)
        pair, move = np.divmod(at, len(_COMPASS))
        cols = start[pair] * len(_COMPASS) + move
        mvals = _pair_sums(
            params, rx, moves.reshape(-1, 2), move_owner, r[pair], dx.flat[at], dy.flat[at],
            cols, scratch,
        )
        mvals[~ok.reshape(-1)] = -np.inf
        return mvals.reshape(ok.shape)

    return _walk(region, rx, config, pts, vals, owner, score)


def optimize_fake_positions(
    params: SignalParams,
    region: Region,
    true_positions,
    genuine_positions,
    config: FakingSearchConfig,
) -> list[FakingOutcome]:
    """Best position to claim from each of ``true_positions``, by expected
    deceptions of genuine receivers: one set shared by every faker, (receivers,
    2), or one set per faker, (fakers, receivers, 2). With one set per faker,
    one call searches independent instances in lockstep, as calibration
    searches a chunk of its cells.

    Deterministic search, per faker: a coarse grid over the region, plus
    geometry candidates, filtered to the feasible set, then greedy compass
    refinement with step halving from the ``REFINE_STARTS`` best candidates.
    The geometry candidates are the pair reflections (``_pair_reflections``),
    claims truthful to two receivers, and points on each receiver's
    equal-range circle (``_circle_points``), truthful to one.

    Circle points are made only when the noise lies above the negligible
    level (``NEGLIGIBLE_FACTOR`` times ``compute_noise_scale``, the
    "negligible" noise mode's sigma), or when the faker has fewer than
    ``REFINE_STARTS`` feasible pair reflections. At or below that level a
    reflection scores about two receivers and a circle point about one, so
    with ``REFINE_STARTS`` reflections the starts are all reflections. This
    rests on evidence, not proof: without the circle points, every fake and
    value of 588 fakers of ``neg-noise-52`` and ``neg-noise-101-51``
    deploys at seeds 0-5, and every value of ``neg-noise-52``'s 500-cell
    tables at calibration seeds 0-2, stayed the same. Where they can reach
    the starts they count: with one or two receivers in negligible noise
    they carry the optimum, and in thin bands above the level (1e-4 and
    0.03 of the significant sigma) they raise some cells' values; tests pin
    both. Below the level, where a band can be too thin for any claim to
    score above exactly 0.0, every candidate ties at 0.0, and without the
    circle points the tie-break may pick another point of the same value.

    Each faker's candidates are scored by ``_candidate_values``, which
    first screens them in float32, in one frame for the region
    (``_frame``). In a thin band (``_THIN_SHARE``) every candidate is
    scored, and all fakers' refinements walk in lockstep tested only
    against the receivers a move can reach (``_refine_live``). In a wider
    band only the candidates whose screened upper bound can rank them among
    the top few are scored, and all refinements walk in lockstep against
    every receiver (``_refine``).
    Both walks score in batches that hold no more points than the largest
    candidate set, end byte-equal, and give each faker exactly the outcome
    it would get searched alone.

    Every choice, of starts, of moves and of the fake, takes the highest
    value and breaks ties toward the lowest (x, y) (``_ranked``). A point
    scores the same in every batch, so ``expected_deceived`` is exactly the
    value the search maximised.

    The call's batches take their large temporaries from one ``_Scratch``,
    which the call sizes for its largest batch, the largest candidate set,
    and frees on return.
    """
    rx = _receivers(params, true_positions, genuine_positions)
    if not np.all(region.contains(rx.x0)):
        raise ValueError("true_position lies outside the region")
    # each position's farthest corner
    x, y = rx.x0.T
    far = np.hypot(
        np.maximum(x - region.x_min, region.x_max - x),
        np.maximum(y - region.y_min, region.y_max - y),
    )
    if np.any(far < config.exclusion_radius):
        raise ValueError("exclusion ball covers the whole region; no feasible fake exists")
    grid = _grid_points(region, config.grid_step)
    shared = rx.gp.ndim == 2
    pairs = _receiver_pairs(rx.gp) if shared else None
    negligible = params.noise_sigma <= NEGLIGIBLE_FACTOR * compute_noise_scale(params, region)
    # each faker's feasible grid points as a mask, and its other feasible
    # candidates as parts, to size the scratch before scoring; a mask keeps
    # no copy of the grid per faker. Grid points lie in the region.
    geometry = []
    for f, x0 in enumerate(rx.x0):
        gp = rx.gp if shared else rx.gp[f]
        reflections = _pair_reflections(x0, pairs if shared else _receiver_pairs(gp))
        extra = [reflections[_feasible(region, x0, config.exclusion_radius, reflections)]]
        if not negligible or len(extra[0]) < REFINE_STARTS:
            circles = _circle_points(x0, gp, rx.r[:, f])
            extra.append(circles[_feasible(region, x0, config.exclusion_radius, circles)])
        geometry.append((_clear(x0, config.exclusion_radius, grid), extra))
    if not geometry:
        return []

    # the largest candidate batch is the search's largest: refinement
    # batches hold no more points
    most = max(np.count_nonzero(on_grid) + sum(map(len, extra)) for on_grid, extra in geometry)
    scratch = _Scratch(rx.r.shape[0] * most)
    frame = _frame(params, rx, (region.x_min, region.y_min), (region.x_max, region.y_max))
    starts = []
    for f, (on_grid, extra) in enumerate(geometry):
        cands = np.concatenate([grid[on_grid], *extra])
        # refine from the strongest few starts; cheap insurance against the
        # greedy walk stalling on a local ridge
        values = _candidate_values(params, rx, cands, f, scratch, frame)
        top = _top(cands, values, REFINE_STARTS)
        starts.append((cands[top], values[top], np.full(len(top), f)))
    del geometry

    pts, vals, owner = (np.concatenate(part) for part in zip(*starts))
    first = np.full(len(pts), config.grid_step / 2.0)
    walk = _refine_live if _reachable(rx, pts, owner, first).mean() <= _THIN_SHARE else _refine
    pts, vals = walk(params, region, rx, config, pts, vals, owner, scratch)
    # a walk moves only to a strictly better point, so a faker's first
    # refined start by rank is at least as good as its best candidate
    order = _ranked(pts, vals, owner)
    fakes = pts[order[np.unique(owner[order], return_index=True)[1]]]
    gx, gy = rx.coords.transpose(0, 2, 1)
    claimed = np.hypot(gx - fakes[:, 0, None], gy - fakes[:, 1, None])
    probs = _deception_prob_arrays(params, rx.r.T, claimed)
    return [
        FakingOutcome(
            fake_position=(float(pt[0]), float(pt[1])),
            expected_deceived=float(row.sum()),
            per_node_probs=tuple(row.tolist()),
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
