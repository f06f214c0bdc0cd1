"""Received-signal-strength ranging under additive Gaussian power noise.

Free-space power transfer, distance estimation from a measured power, the
3-sigma acceptance test a receiver applies to a sender's claimed distance,
and the closed-form probability that a claim at one distance passes the
test when the signal actually travelled another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np
from scipy.special import ndtr

FOUR_PI = 4.0 * math.pi

# Half-width of the acceptance band in noise standard deviations.
SIGMA_BAND = 3.0

# 2*Phi(3) - 1: probability that a truthful claim passes the 3-sigma test.
TRUTHFUL_ACCEPT_PROB = 0.9973002039367398


def require_finite(obj) -> None:
    """Reject a dataclass whose numeric fields hold NaN or an infinity,
    naming the first such field; JSON files may spell both."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


class Verdict(Enum):
    APPROVE = "approve"
    ACCUSE = "accuse"


@dataclass(frozen=True)
class SignalParams:
    """Physical layer constants shared by every node.

    Attributes
    ----------
    transmit_power : float
        Power every node radiates, watts. Positive.
    wavelength : float
        Carrier wavelength, metres. Positive.
    noise_sigma : float
        Standard deviation of the additive Gaussian noise on each received
        power reading, watts. Zero means a noiseless channel.
    path_loss_exponent : float
        Power decays with distance**(-exponent). Free space is 2; values up
        to 4 model lossier environments.
    """

    transmit_power: float
    wavelength: float
    noise_sigma: float = 0.0
    path_loss_exponent: float = 2.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.transmit_power <= 0:
            raise ValueError(f"transmit_power must be positive, got {self.transmit_power}")
        if self.wavelength <= 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be nonnegative, got {self.noise_sigma}")
        if not 2.0 <= self.path_loss_exponent <= 4.0:
            raise ValueError(
                f"path_loss_exponent must lie in [2, 4], got {self.path_loss_exponent}"
            )

    @property
    def alpha(self) -> float:
        """Reference length wavelength/(4*pi), metres."""
        return self.wavelength / FOUR_PI


@dataclass(frozen=True)
class AcceptanceInterval:
    """Closed distance interval a receiver accepts for a given claim.

    ``upper`` may be ``math.inf`` when noise is large enough that arbitrarily
    low received powers remain consistent with the claim.
    """

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not 0 <= self.lower <= self.upper:
            raise ValueError(f"need 0 <= lower <= upper, got [{self.lower}, {self.upper}]")

    def contains(self, distance: float) -> bool:
        return self.lower <= distance <= self.upper


def ideal_received_power(params: SignalParams, distance):
    """Noise-free received power at ``distance`` metres.

    transmit_power * (alpha / distance) ** path_loss_exponent. Accepts a
    scalar or an ndarray of positive distances.
    """
    d = np.asarray(distance, dtype=float)
    if np.any(~(d > 0)):
        raise ValueError("distance must be positive")
    out = params.transmit_power * (params.alpha / d) ** params.path_loss_exponent
    return float(out) if np.isscalar(distance) or d.ndim == 0 else out


def noisy_received_power(params: SignalParams, distance, rng: np.random.Generator):
    """One noisy power reading per distance: ideal power plus N(0, sigma^2).

    Can be nonpositive when the noise draw is low enough; callers must treat
    such readings as unusable for ranging.
    """
    ideal = ideal_received_power(params, distance)
    noise = rng.normal(0.0, params.noise_sigma, size=np.shape(distance))
    out = ideal + noise
    return float(out) if np.isscalar(distance) or np.ndim(distance) == 0 else out


def estimate_distance(params: SignalParams, received_power: float) -> float | None:
    """Invert the power law; ``None`` when the reading is not estimable.

    A nonpositive reading carries no distance information (the power law
    only produces positive powers), so the estimate is undefined.
    """
    if not received_power > 0:
        return None
    ratio = params.transmit_power / received_power
    return params.alpha * ratio ** (1.0 / params.path_loss_exponent)


def _distance_window(params: SignalParams, distance, above, below):
    """``(near, far)``: the distances whose ideal power lies from ``below``
    noise sigmas under to ``above`` over the ideal power at ``distance``;
    ``far`` is inf where that window reaches zero power. Broadcasts."""
    # distance c has ideal power ideal(d) * (d/c)**m; q = sigma / ideal(d)
    d = np.asarray(distance, dtype=float)
    m = params.path_loss_exponent
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # ends may go to 0 or inf
        q = np.divide(params.noise_sigma, ideal_received_power(params, d))
        near = d * (1.0 + above * q) ** (-1.0 / m)
        far = np.where(below * q < 1.0, d * (1.0 - below * q) ** (-1.0 / m), np.inf)
    return near, far


def acceptance_interval(params: SignalParams, claimed_distance: float) -> AcceptanceInterval:
    """Distance estimates the receiver accepts for ``claimed_distance``.

    The receiver tolerates estimates whose implied power sits within
    3 sigma of the ideal power at the claim. When 3 sigma exceeds that
    ideal power the interval is unbounded above: any positive estimate
    far out is still explainable by noise.
    """
    if not claimed_distance > 0:
        raise ValueError(f"claimed_distance must be positive, got {claimed_distance}")
    lower, upper = _distance_window(params, claimed_distance, SIGMA_BAND, SIGMA_BAND)
    return AcceptanceInterval(float(lower), float(upper))


def link_verdict(params: SignalParams, claimed_distance: float, received_power: float) -> Verdict:
    """Accept or reject one claim given one power reading. Total in the reading.

    Approves exactly when the reading is estimable and the estimate falls in
    the acceptance interval for the claim; evaluated in the power domain
    (see ``_power_bounds``). Degenerate readings are accusations: a node
    whose signal cannot be ranged has no business passing a position check.
    """
    if not claimed_distance > 0:
        raise ValueError(f"claimed_distance must be positive, got {claimed_distance}")
    approve = bool(_approve_mask(params, claimed_distance, received_power))
    return Verdict.APPROVE if approve else Verdict.ACCUSE


def _power_bounds(params: SignalParams, claimed):
    """Received-power window equivalent to the distance acceptance interval.

    The estimate lies in [lower, upper] distance exactly when the reading
    lies within 3 sigma of the ideal power at the claim (the map between
    power and estimate is a decreasing bijection, closed ends to closed
    ends). Working in the power domain keeps truthful noiseless readings
    exactly on the nose instead of an ulp off after a pow round trip.
    Bounds are nan where the claim is nonpositive.
    """
    c = np.asarray(claimed, dtype=float)
    ideal_c = np.where(c > 0, ideal_received_power(params, np.where(c > 0, c, 1.0)), np.nan)
    slack = SIGMA_BAND * params.noise_sigma
    return ideal_c - slack, ideal_c + slack


def _approve_mask(params: SignalParams, claimed, received_power):
    """Vectorized ``link_verdict(...) == APPROVE``; broadcasts its arguments."""
    p = np.asarray(received_power, dtype=float)
    lo, hi = _power_bounds(params, claimed)
    # nan bounds compare False, i.e. accuse; a negative lo just leaves the
    # positivity requirement in charge
    return (p > 0) & (p >= lo) & (p <= hi)


def deception_probability(
    params: SignalParams, true_distance: float, claimed_distance: float
) -> float:
    """Probability that a claim at ``claimed_distance`` passes the 3-sigma
    test when the signal actually travels ``true_distance``.

    The acceptance region for the distance estimate maps to an interval of
    noise values relative to the ideal power at the true distance; the
    result is the Gaussian mass of that interval. With a truthful claim and
    a finite acceptance interval this is exactly 2*Phi(3) - 1.
    """
    if not (true_distance > 0 and claimed_distance > 0):
        raise ValueError("distances must be positive")
    return float(_deception_prob_arrays(params, true_distance, claimed_distance))


def _deception_prob_arrays(params: SignalParams, true_distance, claimed_distance, out=None):
    """Vectorized deception probability; broadcasts its arguments.

    A claim of zero distance can never be ranged, so it deceives with
    probability exactly 0.0.

    With ``out``, a float array, both distances must be float arrays of its
    shape: the probabilities go to ``out``, and the distances serve as work
    space and are overwritten, so the call allocates no array of that
    shape. Without it, the call works on broadcast copies of the distances
    and a fresh ``out``, and leaves its arguments as they were. Both modes
    run the same operations, element for element, so their values are
    bit-identical. Array operators keep the fast paths numpy takes for them
    (``**`` squares when the exponent is 2).
    """
    t, c = true_distance, claimed_distance
    if out is None:
        t, c = (np.array(a, dtype=float) for a in np.broadcast_arrays(t, c))
        out = np.empty_like(c)
    if params.noise_sigma == 0.0:
        # Noiseless channel: the estimate equals the true distance exactly
        # and the acceptance interval collapses to the claim itself.
        return np.equal(t, c, out=out)
    # a claim at c <= 0 is given c = 1 until its probability is set to 0.0
    bad = None if c.min(initial=np.inf) > 0 else ~(c > 0)
    if bad is not None:
        c[bad] = 1.0
    m = params.path_loss_exponent
    slack = SIGMA_BAND * params.noise_sigma
    # c becomes the ideal power at the claim, then hi; out becomes lo
    np.divide(params.alpha, c, out=c)
    c **= m
    np.multiply(params.transmit_power, c, out=c)
    np.subtract(c, slack, out=out)
    np.maximum(out, 0.0, out=out)  # readings must stay positive to be estimable
    c += slack
    # t becomes the ideal power at the true distance
    np.divide(params.alpha, t, out=t)
    t **= m
    np.multiply(params.transmit_power, t, out=t)
    c -= t
    c /= params.noise_sigma
    ndtr(c, out=c)
    out -= t
    out /= params.noise_sigma
    ndtr(out, out=out)
    np.subtract(c, out, out=out)
    if bad is not None:
        out[bad] = 0.0
    return out


def simulate_approval_rate(
    params: SignalParams,
    true_distance: float,
    claimed_distance: float,
    draws: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo estimate of ``deception_probability`` via the verdict path.

    Samples ``draws`` noisy power readings at the true distance and returns
    the fraction approved for the claimed distance. Uses the same estimate-
    in-interval test as ``link_verdict``, not the closed form, so the two
    routes check each other.
    """
    if draws <= 0:
        raise ValueError(f"draws must be positive, got {draws}")
    if not claimed_distance > 0:
        raise ValueError(f"claimed_distance must be positive, got {claimed_distance}")
    powers = noisy_received_power(params, np.full(draws, float(true_distance)), rng)
    return float(_approve_mask(params, claimed_distance, powers).mean())
