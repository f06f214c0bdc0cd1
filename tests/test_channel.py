import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import posverify
from posverify.channel import (
    SIGMA_BAND,
    TRUTHFUL_ACCEPT_PROB,
    SignalParams,
    Verdict,
    acceptance_interval,
    deception_probability,
    estimate_distance,
    ideal_received_power,
    link_verdict,
    noisy_received_power,
    simulate_approval_rate,
    _approve_mask,
    _deception_prob_arrays,
)

# Sampled (distance, sigma) pairs for the truthful-claim checks, generated
# once with a fixed seed so failures are reproducible.
_rng = np.random.default_rng(20260814)
TRUTHFUL_CASES = [
    (float(d), float(s))
    for d, s in zip(_rng.uniform(1.0, 120.0, 12), _rng.uniform(1e-12, 1e-9, 12))
]


def default_params(sigma=0.0, m=2.0):
    return SignalParams(transmit_power=1.0, wavelength=0.125, noise_sigma=sigma, path_loss_exponent=m)


class TestSignalParams:
    def test_alpha_is_wavelength_over_four_pi(self):
        p = default_params()
        assert p.alpha == pytest.approx(0.125 / (4 * math.pi), rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(transmit_power=0.0, wavelength=1.0),
            dict(transmit_power=-1.0, wavelength=1.0),
            dict(transmit_power=1.0, wavelength=0.0),
            dict(transmit_power=1.0, wavelength=1.0, noise_sigma=-1e-9),
            dict(transmit_power=1.0, wavelength=1.0, path_loss_exponent=1.9),
            dict(transmit_power=1.0, wavelength=1.0, path_loss_exponent=4.1),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            SignalParams(**kwargs)


class TestIdealPower:
    def test_generalized_exponent_example(self):
        # S=4, alpha=0.5, m=4, d=2  ->  4 * (0.5/2)**4 = 0.015625
        p = SignalParams(4.0, 0.5 * 4 * math.pi, path_loss_exponent=4.0)
        assert ideal_received_power(p, 2.0) == pytest.approx(0.015625, abs=1e-15)

    def test_strictly_decreasing_in_distance(self):
        p = default_params()
        d = np.linspace(0.5, 200.0, 400)
        vals = ideal_received_power(p, d)
        assert np.all(np.diff(vals) < 0)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            ideal_received_power(default_params(), 0.0)
        with pytest.raises(ValueError):
            ideal_received_power(default_params(), -3.0)

    def test_rejects_nan_distance(self):
        with pytest.raises(ValueError, match="distance must be positive"):
            ideal_received_power(default_params(), math.nan)
        with pytest.raises(ValueError, match="distance must be positive"):
            ideal_received_power(default_params(), np.array([3.0, math.nan]))

    def test_estimate_inverts_ideal(self):
        p = default_params(m=2.7)
        for d in (0.3, 1.0, 17.2, 140.0):
            est = estimate_distance(p, ideal_received_power(p, d))
            assert est == pytest.approx(d, rel=1e-12)


class TestEstimate:
    def test_nonpositive_power_not_estimable(self):
        p = default_params(sigma=1e-9)
        assert estimate_distance(p, 0.0) is None
        assert estimate_distance(p, -1e-12) is None

    def test_nan_power_not_estimable(self):
        assert estimate_distance(default_params(sigma=1e-9), math.nan) is None

    def test_noisy_power_can_go_negative(self):
        p = default_params(sigma=1.0)  # noise dwarfs the signal at range
        rng = np.random.default_rng(3)
        draws = np.array([noisy_received_power(p, 100.0, rng) for _ in range(200)])
        assert np.any(draws < 0)

    def test_noiseless_reading_is_exact(self):
        p = default_params(sigma=0.0)
        rng = np.random.default_rng(0)
        r = noisy_received_power(p, 42.0, rng)
        assert estimate_distance(p, r) == pytest.approx(42.0, rel=1e-12)


class TestAcceptanceInterval:
    def test_worked_ratio_half(self):
        # 3*sigma*d^2/(alpha^2 S) = 0.5 at d=1  ->  [1/sqrt(1.5), 1/sqrt(0.5)]
        p = SignalParams(1.0, 1.0 * 4 * math.pi, noise_sigma=0.5 / 3.0)
        iv = acceptance_interval(p, 1.0)
        assert iv.lower == pytest.approx(1 / math.sqrt(1.5), rel=1e-12)
        assert iv.upper == pytest.approx(1 / math.sqrt(0.5), rel=1e-12)

    def test_worked_ratio_beyond_one_unbounded(self):
        # ratio 1.2 leaves no positive power floor: upper bound is infinite
        p = SignalParams(1.0, 1.0 * 4 * math.pi, noise_sigma=1.2 / 3.0)
        iv = acceptance_interval(p, 1.0)
        assert iv.lower == pytest.approx(1 / math.sqrt(2.2), rel=1e-12)
        assert math.isinf(iv.upper)

    def test_contains_claim_itself(self):
        p = default_params(sigma=1e-10)
        for d in (0.5, 3.0, 80.0):
            assert acceptance_interval(p, d).contains(d)

    def test_zero_noise_collapses_to_claim(self):
        iv = acceptance_interval(default_params(sigma=0.0), 7.0)
        assert iv.lower == iv.upper == pytest.approx(7.0)

    def test_widens_with_sigma(self):
        widths = []
        for s in (1e-11, 1e-10, 5e-10):
            iv = acceptance_interval(default_params(sigma=s), 40.0)
            widths.append(iv.upper - iv.lower)
        assert widths[0] < widths[1] < widths[2]

    def test_rejects_nonpositive_claim(self):
        with pytest.raises(ValueError):
            acceptance_interval(default_params(), 0.0)

    def test_rejects_nan_claim_by_name(self):
        with pytest.raises(ValueError, match="claimed_distance must be positive, got nan"):
            acceptance_interval(default_params(sigma=1e-10), math.nan)


class TestLinkVerdict:
    def test_total_in_received_power(self):
        p = default_params(sigma=1e-10)
        for power in (-1.0, 0.0, 1e-30, 1e6):
            assert link_verdict(p, 10.0, power) in (Verdict.APPROVE, Verdict.ACCUSE)

    def test_ideal_power_at_claim_approves(self):
        p = default_params(sigma=1e-10)
        assert link_verdict(p, 25.0, ideal_received_power(p, 25.0)) is Verdict.APPROVE

    def test_far_off_power_accuses(self):
        p = default_params(sigma=1e-12)
        assert link_verdict(p, 25.0, ideal_received_power(p, 90.0)) is Verdict.ACCUSE

    def test_nonestimable_accuses(self):
        assert link_verdict(default_params(sigma=1e-9), 10.0, -1e-12) is Verdict.ACCUSE

    def test_rejects_nan_claim(self):
        p = default_params(sigma=1e-10)
        with pytest.raises(ValueError, match="claimed_distance must be positive, got nan"):
            link_verdict(p, math.nan, ideal_received_power(p, 25.0))


@st.composite
def window_readings(draw):
    """A channel, a claim and a reading near an end of the claim's power
    window [ideal - 3 sigma, ideal + 3 sigma]; 3 sigma runs from a
    negligible share of the ideal power to past it, where the window
    reaches zero power."""
    m = draw(st.floats(2.0, 4.0))
    claim = draw(st.floats(0.5, 150.0))
    ideal = ideal_received_power(default_params(m=m), claim)
    p = default_params(sigma=ideal * 10 ** draw(st.floats(-10.0, 0.5)) / SIGMA_BAND, m=m)
    lo, hi = ideal - SIGMA_BAND * p.noise_sigma, ideal + SIGMA_BAND * p.noise_sigma
    # either side of an end, off it by 10**-11.5 to half of the upper end
    off = 10 ** draw(st.floats(-11.5, -0.3)) * draw(st.sampled_from([-1.0, 1.0]))
    return p, claim, draw(st.sampled_from([lo, hi])) + off * hi, lo, hi


@settings(max_examples=300)  # enough to fail when either end's 3 sigma is off by 0.1%
@given(window_readings())
def test_distance_and_power_windows_agree(case):
    # link_verdict tests the reading against the power window (_power_bounds),
    # acceptance_interval maps that window to distances; ends agree to rounding
    p, claim, reading, lo, hi = case
    if min(abs(reading - lo), abs(reading - hi)) <= 1e-12 * hi:
        return
    est = estimate_distance(p, reading)
    in_window = est is not None and acceptance_interval(p, claim).contains(est)
    assert (link_verdict(p, claim, reading) is Verdict.APPROVE) == in_window


@pytest.mark.parametrize("d,sigma", TRUTHFUL_CASES)
def test_truthful_claim_probability_exact(d, sigma):
    p = default_params(sigma=sigma)
    # stay inside the finite-interval regime
    assert float(3 * sigma * d**2 / (p.alpha**2 * p.transmit_power)) < 1.0
    assert deception_probability(p, d, d) == pytest.approx(TRUTHFUL_ACCEPT_PROB, abs=1e-12)


def test_truthful_accept_prob_constant_matches_oracle():
    assert TRUTHFUL_ACCEPT_PROB == pytest.approx(2 * norm.cdf(SIGMA_BAND) - 1, abs=1e-15)


class TestDeceptionProbability:
    def test_zero_noise_degenerate(self):
        p = default_params(sigma=0.0)
        assert deception_probability(p, 10.0, 10.0) == 1.0
        assert deception_probability(p, 10.0, 10.000001) == 0.0

    def test_bounded_and_falls_off(self):
        p = default_params(sigma=1e-8)
        probs = [deception_probability(p, 30.0, c) for c in (30.0, 31.0, 35.0, 60.0)]
        assert all(0.0 <= q <= 1.0 for q in probs)
        assert probs[0] > probs[1] > probs[2] > probs[3]

    def test_rejects_nonpositive_distances(self):
        p = default_params(sigma=1e-10)
        with pytest.raises(ValueError):
            deception_probability(p, 0.0, 5.0)
        with pytest.raises(ValueError):
            deception_probability(p, 5.0, -1.0)

    def test_rejects_nan_distances(self):
        p = default_params(sigma=1e-10)
        with pytest.raises(ValueError, match="distances must be positive"):
            deception_probability(p, math.nan, 5.0)
        with pytest.raises(ValueError, match="distances must be positive"):
            deception_probability(p, 5.0, math.nan)

    def test_unbounded_interval_branch_integrates_to_positive_power_event(self):
        # claim far enough that the interval upper bound is infinite: the
        # acceptance event becomes "reading positive and below the ceiling"
        p = SignalParams(1.0, 1.0 * 4 * math.pi, noise_sigma=0.4)
        assert math.isinf(acceptance_interval(p, 2.0).upper)
        got = deception_probability(p, 1.5, 2.0)
        ideal = ideal_received_power(p, 1.5)
        ceiling = ideal_received_power(p, acceptance_interval(p, 2.0).lower)
        want = norm.cdf((ceiling - ideal) / 0.4) - norm.cdf((0.0 - ideal) / 0.4)
        assert got == pytest.approx(float(want), abs=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, 1e-30, 2e-10, 0.4])
    def test_zero_claimed_distance_deceives_nobody(self, sigma):
        # the power bounds are nan at a zero claim; the probability is 0.0
        p = default_params(sigma=sigma)
        got = _deception_prob_arrays(p, np.array([0.5, 40.0]), np.array([0.0, 0.0]))
        assert got.tolist() == [0.0, 0.0]
        assert float(_deception_prob_arrays(p, 40.0, 0.0)) == 0.0

    def test_matches_monte_carlo(self):
        p = default_params(sigma=2e-10)
        rng = np.random.default_rng(11)
        for true_d, claimed in [(40.0, 40.0), (40.0, 42.0), (70.0, 50.0), (20.0, 90.0)]:
            analytic = deception_probability(p, true_d, claimed)
            empirical = simulate_approval_rate(p, true_d, claimed, 40_000, rng)
            assert empirical == pytest.approx(analytic, abs=0.012)


MIXED_CASES = [
    (float(t), float(c), float(s))
    for t, c, s in zip(
        _rng.uniform(1.0, 120.0, 8),
        _rng.uniform(1.0, 120.0, 8),
        _rng.uniform(1e-11, 2e-9, 8),
    )
]


@pytest.mark.parametrize("true_d,claimed,sigma", MIXED_CASES)
def test_vectorized_paths_agree_with_scalars(true_d, claimed, sigma):
    p = default_params(sigma=sigma)
    rng = np.random.default_rng(int(true_d * 1000) % 2**32)
    powers = ideal_received_power(p, true_d) + rng.normal(0, sigma, size=64)
    mask = _approve_mask(p, claimed, powers)
    scalar = np.array([link_verdict(p, claimed, float(r)) is Verdict.APPROVE for r in powers])
    assert np.array_equal(mask, scalar)
    vec = _deception_prob_arrays(p, np.array([true_d]), np.array([claimed]))
    assert float(vec[0]) == pytest.approx(deception_probability(p, true_d, claimed), abs=1e-15)


def test_simulate_approval_rate_equals_literal_loop():
    p = default_params(sigma=3e-10)
    draws = 500
    rate = simulate_approval_rate(p, 50.0, 52.0, draws, np.random.default_rng(99))
    rng = np.random.default_rng(99)
    powers = ideal_received_power(p, 50.0) + rng.normal(0, p.noise_sigma, size=draws)
    count = sum(link_verdict(p, 52.0, float(r)) is Verdict.APPROVE for r in powers)
    assert rate == count / draws


@pytest.mark.parametrize("claimed", [0.0, -3.0, math.nan])
def test_simulate_approval_rate_rejects_nonpositive_claim_by_name(claimed):
    # the closed form it checks, deception_probability, rejects the same claims
    p = default_params(sigma=3e-10)
    with pytest.raises(ValueError, match="claimed_distance must be positive, got"):
        simulate_approval_rate(p, 50.0, claimed, 100, np.random.default_rng(0))


def kernel_params(sigma_at, m):
    """Noise whose 3 sigma is the ideal power at ``sigma_at`` metres, or a
    noiseless channel at None."""
    p = default_params(m=m)
    return p if sigma_at is None else replace(p, noise_sigma=ideal_received_power(p, sigma_at) / 3)


def kernel_inputs(kind):
    """Distances of one shape class; every claim set holds a zero claim."""
    rng = np.random.default_rng(31)
    if kind == "0-d":
        return np.array(40.0), np.array(0.0)
    if kind == "1-D":
        t, c = rng.uniform(1.0, 120.0, (2, 9))
    else:  # one true distance per receiver against many claims
        t, c = rng.uniform(1.0, 120.0, (6, 1)), rng.uniform(1.0, 120.0, (6, 9))
    c[2] = 0.0
    return t, c


class TestKernelModes:
    @pytest.mark.parametrize("kind", ["0-d", "1-D", "broadcast"])
    @pytest.mark.parametrize("m", [2.0, 3.0])
    @pytest.mark.parametrize("sigma_at", [None, 60.0])
    def test_without_out_leaves_its_inputs_unchanged(self, kind, m, sigma_at):
        t, c = kernel_inputs(kind)
        before = t.copy(), c.copy()
        _deception_prob_arrays(kernel_params(sigma_at, m), t, c)
        assert t.tobytes() == before[0].tobytes()
        assert c.tobytes() == before[1].tobytes()

    @pytest.mark.parametrize("kind", ["0-d", "1-D", "broadcast"])
    @pytest.mark.parametrize("m", [2.0, 3.0])
    @pytest.mark.parametrize("sigma_at", [None, 60.0])
    def test_without_out_equals_out_on_copies(self, kind, m, sigma_at):
        p = kernel_params(sigma_at, m)
        t, c = kernel_inputs(kind)
        got = _deception_prob_arrays(p, t, c)
        tb, cb = (np.array(a) for a in np.broadcast_arrays(t, c))
        want = _deception_prob_arrays(p, tb, cb, out=np.empty_like(cb))
        assert got.shape == want.shape == np.broadcast_shapes(t.shape, c.shape)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [2.0, 2.5, 3.0, 4.0])
    def test_scalar_equals_one_element_array(self, m):
        p = kernel_params(60.0, m)
        rng = np.random.default_rng(int(m * 10))
        for t, c in rng.uniform(1.0, 120.0, (200, 2)).tolist():
            scalar = deception_probability(p, t, c)
            array = float(_deception_prob_arrays(p, np.array([t]), np.array([c]))[0])
            assert scalar.hex() == array.hex()


# Returns, as hex, the bytes of a seeded _theta_batch (4 fakers, 55 receivers,
# 2000 points) and of the channel kernel on fixed arrays, in significant noise.
_SIMD_PROBE = """
import numpy as np
from dataclasses import replace
from posverify.adversary import Region, _receivers, _theta_batch
from posverify.channel import SignalParams, _deception_prob_arrays, ideal_received_power

def probe(m=2.0):
    region = Region(0.0, 100.0, 0.0, 100.0)
    params = SignalParams(transmit_power=1.0, wavelength=0.125, path_loss_exponent=m)
    params = replace(params, noise_sigma=ideal_received_power(params, region.diagonal) / 3)
    rng = np.random.default_rng(2055)
    rx = _receivers(params, region.sample(rng, 4), region.sample(rng, 55))
    theta = _theta_batch(params, rx, region.sample(rng, 2000), np.arange(2000) % 4)
    t, c = rng.uniform(1.0, 140.0, (2, 64, 64))
    return theta.tobytes().hex() + " " + _deception_prob_arrays(params, t, c).tobytes().hex()
"""


def test_exponent_2_does_not_depend_on_simd_dispatch():
    # The child runs numpy with its AVX2 and AVX-512 kernels disabled; on
    # x86 it then falls back to its X86_V2 baseline. Exponent 2 squares, a
    # correctly rounded multiply on every kernel; other exponents go through
    # numpy's power kernels, whose last bits differ between AVX-512 and the
    # baseline. On a host without these features, or not x86, numpy runs the
    # same kernels on both sides and the test compares a run with itself.
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR")
    src = str(Path(posverify.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _SIMD_PROBE + "print(probe())"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    scope = {}
    exec(_SIMD_PROBE, scope)
    assert child.stdout.strip() == scope["probe"]()
