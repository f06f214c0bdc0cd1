import math

import numpy as np
import pytest
from scipy.stats import norm

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
