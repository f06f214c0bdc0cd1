import numpy as np
import pytest
from scipy.stats import norm

from posverify.adversary import (
    FakingSearchConfig,
    Region,
    _refine,
    _theta_batch,
    optimize_fake_position,
    theta_for_fake,
)
from posverify.channel import TRUTHFUL_ACCEPT_PROB, SignalParams, deception_probability


def oracle_deception_prob(params, true_d, claimed_d):
    """Independent transcription of the closed form, scipy only."""
    m = params.path_loss_exponent
    a, s, sig = params.alpha, params.transmit_power, params.noise_sigma
    band = 3.0 * sig * claimed_d**m / (a**m * s)
    lo_d = claimed_d * (1.0 + band) ** (-1.0 / m)
    hi_power = s * (a / lo_d) ** m
    lo_power = 0.0 if band >= 1.0 else s * (a / (claimed_d * (1.0 - band) ** (-1.0 / m))) ** m
    ideal = s * (a / true_d) ** m
    return float(norm.cdf((hi_power - ideal) / sig) - norm.cdf((lo_power - ideal) / sig))


def oracle_grid_max(params, region, x0, genuine, radius, n=200):
    """Best objective over an independent n-by-n lattice of feasible points."""
    xs = np.linspace(region.x_min, region.x_max, n)
    ys = np.linspace(region.y_min, region.y_max, n)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    pts = pts[np.hypot(pts[:, 0] - x0[0], pts[:, 1] - x0[1]) >= radius]
    m = params.path_loss_exponent
    a, s, sig = params.alpha, params.transmit_power, params.noise_sigma
    r = np.hypot(genuine[:, 0] - x0[0], genuine[:, 1] - x0[1])
    claimed = np.hypot(
        genuine[:, 0][:, None] - pts[:, 0][None, :],
        genuine[:, 1][:, None] - pts[:, 1][None, :],
    )
    band = 3.0 * sig * claimed**m / (a**m * s)
    hi_power = s * (a / (claimed * (1.0 + band) ** (-1.0 / m))) ** m
    lo_power = np.where(
        band >= 1.0, 0.0, s * (a / (claimed * np.maximum(1.0 - band, 1e-300) ** (-1.0 / m))) ** m
    )
    ideal = s * (a / r[:, None]) ** m
    probs = norm.cdf((hi_power - ideal) / sig) - norm.cdf((lo_power - ideal) / sig)
    return float(probs.sum(axis=0).max())


REGION = Region(0.0, 100.0, 0.0, 100.0)


def make_params(sigma):
    return SignalParams(transmit_power=1.0, wavelength=0.125, noise_sigma=sigma)


class TestRegion:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Region(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Region(0.0, 1.0, 2.0, 1.0)

    def test_contains_and_diagonal(self):
        r = Region(0.0, 3.0, 0.0, 4.0)
        assert r.diagonal == pytest.approx(5.0)
        assert r.contains((0.0, 0.0)) and r.contains((3.0, 4.0))
        assert not r.contains((3.0001, 2.0))

    def test_sample_stays_inside(self):
        pts = REGION.sample(np.random.default_rng(5), 500)
        assert np.all(REGION.contains(pts))


class TestThetaForFake:
    def test_matches_sum_of_scalar_probs(self):
        params = make_params(2e-9)
        rng = np.random.default_rng(7)
        x0 = np.array([40.0, 55.0])
        gp = REGION.sample(rng, 9)
        fake = np.array([61.0, 20.0])
        want = sum(
            deception_probability(
                params,
                float(np.hypot(*(g - x0))),
                float(np.hypot(*(g - fake))),
            )
            for g in gp
        )
        assert theta_for_fake(params, x0, fake, gp) == pytest.approx(want, abs=1e-12)

    def test_truthful_mimicry_scores_p_per_node(self):
        # claiming your true position keeps every check truthful; the
        # optimizer excludes this, but the objective itself allows it
        params = make_params(1e-10)
        gp = REGION.sample(np.random.default_rng(1), 6)
        x0 = np.array([50.0, 50.0])
        got = theta_for_fake(params, x0, x0, gp)
        assert got == pytest.approx(6 * TRUTHFUL_ACCEPT_PROB, abs=1e-9)

    def test_rejects_genuine_node_at_true_position(self):
        params = make_params(1e-10)
        with pytest.raises(ValueError):
            theta_for_fake(params, (10.0, 10.0), (20.0, 20.0), [(10.0, 10.0), (1.0, 2.0)])


def neg_noise_params():
    # negligible-noise regime: bands are micrometres wide at these scales
    params = make_params(0.0)
    from posverify.channel import ideal_received_power

    ss = ideal_received_power(params, REGION.diagonal) / 3.0
    return make_params(1e-6 * ss)


class TestOptimizer:
    def test_single_node_hits_circle_probability(self):
        params = neg_noise_params()
        cfg = FakingSearchConfig(exclusion_radius=7.0, grid_step=5.0)
        out = optimize_fake_position(params, REGION, (30.0, 30.0), [(70.0, 60.0)], cfg)
        assert out.expected_deceived == pytest.approx(TRUTHFUL_ACCEPT_PROB, rel=1e-6)

    def test_two_nodes_reach_double_deception(self):
        params = neg_noise_params()
        cfg = FakingSearchConfig(exclusion_radius=7.0, grid_step=5.0)
        out = optimize_fake_position(
            params, REGION, (30.0, 30.0), [(60.0, 40.0), (40.0, 60.0)], cfg
        )
        assert out.expected_deceived == pytest.approx(2 * TRUTHFUL_ACCEPT_PROB, rel=1e-4)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_negligible_noise_band(self, seed):
        # randomly placed sets land between one and two deceived in expectation
        params = neg_noise_params()
        rng = np.random.default_rng(seed)
        gp = REGION.sample(rng, 2 + int(rng.integers(0, 9)))
        x0 = REGION.sample(rng, 1)[0]
        cfg = FakingSearchConfig(exclusion_radius=7.07, grid_step=5.0)
        out = optimize_fake_position(params, REGION, x0, gp, cfg)
        p = TRUTHFUL_ACCEPT_PROB
        assert p - 1e-6 <= out.expected_deceived <= 2 * p + 0.05

    def test_result_is_feasible(self):
        params = make_params(2e-9)
        rng = np.random.default_rng(12)
        gp = REGION.sample(rng, 8)
        x0 = REGION.sample(rng, 1)[0]
        cfg = FakingSearchConfig(exclusion_radius=10.0, grid_step=4.0)
        out = optimize_fake_position(params, REGION, x0, gp, cfg)
        fp = np.array(out.fake_position)
        assert REGION.contains(fp)
        assert np.hypot(*(fp - x0)) >= cfg.exclusion_radius
        assert out.expected_deceived == pytest.approx(sum(out.per_node_probs), abs=1e-12)

    def test_empty_feasible_set_raises(self):
        params = make_params(1e-10)
        small = Region(0.0, 1.0, 0.0, 1.0)
        cfg = FakingSearchConfig(exclusion_radius=5.0, grid_step=0.25)
        with pytest.raises(ValueError):
            optimize_fake_position(params, small, (0.5, 0.5), [(0.2, 0.9)], cfg)

    def test_true_position_outside_region_raises(self):
        params = make_params(1e-10)
        cfg = FakingSearchConfig(exclusion_radius=5.0, grid_step=10.0)
        with pytest.raises(ValueError):
            optimize_fake_position(params, REGION, (120.0, 50.0), [(20.0, 20.0)], cfg)

    def test_deterministic(self):
        params = make_params(3e-9)
        rng = np.random.default_rng(4)
        gp = REGION.sample(rng, 7)
        x0 = REGION.sample(rng, 1)[0]
        cfg = FakingSearchConfig(exclusion_radius=7.0, grid_step=4.0)
        a = optimize_fake_position(params, REGION, x0, gp, cfg)
        b = optimize_fake_position(params, REGION, x0, gp, cfg)
        assert a == b

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_lockstep_refinement_matches_each_start_alone(self, seed):
        # the starts walk in one batch; each must end exactly where its own
        # walk would, so batching cannot move the chosen fake by an ulp
        params = make_params(2e-9)
        rng = np.random.default_rng(seed)
        gp = REGION.sample(rng, 12)
        x0 = REGION.sample(rng, 1)[0]
        cfg = FakingSearchConfig(exclusion_radius=7.0, grid_step=5.0)
        starts = np.concatenate([REGION.sample(rng, 4), [[100.0, 100.0]]])
        vals = _theta_batch(params, x0, gp, starts)
        pts, out = _refine(params, REGION, x0, gp, cfg, starts, vals)
        for i in range(len(starts)):
            alone = _refine(params, REGION, x0, gp, cfg, starts[i : i + 1], vals[i : i + 1])
            assert pts[i].tolist() == alone[0][0].tolist()
            assert out[i] == alone[1][0]

    def test_all_zero_objective_breaks_ties_lexicographically(self):
        # bands this thin make every off-circle candidate score exactly zero,
        # so the optimizer must fall back to the lowest feasible coordinate
        params = make_params(1e-25)
        cfg = FakingSearchConfig(exclusion_radius=5.0, grid_step=25.0, refine_iters=4)
        out = optimize_fake_position(params, REGION, (80.0, 80.0), [(20.0, 60.0)], cfg)
        assert out.expected_deceived == 0.0
        assert out.fake_position == (0.0, 0.0)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_dominates_independent_fine_grid(self, seed):
        # significant noise, small instance: the optimizer must do at least
        # as well as an independent 200x200 sweep of the objective
        rng = np.random.default_rng(seed)
        region = Region(0.0, 40.0, 0.0, 40.0)
        params = make_params(0.0)
        from posverify.channel import ideal_received_power

        ss = ideal_received_power(params, region.diagonal) / 3.0
        params = make_params(ss)
        gp = region.sample(rng, 6)
        x0 = region.sample(rng, 1)[0]
        cfg = FakingSearchConfig(exclusion_radius=2.8, grid_step=1.0)
        out = optimize_fake_position(params, region, x0, gp, cfg)
        brute = oracle_grid_max(params, region, x0, gp, cfg.exclusion_radius)
        assert out.expected_deceived >= brute - 1e-6
