import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import norm

from posverify.adversary import (
    _COMPASS,
    FakingSearchConfig,
    Region,
    _feasible,
    _grid_points,
    _receivers,
    _refine,
    _theta_batch,
    optimize_fake_position,
    optimize_fake_positions,
    theta_for_fake,
)
from posverify.channel import (
    TRUTHFUL_ACCEPT_PROB,
    SignalParams,
    _deception_prob_arrays,
    deception_probability,
    ideal_received_power,
)
from posverify.experiment import PRESETS, deploy


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
        # the starts of several fakers walk in one batch; each must end
        # exactly where its own walk would, so batching cannot move the
        # chosen fake by an ulp
        params = make_params(2e-9)
        rng = np.random.default_rng(seed)
        gp = REGION.sample(rng, 12)
        # the last faker's exclusion ball leaves the corner start (0, 0)
        # exactly one feasible first move, (2.5, 2.5); valued at 0.0, the
        # start takes it, so a one-iteration walk ends on that move's value
        x0 = np.concatenate([REGION.sample(rng, 2), [[1.0, 1.0]]])
        rx = _receivers(params, x0, gp)
        starts = np.concatenate([REGION.sample(rng, 4), [[100.0, 100.0], [0.0, 0.0]]])
        owner = np.array([0, 1, 0, 1, 0, 2])
        vals = np.array(
            [_theta_batch(params, rx, starts[i], owner[i])[0] for i in range(5)] + [0.0]
        )
        for iters in (1, 25):
            cfg = FakingSearchConfig(exclusion_radius=2.0, grid_step=5.0, refine_iters=iters)
            moves = REGION.clip(starts[-1] + cfg.grid_step / 2.0 * _COMPASS)
            assert np.sum(np.hypot(*(moves - x0[2]).T) >= cfg.exclusion_radius) == 1
            pts, out = _refine(params, REGION, rx, cfg, starts, vals, owner)
            for i in range(len(starts)):
                alone = _refine(
                    params, REGION, rx, cfg, starts[i : i + 1], vals[i : i + 1], owner[i : i + 1]
                )
                assert pts[i].tolist() == alone[0][0].tolist()
                assert out[i] == alone[1][0]

    @pytest.mark.parametrize("name", ["neg-noise-52", "sig-noise-q-55"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fakers_in_lockstep_match_each_faker_alone(self, name, seed):
        # deploy searches every faker of a trial at once; each outcome must
        # be exactly the one the faker gets searched on its own
        cfg = PRESETS[name]
        params = cfg.resolved_signal()
        nodes = deploy(cfg, seed)
        genuine = [n.true_position for n in nodes[: cfg.n0]]
        truths = [n.true_position for n in nodes[cfg.n0 :]]
        together = optimize_fake_positions(params, cfg.region, truths, genuine, cfg.faking)
        assert [o.fake_position for o in together] == [n.claimed_position for n in nodes[cfg.n0 :]]
        for x0, got in zip(truths, together):
            alone = optimize_fake_position(params, cfg.region, x0, genuine, cfg.faking)
            for field in ("fake_position", "expected_deceived", "per_node_probs"):
                have, want = getattr(got, field), getattr(alone, field)
                assert np.array(have).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("name", ["neg-noise-52", "sig-noise-q-55"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chosen_fakes_score_the_same_in_a_wide_batch(self, name, seed):
        # the value the search maximised is the value it reports, whatever
        # batch the fake is scored in
        cfg = PRESETS[name]
        params = cfg.resolved_signal()
        nodes = deploy(cfg, seed)
        genuine = [n.true_position for n in nodes[: cfg.n0]]
        truths = [n.true_position for n in nodes[cfg.n0 :]]
        outcomes = optimize_fake_positions(params, cfg.region, truths, genuine, cfg.faking)
        rx = _receivers(params, truths, genuine)
        fakes = [o.fake_position for o in outcomes]
        wide = _theta_batch(params, rx, fakes, np.arange(len(fakes)))
        assert wide.tobytes() == np.array([o.expected_deceived for o in outcomes]).tobytes()

    def test_no_fakers_no_outcomes(self):
        cfg = FakingSearchConfig(exclusion_radius=5.0, grid_step=10.0)
        assert optimize_fake_positions(make_params(1e-9), REGION, [], [(1.0, 2.0)], cfg) == []

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


def dense_theta_batch(params, true_position, genuine_positions, points):
    """The kernel before band pruning: every (receiver, point) pair scored."""
    x0 = np.asarray(true_position, dtype=float).reshape(2)
    gp = np.asarray(genuine_positions, dtype=float).reshape(-1, 2)
    r = np.hypot(gp[:, 0] - x0[0], gp[:, 1] - x0[1])
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    claimed = np.hypot(gp[:, 0, None] - pts[:, 0][None, :], gp[:, 1, None] - pts[:, 1][None, :])
    probs = _deception_prob_arrays(params, r[:, None], claimed)
    # a claim of exactly zero distance to some receiver can never be ranged
    probs = np.where(claimed > 0, probs, 0.0)
    # each point's receivers summed along contiguous memory, as a row's sum()
    return np.asfortranarray(probs).sum(axis=0)


NOISE_LEVELS = ("zero", "1e-30", "negligible", "significant", "huge")


def noise_params(exponent, level):
    base = SignalParams(transmit_power=1.0, wavelength=0.125, path_loss_exponent=exponent)
    scale = ideal_received_power(base, REGION.diagonal) / 3.0
    sigma = {
        "zero": 0.0,
        "1e-30": 1e-30,
        "negligible": 1e-6 * scale,
        "significant": scale,
        # 48 sigma above the transmit power: no receiver's band has a far end
        "huge": base.transmit_power / 40.0,
    }[level]
    return replace(base, noise_sigma=sigma)


@st.composite
def kernel_instances(draw):
    exponent = draw(st.sampled_from([2.0, 2.5, 3.0, 4.0]))
    params = noise_params(exponent, draw(st.sampled_from(NOISE_LEVELS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gp = REGION.sample(rng, draw(st.integers(1, 40)))
    x0s = REGION.sample(rng, draw(st.integers(1, 4)))
    r = np.hypot(gp[:, 0, None] - x0s[:, 0], gp[:, 1, None] - x0s[:, 1])
    angles = rng.uniform(0.0, 2.0 * np.pi, len(gp))
    offsets = rng.uniform(0.0, 1e-6, len(gp))
    pts = np.concatenate(
        [
            REGION.sample(rng, draw(st.integers(0, 60))),
            gp,  # exactly zero distance to a receiver
            gp + offsets[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1),
            # on the first faker's equal-range circles, where claims deceive
            gp + r[:, :1] * np.stack([np.cos(angles), np.sin(angles)], axis=1),
        ]
    )
    return params, x0s, gp, pts


class TestPrunedKernel:
    @given(kernel_instances())
    def test_bit_identical_to_scoring_every_pair(self, instance):
        params, x0s, gp, pts = instance
        rx = _receivers(params, x0s, gp)
        dense = [dense_theta_batch(params, x0, gp, pts) for x0 in x0s]
        for f in range(len(x0s)):
            assert _theta_batch(params, rx, pts, f).tobytes() == dense[f].tobytes()
        # mixed owners: each column sums exactly as in its owner's batch
        owner = np.arange(len(pts)) % len(x0s)
        got = _theta_batch(params, rx, pts, owner)
        want = np.choose(owner, dense)
        assert got.tobytes() == want.tobytes()
        # one point alone sums in numpy's pairwise order, as the dense one does
        assert _theta_batch(params, rx, pts[-1], 0).tobytes() == dense_theta_batch(
            params, x0s[0], gp, pts[-1]
        ).tobytes()

    @given(kernel_instances())
    def test_a_point_scores_the_same_in_any_batch(self, instance):
        params, x0s, gp, pts = instance
        rx = _receivers(params, x0s, gp)
        owner = np.arange(len(pts)) % len(x0s)
        batch = _theta_batch(params, rx, pts, owner)
        for p, f, got in zip(pts, owner, batch):
            alone = _theta_batch(params, rx, p, f)[0]
            probe = np.float64(theta_for_fake(params, x0s[f], p, gp))
            assert got.tobytes() == alone.tobytes() == probe.tobytes()

    def test_claim_at_a_receiver_whose_band_has_no_near_end(self):
        # sigma dwarfs the far receiver's ideal power, so its band reaches
        # down to distance 0 and the claim at it is scored, not pruned
        params = SignalParams(transmit_power=1e-300, wavelength=0.125, noise_sigma=1.0)
        gp = np.array([[10.0, 10.0], [60.0, 40.0]])
        rx = _receivers(params, (30.0, 30.0), gp)
        assert rx.near2[1, 0] == 0.0
        pts = np.array([gp[1], gp[0], (50.0, 50.0)])
        want = dense_theta_batch(params, (30.0, 30.0), gp, pts)
        assert _theta_batch(params, rx, pts, 0).tobytes() == want.tobytes()


def peak_bytes(fn):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestKernelMemory:
    # significant noise: most pairs sit inside the band, the case where
    # pruning saves the least and its index arrays cost the most
    def setup_method(self):
        rng = np.random.default_rng(77)
        self.params = noise_params(2.0, "significant")
        self.gp = REGION.sample(rng, 100)
        self.pts = REGION.sample(rng, 1000)
        self.x0s = REGION.sample(rng, 25)

    def test_candidate_batch_peaks_below_dense(self):
        rx = _receivers(self.params, self.x0s[:1], self.gp)
        pruned = peak_bytes(lambda: _theta_batch(self.params, rx, self.pts, 0))
        dense = peak_bytes(lambda: dense_theta_batch(self.params, self.x0s[0], self.gp, self.pts))
        assert pruned <= dense

    def test_refine_group_peaks_below_dense(self):
        # one lockstep group: 25 fakers' compass moves, 40 each
        rx = _receivers(self.params, self.x0s, self.gp)
        owner = np.repeat(np.arange(25), 40)
        pruned = peak_bytes(lambda: _theta_batch(self.params, rx, self.pts, owner))
        dense = peak_bytes(lambda: dense_theta_batch(self.params, self.x0s[0], self.gp, self.pts))
        assert pruned <= dense


@st.composite
def search_instances(draw):
    exponent = draw(st.sampled_from([2.0, 3.0, 4.0]))
    params = noise_params(exponent, draw(st.sampled_from(["negligible", "significant"])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gp = REGION.sample(rng, draw(st.integers(1, 8)))
    x0s = REGION.sample(rng, draw(st.integers(1, 3)))
    cfg = FakingSearchConfig(
        exclusion_radius=draw(st.sampled_from([2.0, 7.07, 30.0])),
        grid_step=20.0,
        refine_iters=draw(st.integers(0, 4)),
    )
    return params, x0s, gp, cfg


class TestSearchProperties:
    @given(search_instances())
    def test_fake_is_feasible_and_beats_every_grid_candidate(self, instance):
        params, x0s, gp, cfg = instance
        outcomes = optimize_fake_positions(params, REGION, x0s, gp, cfg)
        assert len(outcomes) == len(x0s)
        grid = _grid_points(REGION, cfg.grid_step)
        for x0, out in zip(x0s, outcomes):
            fake = np.array(out.fake_position)
            assert REGION.contains(fake)
            assert np.hypot(*(fake - x0)) >= cfg.exclusion_radius
            assert out.expected_deceived == theta_for_fake(params, x0, fake, gp)
            for cand in _feasible(REGION, x0, cfg.exclusion_radius, grid):
                assert out.expected_deceived >= theta_for_fake(params, x0, cand, gp)
