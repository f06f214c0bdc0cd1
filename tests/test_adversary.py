import hashlib
import itertools
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import norm

import posverify.adversary as adversary
from posverify.adversary import (
    _COMPASS,
    _THIN_SHARE,
    REFINE_STARTS,
    FakingSearchConfig,
    Region,
    _candidate_values,
    _circle_points,
    _feasible,
    _frame,
    _grid_points,
    _in_band,
    _pair_reflections,
    _ranked,
    _reachable,
    _receiver_pairs,
    _receivers,
    _refine,
    _refine_live,
    _Scratch,
    _screen,
    _screen_bounds,
    _theta_batch,
    _thin_scores,
    _top,
    optimize_fake_position,
    optimize_fake_positions,
    theta_for_fake,
)
from posverify.calibration import _calibration_chunk
from posverify.channel import (
    SIGMA_BAND,
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


def region_frame(rx, region=REGION):
    """The screen's frame for a search of ``region``, as the search makes it."""
    return _frame(rx, (region.x_min, region.y_min), (region.x_max, region.y_max))


def candidate_values(params, rx, pts, f, k=REFINE_STARTS, scratch=None):
    """``_candidate_values`` of faker ``f`` ranking its ``k`` best, in
    ``REGION``'s frame, on a scratch sized for the batch unless given."""
    scratch = _Scratch(rx.r.shape[0] * len(pts)) if scratch is None else scratch
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adversary, "REFINE_STARTS", k)
        return _candidate_values(params, rx, pts, f, scratch, region_frame(rx))


def walk_cells(rx, starts):
    """Cells of one walk iteration: every start's compass moves against
    every receiver, the batch a walk takes at once on a scratch this size."""
    return rx.r.shape[0] * len(_COMPASS) * len(starts)


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

    @pytest.mark.parametrize(
        "last,radius,message",
        [
            ((120.0, 50.0), 5.0, "true_position lies outside the region"),
            # the region's corners all lie within 71 m of its centre, and
            # more than 100 m from the other two fakers
            ((50.0, 50.0), 100.0, "exclusion ball covers the whole region"),
        ],
    )
    def test_last_of_three_fakers_fails_before_any_scoring(
        self, monkeypatch, last, radius, message
    ):
        calls = recorded_calls(monkeypatch, "_theta_batch")
        params = make_params(1e-10)
        cfg = FakingSearchConfig(exclusion_radius=radius, grid_step=10.0)
        x0s = [(5.0, 5.0), (95.0, 5.0), last]
        with pytest.raises(ValueError, match=message):
            optimize_fake_positions(params, REGION, x0s, [(20.0, 30.0)], cfg)
        assert calls == []

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
        for iters, walk in itertools.product((1, 25), (_refine, _refine_live)):
            cfg = FakingSearchConfig(exclusion_radius=2.0, grid_step=5.0, refine_iters=iters)
            moves = REGION.clip(starts[-1] + cfg.grid_step / 2.0 * _COMPASS)
            assert np.sum(np.hypot(*(moves - x0[2]).T) >= cfg.exclusion_radius) == 1
            scratch = _Scratch(walk_cells(rx, starts))
            pts, out = walk(params, REGION, rx, cfg, starts, vals, owner, scratch)
            for i in range(len(starts)):
                one = slice(i, i + 1)
                alone = walk(params, REGION, rx, cfg, starts[one], vals[one], owner[one], scratch)
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


def noise_params(exponent, level, region=REGION):
    base = SignalParams(transmit_power=1.0, wavelength=0.125, path_loss_exponent=exponent)
    scale = ideal_received_power(base, region.diagonal) / 3.0
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


@st.composite
def thin_instances(draw):
    """Batches in thin bands: claims on the first faker's equal-range
    circles and at pair reflections, where one or two pairs lie in band,
    among claims that reach no band."""
    exponent = draw(st.sampled_from([2.0, 2.5, 3.0, 4.0]))
    params = noise_params(exponent, draw(st.sampled_from(["zero", "1e-30", "negligible"])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gp = REGION.sample(rng, draw(st.integers(4, 40)))
    x0s = REGION.sample(rng, draw(st.integers(1, 4)))
    r = np.hypot(gp[:, 0] - x0s[0, 0], gp[:, 1] - x0s[0, 1])
    angles = rng.uniform(0.0, 2.0 * np.pi, len(gp))
    pts = np.concatenate(
        [
            REGION.sample(rng, draw(st.integers(len(gp), 4 * len(gp)))),
            gp + r[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1),
            _pair_reflections(x0s[0], _receiver_pairs(gp))[: draw(st.integers(0, 20))],
        ]
    )
    return params, x0s, gp, pts


class TestThinScores:
    def test_bit_identical_to_a_dense_sum(self, monkeypatch):
        # the pair-list sums against every receiver's probability summed in a
        # column, as _scores sums; each drawn batch must take the thin path
        thin = recorded_calls(monkeypatch, "_thin_scores")

        @given(thin_instances())
        def check(instance):
            params, x0s, gp, pts = instance
            rx = _receivers(params, x0s, gp)
            dense = [dense_theta_batch(params, x0, gp, pts) for x0 in x0s]
            thin.clear()
            for f in range(len(x0s)):
                assert _theta_batch(params, rx, pts, f).tobytes() == dense[f].tobytes()
                got = candidate_values(params, rx, pts, f)
                assert got.tobytes() == dense[f].tobytes()
            assert thin == ["_thin_scores"] * len(x0s)

        check()

    def test_collinear_receivers_fall_back_in_search_and_walk(self, monkeypatch):
        # receivers on x + y = 20 mirror x0 = (20, 20) onto the corner (0, 0)
        # for every pair, so that point lies in three bands. It is a candidate,
        # and the walk's clipped moves from it land on it again: _pair_sums'
        # >2 fallback (_theta_batch) runs in the candidate scorer and in the
        # live walk. The 40 receivers away from the corner keep the
        # reachable share thin. Outcome as with dense column sums
        calls = recorded_calls(monkeypatch, "_pair_sums", "_refine_live", "_theta_batch")
        params = noise_params(2.0, "negligible")
        line = np.array([(2.0, 18.0), (6.0, 14.0), (10.0, 10.0)])
        gp = np.concatenate([line, np.random.default_rng(3).uniform(30.0, 100.0, (40, 2))])
        cfg = FakingSearchConfig(exclusion_radius=7.07, grid_step=10.0)
        out = optimize_fake_position(params, REGION, (20.0, 20.0), gp, cfg)
        walk = calls.index("_refine_live")
        assert "_theta_batch" in calls[:walk] and "_theta_batch" in calls[walk:]
        # every _theta_batch call is the fallback of the _pair_sums before it
        assert all(calls[i - 1] == "_pair_sums" for i, c in enumerate(calls) if c == "_theta_batch")
        assert out.fake_position == (0.0, 0.0)
        assert out.expected_deceived.hex() == "0x1.7ef699688ec14p+1"
        assert [p.hex() for p in out.per_node_probs[:3]] == [
            "0x1.fe9e21dfedc4cp-1", "0x1.fe9e21dfedc4cp-1", "0x1.fe9e21e25f7bap-1"
        ]
        assert not any(out.per_node_probs[3:])

    @pytest.mark.parametrize(
        "seed,digest",
        [
            (0, "c204a4215e1c01741d0e1275565f48d54191624e08fa7e28de4c44f57857fa31"),
            (1, "865103ef62602826f4a89afc188fc37b0fc7ca5603c51f76bf9c06df4a6c5b56"),
            (2, "2707157db5012eb8bc2bfdd6b9c3303a4a6e7d25fca7def08836fff5198ee23e"),
            (3, "3b28f95af4761bce51479d9e705113a3a126649316fc23d474d75c4247d74a57"),
        ],
    )
    def test_negligible_noise_deploys_keep_their_outcomes(self, seed, digest):
        # sha256 of every faker's fake, value and per-node probabilities, as
        # dense column sums gave them
        cfg = PRESETS["neg-noise-52"]
        nodes = deploy(cfg, seed)
        genuine = [n.true_position for n in nodes[: cfg.n0]]
        truths = [n.true_position for n in nodes[cfg.n0 :]]
        outcomes = optimize_fake_positions(
            cfg.resolved_signal(), cfg.region, truths, genuine, cfg.faking
        )
        h = hashlib.sha256()
        for o in outcomes:
            h.update(np.array(o.fake_position).tobytes())
            h.update(np.float64(o.expected_deceived).tobytes())
            h.update(np.array(o.per_node_probs).tobytes())
        assert h.hexdigest() == digest


# the unit test square, one far from the origin, and squares at millimetre
# and ten-kilometre scale, where the screen's frame is centred and scaled
EDGE_REGIONS = [
    REGION,
    Region(1e5, 1e5 + 100.0, 2e5, 2e5 + 100.0),
    Region(0.0, 1e-3, 0.0, 1e-3),
    Region(3e4, 4e4, -1e4, 0.0),
]


@st.composite
def edge_instances(draw):
    exponent = draw(st.sampled_from([2.0, 2.5, 3.0, 4.0]))
    region = draw(st.sampled_from(EDGE_REGIONS))
    # "huge" sits above transmit_power / 48, where no band has a far edge
    level = draw(st.sampled_from(["1e-30", "negligible", "significant", "huge"]))
    params = noise_params(exponent, level, region)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gp = region.sample(rng, draw(st.integers(1, 12)))
    x0s = region.sample(rng, draw(st.integers(1, 3)))
    return params, region, x0s, gp, rng


def edge_claims(rx, region, rng):
    """Claims around every squared edge of every (receiver, faker), the
    band's and each level's: on it, one ulp either side, and a half, one
    and two screen margins either side in the region's frame. Returns the
    frame, and the claims in the region with the receiver and faker each
    was placed for."""
    frame = _frame(rx, (region.x_min, region.y_min), (region.x_max, region.y_max))
    edges = np.stack([rx.near2, rx.far2, *rx.level_near2, *rx.level_far2])
    steps = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]) * adversary._SCREEN_MARGIN / frame.inv**2
    d2 = np.concatenate(
        [
            np.stack([np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)]),
            edges + steps[:, None, None, None],
        ]
    )
    rows, bands = np.broadcast_arrays(
        np.arange(rx.r.shape[0])[:, None], np.arange(rx.r.shape[1])[None, :]
    )
    rows, bands = (np.broadcast_to(a, d2.shape) for a in (rows, bands))
    keep = np.isfinite(d2) & (d2 > 0.0)
    d2, rows, bands = d2[keep], rows[keep], bands[keep]
    angles = rng.uniform(0.0, 2.0 * np.pi, len(d2))
    unit = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    pts = rx.coords[:, rows, bands].T + np.sqrt(d2)[:, None] * unit
    inside = region.contains(pts)
    return frame, pts[inside], rows[inside], bands[inside]


def exact_pair_probs(params, rx, pts, bands):
    """Each (receiver, point) pair's deception probability, (receivers,
    points), from the claimed distance as the scorer takes it."""
    claimed = np.hypot(rx.coords[0][:, bands] - pts[:, 0], rx.coords[1][:, bands] - pts[:, 1])
    return _deception_prob_arrays(params, rx.r[:, bands], claimed)


class TestBounds:
    # the float32 screen's bounds (_screen_bounds) against exact values
    @given(edge_instances())
    def test_pair_bound_holds_at_every_level_edge(self, instance):
        params, region, x0s, gp, rng = instance
        rx = _receivers(params, x0s, gp)
        frame, pts, _, bands = edge_claims(rx, region, rng)
        # each claim a point of its own faker; every pair of it is bounded
        scratch = _Scratch(rx.r.shape[0] * len(pts))
        for f in range(len(x0s)):
            own = pts[bands == f]
            pairs = _screen_bounds(*_screen(rx, own, f, frame, scratch), scratch)[0]
            assert np.all(pairs >= exact_pair_probs(params, rx, own, bands[bands == f]))

    @given(edge_instances())
    def test_point_bound_holds_for_claims_on_level_edges(self, instance):
        params, region, x0s, gp, rng = instance
        rx = _receivers(params, x0s, gp)
        frame, pts, _, bands = edge_claims(rx, region, rng)
        scratch = _Scratch(rx.r.shape[0] * len(pts))
        for f in range(len(x0s)):
            bound = _screen_bounds(*_screen(rx, pts, f, frame, scratch), scratch)[1]
            assert np.all(bound >= _theta_batch(params, rx, pts, f))

    def test_no_in_band_pair_bounds_just_above_zero(self):
        # a point no receiver's band reaches scores exactly 0.0, so it ties a
        # floor of 0.0 and reaches the (x, y) tie-break
        params = make_params(1e-25)
        rx = _receivers(params, (80.0, 80.0), [(20.0, 60.0)])
        pts = np.array([(100.0, 0.0), (50.0, 50.0)])
        scratch = _Scratch(rx.r.shape[0] * len(pts))
        inside, d2, levels = _screen(rx, pts, 0, _frame(rx, (0.0, 0.0), (100.0, 100.0)), scratch)
        assert not inside.any()
        bound = _screen_bounds(inside, d2, levels, scratch)[1]
        assert np.all(bound > 0.0) and np.all(bound < 1e-6)


class TestScreen:
    @given(edge_instances())
    def test_keeps_every_pair_in_band(self, instance):
        # claims on and around every band edge, in the region's frame and in
        # the frame of the batch's own box, for each faker
        params, region, x0s, gp, rng = instance
        rx = _receivers(params, x0s, gp)
        frame, pts, _, bands = edge_claims(rx, region, rng)
        scratch = _Scratch(rx.r.shape[0] * len(pts))
        box = _frame(rx, pts.min(axis=0), pts.max(axis=0)) if len(pts) else frame
        found = False
        for f, within in itertools.product(range(len(x0s)), [frame, box]):
            exact = _in_band(rx, pts, f, _Scratch(scratch.cells)).copy()
            kept = _screen(rx, pts, f, within, scratch)[0]
            assert not (exact & ~kept).any()
            found |= exact.any()
        assert found or not len(pts)

    @pytest.mark.parametrize(
        "seed,digest",
        [
            (0, "1c836ac24388ebab39fc4e616ab33d4cb583ed3a326168ecbafc9490445f3f45"),
            (1, "b3f2324dd563607eefda0fcbe006b435487bf64912919b4c90d4af45913e4d4d"),
            (2, "979ede4bc8ecc1934bad68ed423deccb9583f79c0b85aa7684a78d7bebf0cf41"),
            (3, "fc573980453a424a678589a3b62548ac5379679a3de3cc1f4af59806c2c2b26b"),
        ],
    )
    def test_significant_noise_deploys_keep_their_outcomes(self, seed, digest):
        # sha256 of every faker's fake, value and per-node probabilities, as
        # the float64 level bounds gave them
        cfg = PRESETS["sig-noise-q-55"]
        nodes = deploy(cfg, seed)
        genuine = [n.true_position for n in nodes[: cfg.n0]]
        truths = [n.true_position for n in nodes[cfg.n0 :]]
        outcomes = optimize_fake_positions(
            cfg.resolved_signal(), cfg.region, truths, genuine, cfg.faking
        )
        h = hashlib.sha256()
        for o in outcomes:
            h.update(np.array(o.fake_position).tobytes())
            h.update(np.float64(o.expected_deceived).tobytes())
            h.update(np.array(o.per_node_probs).tobytes())
        assert h.hexdigest() == digest

    def test_significant_calibration_chunk_keeps_its_values(self):
        # 25 cells of an n=200 table in significant noise, 100 receivers each
        meta = PRESETS["sig-noise-62"].calibration_meta()
        values = _calibration_chunk((meta, math.ceil(200 / 2), range(25)))
        assert hashlib.sha256(np.array(values).tobytes()).hexdigest() == (
            "79536da016ba33213db069c40ffdec57e1a5169149f34a132379eaebbcb5d314"
        )


class TestZeroBand:
    """A claim outside a receiver's widened band (``near2``, ``far2``)
    deceives it with probability exactly 0.0; the search skips such pairs.
    That rests on where scipy's normal tails reach exactly 0.0 and 1.0."""

    def test_scipy_tails_reach_zero_and_one(self):
        assert ndtr(-38.5) == 0.0 and ndtr(8.3) == 1.0
        # each band edge: the tail, the 3-sigma window, and 6.5 sigmas spare
        assert adversary._BAND_BELOW == 38.5 + SIGMA_BAND + 6.5
        assert adversary._BAND_ABOVE == 8.3 + SIGMA_BAND + 6.5

    @pytest.mark.parametrize("name", ["neg-noise-52", "sig-noise-62"])
    @pytest.mark.parametrize("m", [2.0, 3.0, 4.0])
    def test_claims_on_the_widened_edges_score_zero(self, name, m):
        cfg = PRESETS[name]
        cfg = replace(cfg, signal=replace(cfg.signal, path_loss_exponent=m))
        params = cfg.resolved_signal()
        nodes = deploy(cfg, 0)
        genuine = [nd.true_position for nd in nodes[: cfg.n0]]
        rx = _receivers(params, [nd.true_position for nd in nodes[cfg.n0 :]], genuine)
        edges = np.stack([rx.near2, rx.far2])
        finite = np.isfinite(edges)
        assert finite.sum() > len(genuine)
        r = np.broadcast_to(rx.r, edges.shape)[finite]
        assert np.count_nonzero(_deception_prob_arrays(params, r, np.sqrt(edges[finite]))) == 0


def exhaustive_top(params, rx, pts, owner, k=REFINE_STARTS):
    """The ``k`` best points and their values by scoring every point: the
    selection before bound pruning."""
    values = _theta_batch(params, rx, pts, owner)
    top = _ranked(pts, values)[:k]
    return top, values[top]


def pruned_top(params, rx, pts, f, k=REFINE_STARTS):
    values = candidate_values(params, rx, pts, f, k)
    top = np.flatnonzero(values > -np.inf)
    top = top[_ranked(pts[top], values[top])[:k]]
    return top, values[top]


def assert_same_top(params, rx, pts, owner, k=REFINE_STARTS):
    got, want = pruned_top(params, rx, pts, owner, k), exhaustive_top(params, rx, pts, owner, k)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def search_candidates(params, x0, gp, config):
    """A faker's candidate set, built as ``optimize_fake_positions`` does."""
    rx = _receivers(params, x0, gp)
    cands = np.concatenate(
        [
            _grid_points(REGION, config.grid_step),
            _pair_reflections(rx.x0[0], _receiver_pairs(rx.gp)),
            _circle_points(rx.x0[0], rx.gp, rx.r[:, 0]),
        ]
    )
    return cands[_feasible(REGION, rx.x0[0], config.exclusion_radius, cands)]


@st.composite
def top_instances(draw):
    exponent = draw(st.sampled_from([2.0, 3.0, 4.0]))
    params = noise_params(exponent, draw(st.sampled_from(["negligible", "significant"])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0s = REGION.sample(rng, draw(st.integers(1, 3)))
    if draw(st.booleans()):
        # mirror-symmetric about x = 50 on a dyadic grid: mirrored points
        # score bit-identically, so ties at the floor are common
        half = np.round(rng.uniform(0.0, 50.0, (draw(st.integers(1, 4)), 2)) * 4.0) / 4.0
        gp = np.concatenate([half, np.stack([100.0 - half[:, 0], half[:, 1]], axis=1)])
        x0s[:, 0] = 50.0
    else:
        gp = REGION.sample(rng, draw(st.integers(1, 12)))
    radius = draw(st.sampled_from([2.0, 7.07, 30.0]))
    cfg = FakingSearchConfig(exclusion_radius=radius, grid_step=12.5)
    pts = search_candidates(params, x0s[0], gp, cfg)
    # duplicated candidates tie exactly, whatever the layout
    pts = np.concatenate([pts, pts[rng.integers(0, len(pts), draw(st.integers(0, 20)))]])
    pts = pts[: draw(st.integers(1, len(pts)))]
    return params, x0s, gp, pts, draw(st.sampled_from([1, 2, REFINE_STARTS, 8]))


def recorded_calls(monkeypatch, *names):
    """The names, in call order, of each call to these ``adversary``
    functions from here on."""
    calls = []
    for name in names:
        inner = getattr(adversary, name)
        monkeypatch.setattr(
            adversary,
            name,
            lambda *a, _name=name, _inner=inner, **kw: calls.append(_name) or _inner(*a, **kw),
        )
    return calls


class TestPrunedTop:
    # only batches wider than _THIN_SHARE are bound-pruned; each test that
    # draws or holds such batches checks that they reach _screen_bounds

    def test_same_top_as_scoring_every_candidate(self, monkeypatch):
        calls = recorded_calls(monkeypatch, "_screen_bounds")

        @given(top_instances())
        def check(instance):
            params, x0s, gp, pts, k = instance
            rx = _receivers(params, x0s, gp)
            for f in range(len(x0s)):
                assert_same_top(params, rx, pts, f, k)

        check()
        assert calls

    def test_ties_at_the_floor_reach_the_tie_break(self, monkeypatch):
        calls = recorded_calls(monkeypatch, "_screen_bounds")
        # mirror-symmetric receivers and duplicated candidates: the fifth
        # best value is shared by points that only (x, y) tells apart
        params = noise_params(2.0, "significant")
        gp = np.array([(25.0, 50.0), (75.0, 50.0), (40.0, 80.0), (60.0, 80.0)])
        rx = _receivers(params, (50.0, 10.0), gp)
        grid = _grid_points(REGION, 12.5)
        pts = np.concatenate([grid[::-1], grid[:7]])
        values = _theta_batch(params, rx, pts, 0)
        fifth = np.sort(values)[-REFINE_STARTS]
        assert np.sum(values == fifth) > 1
        assert_same_top(params, rx, pts, 0)
        assert calls

    def test_fewer_candidates_than_starts(self):
        params = noise_params(2.0, "significant")
        rx = _receivers(params, (50.0, 10.0), [(25.0, 50.0), (75.0, 50.0)])
        pts = np.array([(90.0, 90.0), (10.0, 90.0), (50.0, 60.0)])
        got = candidate_values(params, rx, pts, 0)
        assert got.tobytes() == _theta_batch(params, rx, pts, 0).tobytes()
        assert_same_top(params, rx, pts, 0)

    def test_all_zero_candidates_rank_by_position(self):
        params = make_params(1e-25)
        rx = _receivers(params, (80.0, 80.0), [(20.0, 60.0)])
        pts = _grid_points(REGION, 25.0)[::-1]
        assert not _theta_batch(params, rx, pts, 0).any()
        assert_same_top(params, rx, pts, 0)
        top, values = pruned_top(params, rx, pts, 0)
        assert pts[top[0]].tolist() == [0.0, 0.0] and not values.any()

    @pytest.mark.parametrize("name", ["neg-noise-52", "sig-noise-q-55"])
    def test_preset_candidates(self, name, monkeypatch):
        thin = name.startswith("neg-")
        cfg = PRESETS[name]
        params = cfg.resolved_signal()
        nodes = deploy(cfg, 0)
        genuine = np.array([n.true_position for n in nodes[: cfg.n0]])
        calls = recorded_calls(monkeypatch, "_screen_bounds")
        for node in nodes[cfg.n0 :: 7]:
            pts = search_candidates(params, node.true_position, genuine, cfg.faking)
            rx = _receivers(params, node.true_position, genuine)
            assert_same_top(params, rx, pts, 0)
            if thin:
                # a thin band's batch scores every point exactly
                got = candidate_values(params, rx, pts, 0)
                assert np.isfinite(got).all()
                assert got.tobytes() == _theta_batch(params, rx, pts, 0).tobytes()
        assert bool(calls) != thin


@st.composite
def ranked_candidates(draw):
    """Candidates on a small lattice with values from a short list, so
    values tie at the cut and whole (value, x, y) keys repeat, and -inf
    leaves fewer finite values than starts now and then."""
    n = draw(st.integers(0, 30))
    coord = st.sampled_from([0.0, 0.5, 1.0])
    points = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    value = st.one_of(
        st.sampled_from([-np.inf, 0.0, 0.25, 1.0]), st.floats(0.0, 4.0, allow_nan=False)
    )
    values = draw(st.lists(value, min_size=n, max_size=n))
    return np.array(points, dtype=float).reshape(-1, 2), np.array(values, dtype=float)


class TestTopStarts:
    @given(ranked_candidates(), st.sampled_from([1, 2, REFINE_STARTS]))
    @example(  # the fifth and sixth values tie at the cut; (x, y) decides
        (np.array([(1.0, 0.0)] * 3 + [(0.5, 0.0), (0.0, 1.0), (0.0, 0.5), (1.0, 1.0)]),
         np.array([3.0, 2.0, 2.0, 1.0, 0.5, 0.5, 0.5])),
        REFINE_STARTS,
    )
    @example(  # three finite values for five starts
        (np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 0.5), (0.0, 1.0)]),
         np.array([-np.inf, 1.0, 0.0, 2.0])),
        REFINE_STARTS,
    )
    def test_same_starts_as_ranking_every_finite_value(self, candidates, k):
        points, values = candidates
        finite = np.flatnonzero(values > -np.inf)
        want = finite[_ranked(points[finite], values[finite])[:k]]
        assert _top(points, values, k).tobytes() == want.tobytes()


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

    def test_pruned_candidate_scoring_peaks_below_dense(self):
        # a calibration cell's size: 100 receivers, about 2.4k candidates
        cfg = FakingSearchConfig(
            exclusion_radius=0.2 * REGION.diagonal, grid_step=REGION.diagonal / 30.0
        )
        pts = search_candidates(self.params, self.x0s[0], self.gp, cfg)
        assert 2000 < len(pts) < 3000
        rx = _receivers(self.params, self.x0s[:1], self.gp)
        pruned = peak_bytes(lambda: candidate_values(self.params, rx, pts, 0))
        dense = peak_bytes(lambda: dense_theta_batch(self.params, self.x0s[0], self.gp, pts))
        assert pruned <= dense

    def test_refine_group_peaks_below_dense(self):
        # one lockstep group: 25 fakers' compass moves, 40 each
        rx = _receivers(self.params, self.x0s, self.gp)
        owner = np.repeat(np.arange(25), 40)
        pruned = peak_bytes(lambda: _theta_batch(self.params, rx, self.pts, owner))
        dense = peak_bytes(lambda: dense_theta_batch(self.params, self.x0s[0], self.gp, self.pts))
        assert pruned <= dense

    def test_live_walk_peaks_below_a_dense_group(self):
        # a negligible-noise deploy's refinement: 48 fakers x 5 starts against
        # one 52-receiver set, all in one call, on a scratch sized as the
        # search sizes it, for the largest candidate batch, and made before
        # the measured call. Beyond the scratch, neither walk's peak reaches
        # one (receivers x moves) float array of the group
        cfg = PRESETS["neg-noise-52"]
        params = cfg.resolved_signal()
        rng = np.random.default_rng(52)
        gp, x0s = REGION.sample(rng, 52), REGION.sample(rng, 48)
        rx = _receivers(params, x0s, gp)
        starts, sizes = [], []
        for f, x0 in enumerate(x0s):
            cands = search_candidates(params, x0, gp, cfg.faking)
            top, vals = pruned_top(params, rx, cands, f)
            starts.append((cands[top], vals, np.full(len(top), f)))
            sizes.append(len(cands))
        pts, vals, owner = (np.concatenate(a) for a in zip(*starts))
        assert len(pts) == 48 * REFINE_STARTS
        first = np.full(len(pts), cfg.faking.grid_step / 2.0)
        assert _reachable(rx, pts, owner, first).mean() <= _THIN_SHARE
        for walk in (_refine_live, _refine):
            args = (params, REGION, rx, cfg.faking, pts, vals, owner, _Scratch(52 * max(sizes)))
            assert peak_bytes(lambda: walk(*args)) < 52 * len(pts) * len(_COMPASS) * 8

    def test_second_candidate_batch_allocates_no_dense_array(self):
        # a calibration cell's shape: 100 receivers, about 2.4k candidates, on
        # a scratch sized for them. The first batch fills the scratch; the
        # second reuses it, so its peak, and any block it allocates, stays
        # below one (receivers x points) float array
        cfg = FakingSearchConfig(
            exclusion_radius=0.2 * REGION.diagonal, grid_step=REGION.diagonal / 30.0
        )
        pts = search_candidates(self.params, self.x0s[0], self.gp, cfg)
        assert 2000 < len(pts) < 3000
        rx = _receivers(self.params, self.x0s[:1], self.gp)
        scratch, frame = _Scratch(len(self.gp) * len(pts)), region_frame(rx)
        first = _candidate_values(self.params, rx, pts, 0, scratch, frame)
        second = peak_bytes(lambda: _candidate_values(self.params, rx, pts, 0, scratch, frame))
        assert second < len(self.gp) * len(pts) * 8
        again = _candidate_values(self.params, rx, pts, 0, scratch, frame)
        assert again.tobytes() == first.tobytes()

    def test_second_refinement_iteration_allocates_no_dense_array(self):
        # one lockstep group of a calibration chunk's dense walk: 25 cells with
        # their own 100 receivers, 12 starts each, 2400 moves an iteration
        rng = np.random.default_rng(200)
        rx = _receivers(self.params, self.x0s, REGION.sample(rng, 25 * 100).reshape(25, 100, 2))
        starts, owner = REGION.sample(rng, 300), np.repeat(np.arange(25), 12)
        vals = _theta_batch(self.params, rx, starts, owner)
        cfg = FakingSearchConfig(exclusion_radius=2.0, grid_step=4.0, refine_iters=1)
        scratch = _Scratch(walk_cells(rx, starts))
        first = _refine(self.params, REGION, rx, cfg, starts, vals, owner, scratch)
        second = peak_bytes(
            lambda: _refine(self.params, REGION, rx, cfg, starts, vals, owner, scratch)
        )
        assert second < 100 * len(starts) * len(_COMPASS) * 8
        again = _refine(self.params, REGION, rx, cfg, starts, vals, owner, scratch)
        assert again[1].tobytes() == first[1].tobytes()


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
            for cand in grid[_feasible(REGION, x0, cfg.exclusion_radius, grid)]:
                assert out.expected_deceived >= theta_for_fake(params, x0, cand, gp)


@st.composite
def per_faker_instances(draw):
    exponent = draw(st.sampled_from([2.0, 3.0, 4.0]))
    params = noise_params(exponent, draw(st.sampled_from(["negligible", "significant"])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = REGION.sample(rng, draw(st.integers(1, 3)))
    # repeated indices give fakers that share an x0 but face different sets
    picks = draw(st.lists(st.integers(0, len(positions) - 1), min_size=1, max_size=5))
    x0s = positions[picks]
    sets = REGION.sample(rng, len(x0s) * draw(st.integers(1, 8))).reshape(len(x0s), -1, 2)
    cfg = FakingSearchConfig(
        exclusion_radius=draw(st.sampled_from([2.0, 7.07, 30.0])),
        grid_step=20.0,
        refine_iters=draw(st.integers(0, 4)),
    )
    return params, x0s, sets, cfg


class TestPerFakerSets:
    @given(per_faker_instances())
    def test_each_faker_gets_its_solo_outcome(self, instance):
        params, x0s, sets, cfg = instance
        together = optimize_fake_positions(params, REGION, x0s, sets, cfg)
        assert len(together) == len(x0s)
        for x0, gp, got in zip(x0s, sets, together):
            alone = optimize_fake_position(params, REGION, x0, gp, cfg)
            for field in ("fake_position", "expected_deceived", "per_node_probs"):
                have, want = getattr(got, field), getattr(alone, field)
                assert np.array(have).tobytes() == np.array(want).tobytes()

    def test_set_count_must_match_the_true_positions(self):
        x0s = REGION.sample(np.random.default_rng(1), 3)
        sets = REGION.sample(np.random.default_rng(2), 8).reshape(2, 4, 2)
        cfg = FakingSearchConfig(exclusion_radius=5.0, grid_step=20.0)
        with pytest.raises(ValueError, match=re.escape("(2, 4, 2)") + ".*" + re.escape("(3, 2)")):
            optimize_fake_positions(make_params(1e-9), REGION, x0s, sets, cfg)

    def test_sets_need_a_receiver(self):
        x0s = REGION.sample(np.random.default_rng(1), 3)
        cfg = FakingSearchConfig(exclusion_radius=5.0, grid_step=20.0)
        with pytest.raises(ValueError, match=re.escape("(3, 0, 2)") + ".*" + re.escape("(3, 2)")):
            optimize_fake_positions(make_params(1e-9), REGION, x0s, np.zeros((3, 0, 2)), cfg)


@st.composite
def walk_instances(draw):
    exponent = draw(st.sampled_from([2.0, 3.0, 4.0]))
    params = noise_params(exponent, draw(st.sampled_from(["negligible", "significant"])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0s = REGION.sample(rng, draw(st.integers(1, 3)))
    n_rx = draw(st.integers(1, 8))
    if draw(st.booleans()):
        gp = REGION.sample(rng, n_rx)
    else:
        gp = REGION.sample(rng, len(x0s) * n_rx).reshape(len(x0s), n_rx, 2)
    cfg = FakingSearchConfig(
        exclusion_radius=draw(st.sampled_from([2.0, 7.07, 30.0])),
        grid_step=draw(st.sampled_from([5.0, 20.0])),
        refine_iters=draw(st.integers(0, 25)),
    )
    rx = _receivers(params, x0s, gp)
    owner = rng.integers(0, len(x0s), draw(st.integers(1, 12)))
    angles = rng.uniform(0.0, 2.0 * np.pi, len(owner))
    unit = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    corners = np.array([(0.0, 0.0), (0.0, 100.0), (100.0, 0.0), (100.0, 100.0)])
    j = rng.integers(0, n_rx, len(owner))
    on_circle = (gp[j] if gp.ndim == 2 else gp[owner, j]) + rx.r[j, owner, None] * unit
    kinds = [
        REGION.sample(rng, len(owner)),
        # one compass step, axial or diagonal, before a point on an
        # equal-range circle of the start's faker: the step lands in its band
        on_circle - cfg.grid_step / 2.0 * _COMPASS[rng.integers(0, 8, len(owner))],
        # corners, where moves are clipped
        corners[rng.integers(0, 4, len(owner))],
        # on the exclusion-ball edge
        x0s[owner] + cfg.exclusion_radius * unit,
    ]
    starts = np.choose(rng.integers(0, len(kinds), len(owner))[:, None], kinds)
    starts = np.where(REGION.contains(starts)[:, None], starts, kinds[0])
    # the start's own value, a bare 0.0, or -inf: a start that takes any
    # feasible move, even one scoring 0.0
    own = _theta_batch(params, rx, starts, owner)
    pick = rng.integers(0, 3, len(owner))
    vals = np.choose(pick, [own, np.zeros_like(own), np.full_like(own, -np.inf)])
    return params, rx, cfg, starts, vals, owner


def reference_walk(params, region, rx, cfg, pts, vals, owner):
    """The compass walk that scores every feasible move of an iteration in
    one ``_theta_batch`` call: where it ends, and how many moves it scored."""
    pts, vals = pts.copy(), vals.copy()
    rows = np.arange(len(pts))
    steps = np.full(len(pts), cfg.grid_step / 2.0)
    x0 = rx.x0[owner]
    move_owner = np.broadcast_to(owner[:, None], (len(pts), len(_COMPASS)))
    scored = 0
    for _ in range(cfg.refine_iters):
        moves = region.clip(pts[:, None, :] + steps[:, None, None] * _COMPASS)
        dist = np.hypot(moves[..., 0] - x0[:, 0, None], moves[..., 1] - x0[:, 1, None])
        ok = (dist >= cfg.exclusion_radius) & region.contains(moves)
        mvals = np.full(ok.shape, -np.inf)
        mvals[ok] = _theta_batch(params, rx, moves[ok], move_owner[ok])
        scored += np.count_nonzero(ok)
        best = _ranked(moves, mvals)[:, 0]
        cand_pts, cand_vals = moves[rows, best], mvals[rows, best]
        moved = cand_vals > vals
        pts[moved], vals[moved] = cand_pts[moved], cand_vals[moved]
        steps[~moved] /= 2.0
    return pts, vals, scored


def recorded_scores(monkeypatch):
    """Copies of (moves, ok, moved, pts) for each call that a walk makes to
    its ``score`` from here on, a list per walk."""
    walks = []
    inner = adversary._walk

    def recording_walk(region, rx, config, pts, vals, owner, score):
        calls = []
        walks.append(calls)

        def recorded(moves, ok, moved, pts, steps):
            calls.append((moves.copy(), ok.copy(), moved.copy(), pts.copy()))
            return score(moves, ok, moved, pts, steps)

        return inner(region, rx, config, pts, vals, owner, recorded)

    monkeypatch.setattr(adversary, "_walk", recording_walk)
    return walks


def assert_no_move_scored_again(calls):
    """No move sent to a start that moved equals one of that start's points
    of the iteration before: its 8 moves, and the point it left once it had
    moved before, as a start's first value is the caller's."""
    walked = None
    for (last, _, _, left), (moves, ok, moved, _) in zip(calls, calls[1:]):
        walked = np.zeros_like(moved) if walked is None else walked
        seen = np.concatenate([last, np.where(walked[:, None], left, np.nan)[:, None]], axis=1)
        again = (moves[:, :, None] == seen[:, None]).all(axis=-1).any(axis=-1)
        assert not (again & ok & moved[:, None]).any()
        walked |= moved


class TestRefineWalks:
    @given(walk_instances())
    def test_live_walk_equals_dense_walk(self, instance):
        params, rx, cfg, starts, vals, owner = instance
        scratch = _Scratch(walk_cells(rx, starts))
        dense = _refine(params, REGION, rx, cfg, starts, vals, owner, scratch)
        live = _refine_live(params, REGION, rx, cfg, starts, vals, owner, scratch)
        assert live[0].tobytes() == dense[0].tobytes()
        assert live[1].tobytes() == dense[1].tobytes()

    @given(walk_instances())
    def test_walks_end_where_scoring_every_move_ends(self, instance):
        # the walks reuse last iteration's values; the reference scores every
        # move, so a reused value that differs from the point's own shows
        params, rx, cfg, starts, vals, owner = instance
        want = reference_walk(params, REGION, rx, cfg, starts, vals, owner)[:2]
        for walk in (_refine, _refine_live):
            scratch = _Scratch(walk_cells(rx, starts))
            assert_same_bytes(walk(params, REGION, rx, cfg, starts, vals, owner, scratch), want)

    @pytest.mark.parametrize("name", ["neg-noise-52", "sig-noise-q-55"])
    def test_moves_scored_the_iteration_before_skip_the_scorer(self, name, monkeypatch):
        # significant noise: starts move, and their next moves meet points
        # scored the iteration before. Negligible noise: no start moves, so
        # every feasible move reaches the scorer
        walks = []
        inner = adversary._walk

        def counted_walk(region, rx, config, pts, vals, owner, score):
            sent = []

            def counted(moves, ok, *rest):
                sent.append(np.count_nonzero(ok))
                return score(moves, ok, *rest)

            # copies: the dense walks' starts are views that take their results
            start = (region, rx, config, pts.copy(), vals.copy(), owner.copy())
            got = inner(region, rx, config, pts, vals, owner, counted)
            walks.append((*start, got, sum(sent)))
            return got

        monkeypatch.setattr(adversary, "_walk", counted_walk)
        cfg = PRESETS[name]
        deploy(cfg, 0)
        params = cfg.resolved_signal()
        sent = made = 0
        for region, rx, config, pts, vals, owner, got, count in walks:
            *want, scored = reference_walk(params, region, rx, config, pts, vals, owner)
            assert_same_bytes(got, want)
            sent, made = sent + count, made + scored
        assert walks and made > 0
        if name.startswith("neg-"):
            assert sent == made
        else:
            assert sent < 0.9 * made

    def test_no_move_is_scored_again(self, monkeypatch):
        walks = recorded_scores(monkeypatch)

        @given(walk_instances())
        def check(instance):
            params, rx, cfg, starts, vals, owner = instance
            for walk in (_refine, _refine_live):
                walks.clear()
                walk(params, REGION, rx, cfg, starts, vals, owner, _Scratch(walk_cells(rx, starts)))
                assert_no_move_scored_again(*walks)

        check()

    @pytest.mark.parametrize("walk", [_refine, _refine_live])
    def test_a_clipped_move_is_not_scored_again(self, walk, monkeypatch):
        # a start of node 56 in sig-noise-q-55's seed-0 deploy, on the
        # region's top edge. Its first iteration scores its move (0, 1),
        # clipped back onto the start. It then moves along (0, -1), so its
        # next move (0, 1) lands on the start: a point the walk scored, as
        # a move, though the start's own value is the caller's
        cfg = PRESETS["sig-noise-q-55"]
        params = cfg.resolved_signal()
        nodes = deploy(cfg, 0)
        genuine = np.array([n.true_position for n in nodes[: cfg.n0]])
        rx = _receivers(params, nodes[56].true_position, genuine)
        start = np.array([(61.904761904761905, 100.0)])
        vals, owner = _theta_batch(params, rx, start, 0), np.zeros(1, dtype=int)
        walks = recorded_scores(monkeypatch)
        got = walk(
            params, cfg.region, rx, cfg.faking, start, vals, owner, _Scratch(walk_cells(rx, start))
        )
        assert_no_move_scored_again(*walks)
        want = reference_walk(params, cfg.region, rx, cfg.faking, start, vals, owner)[:2]
        assert_same_bytes(got, want)

    @pytest.mark.parametrize("walk", [_refine, _refine_live])
    def test_walk_reaches_bands_beyond_its_first_reach(self, walk):
        # bands micrometres wide. From (50, 50), step 4, the move (54, 50)
        # lies in receiver A's band; from there (58, 50) lies in A's and B's.
        # B's band passes 8 m from (50, 50), beyond the first reach 4·√2, so
        # only a walk that follows its start finds it. The second start lies
        # 4·√2 inside A's band in distance: only its diagonal move reaches it.
        params = noise_params(2.0, "negligible")
        x0 = (20.0, 20.0)
        a = np.array([56.0, 808.0 / 60.0])  # as far from x0 as from (54, 50) and (58, 50)
        b = np.array([2064.0 / 76.0, 50.0])  # on y = 50, as far from x0 as from (58, 50)
        rx = _receivers(params, x0, np.array([a, b]))
        diagonal = a + rx.r[0, 0] * np.sqrt(0.5) - 4.0
        starts = np.array([(50.0, 50.0), diagonal])
        vals = _theta_batch(params, rx, starts, 0)
        assert not vals.any()
        cfg = FakingSearchConfig(exclusion_radius=2.0, grid_step=8.0, refine_iters=2)
        scratch = _Scratch(walk_cells(rx, starts))
        pts, out = walk(params, REGION, rx, cfg, starts, vals, np.zeros(2, dtype=int), scratch)
        assert pts.tolist() == [[58.0, 50.0], (diagonal + 4.0).tolist()]
        assert out == pytest.approx([2 * TRUTHFUL_ACCEPT_PROB, TRUTHFUL_ACCEPT_PROB], rel=1e-4)

    @pytest.mark.parametrize(
        "name,walk", [("neg-noise-52", "_refine_live"), ("sig-noise-q-55", "_refine")]
    )
    def test_deploy_takes_the_path_its_thin_share_selects(self, name, walk, monkeypatch):
        # negligible noise puts about 2% of candidate pairs in band and leaves
        # about 9% of (receiver, start) pairs reachable at the first step;
        # significant noise about 50% and 72%
        screens = ("_screen", "_screen_bounds")
        calls = recorded_calls(monkeypatch, *screens, "_refine", "_refine_live")
        # each _in_band batch of the dense walk: its points, and the most its
        # scratch is sized for
        batches = []
        inner = adversary._in_band

        def recorded(rx, pts, owner, scratch):
            if "_refine" in calls:
                batches.append((len(pts), scratch.cells // rx.r.shape[0]))
            return inner(rx, pts, owner, scratch)

        monkeypatch.setattr(adversary, "_in_band", recorded)
        deploy(PRESETS[name], 0)
        walks = [c for c in calls if c not in screens]
        # either walk takes every start in one call
        assert set(walks) == {walk}
        assert len(walks) == 1
        # the dense walk's batches fit the search's scratch
        assert bool(batches) == (walk == "_refine")
        assert all(points <= most for points, most in batches)
        # every candidate batch is screened, and each of them before the walk;
        # thin ones are scored exactly, wide ones bound-pruned
        first = calls.index(walk)
        assert calls[:first].count("_screen") == PRESETS[name].n - PRESETS[name].n0
        assert "_screen" not in calls[first:]
        assert ("_screen_bounds" in calls) == (walk == "_refine")


@st.composite
def stale_batches(draw):
    """A batch of another shape, regime and owner layout than ``walk_instances``
    draws: more receivers and points, to leave stale values in every buffer
    of a scratch beyond what the later batch writes."""
    exponent = draw(st.sampled_from([2.0, 3.0, 4.0]))
    params = noise_params(exponent, draw(st.sampled_from(["negligible", "significant"])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0s = REGION.sample(rng, draw(st.integers(1, 3)))
    n_rx = draw(st.integers(9, 16))
    if draw(st.booleans()):
        gp = REGION.sample(rng, n_rx)
    else:
        gp = REGION.sample(rng, len(x0s) * n_rx).reshape(len(x0s), n_rx, 2)
    rx = _receivers(params, x0s, gp)
    pts = REGION.sample(rng, draw(st.integers(60, 120)))
    # a candidate batch (a top to rank) has one faker
    top = draw(st.sampled_from([None, 1, REFINE_STARTS]))
    mixed = top is None and draw(st.booleans())
    owner = rng.integers(0, len(x0s), len(pts)) if mixed else len(x0s) - 1
    return params, rx, pts, owner, top


def assert_same_bytes(got, want):
    for have, expect in zip(got, want, strict=True):
        assert np.asarray(have).tobytes() == np.asarray(expect).tobytes()


class TestScratchReuse:
    @given(walk_instances(), stale_batches(), st.sampled_from([1, 2, REFINE_STARTS]))
    def test_stale_scratch_changes_no_result(self, instance, stale, k):
        params, rx, cfg, starts, vals, owner = instance
        *batch, top = stale
        _, stale_rx, stale_pts, _ = batch
        # room for the stale batch and for one walk iteration
        scratch = _Scratch(max(stale_rx.r.shape[0] * len(stale_pts), walk_cells(rx, starts)))
        if top is None:
            _theta_batch(*batch, scratch=scratch)
        else:
            candidate_values(*batch, top, scratch)
        # each result bit-equal to a fresh scratch's, on a scratch that every
        # call before it has left stale
        for part in (owner, owner[0]):
            got = _theta_batch(params, rx, starts, part, scratch)
            assert got.tobytes() == _theta_batch(params, rx, starts, part).tobytes()
        got = candidate_values(params, rx, starts, owner[0], k, scratch)
        assert got.tobytes() == candidate_values(params, rx, starts, owner[0], k).tobytes()
        for walk in (_refine, _refine_live):
            got = walk(params, REGION, rx, cfg, starts, vals, owner, scratch)
            fresh = _Scratch(walk_cells(rx, starts))
            assert_same_bytes(got, walk(params, REGION, rx, cfg, starts, vals, owner, fresh))

    @pytest.mark.parametrize("name", list(_Scratch._SHARES))
    def test_a_request_beyond_the_cells_raises(self, name):
        # each buffer holds its share of bytes for every cell and never grows
        dtype = np.dtype(f"u{_Scratch._SHARES[name]}")
        scratch = _Scratch(10)
        assert scratch.get(name, (2, 5), dtype).shape == (2, 5)
        with pytest.raises(TypeError, match="buffer is too small"):
            scratch.get(name, 11, dtype)

    def test_no_search_grows_its_scratch(self, monkeypatch):
        # a search sizes its scratch for its largest batch and both walks fit
        # their batches to it: deploys and calibration chunks in thin and wide
        # bands replace no buffer
        calls, grown = [], []
        inner = _Scratch.get

        def get(self, name, *args, **kwargs):
            before = self._buffers[name]
            view = inner(self, name, *args, **kwargs)
            calls.append(name)
            if self._buffers[name] is not before:
                grown.append((name, before.size, self._buffers[name].size))
            return view

        monkeypatch.setattr(_Scratch, "get", get)
        for name in ("neg-noise-52", "sig-noise-q-55"):
            deploy(PRESETS[name], 0)
        for name in ("neg-noise-52", "sig-noise-62"):
            cfg = PRESETS[name]
            _calibration_chunk((cfg.calibration_meta(), math.ceil(cfg.n / 2), range(10)))
        assert calls
        assert grown == []
