import json
import math
import re

import numpy as np
import pytest
from scipy.stats import norm

from posverify.adversary import FakingSearchConfig, Region, optimize_fake_position
from posverify.calibration import (
    CalibrationMeta,
    ThetaTable,
    _calibration_chunk,
    _cell_inputs,
    _decile_rank,
    cached_theta_table,
    estimate_theta_table,
    genuine_acceptance_prob,
    load_theta_table,
    malicious_approval_bound,
    meta_hash,
    save_theta_table,
    theta_cache_path,
    theta_star_source,
    threshold,
)
from posverify.channel import SignalParams, ideal_received_power
from posverify.codec import from_json, to_json
from posverify.experiment import PRESETS, NoiseMode


class TestThreshold:
    @pytest.mark.parametrize(
        "k,theta,want",
        [(100, 2.0, 51.0), (101, 2.0, 51.5), (99, 8.6786, 53.8393), (1, 0.0, 0.5)],
    )
    def test_examples(self, k, theta, want):
        assert threshold(k, theta) == pytest.approx(want, abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            threshold(0, 1.0)
        with pytest.raises(ValueError):
            threshold(10, -0.5)
        # a NaN allowance would keep every node
        with pytest.raises(ValueError, match="theta must be nonnegative, got nan"):
            threshold(10, math.nan)


class TestMaliciousApprovalBound:
    @pytest.mark.parametrize("n,theta,want", [(100, 2, 52), (101, 2, 52), (100, 24, 74)])
    def test_examples(self, n, theta, want):
        assert malicious_approval_bound(n, theta) == want

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            malicious_approval_bound(0, 1)
        with pytest.raises(ValueError):
            malicious_approval_bound(10, -1)


class TestGenuineAcceptanceProb:
    def test_worked_example_frozen(self):
        # n=100, n0=52, theta=2: tau = -2.3197342928, prob = 0.9898223722
        # (frozen from an independent scripted evaluation with scipy.stats)
        got = genuine_acceptance_prob(100, 52, 2.0)
        assert got == pytest.approx(0.9898223722415292, abs=1e-12)

    def test_matches_direct_normal_tail(self):
        p = 0.9973002039367398
        for n, n0, theta in [(100, 62, 22.0), (100, 60, 16.0), (101, 52, 2.0)]:
            tau = (n + theta - 2 * n0 * p) / (2 * math.sqrt(p * (1 - p) * (n0 - 1)))
            assert genuine_acceptance_prob(n, n0, theta) == pytest.approx(
                float(1 - norm.cdf(tau)), abs=1e-12
            )

    def test_decreasing_in_theta(self):
        vals = [genuine_acceptance_prob(100, 60, t) for t in (16.0, 20.0, 24.0, 28.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            genuine_acceptance_prob(100, 1, 2.0)
        with pytest.raises(ValueError):
            genuine_acceptance_prob(100, 101, 2.0)
        with pytest.raises(ValueError):
            genuine_acceptance_prob(100, 50, 2.0, link_prob=0.0)
        with pytest.raises(ValueError):
            genuine_acceptance_prob(100, 50, 2.0, link_prob=1.0)


def test_decile_rank_is_nearest_rank():
    for count in (1, 5, 7, 10, 500):
        for tenths in range(1, 10):
            want = math.ceil(tenths * count / 10) - 1
            assert _decile_rank(tenths, count) == want


REGION = Region(0.0, 30.0, 0.0, 30.0)
FAKING = FakingSearchConfig(exclusion_radius=2.1, grid_step=3.0, refine_iters=8)


def sig_params():
    base = SignalParams(transmit_power=1.0, wavelength=0.125)
    ss = ideal_received_power(base, REGION.diagonal) / 3.0
    return SignalParams(transmit_power=1.0, wavelength=0.125, noise_sigma=ss)


def sig_meta(num_x0=3, num_x_per_x0=2, seed=42):
    return CalibrationMeta(sig_params(), REGION, FAKING, num_x0, num_x_per_x0, seed)


def small_table(seed=42, workers=1):
    return estimate_theta_table(6, sig_meta(seed=seed), workers=workers)


def preset_table(name, seed):
    cfg = PRESETS[name]
    meta = CalibrationMeta(
        cfg.resolved_signal(), cfg.region, cfg.faking,
        cfg.calibration.positions, cfg.calibration.sets, seed,
    )
    return cached_theta_table(cfg.n, meta)


class TestEstimateThetaTable:
    def test_shape_and_summary_consistency(self):
        t = small_table()
        assert len(t.samples) == 6
        means = [np.mean(t.samples[i * 2 : (i + 1) * 2]) for i in range(3)]
        assert t.theta_star == math.ceil(max(means))
        assert t.theta_star >= 1
        qs = [t.quantiles[k / 10] for k in range(1, 10)]
        assert all(a <= b for a, b in zip(qs, qs[1:]))
        assert min(t.samples) <= qs[0] and qs[-1] <= max(t.samples)
        assert all(s > 0 for s in t.samples)

    def test_reproducible_and_worker_invariant(self):
        a = small_table(seed=9)
        b = small_table(seed=9)
        c = small_table(seed=9, workers=2)
        assert a == b == c

    def test_seed_changes_samples(self):
        assert small_table(seed=1).samples != small_table(seed=2).samples

    def test_rejects_zero_noise(self):
        p = SignalParams(transmit_power=1.0, wavelength=0.125, noise_sigma=0.0)
        with pytest.raises(ValueError):
            estimate_theta_table(6, CalibrationMeta(p, REGION, FAKING, 2, 2, 0))

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            estimate_theta_table(1, sig_meta(2, 2, seed=0))

    def test_rejects_negative_seed(self):
        # numpy's SeedSequence would fail later without naming the seed
        with pytest.raises(ValueError, match="seed: must be nonnegative, got -2"):
            sig_meta(seed=-2)

    def test_one_cell_sets_negligible_noise_theta_star(self):
        # neg-noise-52 calibrated at seed 0 (the preset uses seed 1, which
        # gives theta_star 2) has theta_star 3, and a single cell of row 22
        # sets it: one rare three-receiver alignment among the row's 20
        # searches. No other row's mean exceeds 1.9946, so a search change
        # that loses this alignment drops theta_star to 2.
        cfg = PRESETS["neg-noise-52"]
        meta = CalibrationMeta(
            cfg.resolved_signal(), cfg.region, cfg.faking,
            cfg.calibration.positions, cfg.calibration.sets, seed=0,
        )
        n_genuine = math.ceil(cfg.n / 2)
        sets = meta.num_x_per_x0
        row = _calibration_chunk((meta, n_genuine, range(22 * sets, 23 * sets)))
        high = [j for j, v in enumerate(row) if v > 2.5]
        assert len(high) == 1
        assert math.ceil(np.mean(row)) == 3
        assert math.ceil(np.mean(row[: high[0]] + row[high[0] + 1 :])) == 2

    # calibration seeds 0-5 at the preset sample counts, taken from the
    # search as it was before cells were searched in lockstep
    @pytest.mark.parametrize("seed,theta_star", enumerate([3, 2, 3, 3, 3, 2]))
    def test_negligible_noise_theta_star_over_seeds(self, seed, theta_star):
        assert preset_table("neg-noise-52", seed).theta_star == theta_star

    def test_significant_noise_schedule_steps_down_at_seed_5(self):
        # the sampled 0.9 quantile sits above the ceiling of the worst
        # per-position mean, so the quantile schedule is not monotone
        t = preset_table("sig-noise-62", 5)
        assert t.theta_star == 21
        assert t.schedule()[-2:] == (21.46620059149831, 21.0)

    def test_source_is_the_first_position_with_the_highest_mean(self):
        # means 1.5, 2.5, 2.5: the first of the tied positions
        meta = sig_meta(num_x0=3, num_x_per_x0=2)
        quantiles = {t / 10: 1.0 for t in range(1, 10)}
        table = ThetaTable(6, 3, quantiles, (1.0, 2.0, 2.5, 2.5, 0.5, 4.5), meta)
        src = theta_star_source(table)
        assert (src.position, src.mean, src.stderr, src.margin) == (1, 2.5, 0.0, 0.5)
        assert src.x0 == tuple(_cell_inputs(meta, 3, 1, 0)[0])
        # one set per position has no standard error
        one = ThetaTable(6, 2, quantiles, (1.0, 2.0, 1.5), sig_meta(num_x0=3, num_x_per_x0=1))
        src = theta_star_source(one)
        assert (src.position, src.mean, src.margin) == (1, 2.0, 0.0)
        assert math.isnan(src.stderr)

    def test_source_names_the_row_of_the_rare_alignment(self):
        # the row that test_one_cell_sets_negligible_noise_theta_star pins:
        # one of its 20 sets lifts its mean, so its standard error is wide
        table = preset_table("neg-noise-52", 0)
        src = theta_star_source(table)
        row = np.array(table.samples[22 * 20 : 23 * 20])
        assert src.position == 22 and table.theta_star == 3
        assert src.mean == float(np.mean(row)) and src.margin == 3 - src.mean
        assert src.stderr == pytest.approx(row.std(ddof=1) / math.sqrt(20))

    def test_schedule_layout(self):
        t = small_table()
        sched = t.schedule()
        assert len(sched) == 11
        assert sched[0] == 0.0
        assert sched[1] == t.quantiles[0.1]
        assert sched[-1] == float(t.theta_star)


def neg_params():
    base = SignalParams(transmit_power=1.0, wavelength=0.125)
    return SignalParams(1.0, 0.125, noise_sigma=NoiseMode("negligible").sigma_for(base, REGION))


class TestLockstepChunks:
    # 3 positions x 7 sets: chunks of 3, 10 and 20 cells cross x0 rows
    @pytest.mark.parametrize("params", [sig_params, neg_params], ids=["significant", "negligible"])
    @pytest.mark.parametrize("cells", [range(4, 5), range(5, 8), range(2, 12), range(1, 21)])
    def test_chunk_equals_each_cell_searched_alone(self, params, cells):
        meta = CalibrationMeta(params(), REGION, FAKING, 3, 7, seed=5)
        chunk = _calibration_chunk((meta, 6, cells))
        alone = [
            optimize_fake_position(
                meta.signal, REGION, *_cell_inputs(meta, 6, *divmod(k, 7)), FAKING
            ).expected_deceived
            for k in cells
        ]
        assert np.array(chunk).tobytes() == np.array(alone).tobytes()

    def test_chunks_cover_the_cells_in_order(self):
        meta = sig_meta(3, 7, seed=5)
        table = estimate_theta_table(12, meta)
        assert table.samples == tuple(_calibration_chunk((meta, 6, range(21))))


class TestPersistence:
    def test_json_round_trip_exact(self):
        t = small_table()
        back = from_json(ThetaTable, json.loads(json.dumps(to_json(t))))
        assert back == t

    def test_save_load(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POSVERIFY_THETA_CACHE", str(tmp_path))
        t = small_table()
        path = save_theta_table(t)
        assert path.name == f"theta_n6_{meta_hash(t.calibration_meta)}.json"
        assert load_theta_table(path) == t

    def test_cached_table_roundtrips_and_hits(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POSVERIFY_THETA_CACHE", str(tmp_path))
        kwargs = dict(n=6, meta=sig_meta(2, 2, seed=3))
        first = cached_theta_table(**kwargs)
        files = list(tmp_path.glob("theta_n6_*.json"))
        assert len(files) == 1
        mtime = files[0].stat().st_mtime_ns
        second = cached_theta_table(**kwargs)
        assert second == first
        assert files[0].stat().st_mtime_ns == mtime  # untouched, so it was a hit

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POSVERIFY_THETA_CACHE", str(tmp_path))
        kwargs = dict(n=6, meta=sig_meta(2, 2, seed=3))
        first = cached_theta_table(**kwargs)
        (path,) = tmp_path.glob("theta_n6_*.json")
        path.write_text(path.read_text()[:60])
        with pytest.warns(UserWarning, match=re.escape(str(path))):
            assert cached_theta_table(**kwargs) == first
        assert load_theta_table(path) == first

    def test_unwritable_cache_keeps_the_table(self, tmp_path, monkeypatch):
        kwargs = dict(n=6, meta=sig_meta(2, 2, seed=3))
        monkeypatch.setenv("POSVERIFY_THETA_CACHE", str(tmp_path / "ok"))
        want = cached_theta_table(**kwargs)
        # the cache directory would sit under a regular file
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("POSVERIFY_THETA_CACHE", str(tmp_path / "file" / "cache"))
        path = theta_cache_path(**kwargs)
        with pytest.warns(UserWarning, match=f"cannot cache theta table {re.escape(str(path))}: "):
            assert cached_theta_table(**kwargs) == want

    def test_cache_entry_with_negative_theta_star_is_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POSVERIFY_THETA_CACHE", str(tmp_path))
        kwargs = dict(n=6, meta=sig_meta(2, 2, seed=3))
        first = cached_theta_table(**kwargs)
        (path,) = tmp_path.glob("theta_n6_*.json")
        path.write_text(json.dumps({**to_json(first), "theta_star": -1}))
        with pytest.warns(UserWarning, match="theta_star: must be nonnegative"):
            assert cached_theta_table(**kwargs) == first
        assert load_theta_table(path) == first

    def test_cache_entry_for_other_inputs_is_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POSVERIFY_THETA_CACHE", str(tmp_path))
        kwargs = dict(n=6, meta=sig_meta(3, 2, seed=42))
        first = cached_theta_table(**kwargs)
        (path,) = tmp_path.glob("theta_n6_*.json")
        path.write_text(json.dumps(to_json(small_table(seed=7))))
        with pytest.warns(UserWarning, match="made for other inputs"):
            assert cached_theta_table(**kwargs) == first

    def test_load_names_a_bad_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POSVERIFY_THETA_CACHE", str(tmp_path))
        path = save_theta_table(small_table())
        path.write_text(path.read_text()[:60])
        with pytest.raises(ValueError, match=f"bad theta table {re.escape(str(path))}"):
            load_theta_table(path)
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="bad theta table"):
            load_theta_table(path)

    def test_env_var_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POSVERIFY_THETA_CACHE", str(tmp_path / "alt"))
        t = small_table()
        path = save_theta_table(t)
        assert path.parent == tmp_path / "alt"
        assert load_theta_table(path) == t

    def test_hash_tracks_meta(self):
        t = small_table(seed=1)
        u = small_table(seed=2)
        assert meta_hash(t.calibration_meta) != meta_hash(u.calibration_meta)
        assert meta_hash(t.calibration_meta) == meta_hash(
            CalibrationMeta(sig_params(), REGION, FAKING, 3, 2, 1)
        )
