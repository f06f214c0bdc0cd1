import json
import math
import re

import numpy as np
import pytest
from scipy.stats import norm

from posverify.adversary import FakingSearchConfig, Region
from posverify.calibration import (
    CalibrationMeta,
    ThetaTable,
    _decile_rank,
    cached_theta_table,
    estimate_theta_table,
    genuine_acceptance_prob,
    load_theta_table,
    malicious_approval_bound,
    meta_hash,
    save_theta_table,
    table_from_dict,
    table_to_dict,
    threshold,
)
from posverify.channel import SignalParams, ideal_received_power


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


def small_table(seed=42, workers=1):
    return estimate_theta_table(
        sig_params(), REGION, 6, num_x0=3, num_x_per_x0=2, config=FAKING, seed=seed, workers=workers
    )


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
            estimate_theta_table(p, REGION, 6, 2, 2, FAKING, seed=0)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            estimate_theta_table(sig_params(), REGION, 1, 2, 2, FAKING, seed=0)

    def test_schedule_layout(self):
        t = small_table()
        sched = t.schedule()
        assert len(sched) == 11
        assert sched[0] == 0.0
        assert sched[1] == t.quantiles[0.1]
        assert sched[-1] == float(t.theta_star)


class TestPersistence:
    def test_json_round_trip_exact(self):
        t = small_table()
        back = table_from_dict(json.loads(json.dumps(table_to_dict(t))))
        assert back == t

    def test_save_load(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POSVERIFY_THETA_CACHE", str(tmp_path))
        t = small_table()
        path = save_theta_table(t)
        assert path.name == f"theta_n6_{meta_hash(t.meta)}.json"
        assert load_theta_table(path) == t

    def test_cached_table_roundtrips_and_hits(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POSVERIFY_THETA_CACHE", str(tmp_path))
        kwargs = dict(
            params=sig_params(),
            region=REGION,
            n=6,
            num_x0=2,
            num_x_per_x0=2,
            config=FAKING,
            seed=3,
        )
        first = cached_theta_table(**kwargs)
        files = list(tmp_path.glob("theta_n6_*.json"))
        assert len(files) == 1
        mtime = files[0].stat().st_mtime_ns
        second = cached_theta_table(**kwargs)
        assert second == first
        assert files[0].stat().st_mtime_ns == mtime  # untouched, so it was a hit

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POSVERIFY_THETA_CACHE", str(tmp_path))
        kwargs = dict(
            params=sig_params(), region=REGION, n=6, num_x0=2, num_x_per_x0=2,
            config=FAKING, seed=3,
        )
        first = cached_theta_table(**kwargs)
        (path,) = tmp_path.glob("theta_n6_*.json")
        path.write_text(path.read_text()[:60])
        with pytest.warns(UserWarning, match=re.escape(str(path))):
            assert cached_theta_table(**kwargs) == first
        assert load_theta_table(path) == first

    def test_cache_entry_for_other_inputs_is_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POSVERIFY_THETA_CACHE", str(tmp_path))
        kwargs = dict(
            params=sig_params(), region=REGION, n=6, num_x0=3, num_x_per_x0=2,
            config=FAKING, seed=42,
        )
        first = cached_theta_table(**kwargs)
        (path,) = tmp_path.glob("theta_n6_*.json")
        path.write_text(json.dumps(table_to_dict(small_table(seed=7))))
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
        assert meta_hash(t.meta) != meta_hash(u.meta)
        assert meta_hash(t.meta) == meta_hash(
            CalibrationMeta(sig_params(), REGION, FAKING, 3, 2, 1)
        )
