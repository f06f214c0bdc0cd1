import json
from dataclasses import replace

import pytest

from posverify.calibration import estimate_theta_table, load_theta_table, table_to_dict
from posverify.cli import main
from posverify.codec import write_json
from posverify.experiment import (
    PRESETS,
    ExperimentConfig,
    NoiseMode,
    config_to_dict,
    load_config,
    load_report,
)
from posverify.adversary import FakingSearchConfig, Region
from posverify.channel import SignalParams


@pytest.fixture
def config_path(tmp_path):
    region = Region(0.0, 20.0, 0.0, 20.0)
    diag = region.diagonal
    cfg = ExperimentConfig(
        n=8,
        n0=6,
        region=region,
        signal=SignalParams(transmit_power=1.0, wavelength=0.125),
        noise_mode=NoiseMode("significant"),
        faking=FakingSearchConfig(exclusion_radius=0.2 * diag, grid_step=diag / 10.0),
        trials=2,
        seed=4,
        calibration_positions=3,
        calibration_sets=2,
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    return path


class TestRun:
    def test_writes_json_report(self, config_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["run", "--config", str(config_path), "--report", str(out)]) == 0
        report = load_report(out)
        assert report.config.trials == 2
        assert "success_rate=" in capsys.readouterr().out

    def test_trials_and_seed_overrides(self, config_path, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["run", "--config", str(config_path), "--trials", "3", "--seed", "9",
             "--report", str(out)]
        )
        assert code == 0
        report = load_report(out)
        assert report.config.trials == 3
        assert report.config.seed == 9

    def test_csv_report(self, config_path, tmp_path):
        out = tmp_path / "steps.csv"
        code = main(
            ["run", "--config", str(config_path), "--report", str(out), "--format", "csv"]
        )
        assert code == 0
        assert out.read_text().startswith("step,")

    def test_corrupt_cache_entry_recomputed(self, config_path, tmp_path, monkeypatch):
        monkeypatch.setenv("POSVERIFY_THETA_CACHE", str(tmp_path / "cache"))
        assert main(["run", "--config", str(config_path)]) == 0
        (table,) = (tmp_path / "cache").glob("theta_n8_*.json")
        table.write_text(table.read_text()[:60])
        with pytest.warns(UserWarning, match="recomputing"):
            assert main(["run", "--config", str(config_path)]) == 0

    def test_missing_config_fails(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--preset", "nope"])

    def test_config_and_preset_exclusive(self, config_path):
        with pytest.raises(SystemExit):
            main(["run", "--config", str(config_path), "--preset", "sig-noise-62"])

    def test_non_positive_workers_named(self, config_path, capsys):
        assert main(["run", "--config", str(config_path), "--workers", "0"]) == 1
        assert "error: workers must be positive, got 0" in capsys.readouterr().err


def _edited(path, tmp_path, keys, value):
    """A copy of the JSON file at ``path`` with the value under the key
    path ``keys`` replaced by ``value``; the copy's path."""
    d = json.loads(path.read_text())
    *outer, last = keys
    inner = d
    for k in outer:
        inner = inner[k]
    inner[last] = value
    out = tmp_path / f"edited-{path.name}"
    out.write_text(json.dumps(d))
    return out


class TestBadInputs:
    @pytest.mark.parametrize(
        "keys,value,why",
        [
            (("trials",), 2.5, "trials: expected an integer, got 2.5"),
            (("n",), 8.0, "n: expected an integer, got 8.0"),
            (("seed",), 1.5, "seed: expected an integer, got 1.5"),
            (("trials",), True, "trials: expected an integer, got True"),
            (("calibration", "positions"), 2.5,
             "calibration_positions: expected an integer, got 2.5"),
        ],
    )
    def test_config_int_field_takes_only_integers(self, config_path, tmp_path, capsys,
                                                  keys, value, why):
        path = _edited(config_path, tmp_path, keys, value)
        assert main(["run", "--config", str(path)]) == 1
        assert f"error: bad config {path}: {why}" in capsys.readouterr().err

    def test_config_float_field_rejects_a_bool(self, config_path, tmp_path, capsys):
        # JSON true is a Python int: it would run on a 1 m wide region
        path = _edited(config_path, tmp_path, ("region", "x_max"), True)
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"error: bad config {path}: region: x_max: expected a number, got True" in err

    @pytest.mark.parametrize(
        "keys,value,why",
        [
            (("faking", "exclusion_radius"), float("nan"), "faking: exclusion_radius"),
            (("faking", "grid_step"), float("nan"), "faking: grid_step"),
            (("signal", "transmit_power"), float("nan"), "signal: transmit_power"),
            (("signal", "transmit_power"), float("inf"), "signal: transmit_power"),
            (("region", "x_max"), float("inf"), "region: x_max"),
            (("noise_mode",), {"mode": "explicit", "sigma": float("nan")}, "noise_mode: sigma"),
        ],
    )
    def test_config_non_finite_field_named(self, config_path, tmp_path, capsys,
                                           keys, value, why):
        # json writes NaN and Infinity, and json.loads reads them back
        path = _edited(config_path, tmp_path, keys, value)
        assert main(["theta", "--config", str(path), "--out", str(tmp_path / "t.json")]) == 1
        err = capsys.readouterr().err
        assert f"error: bad config {path}: {why} must be finite, got " in err

    @pytest.mark.parametrize(
        "args,seed",
        [
            (["run", "--seed", "-1"], -1),
            (["theta", "--seed", "-3", "--out", "t.json"], -3),
            (["run"], -2),  # the config file's seed
        ],
    )
    def test_negative_seed_named(self, config_path, tmp_path, capsys, monkeypatch, args, seed):
        monkeypatch.chdir(tmp_path)
        if "--seed" not in args:
            config_path = _edited(config_path, tmp_path, ("seed",), seed)
        assert main([*args, "--config", str(config_path)]) == 1
        assert f"seed must be nonnegative, got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()


class TestTheta:
    def test_calibrates_and_saves(self, config_path, tmp_path, capsys):
        out = tmp_path / "table.json"
        assert main(["theta", "--config", str(config_path), "--out", str(out)]) == 0
        table = load_theta_table(out)
        assert table.n == 8
        assert table.meta == load_config(config_path).calibration_meta()
        assert "theta_star=" in capsys.readouterr().out

    def test_table_feeds_a_run(self, tmp_path, config_path, monkeypatch):
        table = tmp_path / "table.json"
        assert main(["theta", "--config", str(config_path), "--out", str(table)]) == 0
        # the run calibrates the same table into its cache, byte for byte
        monkeypatch.setenv("POSVERIFY_THETA_CACHE", str(tmp_path / "cache"))
        assert main(["run", "--config", str(config_path)]) == 0
        (cached,) = (tmp_path / "cache").glob("theta_n8_*.json")
        assert cached.read_bytes() == table.read_bytes()
        cfg = json.loads(config_path.read_text())
        cfg["theta_source"] = str(table)
        reuse = tmp_path / "reuse.json"
        reuse.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(reuse)]) == 0

    def test_options_replace_config_fields(self, tmp_path, config_path):
        out = tmp_path / "t.json"
        code = main(
            ["theta", "--config", str(config_path), "--n", "12", "--samples", "2", "1",
             "--seed", "7", "--noise-mode", "negligible", "--out", str(out)]
        )
        assert code == 0
        cfg = replace(
            load_config(config_path),
            calibration_positions=2,
            calibration_sets=1,
            seed=7,
            noise_mode=NoiseMode("negligible"),
        )
        want = tmp_path / "want.json"
        write_json(want, table_to_dict(estimate_theta_table(12, cfg.calibration_meta())))
        assert out.read_bytes() == want.read_bytes()

    def test_explicit_mode_needs_sigma(self, tmp_path, capsys):
        code = main(
            ["theta", "--n", "8", "--noise-mode", "explicit",
             "--out", str(tmp_path / "t.json")]
        )
        assert code == 1
        assert "error: explicit noise needs a positive sigma" in capsys.readouterr().err

    def test_defaults_are_the_presets_channel(self, tmp_path):
        # perfbench's theta workload leans on this to share the presets' regime
        out = tmp_path / "t.json"
        assert main(["theta", "--n", "100", "--samples", "1", "1", "--out", str(out)]) == 0
        meta = load_theta_table(out).meta
        preset = PRESETS["sig-noise-q-55"]
        assert meta.signal == preset.resolved_signal()
        assert meta.region == preset.region
        assert meta.faking == preset.faking

    def test_sigma_rejected_for_derived_modes(self, tmp_path, capsys):
        code = main(
            ["theta", "--n", "8", "--sigma", "0.5", "--out", str(tmp_path / "t.json")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSweep:
    def test_csv_rows_per_n0(self, config_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--config", str(config_path), "--n0", "5:7", "--trials", "1",
             "--report", str(out), "--format", "csv"]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n0,success_rate,mean_genuine_retained,mean_passes"
        assert len(lines) == 4
        assert capsys.readouterr().out.count("n0=") == 3

    def test_json_report(self, config_path, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            ["sweep", "--config", str(config_path), "--n0", "5:7:2", "--trials", "1",
             "--report", str(out)]
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert [r["n0"] for r in rows] == [5, 7]
        # the trials of each n0 split unevenly over two workers
        blobs = []
        for workers in ("2", "1"):
            out = tmp_path / f"sweep-{workers}w.json"
            code = main(
                ["sweep", "--config", str(config_path), "--n0", "5:7:2", "--trials", "3",
                 "--workers", workers, "--report", str(out)]
            )
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_bad_n0_fails_before_any_point_runs(self, config_path, capsys):
        assert main(["sweep", "--config", str(config_path), "--n0", "5:9"]) == 1
        captured = capsys.readouterr()
        assert "n0=" not in captured.out
        assert "error: need 2 <= n0 <= n, got n0=9, n=8" in captured.err

    @pytest.mark.parametrize("span", ["7", "a:60", "52:60:x"])
    def test_bad_span(self, config_path, capsys, span):
        assert main(["sweep", "--config", str(config_path), "--n0", span]) == 1
        assert f"bad span {span!r}, want lo:hi or lo:hi:step" in capsys.readouterr().err
