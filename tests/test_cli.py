import json
import math
import os
import re
import runpy
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import posverify
from posverify.calibration import (
    _cell_x0,
    estimate_theta_table,
    load_theta_table,
)
import posverify.cli as cli
from posverify.cli import main
from posverify.codec import write_json
from posverify.experiment import (
    PRESETS,
    CalibrationCounts,
    ExperimentConfig,
    NoiseMode,
    load_config,
    load_report,
)
from posverify.adversary import FakingSearchConfig, Region
from posverify.channel import Signal


@pytest.fixture
def config_path(tmp_path):
    region = Region(0.0, 20.0, 0.0, 20.0)
    diag = region.diagonal
    cfg = ExperimentConfig(
        n=8,
        n0=6,
        region=region,
        signal=Signal(transmit_power=1.0, wavelength=0.125),
        noise_mode=NoiseMode("significant"),
        faking=FakingSearchConfig(exclusion_radius=0.2 * diag, grid_step=diag / 10.0),
        trials=2,
        seed=4,
        calibration=CalibrationCounts(positions=3, sets=2),
    )
    path = tmp_path / "cfg.json"
    write_json(path, cfg)
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
             "calibration.positions: expected an integer, got 2.5"),
        ],
    )
    def test_config_int_field_takes_only_integers(self, config_path, tmp_path, capsys,
                                                  keys, value, why):
        path = _edited(config_path, tmp_path, keys, value)
        assert main(["run", "--config", str(path)]) == 1
        assert f"error: bad config {path}: {why}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,why",
        [
            ({"theta_source": [1]}, "theta_source: expected a string, got [1]"),
            ({"filter_mode": [1]}, "filter_mode: expected a string, got [1]"),
            ({"calibration": {"positions": 3, "foo": 1}},
             "calibration: unknown CalibrationCounts keys ['foo']"),
            ({"calibration": [1]}, "calibration: expected a JSON object"),
            (None, "expected a JSON object"),  # the file holds an array
        ],
    )
    def test_config_error_is_one_line_naming_the_key(self, config_path, tmp_path, capsys,
                                                     edit, why):
        d = json.loads(config_path.read_text())
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([d] if edit is None else {**d, **edit}))
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad config {path}: {why}")
        assert err.count("\n") == 1

    def test_config_float_field_rejects_a_bool(self, config_path, tmp_path, capsys):
        # JSON true is a Python int: it would run on a 1 m wide region
        path = _edited(config_path, tmp_path, ("region", "x_max"), True)
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"error: bad config {path}: region.x_max: expected a number, got True" in err

    @pytest.mark.parametrize(
        "keys,value,why",
        [
            (("faking", "exclusion_radius"), float("nan"), "faking.exclusion_radius"),
            (("faking", "grid_step"), float("nan"), "faking.grid_step"),
            (("signal", "transmit_power"), float("nan"), "signal.transmit_power"),
            (("signal", "transmit_power"), float("inf"), "signal.transmit_power"),
            (("region", "x_max"), float("inf"), "region.x_max"),
            (("noise_mode",), {"mode": "explicit", "sigma": float("nan")}, "noise_mode.sigma"),
        ],
    )
    def test_config_non_finite_field_named(self, config_path, tmp_path, capsys,
                                           keys, value, why):
        # json writes NaN and Infinity, and json.loads reads them back
        path = _edited(config_path, tmp_path, keys, value)
        assert main(["theta", "--config", str(path), "--out", str(tmp_path / "t.json")]) == 1
        err = capsys.readouterr().err
        assert f"error: bad config {path}: {why}: must be finite, got " in err

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
        assert f"seed: must be nonnegative, got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()


class TestTheta:
    def test_calibrates_and_saves(self, config_path, tmp_path, capsys):
        out = tmp_path / "table.json"
        assert main(["theta", "--config", str(config_path), "--out", str(out)]) == 0
        table = load_theta_table(out)
        assert table.n == 8
        assert table.calibration_meta == load_config(config_path).calibration_meta()
        assert "theta_star=" in capsys.readouterr().out

    def test_names_the_position_that_set_theta_star(self, config_path, tmp_path, capsys):
        out = tmp_path / "table.json"
        assert main(["theta", "--config", str(config_path), "--out", str(out)]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        got = re.fullmatch(
            r"set by position (\d+) at \((\S+), (\S+)\): mean (\S+) \+- (\S+) "
            r"over (\d+) sets, margin (\S+)",
            line,
        )
        assert got, line
        i, x, y, mean, stderr, sets, margin = got.groups()
        table = load_theta_table(out)
        meta = table.calibration_meta
        assert int(sets) == meta.num_x_per_x0 == 2
        rows = np.reshape(table.samples, (meta.num_x0, meta.num_x_per_x0))
        i = int(i)
        assert i == int(np.argmax(rows.mean(axis=1)))
        assert table.theta_star == math.ceil(rows[i].mean())
        assert (float(x), float(y)) == pytest.approx(_cell_x0(meta, i), abs=1e-4)
        assert float(mean) == pytest.approx(rows[i].mean(), abs=1e-4)
        assert float(stderr) == pytest.approx(rows[i].std(ddof=1) / math.sqrt(2), abs=1e-4)
        assert float(margin) == pytest.approx(table.theta_star - rows[i].mean(), abs=1e-4)
        assert 0.0 <= float(margin) < 1.0

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
            calibration=CalibrationCounts(positions=2, sets=1),
            seed=7,
            noise_mode=NoiseMode("negligible"),
        )
        want = tmp_path / "want.json"
        write_json(want, estimate_theta_table(12, cfg.calibration_meta()))
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
        meta = load_theta_table(out).calibration_meta
        preset = PRESETS["sig-noise-q-55"]
        assert meta.signal == preset.resolved_signal()
        assert meta.region == preset.region
        assert meta.faking == preset.faking

    @pytest.mark.parametrize(
        "samples,why",
        [
            (("0", "5"), "positions: must be positive, got 0"),
            (("3", "-2"), "sets: must be positive, got -2"),
        ],
    )
    def test_non_positive_sample_count_named(self, tmp_path, capsys, samples, why):
        out = tmp_path / "t.json"
        assert main(["theta", "--n", "8", "--samples", *samples, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {why}\n"
        assert not out.exists()

    def test_table_with_non_positive_count_named(self, config_path, tmp_path, capsys):
        # a table file's key, under the file's own name for the meta
        table = tmp_path / "t.json"
        assert main(["theta", "--config", str(config_path), "--out", str(table)]) == 0
        d = json.loads(table.read_text())
        d["calibration_meta"]["num_x0"] = 0
        table.write_text(json.dumps(d))
        cfg = replace(load_config(config_path), theta_source=str(table))
        write_json(config_path, cfg)
        capsys.readouterr()
        assert main(["run", "--config", str(config_path)]) == 1
        why = "calibration_meta.num_x0: must be positive, got 0"
        assert capsys.readouterr().err == f"error: bad theta table {table}: {why}\n"

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


OUTPUT_FLAGS = [
    ["run", "--report"],
    ["sweep", "--n0", "5:6", "--report"],
    ["theta", "--out"],
]


class TestMissingDirectory:
    @staticmethod
    def error_before_any_work(config_path, capsys, monkeypatch, args, target):
        """What ``args`` writing to ``target`` prints to stderr, having run
        no experiment or calibration and printed nothing else."""
        calls = []
        for name in ("run_experiment", "estimate_theta_table"):
            monkeypatch.setattr(cli, name, lambda *a, _name=name, **kw: calls.append(_name))
        assert main([*args[:1], "--config", str(config_path), *args[1:], str(target)]) == 1
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    @pytest.mark.parametrize("args", OUTPUT_FLAGS)
    def test_fails_before_any_work(self, config_path, tmp_path, capsys, monkeypatch, args):
        target = tmp_path / "no" / "such" / "out.json"
        err = self.error_before_any_work(config_path, capsys, monkeypatch, args, target)
        assert err == f"error: cannot write {target}: no directory {target.parent}\n"

    @pytest.mark.parametrize("args", OUTPUT_FLAGS)
    def test_a_directory_as_output_fails_before_any_work(
        self, config_path, tmp_path, capsys, monkeypatch, args
    ):
        err = self.error_before_any_work(config_path, capsys, monkeypatch, args, tmp_path)
        assert err == f"error: cannot write {tmp_path}: is a directory\n"

    def test_a_file_in_the_current_directory_passes_the_check(
        self, config_path, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["theta", "--config", str(config_path), "--out", "table.json"]) == 0
        assert load_theta_table(tmp_path / "table.json").n == 8


class TestModule:
    def test_python_m_runs_the_command(self, config_path, tmp_path, monkeypatch, capsys):
        out = tmp_path / "table.json"
        argv = ["posverify", "theta", "--config", str(config_path), "--out", str(out)]
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as done:
            runpy.run_module("posverify", run_name="__main__")
        assert done.value.code == 0
        assert "theta_star=" in capsys.readouterr().out
        assert load_theta_table(out).n == 8

    def test_a_package_warning_prints_one_line(self, config_path, tmp_path):
        # a theta cache under a regular file cannot be written: the run keeps
        # its table, exits 0 and warns on one line, as an error would show.
        # It runs in a child process: pytest records the warnings of its own
        (tmp_path / "file").write_text("")
        env = {
            **os.environ,
            "POSVERIFY_THETA_CACHE": str(tmp_path / "file" / "cache"),
            "PYTHONPATH": str(Path(posverify.__file__).parents[1]),
        }
        child = subprocess.run(
            [sys.executable, "-m", "posverify", "run", "--config", str(config_path)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert child.returncode == 0
        (line,) = child.stderr.splitlines()
        assert line.startswith(f"warning: cannot cache theta table {tmp_path / 'file' / 'cache'}")
