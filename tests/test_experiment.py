import contextlib
import io
import json
import math
import operator
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from posverify import calibration, pool
from posverify.adversary import FakingSearchConfig, Region
from posverify.calibration import (
    CalibrationMeta,
    estimate_theta_table,
    load_theta_table,
)
from posverify.channel import Signal, SignalParams
from posverify.cli import main
from posverify.codec import from_json, to_json, write_json
from posverify.experiment import (
    CSV_COLUMNS,
    NEGLIGIBLE_FACTOR,
    CalibrationCounts,
    ExperimentConfig,
    NoiseMode,
    PRESETS,
    compute_noise_scale,
    deploy,
    emit_report,
    load_config,
    load_report,
    resolve_theta_table,
    run_experiment,
    step_rows,
)
from posverify.protocol import AccusationMatrix, NodeKind, filter_fixpoint

GOLDEN = Path(__file__).parent / "golden"
# a theta table file's deciles, each at one value
DECILES = {str(t / 10): 1.0 for t in range(1, 10)}


def tiny_config(**overrides):
    # small everything so calibration and trials run in milliseconds
    region = Region(0.0, 20.0, 0.0, 20.0)
    diag = region.diagonal
    base = dict(
        n=10,
        n0=7,
        region=region,
        signal=Signal(transmit_power=1.0, wavelength=0.125),
        noise_mode=NoiseMode("significant"),
        faking=FakingSearchConfig(exclusion_radius=0.2 * diag, grid_step=diag / 10.0),
        trials=2,
        seed=3,
        calibration=CalibrationCounts(positions=4, sets=3),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def calibration_meta(cfg, positions, sets, seed, faking=None):
    """A calibration of ``cfg``'s channel and region with its own counts,
    seed and, optionally, search."""
    return CalibrationMeta(
        cfg.resolved_signal(), cfg.region, faking or cfg.faking, positions, sets, seed
    )


class TestNoiseScale:
    def test_unit_square_closed_form(self):
        # gain factor wavelength/(4 pi) = 1, diagonal sqrt(2): power 1/2, third 1/6
        signal = SignalParams(transmit_power=1.0, wavelength=4 * math.pi)
        region = Region(0.0, 1.0, 0.0, 1.0)
        assert compute_noise_scale(signal, region) == pytest.approx(1 / 6)

    def test_linear_in_transmit_power(self):
        region = Region(0.0, 50.0, 0.0, 30.0)
        one = compute_noise_scale(SignalParams(1.0, 0.125), region)
        five = compute_noise_scale(SignalParams(5.0, 0.125), region)
        assert five == pytest.approx(5 * one)

    def test_shrinks_as_region_grows(self):
        signal = SignalParams(1.0, 0.125)
        small = compute_noise_scale(signal, Region(0.0, 10.0, 0.0, 10.0))
        large = compute_noise_scale(signal, Region(0.0, 100.0, 0.0, 100.0))
        assert large < small


class TestNoiseMode:
    def test_explicit_requires_sigma(self):
        with pytest.raises(ValueError):
            NoiseMode("explicit")
        with pytest.raises(ValueError):
            NoiseMode("explicit", -1.0)

    def test_derived_modes_reject_sigma(self):
        with pytest.raises(ValueError):
            NoiseMode("negligible", 0.5)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            NoiseMode("loud")

    def test_sigma_resolution(self):
        cfg = tiny_config()
        scale = compute_noise_scale(cfg.resolved_signal(), cfg.region)
        assert cfg.noise_sigma() == pytest.approx(scale)
        neg = tiny_config(noise_mode=NoiseMode("negligible"))
        assert neg.noise_sigma() == pytest.approx(NEGLIGIBLE_FACTOR * scale)
        expl = tiny_config(noise_mode=NoiseMode("explicit", 0.25))
        assert expl.noise_sigma() == 0.25
        assert expl.resolved_signal().noise_sigma == 0.25
        assert NoiseMode("negligible").sigma_for(cfg.resolved_signal(), cfg.region) == (
            neg.noise_sigma()
        )


class TestConfigValidation:
    def test_n0_bounds(self):
        with pytest.raises(ValueError):
            tiny_config(n0=1)
        with pytest.raises(ValueError):
            tiny_config(n0=11)

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            tiny_config(trials=0)

    def test_filter_mode_checked(self):
        with pytest.raises(ValueError):
            tiny_config(filter_mode="strict")

    def test_signal_sigma_must_stay_zero(self):
        with pytest.raises(ValueError):
            tiny_config(signal=SignalParams(1.0, 0.125, noise_sigma=0.1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda v: Region(0.0, v, 0.0, 1.0), "x_max"),
            (lambda v: Region(v, 1.0, 0.0, 1.0), "x_min"),
            (lambda v: SignalParams(v, 0.125), "transmit_power"),
            (lambda v: SignalParams(1.0, v), "wavelength"),
            (lambda v: SignalParams(1.0, 0.125, noise_sigma=v), "noise_sigma"),
            (lambda v: SignalParams(1.0, 0.125, path_loss_exponent=v), "path_loss_exponent"),
            (lambda v: FakingSearchConfig(v, 1.0), "exclusion_radius"),
            (lambda v: FakingSearchConfig(1.0, v), "grid_step"),
            (lambda v: NoiseMode("explicit", v), "sigma"),
        ],
    )
    def test_non_finite_numbers_named(self, build, field, bad):
        with pytest.raises(ValueError, match=f"^{field}: must be finite, got {bad}$"):
            build(bad)

    def test_n1_property(self):
        assert tiny_config().n1 == 3


class TestConfigSerialization:
    def test_round_trip(self):
        cfg = tiny_config(filter_mode="quantile", theta_source="somewhere.json")
        blob = json.dumps(to_json(cfg))
        assert from_json(ExperimentConfig, json.loads(blob)) == cfg

    def test_presets_round_trip(self):
        for name, cfg in PRESETS.items():
            assert from_json(ExperimentConfig, to_json(cfg)) == cfg, name

    @pytest.mark.parametrize(
        "key,field,default",
        [
            ("calibration", "calibration.positions", 25),
            ("calibration", "calibration.sets", 20),
            ("filter_mode", "filter_mode", "standard"),
            ("theta_source", "theta_source", "recalibrate"),
            ("seed", "seed", 0),
            ("trials", "trials", 1),
        ],
    )
    def test_absent_keys_take_defaults(self, key, field, default):
        d = to_json(tiny_config(filter_mode="quantile", theta_source="t.json"))
        del d[key]
        assert operator.attrgetter(field)(from_json(ExperimentConfig, d)) == default

    def test_unknown_key_rejected(self):
        d = to_json(tiny_config())
        d["trails"] = 5
        with pytest.raises(ValueError, match="trails"):
            from_json(ExperimentConfig, d)

    @pytest.mark.parametrize("key", ["calibration_positions", "calibration_sets"])
    def test_top_level_calibration_count_rejected(self, key):
        # the counts have one spelling, under calibration: a top-level count
        # is rejected beside the nested ones and without them
        d = to_json(tiny_config())
        d[key] = 3
        with pytest.raises(ValueError, match=f"unknown ExperimentConfig keys \\['{key}'\\]"):
            from_json(ExperimentConfig, d)
        del d["calibration"]
        with pytest.raises(ValueError, match=key):
            from_json(ExperimentConfig, d)

    def test_load_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        cfg = tiny_config()
        path.write_text(json.dumps(to_json(cfg)))
        assert load_config(path) == cfg

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(OSError, match="cannot read config"):
            load_config(tmp_path / "nope.json")

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_config(path)

    def test_load_config_missing_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        d = to_json(tiny_config())
        del d["region"]
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match="bad config"):
            load_config(path)

    def test_load_config_calibration_not_an_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**to_json(tiny_config()), "calibration": 5}))
        with pytest.raises(ValueError, match="bad config"):
            load_config(path)


def _keys(d, keys=()):
    """The key path of every value of ``d``, each object's before its own."""
    for k, v in d.items():
        yield (*keys, k)
        if isinstance(v, dict):
            yield from _keys(v, (*keys, k))


# a fuzz value that deletes the key instead of setting it
REMOVED = object()


def value_id(value):
    return "removed" if value is REMOVED else json.dumps(value)


def assert_loads_or_names_its_key(load, what, d, keys, value, path, across=None, run=None):
    """``load`` of the file ``d`` with the value at ``keys`` set to ``value``,
    or removed, either loads or fails with one line that names the key by
    its dotted path ("faking.grid_step: expected a number", "faking.grid_step:
    must be positive", "region: missing"), or a key under it; a check across
    fields starts as ``across``. When it fails, ``posverify run --config
    run`` exits 1 with that line as its one error line."""
    d = json.loads(json.dumps(d))
    *holder, leaf = keys
    node = d
    for k in holder:
        node = node[k]
    if value is REMOVED:
        del node[leaf]
    else:
        node[leaf] = value
    path.write_text(json.dumps(d))
    try:
        load(path)
    except ValueError as exc:
        prefix = f"bad {what} {path}: "
        why = str(exc).removeprefix(prefix)
        assert str(exc).startswith(prefix) and "\n" not in why
        dotted = ".".join(keys)
        assert why.startswith(tuple(filter(None, (f"{dotted}: ", f"{dotted}.", across)))), why
        if run is not None:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(["run", "--config", str(run)]) == 1
            assert err.getvalue() == f"error: {exc}\n"


NEG_CONFIG = to_json(PRESETS["neg-noise-52"])
LEAF_VALUES = [None, True, "x", [1], {}, -1, 0, 1.5]
NEED_N0 = "need 2 <= n0 <= n"
# the golden files: a 2 x 2-cell theta table, and a 2-trial report
GOLDEN_TABLE = json.loads((GOLDEN / "theta_table.json").read_text())
GOLDEN_REPORT = json.loads((GOLDEN / "report.json").read_text())


class TestConfigDecoding:
    # every key, of a value or of an object, set to each value or removed
    @pytest.mark.parametrize("value", [*LEAF_VALUES, REMOVED], ids=value_id)
    @pytest.mark.parametrize("keys", list(_keys(NEG_CONFIG)), ids=".".join)
    def test_every_leaf_loads_or_names_its_key(self, tmp_path, keys, value):
        across = {"region": "region: degenerate region", "n": NEED_N0, "n0": NEED_N0}
        assert_loads_or_names_its_key(
            load_config, "config", NEG_CONFIG, keys, value, tmp_path / "cfg.json",
            across.get(keys[0]), run=tmp_path / "cfg.json",
        )


class TestTableDecoding:
    @pytest.mark.parametrize(
        "value", [*LEAF_VALUES, math.nan, math.inf, REMOVED], ids=value_id
    )
    @pytest.mark.parametrize("keys", list(_keys(GOLDEN_TABLE)), ids=".".join)
    def test_every_leaf_loads_or_names_its_key(self, tmp_path, keys, value):
        # named by the file's keys (calibration_meta.region.x_max); NaN,
        # infinite and negative deciles and samples fail to load, and so
        # does a table without one of the nine deciles. The run reads the
        # table through a config whose theta_source names it
        across = {
            "samples": "1 samples for 6 calibration cells",
            "quantiles": "quantiles: must be the deciles",
            "calibration_meta.region": "calibration_meta.region: degenerate region",
        }
        table, config = tmp_path / "t.json", tmp_path / "cfg.json"
        write_json(config, replace(PRESETS["neg-noise-52"], theta_source=str(table)))
        assert_loads_or_names_its_key(
            load_theta_table, "theta table", GOLDEN_TABLE, keys, value, table,
            across.get(".".join(keys[:2]), across.get(keys[0])), run=config,
        )


class TestReportDecoding:
    @pytest.mark.parametrize("value", [*LEAF_VALUES, REMOVED], ids=value_id)
    @pytest.mark.parametrize("keys", list(_keys(GOLDEN_REPORT)), ids=".".join)
    def test_every_leaf_loads_or_names_its_key(self, tmp_path, keys, value):
        # named by the file's keys: config.region.x_max and theta.theta_star
        across = {
            "config.region": "config.region: degenerate region",
            "config.noise_mode": "config.noise_mode: explicit noise needs a positive sigma",
            "config.n": f"config: {NEED_N0}",
            "config.n0": f"config: {NEED_N0}",
        }
        assert_loads_or_names_its_key(
            load_report, "report", GOLDEN_REPORT, keys, value, tmp_path / "r.json",
            across.get(".".join(keys[:2])),
        )

    @pytest.mark.parametrize(
        "keys,value,why",
        [
            (("per_trial", 1, "trial"), "x", "per_trial.1.trial: expected an integer, got 'x'"),
            (
                ("per_trial", 0, "result", "rounds", 2, "threshold"),
                None,
                "per_trial.0.result.rounds.2.threshold: expected a number, got None",
            ),
            (
                ("per_trial", 1, "result", "final_genuine_set", 2),
                1.5,
                "per_trial.1.result.final_genuine_set.2: expected an integer, got 1.5",
            ),
            (("aggregate", "step_table", 1), [], "aggregate.step_table.1: expected a JSON object"),
        ],
    )
    def test_array_element_named_by_index(self, tmp_path, keys, value, why):
        d = json.loads(json.dumps(GOLDEN_REPORT))
        *holder, last = keys
        node = d
        for k in holder:
            node = node[k]
        node[last] = value
        path = tmp_path / "r.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=f"^bad report {re.escape(str(path))}: {re.escape(why)}"):
            load_report(path)


class TestDeploy:
    def test_layout_and_claims(self):
        cfg = tiny_config()
        nodes = deploy(cfg, seed=17)
        assert [node.id for node in nodes] == list(range(cfg.n))
        assert [node.kind for node in nodes[: cfg.n0]] == [NodeKind.GENUINE] * cfg.n0
        assert [node.kind for node in nodes[cfg.n0 :]] == [NodeKind.MALICIOUS] * cfg.n1
        for node in nodes:
            assert cfg.region.contains(node.true_position)
            assert cfg.region.contains(node.claimed_position)
        for node in nodes[: cfg.n0]:
            assert node.claimed_position == node.true_position
        for node in nodes[cfg.n0 :]:
            lie = math.dist(node.claimed_position, node.true_position)
            assert lie >= cfg.faking.exclusion_radius * (1 - 1e-9)

    def test_same_seed_same_deployment(self):
        cfg = tiny_config()
        assert deploy(cfg, seed=5) == deploy(cfg, seed=5)

    def test_seed_changes_positions(self):
        cfg = tiny_config()
        a = deploy(cfg, seed=5)
        b = deploy(cfg, seed=6)
        assert any(x.true_position != y.true_position for x, y in zip(a, b))


class TestThetaSource:
    def test_file_source(self, tmp_path):
        cfg = tiny_config()
        table = estimate_theta_table(cfg.n, calibration_meta(cfg, 3, 2, seed=1))
        path = tmp_path / "table.json"
        write_json(path, table)
        resolved = resolve_theta_table(replace(cfg, theta_source=str(path)))
        assert resolved == table

    def test_file_source_wrong_n(self, tmp_path):
        cfg = tiny_config()
        table = estimate_theta_table(cfg.n, calibration_meta(cfg, 3, 2, seed=1))
        path = tmp_path / "table.json"
        write_json(path, table)
        bigger = replace(cfg, n=12, theta_source=str(path))
        with pytest.raises(ValueError, match="n=10"):
            resolve_theta_table(bigger)

    def test_file_source_from_another_channel(self, tmp_path):
        # a negligible-noise table would let a significant-noise run trust
        # an adversary that can barely lie
        neg = tiny_config(noise_mode=NoiseMode("negligible"))
        table = estimate_theta_table(neg.n, calibration_meta(neg, 3, 2, seed=1))
        path = tmp_path / "table.json"
        write_json(path, table)
        sig = tiny_config(theta_source=str(path))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*signal.noise_sigma"):
            resolve_theta_table(sig)

    def test_file_source_from_another_region(self, tmp_path):
        cfg = tiny_config()
        table = estimate_theta_table(cfg.n, calibration_meta(cfg, 3, 2, seed=1))
        path = tmp_path / "table.json"
        write_json(path, table)
        # same diagonal, hence the same sigma: only the region differs
        moved = replace(cfg, region=Region(1.0, 21.0, 0.0, 20.0), theta_source=str(path))
        with pytest.raises(ValueError, match="region.x_min"):
            resolve_theta_table(moved)

    def test_file_source_other_search_and_samples_accepted(self, tmp_path):
        cfg = tiny_config()
        finer = replace(cfg.faking, grid_step=3.0)
        table = estimate_theta_table(cfg.n, calibration_meta(cfg, 2, 2, seed=9, faking=finer))
        path = tmp_path / "table.json"
        write_json(path, table)
        assert resolve_theta_table(replace(cfg, theta_source=str(path))) == table

    def test_missing_file_source_named(self, tmp_path):
        path = tmp_path / "nope.json"
        with pytest.raises(OSError, match=f"cannot read theta table {re.escape(str(path))}"):
            resolve_theta_table(tiny_config(theta_source=str(path)))

    def test_truncated_file_source_named(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text('{"n": 10, "theta_star": ')
        with pytest.raises(ValueError, match=f"bad theta table {re.escape(str(path))}"):
            resolve_theta_table(tiny_config(theta_source=str(path)))

    @pytest.mark.parametrize(
        "edit,why",
        [
            (dict(quantiles={}), "quantiles: must be the deciles"),
            # one sample where a 2 x 2 calibration has four cells
            (dict(samples=[1.0], theta_star=999), "1 samples for 4 calibration cells"),
            # would otherwise load, and fail only in the first trial's filter
            (dict(theta_star=-1), "theta_star: must be nonnegative, got -1"),
            # would otherwise load, and filter with a 2.5-vote allowance
            (dict(theta_star=2.5), "theta_star: expected an integer, got 2.5"),
            (dict(theta_star=True), "theta_star: expected an integer, got True"),
            (dict(n=10.0), "n: expected an integer, got 10.0"),
            # would otherwise load
            (dict(n=-3), "n: must be at least 2, got -3"),
            (dict(n=1), "n: must be at least 2, got 1"),
            # would otherwise load, and the quantile filter's step at the NaN
            # decile would remove nobody
            (
                dict(quantiles=DECILES | {"0.5": math.nan}),
                "quantiles.0.5: must be finite and nonnegative, got nan",
            ),
            (
                dict(quantiles=DECILES | {"0.9": math.inf}),
                "quantiles.0.9: must be finite and nonnegative, got inf",
            ),
            (
                dict(quantiles=DECILES | {"0.1": -0.5}),
                "quantiles.0.1: must be finite and nonnegative, got -0.5",
            ),
            (
                dict(samples=[1.0, math.nan, 1.0, 1.0]),
                "samples.1: must be finite and nonnegative, got nan",
            ),
            (
                dict(samples=[1.0, 1.0, 1.0, -math.inf]),
                "samples.3: must be finite and nonnegative, got -inf",
            ),
        ],
    )
    def test_malformed_file_source_named(self, tmp_path, edit, why):
        cfg = tiny_config()
        table = estimate_theta_table(cfg.n, calibration_meta(cfg, 2, 2, seed=1))
        path = tmp_path / "table.json"
        write_json(path, {**to_json(table), **edit})
        with pytest.raises(ValueError, match=f"bad theta table {re.escape(str(path))}: {why}"):
            resolve_theta_table(replace(cfg, theta_source=str(path)))


# voters 0,1 accuse {3,4}; 2 accuses {3}; 3 accuses {0,1,2}; 4 accuses {3}.
# theta 1: pass 1 drops 3 (1 approval), pass 2 drops 4 (2), pass 3 clean.
def cascade_result():
    grid = np.zeros((5, 5), dtype=bool)
    grid[0, [3, 4]] = True
    grid[1, [3, 4]] = True
    grid[2, 3] = True
    grid[3, [0, 1, 2]] = True
    grid[4, 3] = True
    return filter_fixpoint(AccusationMatrix((0, 1, 2, 3, 4), grid), 1.0)


class TestStepRows:
    def test_cascade_table(self):
        rows = step_rows(cascade_result(), n0=3)
        assert [r.step for r in rows] == [0, 0, 0]
        assert [(r.genuine_active, r.malicious_active) for r in rows] == [
            (3, 2),
            (3, 1),
            (3, 0),
        ]
        assert [r.threshold for r in rows] == [3.0, 2.5, 2.0]
        assert [(r.genuine_deleted, r.malicious_deleted) for r in rows] == [
            (0, 1),
            (0, 1),
            (0, 0),
        ]
        assert [r.deleted_approvals for r in rows] == ["1", "2", "---"]

    def test_csv_cells_format(self):
        rows = step_rows(cascade_result(), n0=3)
        assert rows[0].csv_cells() == ["0", "3", "2", "3.00", "0", "1", "1"]
        assert rows[2].csv_cells()[-1] == "---"


class TestRunExperiment:
    def test_report_shape_and_round_trip(self, tmp_path):
        cfg = tiny_config()
        report = run_experiment(cfg)
        assert len(report.per_trial) == cfg.trials
        assert report.theta.schedule == (float(report.theta.theta_star),)
        assert 0.0 <= report.aggregate.success_rate <= 1.0
        for rec in report.per_trial:
            kept = sum(1 for i in rec.result.final_genuine_set if i < cfg.n0)
            assert rec.genuine_retained == kept
        path = tmp_path / "report.json"
        emit_report(report, "json", path)
        assert load_report(path) == report

    def test_truncated_report_named(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"config": ')
        with pytest.raises(ValueError, match=f"bad report {re.escape(str(path))}"):
            load_report(path)

    def test_quantile_mode_uses_schedule(self):
        cfg = tiny_config(filter_mode="quantile", trials=1)
        report = run_experiment(cfg)
        assert len(report.theta.schedule) == 11
        assert report.theta.schedule[0] == 0.0
        assert report.theta.schedule[-1] == float(report.theta.theta_star)

    def test_csv_is_the_step_table(self, tmp_path):
        report = run_experiment(tiny_config(trials=1))
        path = tmp_path / "steps.csv"
        emit_report(report, "csv", path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(report.aggregate.step_table)
        for line in lines[1:]:
            assert len(line.split(",")) == len(CSV_COLUMNS)
        # a fixpoint ends with a pass that deletes nobody
        assert lines[-1].split(",")[-1] == "---"

    def test_unknown_format_rejected(self, tmp_path):
        report = run_experiment(tiny_config(trials=1))
        with pytest.raises(ValueError):
            emit_report(report, "yaml", tmp_path / "r.yaml")

    def test_deterministic_and_worker_invariant(self, tmp_path, monkeypatch):
        # three trials split unevenly over two workers, so order is tested
        cfg = tiny_config(trials=3)
        monkeypatch.setenv("POSVERIFY_THETA_CACHE", str(tmp_path / "a"))
        first = json.dumps(to_json(run_experiment(cfg, workers=1)), sort_keys=True)
        again = json.dumps(to_json(run_experiment(cfg, workers=1)), sort_keys=True)
        # fresh cache dir so the parallel run actually recalibrates
        monkeypatch.setenv("POSVERIFY_THETA_CACHE", str(tmp_path / "b"))
        parallel = json.dumps(to_json(run_experiment(cfg, workers=2)), sort_keys=True)
        assert first == again == parallel

    def test_trial_streams_differ(self):
        report = run_experiment(tiny_config(trials=3))
        seeds = {rec.seed for rec in report.per_trial}
        assert len(seeds) == 3


class FakePool:
    """Stands in for ProcessPoolExecutor: records what was asked, runs inline."""

    def __init__(self, opened, max_workers):
        self.opened = opened
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        self.opened.append((self.max_workers, chunksize))
        return map(fn, jobs)


@pytest.fixture
def opened_pools(monkeypatch):
    opened = []
    monkeypatch.setattr(
        pool.futures, "ProcessPoolExecutor", lambda max_workers: FakePool(opened, max_workers)
    )
    return opened


class TestWorkers:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_non_positive_workers_rejected(self, workers):
        with pytest.raises(ValueError, match=f"workers must be positive, got {workers}"):
            pool.pool_map(abs, [1, 2], workers)

    def test_single_trial_opens_no_pool(self, opened_pools):
        cfg = tiny_config(trials=1)
        resolve_theta_table(cfg)  # cache the table so only trials remain
        run_experiment(cfg, workers=2)
        assert opened_pools == []

    def test_pool_never_exceeds_the_trials(self, opened_pools):
        cfg = tiny_config(trials=3)
        resolve_theta_table(cfg)
        run_experiment(cfg, workers=8)
        assert opened_pools == [(3, 1)]

    def test_calibration_cells_share_the_pool(self, opened_pools, monkeypatch):
        # one job per chunk of CHUNK_CELLS contiguous cells, the last one short
        layouts = []

        def recording_pool_map(fn, jobs, workers):
            layouts.append([job[2] for job in jobs])
            return pool.pool_map(fn, jobs, workers)

        monkeypatch.setattr(calibration, "pool_map", recording_pool_map)
        cfg = tiny_config()
        k = calibration.CHUNK_CELLS
        meta = calibration_meta(cfg, 1, k + 2, seed=0)
        table = estimate_theta_table(cfg.n, meta, workers=2)
        assert opened_pools == [(2, 1)]
        assert layouts == [[range(0, k), range(k, k + 2)]]
        assert table == estimate_theta_table(cfg.n, meta)
