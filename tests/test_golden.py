"""Byte-for-byte pins of every file layout the package writes.

The objects are built by hand, with no calibration or channel noise, so
the pinned bytes cannot drift with floating point across numpy builds.
The files under tests/golden/ were written by the hand-written
serializers that the dataclass codec replaced; regenerate them only for
a deliberate layout change.
"""

import json
from pathlib import Path

from posverify.adversary import FakingSearchConfig, Region
from posverify.calibration import (
    CalibrationMeta,
    ThetaTable,
    load_theta_table,
    save_theta_table,
)
from posverify.channel import SignalParams
from posverify.experiment import (
    PRESETS,
    ExperimentConfig,
    ExperimentReport,
    NoiseMode,
    TrialRecord,
    config_to_dict,
    emit_report,
    load_config,
    load_report,
    step_rows,
)
from posverify.protocol import FilterResult, FilterRound

GOLDEN = Path(__file__).parent / "golden"
TABLE_NAME = "theta_n6_8ef16eab106e.json"


def golden_config() -> ExperimentConfig:
    return ExperimentConfig(
        n=6,
        n0=4,
        region=Region(0.0, 40.0, 0.0, 30.0),
        signal=SignalParams(transmit_power=2.0, wavelength=0.125, path_loss_exponent=2.5),
        noise_mode=NoiseMode("explicit", 0.0125),
        faking=FakingSearchConfig(exclusion_radius=10.0, grid_step=5.0 / 3.0, refine_iters=12),
        filter_mode="quantile",
        theta_source="tables/theta_n6.json",
        seed=7,
        trials=2,
        calibration_positions=5,
        calibration_sets=4,
    )


def golden_table() -> ThetaTable:
    cfg = golden_config()
    samples = (0.5, 1.25, 2.0, 0.1, 1 / 3, 2.75)
    pooled = sorted(samples)
    return ThetaTable(
        n=6,
        theta_star=2,
        quantiles={t / 10: pooled[(t * 6 + 9) // 10 - 1] for t in range(1, 10)},
        samples=samples,
        meta=CalibrationMeta(cfg.resolved_signal(), cfg.region, cfg.faking, 2, 3, cfg.seed),
    )


def golden_report() -> ExperimentReport:
    kept = FilterResult(
        rounds=(
            FilterRound(0, 6, 3.0, (4, 5), (1, 2)),
            FilterRound(0, 4, 2.0, (), ()),
            FilterRound(10, 4, 3.0, (), ()),
        ),
        final_genuine_set=frozenset({0, 1, 2, 3}),
        final_filtered_set=frozenset({4, 5}),
    )
    lost = FilterResult(
        rounds=(
            FilterRound(0, 6, 3.0, (0,), (2,)),
            FilterRound(0, 5, 2.5, (), ()),
            FilterRound(10, 5, 3.5, (3, 5), (3, 2)),
            FilterRound(10, 3, 2.5, (), ()),
        ),
        final_genuine_set=frozenset({1, 2, 4}),
        final_filtered_set=frozenset({0, 3, 5}),
    )
    cfg = golden_config()
    return ExperimentReport(
        config=cfg,
        theta_star=2,
        schedule=golden_table().schedule(),
        per_trial=(
            TrialRecord(0, 12345678901234567890, kept, 2, 4, True),
            TrialRecord(1, 987654321, lost, 1, 2, False),
        ),
        success_rate=0.5,
        mean_genuine_retained=3.0,
        mean_rounds=3.5,
        step_table=step_rows(kept, cfg.n0),
    )


def config_text(cfg: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n"


def test_report_json_bytes(tmp_path):
    path = tmp_path / "report.json"
    emit_report(golden_report(), "json", path)
    assert path.read_bytes() == (GOLDEN / "report.json").read_bytes()
    assert load_report(GOLDEN / "report.json") == golden_report()


def test_report_csv_bytes(tmp_path):
    path = tmp_path / "report.csv"
    emit_report(golden_report(), "csv", path)
    assert path.read_bytes() == (GOLDEN / "report.csv").read_bytes()


def test_theta_table_bytes_and_cache_name(tmp_path):
    path = save_theta_table(golden_table(), tmp_path)
    assert path.name == TABLE_NAME
    assert path.read_bytes() == (GOLDEN / "theta_table.json").read_bytes()
    assert load_theta_table(GOLDEN / "theta_table.json") == golden_table()


def test_config_bytes():
    assert config_text(golden_config()) == (GOLDEN / "config.json").read_text()
    assert load_config(GOLDEN / "config.json") == golden_config()


def test_preset_config_bytes():
    text = "".join(config_text(PRESETS[name]) for name in sorted(PRESETS))
    assert text == (GOLDEN / "presets.json").read_text()
