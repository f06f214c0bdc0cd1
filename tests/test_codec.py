import json
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posverify.adversary import FakingSearchConfig, Region
from posverify.calibration import CalibrationMeta, ThetaTable
from posverify.channel import SignalParams
from posverify.codec import from_json, read_json, to_json, write_csv, write_json
from posverify.experiment import FILTER_MODES, ExperimentConfig, NoiseMode
from posverify.protocol import FilterResult, FilterRound

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e6)
counts = st.integers(0, 1000)
id_tuples = st.lists(counts, max_size=6).map(tuple)

filter_results = st.builds(
    FilterResult,
    rounds=st.lists(
        st.builds(FilterRound, counts, counts, finite, id_tuples, id_tuples), max_size=4
    ).map(tuple),
    final_genuine_set=st.frozensets(counts),
    final_filtered_set=st.frozensets(counts),
)


@st.composite
def regions(draw):
    x, y = draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))
    return Region(x, x + draw(st.floats(1e-3, 1e3)), y, y + draw(st.floats(1e-3, 1e3)))


signals = st.builds(
    SignalParams,
    transmit_power=positive,
    wavelength=positive,
    noise_sigma=st.floats(0.0, 1e3),
    path_loss_exponent=st.floats(2.0, 4.0),
)
fakings = st.builds(FakingSearchConfig, positive, positive, st.integers(0, 50))

tables = st.builds(
    ThetaTable,
    n=st.integers(2, 500),
    theta_star=counts,
    quantiles=st.dictionaries(finite, finite, max_size=9),
    samples=st.lists(finite, max_size=12).map(tuple),
    meta=st.builds(
        CalibrationMeta,
        signals,
        regions(),
        fakings,
        st.integers(1, 100),
        st.integers(1, 100),
        st.integers(0, 2**64 - 1),
    ),
)

noise_modes = st.one_of(
    st.sampled_from(["negligible", "significant"]).map(NoiseMode),
    positive.map(lambda s: NoiseMode("explicit", s)),
)


@st.composite
def configs(draw):
    n = draw(st.integers(2, 500))
    return ExperimentConfig(
        n=n,
        n0=draw(st.integers(2, n)),
        region=draw(regions()),
        signal=replace(draw(signals), noise_sigma=0.0),
        noise_mode=draw(noise_modes),
        faking=draw(fakings),
        filter_mode=draw(st.sampled_from(FILTER_MODES)),
        theta_source=draw(st.text(max_size=20)),
        seed=draw(st.integers(0, 2**64 - 1)),
        trials=draw(st.integers(1, 1000)),
        calibration_positions=draw(st.integers(1, 100)),
        calibration_sets=draw(st.integers(1, 100)),
    )


def through_json(tp, obj):
    return from_json(tp, json.loads(json.dumps(to_json(obj))))


@given(filter_results)
def test_filter_result_round_trip(res):
    assert through_json(FilterResult, res) == res


@given(tables)
def test_theta_table_round_trip(table):
    assert through_json(ThetaTable, table) == table


@given(configs())
def test_config_round_trip(cfg):
    assert through_json(ExperimentConfig, cfg) == cfg


class TestEncoding:
    def test_none_fields_left_out(self):
        assert to_json(NoiseMode("significant")) == {"mode": "significant"}
        assert to_json(NoiseMode("explicit", 0.5)) == {"mode": "explicit", "sigma": 0.5}

    def test_collections(self):
        res = FilterResult((FilterRound(0, 3, 1.5, (2,), (1,)),), frozenset({8, 1}), frozenset())
        assert to_json(res) == {
            "rounds": [
                {"step": 0, "active_before": 3, "threshold": 1.5,
                 "removed_ids": [2], "removed_approvals": [1]}
            ],
            "final_genuine_set": [1, 8],
            "final_filtered_set": [],
        }


class TestDecoding:
    def test_absent_key_takes_default(self):
        got = from_json(SignalParams, {"transmit_power": 1.0, "wavelength": 0.5})
        assert got == SignalParams(1.0, 0.5)
        assert from_json(NoiseMode, {"mode": "negligible"}).sigma is None

    def test_instances_pass_through(self):
        region = Region(0.0, 1.0, 0.0, 1.0)
        got = from_json(
            CalibrationMeta,
            {"signal": SignalParams(1.0, 0.5), "region": region,
             "faking": {"exclusion_radius": 0.2, "grid_step": 0.1},
             "num_x0": 1, "num_x_per_x0": 1, "seed": 0},
        )
        assert got.region is region
        assert got.faking == FakingSearchConfig(0.2, 0.1)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="Region keys \\['z_max'\\]"):
            from_json(Region, {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1, "z_max": 2})

    def test_non_object_rejected(self):
        with pytest.raises(TypeError, match="JSON object"):
            from_json(Region, [0, 1, 0, 1])
        with pytest.raises(TypeError, match="JSON object"):
            from_json(dict[float, float], [1.0])

    def test_dataclass_checks_still_run(self):
        with pytest.raises(ValueError, match="degenerate"):
            from_json(Region, {"x_min": 1, "x_max": 1, "y_min": 0, "y_max": 1})


class TestWriters:
    def test_json_replaces_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        write_json(path, NoiseMode("explicit", 0.5))
        assert path.read_text() == '{\n  "mode": "explicit",\n  "sigma": 0.5\n}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_unencodable_value_keeps_old_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        with pytest.raises(TypeError):
            write_json(path, {"x": object()})
        assert path.read_text() == "old"

    def test_csv_keeps_crlf_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [[1, 2.5], ["x", "---"]])
        assert path.read_bytes() == b"a,b\r\n1,2.5\r\nx,---\r\n"

    def test_error_names_the_path(self, tmp_path):
        path = tmp_path / "missing" / "out.json"
        with pytest.raises(OSError, match="cannot write .*missing/out.json"):
            write_json(path, [1])


class TestReader:
    def test_round_trips_through_the_decoder(self, tmp_path):
        path = tmp_path / "mode.json"
        write_json(path, NoiseMode("explicit", 0.5))
        decoded = read_json(path, "noise mode", lambda d: from_json(NoiseMode, d))
        assert decoded == NoiseMode("explicit", 0.5)

    def test_bytes_that_are_not_text_are_invalid_json(self, tmp_path):
        path = tmp_path / "mode.json"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ValueError, match="bad noise mode .*mode.json: invalid JSON"):
            read_json(path, "noise mode", dict)
