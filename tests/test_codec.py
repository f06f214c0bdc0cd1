import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import posverify.codec as codec
from posverify.adversary import FakingSearchConfig, Region
from posverify.calibration import CalibrationMeta, ThetaTable
from posverify.channel import Signal, SignalParams
from posverify.codec import FieldError, from_json, read_json, to_json, write_csv, write_json
from posverify.experiment import FILTER_MODES, CalibrationCounts, ExperimentConfig, NoiseMode
from posverify.protocol import FilterResult, FilterRound

finite = st.floats(allow_nan=False, allow_infinity=False)
# a table's quantiles and samples are expected counts of deceived receivers
nonnegative = st.floats(min_value=0.0, allow_infinity=False)
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


# a table's calibration signal, which is noisy
signals = st.builds(
    SignalParams,
    transmit_power=positive,
    wavelength=positive,
    noise_sigma=st.floats(0.0, 1e3, exclude_min=True),
    path_loss_exponent=st.floats(2.0, 4.0),
)
fakings = st.builds(FakingSearchConfig, positive, positive, st.integers(0, 50))


@st.composite
def tables(draw):
    """A well-formed table: the nine deciles and one sample per cell."""
    meta = CalibrationMeta(
        draw(signals),
        draw(regions()),
        draw(fakings),
        draw(st.integers(1, 4)),
        draw(st.integers(1, 3)),
        draw(st.integers(0, 2**64 - 1)),
    )
    cells = meta.num_x0 * meta.num_x_per_x0
    return ThetaTable(
        n=draw(st.integers(2, 500)),
        theta_star=draw(counts),
        quantiles={t / 10: draw(nonnegative) for t in range(1, 10)},
        samples=tuple(draw(st.lists(nonnegative, min_size=cells, max_size=cells))),
        calibration_meta=meta,
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
        signal=Signal(
            draw(positive), draw(positive), path_loss_exponent=draw(st.floats(2.0, 4.0))
        ),
        noise_mode=draw(noise_modes),
        faking=draw(fakings),
        filter_mode=draw(st.sampled_from(FILTER_MODES)),
        theta_source=draw(st.text(max_size=20)),
        seed=draw(st.integers(0, 2**64 - 1)),
        trials=draw(st.integers(1, 1000)),
        calibration=CalibrationCounts(draw(st.integers(1, 100)), draw(st.integers(1, 100))),
    )


META = CalibrationMeta(
    SignalParams(1.0, 0.125, 1e-9),
    Region(0.0, 1.0, 0.0, 1.0),
    FakingSearchConfig(0.2, 0.1),
    num_x0=1,
    num_x_per_x0=1,
    seed=0,
)


def through_json(tp, obj):
    return from_json(tp, json.loads(json.dumps(to_json(obj))))


@given(filter_results)
def test_filter_result_round_trip(res):
    assert through_json(FilterResult, res) == res


@given(tables())
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
            {"signal": SignalParams(1.0, 0.5, 1e-9), "region": region,
             "faking": {"exclusion_radius": 0.2, "grid_step": 0.1},
             "num_x0": 1, "num_x_per_x0": 1, "seed": 0},
        )
        assert got.region is region
        assert got.faking == FakingSearchConfig(0.2, 0.1)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="Region keys \\['z_max'\\]"):
            from_json(Region, {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1, "z_max": 2})

    def test_non_object_rejected(self):
        # named as JSON, not as a Python type
        with pytest.raises(TypeError, match="^expected a JSON object, got list$"):
            from_json(Region, [0, 1, 0, 1])
        with pytest.raises(TypeError, match="^expected a JSON object, got list$"):
            from_json(dict[float, float], [1.0])

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    def test_int_field_takes_only_integers(self, value):
        d = {"exclusion_radius": 1.0, "grid_step": 1.0, "refine_iters": value}
        with pytest.raises(TypeError, match=f"refine_iters: expected an integer, got {value!r}"):
            from_json(FakingSearchConfig, d)

    def test_float_field_takes_an_integer(self):
        got = from_json(Region, {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 2})
        assert got == Region(0.0, 1.0, 0.0, 2.0)

    @pytest.mark.parametrize("value", [True, False, "1", None, [1.0]])
    def test_float_field_takes_only_numbers(self, value):
        # a bool is an int to Python: True would make a 1 m wide region
        d = {"x_min": 0, "x_max": value, "y_min": 0, "y_max": 1}
        with pytest.raises(TypeError, match=re.escape(f"x_max: expected a number, got {value!r}")):
            from_json(Region, d)

    @pytest.mark.parametrize("value", [[1], 0, True, None, {"mode": "explicit"}])
    def test_str_field_takes_only_strings(self, value):
        with pytest.raises(TypeError, match=re.escape(f"mode: expected a string, got {value!r}")):
            from_json(NoiseMode, {"mode": value})

    @pytest.mark.parametrize("value", ["123", 5, 2.5, True, None, {"1": 2.0}])
    def test_tuple_field_takes_only_an_array(self, value):
        # a string or a dict would be iterated, a number would not be
        table = ThetaTable(2, 0, {t / 10: 0.0 for t in range(1, 10)}, (1.0,), META)
        d = {**to_json(table), "samples": value}
        want = f"samples: expected a JSON array, got {type(value).__name__}"
        with pytest.raises(TypeError, match=f"^{want}$"):
            from_json(ThetaTable, d)

    @pytest.mark.parametrize("value", ["12", 3, {"1": 2}])
    def test_frozenset_field_takes_only_an_array(self, value):
        d = {"rounds": [], "final_genuine_set": value, "final_filtered_set": []}
        want = f"final_genuine_set: expected a JSON array, got {type(value).__name__}"
        with pytest.raises(TypeError, match=f"^{want}$"):
            from_json(FilterResult, d)

    def test_bool_rejected_in_every_float_field(self):
        with pytest.raises(TypeError, match="^exclusion_radius: expected a number, got True$"):
            from_json(FakingSearchConfig, {"exclusion_radius": True, "grid_step": 1.0})
        with pytest.raises(TypeError, match="^sigma: expected a number, got False$"):
            from_json(NoiseMode, {"mode": "explicit", "sigma": False})
        with pytest.raises(TypeError, match=r"^0\.5: expected a number, got True$"):
            from_json(dict[float, float], {"0.5": True})

    def test_nested_error_names_every_key(self):
        d = {"signal": {"transmit_power": 1.0, "wavelength": 0.5},
             "region": {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1},
             "faking": {"exclusion_radius": 0.2, "grid_step": 0.1, "refine_iters": 1.5},
             "num_x0": 1, "num_x_per_x0": 1, "seed": 0}
        with pytest.raises(TypeError, match="^faking.refine_iters: expected an integer"):
            from_json(CalibrationMeta, d)
        with pytest.raises(TypeError, match="^0.5: expected an integer, got 2.5"):
            from_json(dict[float, int], {"0.5": 2.5})

    def test_missing_key_named_before_building(self):
        with pytest.raises(ValueError, match="^x_max: missing$"):
            from_json(Region, {"x_min": 0, "y_min": 0, "y_max": 1})
        d = {"signal": {"wavelength": 0.5}, "region": {}, "faking": {},
             "num_x0": 1, "num_x_per_x0": 1, "seed": 0}
        with pytest.raises(ValueError, match="^signal.transmit_power: missing$"):
            from_json(CalibrationMeta, d)

    def test_array_elements_named_by_index(self):
        rounds = [{"step": 0, "active_before": 3, "threshold": 1.5,
                   "removed_ids": [2, "x"], "removed_approvals": [1, 1]}]
        d = {"rounds": rounds, "final_genuine_set": [1], "final_filtered_set": [2]}
        with pytest.raises(TypeError, match="^rounds.0.removed_ids.1: expected an integer"):
            from_json(FilterResult, d)
        d = {**d, "rounds": [], "final_genuine_set": [1, 2.5]}
        with pytest.raises(TypeError, match="^final_genuine_set.1: expected an integer"):
            from_json(FilterResult, d)

    def test_field_checks_named_by_dotted_path(self):
        d = {"signal": {"transmit_power": 1.0, "wavelength": 0.5},
             "region": {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1},
             "faking": {"exclusion_radius": 0.2, "grid_step": 0},
             "num_x0": 1, "num_x_per_x0": 1, "seed": 0}
        with pytest.raises(FieldError, match="^faking.grid_step: must be positive, got 0$") as e:
            from_json(CalibrationMeta, d)
        assert (e.value.key, e.value.reason) == ("faking.grid_step", "must be positive, got 0")

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

    def test_writes_to_one_path_never_share_a_temp_file(self, tmp_path, monkeypatch):
        # a second write to the path runs whole between the first's write and
        # its rename, as another process's write can
        path = tmp_path / "out.json"
        rename = codec.os.replace

        def interleaved(src, dst):
            monkeypatch.setattr(codec.os, "replace", rename)
            write_json(path, {"inner": 1})
            rename(src, dst)

        monkeypatch.setattr(codec.os, "replace", interleaved)
        write_json(path, {"outer": 2})
        assert json.loads(path.read_text()) == {"outer": 2}
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failed_rename_leaves_no_temp(self, tmp_path):
        # the temp file is written, then cannot replace a directory
        path = tmp_path / "out"
        path.mkdir()
        with pytest.raises(OSError, match="cannot write .*out: .*Is a directory"):
            write_json(path, {"x": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

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
        with pytest.raises(OSError, match="cannot write .*missing/out.json") as failed:
            write_json(path, [1])
        # the target, not the temp file it was written through
        assert str(failed.value) == f"cannot write {path}: No such file or directory"


class TestReader:
    def test_round_trips_through_the_decoder(self, tmp_path):
        path = tmp_path / "mode.json"
        write_json(path, NoiseMode("explicit", 0.5))
        decoded = read_json(path, "noise mode", NoiseMode)
        assert decoded == NoiseMode("explicit", 0.5)

    def test_bytes_that_are_not_text_are_invalid_json(self, tmp_path):
        path = tmp_path / "mode.json"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ValueError, match="bad noise mode .*mode.json: invalid JSON"):
            read_json(path, "noise mode", dict)
