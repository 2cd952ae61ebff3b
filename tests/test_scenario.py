import dataclasses
import logging
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from hetlease import (
    BaseStation,
    BsKind,
    ConfigError,
    CsvFormatError,
    bench_config,
    bench_scenario,
    build_scenario,
    default_electricity_multipliers,
    default_parameter_set,
    load_config,
    offloaded_mbs_load,
    reference_config,
    reference_scenario,
    save_config,
    validate_config,
)
from hetlease import scenario as scenario_module
from hetlease.model import SwitchVector
from hetlease.scenario import (
    dt_shift,
    dynamic_spectrum_price,
    ingest_activity_csv,
    normalize_series,
    sn_demand_from_pn,
    synth_traffic,
)


class TestSynthTraffic:
    def test_shape_and_positivity(self):
        raw = synth_traffic(0, 144, 5)
        assert raw.shape == (5, 144)
        assert raw.min() > 0

    def test_deterministic_per_seed(self):
        assert np.array_equal(synth_traffic(3, 48, 4), synth_traffic(3, 48, 4))
        assert not np.array_equal(synth_traffic(3, 48, 4), synth_traffic(4, 48, 4))

    def test_station_series_are_independent_of_count(self):
        # station i's series must not change when more stations are added
        small = synth_traffic(9, 24, 2)
        large = synth_traffic(9, 24, 6)
        assert np.array_equal(small, large[:2])

    def test_diurnal_shape(self):
        raw = synth_traffic(0, 144, 1)[0]
        hours = (np.arange(144) + 0.5) * (24 / 144)
        peak_hour = hours[np.argmax(raw)]
        trough_hour = hours[np.argmin(raw)]
        assert 11 <= peak_hour <= 19
        assert trough_hour <= 9 or trough_hour >= 22

    def test_unknown_profile(self):
        # the synthetic traffic has one shape, so there is no key to pick it
        with pytest.raises(ConfigError, match=r"^unknown config key traffic\.profile$"):
            validate_config({"traffic": {"profile": "diurnal"}})


class TestIngestCsv:
    HEADER = "grid_id,slot_index,internet_activity\n"

    def write(self, tmp_path, body):
        path = tmp_path / "activity.csv"
        path.write_text(self.HEADER + body)
        return path

    def test_constant_single_grid(self, tmp_path):
        body = "".join(f"42,{t},5.0\n" for t in range(6))
        path = self.write(tmp_path, body)
        series = ingest_activity_csv(path, {42: 0}, 1, 6)
        assert np.array_equal(series, np.full((1, 6), 5.0))

    def test_grids_aggregate_by_sum(self, tmp_path):
        body = "1,0,2.0\n2,0,3.5\n1,1,1.0\n2,1,1.0\n"
        path = self.write(tmp_path, body)
        series = ingest_activity_csv(path, {1: 0, 2: 0}, 1, 2)
        assert np.array_equal(series, [[5.5, 2.0]])

    def test_csv_source_builds_the_scenario(self, tmp_path):
        # grids 1 and 2 both feed the macro cell; grid 3 is the micro cell
        body = "".join(f"{g},{t},{g + t}.0\n" for g in (1, 2, 3) for t in range(2))
        path = self.write(tmp_path, body)
        scn = build_scenario({
            "grid": {"horizon_min": 20, "slot_min": 10},
            "stations": [{"kind": "macro"}, {"kind": "micro"}],
            "traffic": {"source": "csv", "csv_path": str(path),
                        "assignment": {1: 0, 2: 0, 3: 1}, "scale": [0.5, 1.0]},
        })
        raw = [[1.0 + 2.0, 2.0 + 3.0], [3.0, 4.0]]
        assert np.array_equal(scn.traffic, normalize_series(raw, [0.5, 1.0]))

    def test_unassigned_grid_is_ignored(self, tmp_path):
        body = "1,0,2.0\n999,0,77.0\n"
        path = self.write(tmp_path, body)
        series = ingest_activity_csv(path, {1: 0}, 1, 1)
        assert series[0, 0] == 2.0

    def test_bad_header(self, tmp_path):
        path = tmp_path / "activity.csv"
        path.write_text("grid,slot,value\n1,0,2.0\n")
        with pytest.raises(CsvFormatError):
            ingest_activity_csv(path, {1: 0}, 1, 1)

    def test_bad_row_reports_line_number(self, tmp_path):
        path = self.write(tmp_path, "1,0,2.0\n1,one,3.0\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            ingest_activity_csv(path, {1: 0}, 1, 2)

    def test_slot_out_of_range(self, tmp_path):
        path = self.write(tmp_path, "1,9,2.0\n")
        with pytest.raises(CsvFormatError, match="slot_index"):
            ingest_activity_csv(path, {1: 0}, 1, 3)

    def test_negative_activity(self, tmp_path):
        path = self.write(tmp_path, "1,0,-2.0\n")
        with pytest.raises(CsvFormatError, match="negative"):
            ingest_activity_csv(path, {1: 0}, 1, 1)

    def test_station_without_grid(self, tmp_path):
        path = self.write(tmp_path, "1,0,2.0\n")
        with pytest.raises(ConfigError):
            ingest_activity_csv(path, {1: 0}, 2, 1)

    def test_assigned_grid_never_appears(self, tmp_path):
        path = self.write(tmp_path, "1,0,2.0\n")
        with pytest.raises(ConfigError, match="never appears"):
            ingest_activity_csv(path, {1: 0, 2: 1}, 2, 1)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_activity_names_its_line(self, tmp_path, value):
        path = self.write(tmp_path, f"1,0,2.0\n1,1,{value}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvFormatError, match="^line 3: activity .* is not finite$"):
                ingest_activity_csv(path, {1: 0}, 1, 2)

    def test_slot_total_that_overflows_names_its_line(self, tmp_path):
        path = self.write(tmp_path, "1,0,1e308\n2,1,1.0\n1,0,1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                CsvFormatError, match="^line 4: station 0's slot 0 overflows$"
            ):
                ingest_activity_csv(path, {1: 0, 2: 0}, 1, 2)

    def test_missing_slots_fill_zero_and_warn(self, tmp_path, caplog):
        path = self.write(tmp_path, "1,0,2.0\n")
        with caplog.at_level(logging.WARNING):
            series = ingest_activity_csv(path, {1: 0}, 1, 4)
        assert np.array_equal(series, [[2.0, 0.0, 0.0, 0.0]])
        assert any("missing" in rec.message for rec in caplog.records)


class TestNormalize:
    def test_constant_series_becomes_all_ones(self):
        out = normalize_series(np.full((2, 5), 3.7))
        assert np.array_equal(out, np.ones((2, 5)))

    def test_peak_maps_to_one(self):
        out = normalize_series(np.array([[1.0, 4.0, 2.0]]))
        assert np.array_equal(out, [[0.25, 1.0, 0.5]])

    def test_all_zero_station_rejected(self):
        with pytest.raises(ConfigError, match="station 1 has all-zero activity"):
            normalize_series(np.array([[1.0, 2.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_activity_rejected(self, bad):
        with pytest.raises(ConfigError, match="non-finite"):
            normalize_series(np.array([[1.0, bad]]))

    def test_matrix_is_bit_for_bit_each_row_over_its_peak_times_its_factor(self):
        config = bench_config(8)
        raw = synth_traffic(config["traffic"]["seed"], 144, 9)
        factors = config["traffic"]["scale"]
        out = normalize_series(raw, factors)
        assert out.shape == raw.shape and out.flags.c_contiguous
        for row, factor, got in zip(raw, factors, out):
            assert got.tobytes() == ((row / row.max()) * factor).tobytes()
        assert build_scenario(config).traffic.tobytes() == out.tobytes()


class TestSnDemand:
    MICRO = default_parameter_set()[BsKind.MICRO]

    def test_zero_beta_zero_demand(self):
        demand = sn_demand_from_pn([[0.5, 1.0]], [self.MICRO], beta=0.0)
        assert np.array_equal(demand, np.zeros((1, 2), dtype=np.int64))

    def test_full_load_micro(self):
        # floor(0.7 * 1.0 * 50)
        demand = sn_demand_from_pn([[1.0]], [self.MICRO], beta=0.7)
        assert demand[0, 0] == 35

    def test_never_exceeds_station_blocks(self):
        rng = np.random.default_rng(0)
        demand = sn_demand_from_pn(rng.uniform(0, 1, (1, 100)), [self.MICRO], beta=1.0)
        assert demand.max() <= self.MICRO.rb_capacity
        assert demand.dtype == np.int64

    def test_each_row_uses_its_own_station(self):
        params = default_parameter_set()
        stations = [params[BsKind.RRH], params[BsKind.FEMTO]]
        traffic = np.array([[0.5, 1.0], [0.5, 1.0]])
        demand = sn_demand_from_pn(traffic, stations, beta=0.7)
        # floor(0.7 * load * 75) and floor(0.7 * load * 15)
        assert demand.tolist() == [[26, 52], [5, 10]]

    def test_beta_out_of_range(self):
        with pytest.raises(ConfigError):
            sn_demand_from_pn([[0.5]], [self.MICRO], beta=1.5)

    def test_one_row_per_sbs_required(self):
        with pytest.raises(ConfigError, match="one traffic series per SBS"):
            sn_demand_from_pn([[0.5], [0.5]], [self.MICRO], beta=0.7)

    def test_no_sbs_gives_an_empty_row_per_slot(self):
        demand = sn_demand_from_pn(np.zeros((0, 144)), [], beta=0.7)
        assert demand.shape == (0, 144)
        assert demand.dtype == np.int64


class TestDtShift:
    def test_peak_moves_onto_cheapest_slot(self):
        length = 24
        demand = np.zeros((2, length), dtype=np.int64)
        demand[0, 10] = 9           # aggregate peak at slot 10
        demand[1, 10] = 5
        demand[1, 4] = 2
        price = np.ones(length)
        price[3] = 0.2              # cheapest at slot 3
        shifted = dt_shift(demand, price)
        assert np.array_equal(shifted, np.roll(demand, -7, axis=1))
        assert int(np.argmax(shifted.sum(axis=0))) == 3

    def test_totals_preserved_per_station(self):
        rng = np.random.default_rng(5)
        demand = rng.integers(0, 30, size=(4, 144))
        price = rng.uniform(0.1, 0.2, size=144)
        shifted = dt_shift(demand, price)
        assert np.array_equal(shifted.sum(axis=1), demand.sum(axis=1))

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            dt_shift(np.zeros((1, 4), dtype=np.int64), np.ones(5))


class TestPricing:
    def test_default_multipliers_have_mean_one(self):
        mult = default_electricity_multipliers(144)
        assert mult.mean() == pytest.approx(1.0, rel=1e-12)
        assert mult.min() > 0

    def test_dynamic_electricity_scales_the_flat_price(self):
        scn = reference_scenario(pricing="dynamic")
        expected = default_electricity_multipliers(144) * 0.1293
        assert scn.electricity.tobytes() == expected.tobytes()

    def test_dynamic_spectrum_keeps_the_daily_mean(self):
        traffic = normalize_series(synth_traffic(1, 144, 4))
        price = dynamic_spectrum_price(traffic, 0.13)
        assert price.mean() == pytest.approx(0.13, abs=1e-12)
        # affine map into [0.5, 1.5] then mean-rescale: extremes keep ratio 3
        assert price.max() / price.min() == pytest.approx(3.0, rel=1e-9)

    def test_dynamic_spectrum_follows_traffic(self):
        traffic = normalize_series(synth_traffic(1, 144, 4))
        aggregate = traffic.sum(axis=0)
        price = dynamic_spectrum_price(traffic, 0.13)
        assert int(np.argmax(price)) == int(np.argmax(aggregate))
        assert int(np.argmin(price)) == int(np.argmin(aggregate))

    def test_constant_traffic_warns_and_degenerates(self, caplog):
        traffic = np.full((1, 6), 0.4)
        with caplog.at_level(logging.WARNING):
            price = dynamic_spectrum_price(traffic, 0.13)
        assert np.array_equal(price, np.full(6, 0.13))
        assert any("constant" in rec.message for rec in caplog.records)

    def test_fixed_policy_rejects_shaped_multipliers(self):
        with pytest.raises(ConfigError, match="all multipliers = 1"):
            build_scenario(pricing_config("fixed", [1.0, 1.2]))

    def test_fixed_policy_prices_are_flat(self):
        scn = build_scenario(pricing_config("fixed"))
        assert np.array_equal(scn.electricity, np.full(12, 0.1293))
        assert np.array_equal(scn.spectrum, np.full(12, 0.13))

    def test_dynamic_policy_checks_profile_length(self):
        with pytest.raises(ConfigError, match="7 slots, grid has 12"):
            build_scenario(pricing_config("dynamic", [1.0] * 7))

    @pytest.mark.parametrize(
        "bad",
        [["x"], [[1.0, 2.0]], [True], [float("nan")], []],
        ids=["string", "nested-list", "boolean", "nan", "empty"],
    )
    @pytest.mark.parametrize("policy", ["fixed", "dynamic"])
    def test_inline_and_file_profiles_get_the_same_check(self, tmp_path, bad, policy):
        entries = [1.0] * 11 + bad if bad else []
        with pytest.raises(ConfigError) as inline:
            build_scenario(pricing_config(policy, entries))
        path = tmp_path / "profile.yaml"
        path.write_text(yaml.safe_dump(entries))
        with pytest.raises(ConfigError) as from_file:
            build_scenario(pricing_config(policy, str(path)))
        # one check, so one message, naming the key or the file
        assert str(from_file.value) == str(inline.value).replace(
            "pricing.electricity_profile", str(path)
        )
        assert str(path) in str(from_file.value)


def pricing_config(policy, profile=None):
    """Two stations over twelve ten-minute slots with the given pricing."""
    return {
        "grid": {"horizon_min": 120, "slot_min": 10},
        "stations": [{"kind": "macro"}, {"kind": "micro"}],
        "traffic": {"seed": 0, "scale": [0.5, 1.0]},
        "pricing": {"policy": policy, "electricity_profile": profile},
    }


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"grdi": {}})
        with pytest.raises(ConfigError):
            validate_config({"traffic": {"sede": 1}})

    def test_unknown_station_field_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"stations": [{"kind": "macro", "power": 10}]})

    def test_station_overrides_apply(self):
        config = validate_config(
            {"stations": [{"kind": "macro"}, {"kind": "micro", "p_o": 60.0}]}
        )
        scn = build_scenario(config)
        assert scn.stations[1].p_o == 60.0
        assert scn.stations[1].p_sleep == 39.0

    def test_stations_without_overrides_share_the_template(self):
        scn = bench_scenario(8)
        assert scn.stations[1] is scn.stations[5]

    def test_scale_factors_cap_the_peak(self):
        config = validate_config(
            {
                "stations": [{"kind": "macro"}, {"kind": "micro"}],
                "traffic": {"seed": 1, "scale": [0.5, 1.0]},
            }
        )
        scn = build_scenario(config)
        assert scn.traffic[0].max() == pytest.approx(0.5, rel=1e-12)
        assert scn.traffic[1].max() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "scale, message",
        [([0.5], "one factor per station"), ([0.5, 1.5], "must lie in (0, 1]"),
         ([0.5, 0], "must lie in (0, 1]")],
    )
    def test_bad_scale_keeps_its_message(self, scale, message):
        config = {
            "stations": [{"kind": "macro"}, {"kind": "micro"}],
            "traffic": {"seed": 1, "scale": scale},
        }
        # validate_config rejects it, and so does the array API
        with pytest.raises(ConfigError, match=re.escape(message)):
            validate_config(config)
        with pytest.raises(ConfigError, match=re.escape(message)):
            normalize_series(np.ones((2, 3)), scale)

    def test_price_that_overflows_a_slot_names_the_slot(self):
        config = reference_config()
        config["pricing"]["fixed_spectrum"] = 1e307
        # the first slot with a demand of 18 blocks or more, whose income
        # at 1e307 per block exceeds the largest double
        first = int(np.argmax(reference_scenario().sn_demand.max(axis=0) >= 18))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"^slot {first}: .* not finite$"):
                build_scenario(config)

    def test_round_trip_through_yaml(self, tmp_path):
        config = reference_config(pricing="dynamic", demand_mode="dt")
        path = tmp_path / "scenario.yaml"
        save_config(config, path)
        rebuilt = build_scenario(load_config(path))
        original = build_scenario(config)
        assert np.array_equal(original.traffic, rebuilt.traffic)
        assert np.array_equal(original.sn_demand, rebuilt.sn_demand)
        assert np.array_equal(original.electricity, rebuilt.electricity)
        assert np.array_equal(original.spectrum, rebuilt.spectrum)

    def test_scenario_remembers_its_config(self):
        scn = reference_scenario()
        again = build_scenario(scn.config)
        assert np.array_equal(scn.sn_demand, again.sn_demand)

    def test_yaml_is_plain_data(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        save_config(reference_config(), path)
        data = yaml.safe_load(path.read_text())
        assert data["demand"]["beta"] == 0.7


    @pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
    def test_both_yaml_loaders_read_the_same_config(self, tmp_path, monkeypatch, loader):
        if not hasattr(yaml, loader):
            pytest.skip("PyYAML was built without libyaml")
        config = bench_config(16, 7)
        path = tmp_path / "bench.yaml"
        save_config(config, path)
        monkeypatch.setattr(scenario_module, "_YAML_LOADER", getattr(yaml, loader))
        assert load_config(path) == validate_config(config)
        path.write_text("grid: {slot_min: [10,\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(path)


class TestConfigSchema:
    def test_defaults_in_schema_order(self):
        # validate_config writes every key, in this order, whatever order it is given
        assert validate_config({"mbs_capacity_limit": 1, "grid": {"slot_min": 5}}) == {
            "grid": {"horizon_min": 1440, "slot_min": 5},
            "stations": [{"kind": "macro"}],
            "traffic": {
                "source": "synthetic", "seed": 0, "scale": None, "csv_path": None,
                "assignment": None,
            },
            "demand": {"beta": 0.7, "mode": "ndt"},
            "pricing": {
                "policy": "fixed", "fixed_electricity": 0.1293, "fixed_spectrum": 0.13,
                "electricity_profile": None, "spectrum_m_min": 0.5, "spectrum_m_max": 1.5,
            },
            "offload_mode": "direct",
            "mbs_capacity_limit": 1,
        }
        config = validate_config({"pricing": {"spectrum_m_max": 2.0, "policy": "dynamic"}})
        assert list(config) == [
            "grid", "stations", "traffic", "demand", "pricing", "offload_mode",
            "mbs_capacity_limit",
        ]
        assert list(config["pricing"]) == list(validate_config({})["pricing"])

    def test_station_rows_are_the_base_station_fields(self):
        fields = [f.name for f in dataclasses.fields(BaseStation)]
        assert list(scenario_module._STATION_KEYS) == fields

    def test_readme_lists_every_key_path_with_its_default(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        rows = {
            cells[1].strip("` "): cells[2].strip()
            for cells in (line.split("|") for line in readme.splitlines())
            if len(cells) > 3 and cells[1].strip().startswith("`")
        }
        for path, key in scenario_module._SCHEMA.items():
            assert path in rows, path
            assert yaml.safe_load(rows[path].strip("`")) == key.default, path
        for field in scenario_module._STATION_KEYS:
            assert f"stations[i].{field}" in rows, field

    def test_given_values_are_copied(self):
        stations = [{"kind": "macro"}, {"kind": "micro", "p_o": 60.0}]
        config = validate_config({"stations": stations})
        config["stations"][1]["p_o"] = 1.0
        assert stations[1]["p_o"] == 60.0

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"grid.slot_min": 5}, "unknown config key grid.slot_min"),
            ({"traffic": {"seed": 1, "sede": 1}}, "unknown config key traffic.sede"),
            ({"stations": []}, "stations must be a non-empty list, got []"),
            ({"stations": [{"p_o": 1.0}]}, "stations[0] must be a mapping with a kind"),
            ({"stations": [{"kind": "macro"}, {"kind": "rrh", "p_sleep": None}]},
             "stations[1].p_sleep must be null for the macro cell"),
            ({"stations": [{"kind": "macro"}, {"kind": "rrh", "p_o": 50.0}]},
             "got p_sleep=56.0, p_o=50.0"),
            ({"traffic": {"assignment": {"a": 0}}}, "traffic.assignment key must be an integer"),
            ({"pricing": {"electricity_profile": [1.0, -1.0]}},
             "pricing.electricity_profile[1] must be positive, got -1.0"),
            ("grid: {}", "config must be a mapping, got 'grid: {}'"),
            ({"stations": [{"kind": "macro"}, {"kind": "rrh", "rb_capacity": 2**53 + 1}]},
             "stations[1].rb_capacity must lie in (0, 2^53], got 9007199254740993"),
            ({"traffic": {"scale": [0.5]}, "mbs_capacity_limit": 0.25},
             "mbs_capacity_limit 0.25 is below the macro's peak load 0.5, which is "
             "traffic.scale[0] (1 when traffic.scale is null)"),
            ({"traffic": {"source": "csv", "csv_path": "a.csv", "assignment": {1: 0, 2: -1}}},
             "traffic.assignment[2] names station -1, but there is 1 station"),
            ({"stations": [{"kind": "macro"}, {"kind": "rrh"}, {"kind": "rrh"}],
              "traffic": {"source": "csv", "csv_path": "a.csv", "assignment": {1: 1, 2: 3}}},
             "traffic.assignment[2] names station 3, but there are 3 stations"),
            ({"stations": [{"kind": "macro"}, {"kind": "rrh"}, {"kind": "rrh"}],
              "traffic": {"source": "csv", "csv_path": "a.csv", "assignment": {1: 1}}},
             "traffic.assignment assigns no grid to stations [0, 2]"),
        ],
    )
    def test_error_names_the_key_path(self, config, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            validate_config(config)

    @pytest.mark.parametrize("scale", [None, [0.55, 1.0], [1.0, 0.3], [1, 1]])
    def test_capacity_limit_may_equal_the_macro_peak(self, scale):
        # normalize_series maps the macro's peak load to traffic.scale[0] exactly
        config = {"grid": {"horizon_min": 60}, "stations": [{"kind": "macro"}, {"kind": "rrh"}],
                  "traffic": {"scale": scale}}
        peak = 1.0 if scale is None else float(scale[0])
        scn = build_scenario({**config, "mbs_capacity_limit": peak})
        assert scn.traffic[0].max() == peak == scn.mbs_capacity_limit
        below = math.nextafter(peak, 0.0)
        with pytest.raises(ConfigError, match=re.escape(f"mbs_capacity_limit {below!r} is below")):
            validate_config({**config, "mbs_capacity_limit": below})

    def test_rb_capacity_may_reach_two_to_the_53(self):
        top = 2**53
        config = {"grid": {"horizon_min": 60},
                  "stations": [{"kind": "macro"}, {"kind": "rrh", "rb_capacity": top}]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scn = build_scenario(config)
        assert scn.stations[1].rb_capacity == top
        assert 0 < scn.sn_demand.max() <= top

    @pytest.mark.parametrize(
        "policy, entries, message",
        [
            ("fixed", [1.0, 1.2], "requires all multipliers = 1, got {}[1] = 1.2"),
            ("dynamic", [1.0] * 7, "{} has 7 slots, grid has 12"),
            ("dynamic", {"a": 1}, "{} must be a list, got {{'a': 1}}"),
        ],
    )
    def test_profile_file_gets_the_inline_rules(self, tmp_path, policy, entries, message):
        path = tmp_path / "profile.yaml"
        path.write_text(yaml.safe_dump(entries))
        with pytest.raises(ConfigError, match=re.escape(message.format(path))):
            build_scenario(pricing_config(policy, str(path)))


class TestStockScenarios:
    def test_reference_network_mix(self):
        scn = reference_scenario()
        kinds = [bs.kind for bs in scn.stations]
        assert kinds[0] == BsKind.MACRO
        assert len(kinds) == 13
        for kind in (BsKind.RRH, BsKind.MICRO, BsKind.PICO, BsKind.FEMTO):
            assert kinds.count(kind) == 3

    def test_variants_share_traffic(self, variants):
        assert set(variants) == {"fixed-ndt", "fixed-dt", "dynamic-ndt", "dynamic-dt"}
        base = variants["fixed-ndt"]
        for scn in variants.values():
            assert np.array_equal(scn.traffic, base.traffic)

    def test_variants_differ_where_expected(self, variants):
        fixed, dynamic = variants["fixed-ndt"], variants["dynamic-ndt"]
        assert not np.array_equal(fixed.spectrum, dynamic.spectrum)
        ndt, dt = variants["dynamic-ndt"], variants["dynamic-dt"]
        assert not np.array_equal(ndt.sn_demand, dt.sn_demand)
        assert np.array_equal(ndt.sn_demand.sum(axis=1), dt.sn_demand.sum(axis=1))

    def test_bench_instance_keeps_every_switch_feasible(self):
        scn = bench_scenario(4)
        for slot in range(scn.num_slots):
            for mask in range(16):
                switch = SwitchVector.from_off_mask(mask, 4)
                assert offloaded_mbs_load(scn, slot, switch) <= scn.mbs_capacity_limit

    @pytest.mark.parametrize(
        "build",
        [lambda: bench_scenario(16), lambda: reference_scenario("dynamic", "dt")],
        ids=["bench16", "reference-dynamic-dt"],
    )
    def test_stock_scenario_validates_its_config_once(self, monkeypatch, build):
        calls = []
        validate = scenario_module.validate_config

        def counted(config):
            calls.append(config)
            return validate(config)

        monkeypatch.setattr(scenario_module, "validate_config", counted)
        build()
        assert len(calls) == 1

    def test_bench_worst_case_stays_under_the_limit(self):
        scn = bench_scenario(16)
        all_off = SwitchVector.from_off_mask((1 << 16) - 1, 16)
        worst = max(
            offloaded_mbs_load(scn, slot, all_off) for slot in range(scn.num_slots)
        )
        assert worst <= scn.mbs_capacity_limit
