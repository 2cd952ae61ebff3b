import dataclasses
import inspect
import math
import random
import re
import types
import warnings

import numpy as np
import pytest

import hetlease
from hetlease import (
    BaseStation,
    BsKind,
    ConfigError,
    OffloadMode,
    RevenueBreakdown,
    SwitchVector,
    TimeGrid,
    bench_scenario,
    default_parameter_set,
    reference_scenario,
)
from hetlease.model import daily_breakdown

from conftest import build_tiny, switch_off


PARAMS = default_parameter_set()


class TestBaseStationPower:
    def test_macro_full_load(self):
        # 130 + 1.0 * 4.7 * 20 by hand
        assert PARAMS[BsKind.MACRO].power(1.0) == pytest.approx(224.0, abs=1e-9)

    def test_femto_half_load(self):
        # 4.8 + 0.5 * 8.0 * 0.05 by hand
        assert PARAMS[BsKind.FEMTO].power(0.5) == pytest.approx(5.0, abs=1e-9)

    def test_idle_draw_is_circuit_power(self):
        assert PARAMS[BsKind.MICRO].power(0.0) == 56.0

    @pytest.mark.parametrize("load", [-0.1, 1.0001, 2.0])
    def test_load_out_of_range(self, load):
        with pytest.raises(ValueError):
            PARAMS[BsKind.MICRO].power(load)

    def test_power_monotone_in_load(self):
        bs = PARAMS[BsKind.RRH]
        draws = [bs.power(x) for x in np.linspace(0, 1, 11)]
        assert all(b > a for a, b in zip(draws, draws[1:]))


class TestBaseStationValidation:
    def test_rejects_nonpositive_power_params(self):
        with pytest.raises(ConfigError):
            BaseStation(
                kind=BsKind.MICRO, p_o=-1.0, zeta=2.6, p_tx=6.3,
                rb_capacity=50, p_sleep=39.0,
            )

    def test_rejects_sleep_above_idle(self):
        with pytest.raises(ConfigError, match=r"got p_sleep=56\.0, p_o=56\.0$"):
            BaseStation(
                kind=BsKind.MICRO, p_o=56.0, zeta=2.6, p_tx=6.3,
                rb_capacity=50, p_sleep=56.0,
            )

    @pytest.mark.parametrize("rb_capacity", [0, 2**53 + 1, 2**70])
    def test_rejects_rb_capacity_outside_its_range(self, rb_capacity):
        # up to 2^53 every demand floor(beta * load * rb_capacity) is an int64
        message = f"^rb_capacity must lie in {re.escape('(0, 2^53]')}, got {rb_capacity}$"
        with pytest.raises(ConfigError, match=message):
            BaseStation(BsKind.MICRO, 56.0, 2.6, 6.3, rb_capacity, p_sleep=39.0)
        assert BaseStation(BsKind.MICRO, 56.0, 2.6, 6.3, 2**53, p_sleep=39.0).rb_capacity == 2**53

    def test_small_cell_needs_sleep_power(self):
        with pytest.raises(ConfigError):
            BaseStation(
                kind=BsKind.PICO, p_o=6.8, zeta=4.0, p_tx=0.13,
                rb_capacity=25,
            )

    def test_macro_cell_has_no_sleep_power(self):
        # no formula reads a macro cell's sleep power, so setting one is an error
        message = r"^p_sleep must be None for a macro cell, got 3\.0$"
        with pytest.raises(ConfigError, match=message):
            BaseStation(BsKind.MACRO, 130.0, 4.7, 20.0, 100, p_sleep=3.0)

    def test_macro_sleep_is_optional(self):
        assert PARAMS[BsKind.MACRO].p_sleep is None

    def test_default_set_covers_all_kinds(self):
        assert set(PARAMS) == set(BsKind)
        assert PARAMS[BsKind.MACRO].rb_capacity == 100


class TestTimeGrid:
    def test_default_day(self):
        grid = TimeGrid()
        assert grid.num_slots == 144
        assert grid.slot_hours()[0] == pytest.approx(5 / 60)
        assert grid.slot_hours()[-1] == pytest.approx(24 - 5 / 60)

    def test_indivisible_horizon(self):
        with pytest.raises(ConfigError):
            TimeGrid(horizon_min=100, slot_min=7)


class TestSeries:
    """``Scenario`` checks its traffic matrix and price vectors once."""

    def test_traffic_range_enforced(self):
        with pytest.raises(ConfigError, match="traffic values outside"):
            build_tiny([[0.2, 1.2]])
        with pytest.raises(ConfigError, match="traffic values outside"):
            build_tiny([[0.2, -0.1]])

    @pytest.mark.parametrize("field", ["traffic", "electricity", "spectrum"])
    def test_non_finite_rejected(self, field):
        scn = build_tiny([[0.2, 0.3], [0.4, 0.5]])
        bad = np.array(getattr(scn, field))
        bad.flat[-1] = math.nan
        with pytest.raises(ConfigError, match=f"{field} contains non-finite"):
            dataclasses.replace(scn, **{field: bad})

    @pytest.mark.parametrize(
        "value",
        [np.full((3, 2), 0.2), np.full((2, 3), 0.2), np.full(2, 0.2)],
        ids=["extra-station", "extra-slot", "not-a-matrix"],
    )
    def test_traffic_shape_enforced(self, value):
        scn = build_tiny([[0.2, 0.3], [0.4, 0.5]])
        with pytest.raises(ConfigError, match="traffic has shape"):
            dataclasses.replace(scn, traffic=value)

    def test_pricing_length_mismatch(self):
        scn = build_tiny([[0.2, 0.3], [0.4, 0.5]])
        with pytest.raises(ConfigError, match=re.escape("electricity has shape (1,)")):
            dataclasses.replace(scn, electricity=[0.1])
        with pytest.raises(ConfigError, match=re.escape("spectrum has shape (1, 2)")):
            dataclasses.replace(scn, spectrum=[[0.13, 0.13]])

    def test_pricing_rejects_negative(self):
        with pytest.raises(ConfigError, match="electricity values outside"):
            build_tiny([[0.2, 0.3]], elec=-0.1)
        with pytest.raises(ConfigError, match="spectrum values outside"):
            build_tiny([[0.2, 0.3]], spectrum=-0.1)

    def test_traffic_readonly(self):
        loads = np.array([[0.1, 0.2], [0.3, 0.4]])
        scn = build_tiny(loads)
        with pytest.raises(ValueError):
            scn.traffic[0, 0] = 0.9
        # a copy, in (stations x slots) C order
        loads[0, 0] = 0.9
        assert scn.traffic.tolist() == [[0.1, 0.3], [0.2, 0.4]]
        assert scn.traffic.flags.c_contiguous

    def test_prices_and_demand_readonly(self):
        scn = build_tiny([[0.1, 0.2]], demand=[7])
        for field, dtype in (("sn_demand", np.int64), ("electricity", np.float64),
                             ("spectrum", np.float64)):
            values = getattr(scn, field)
            assert values.dtype == dtype
            with pytest.raises(ValueError):
                values[0] = 0

    def test_pricing_allows_zero(self):
        scn = build_tiny([[0.2, 0.3]], elec=0.0, spectrum=0.0)
        assert scn.electricity[0] == 0.0 and scn.spectrum[0] == 0.0


def _naive_gamma(mask: int, n: int) -> tuple[bool, ...]:
    return (True,) + tuple(not (mask >> j) & 1 for j in range(n))


def _masks():
    """Every mask at N = 0, 1, 2 and 4, and seeded random masks at N = 128."""
    rng = random.Random(128)
    random_masks = [0, (1 << 128) - 1, 1 << 127, 1] + [
        rng.getrandbits(128) for _ in range(40)
    ]
    return [(m, n) for n in (0, 1, 2, 4) for m in range(1 << n)] + [
        (m, 128) for m in random_masks
    ]


class TestSwitchVector:
    def test_macro_must_stay_on(self):
        with pytest.raises(ConfigError):
            SwitchVector.from_off_indices([0], 1)

    @pytest.mark.parametrize("mask, n", _masks())
    def test_views_match_naive_reference(self, mask, n):
        sv = SwitchVector.from_off_mask(mask, n)
        gamma = _naive_gamma(mask, n)
        assert sv.gamma == gamma
        assert sv.bitstring() == "".join("1" if g else "0" for g in gamma)
        assert sv.off_indices() == tuple(i for i, g in enumerate(gamma) if not g)
        assert [sv.is_on(i) for i in range(n + 1)] == list(gamma)
        assert sv.off_mask() == sv.mask == mask
        assert sv.num_sbs == n
        assert SwitchVector.from_off_indices(sv.off_indices(), n) == sv

    @pytest.mark.parametrize("n", [0, 1, 2, 4, 128])
    def test_equality_and_hash_follow_gamma(self, n):
        vectors = [SwitchVector.from_off_mask(m, k) for m, k in _masks()]
        for sv in vectors:
            if sv.num_sbs != n:
                continue
            twin = SwitchVector(sv.mask, n)
            assert twin == sv and hash(twin) == hash(sv)
            for other in vectors:
                assert (other == sv) == (other.gamma == sv.gamma)

    @pytest.mark.parametrize("mask, n", [(-1, 3), (8, 3), (1, 0), (1 << 128, 128)])
    def test_constructor_rejects_mask_out_of_range(self, mask, n):
        with pytest.raises(ValueError):
            SwitchVector(mask, n)

    def test_constructor_rejects_negative_size(self):
        with pytest.raises(ConfigError):
            SwitchVector(0, -1)

    @pytest.mark.parametrize("index", [-1, 4])
    def test_is_on_rejects_index_out_of_range(self, index):
        with pytest.raises(IndexError):
            SwitchVector(0, 3).is_on(index)

    @pytest.mark.parametrize("mask", range(16))
    def test_off_mask_round_trip(self, mask):
        sv = SwitchVector.from_off_mask(mask, 4)
        assert sv.off_mask() == mask

    def test_mask_out_of_range(self):
        with pytest.raises(ValueError):
            SwitchVector.from_off_mask(8, 3)

    def test_bitstring(self):
        assert SwitchVector(0, 3).bitstring() == "1111"
        assert switch_off(3, 2).bitstring() == "1101"

    def test_off_indices(self):
        sv = switch_off(5, 1, 4)
        assert sv.gamma == (True, False, True, True, False, True)

    @pytest.mark.parametrize("off", [[5], [-1], [1, 4]])
    def test_off_indices_out_of_range(self, off):
        with pytest.raises(ValueError):
            SwitchVector.from_off_indices(off, 3)


class TestRevenueBreakdown:
    def test_composition_exact(self):
        rb = RevenueBreakdown(0.1, 0.2)
        assert rb.total == 0.1 + 0.2

    def test_zero(self):
        # a day of no slots sums to zero in both streams
        day = daily_breakdown([])
        assert day == RevenueBreakdown(0.0, 0.0)
        assert day.total == 0.0

    @pytest.mark.parametrize("stream", ["energy", "leasing"])
    def test_day_that_overflows_names_its_stream(self, stream):
        # each slot is finite, but two of them pass the largest double
        slot = {"energy": 1.0, "leasing": 1.0, stream: 1e308}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"daily {stream} revenue overflows"):
                daily_breakdown([RevenueBreakdown(**slot)] * 2)


class TestScenarioValidation:
    def test_macro_must_be_first(self):
        with pytest.raises(ConfigError):
            build_tiny(
                [[0.1, 0.1]],
                kinds=[BsKind.MICRO, BsKind.MACRO],
            )

    def test_only_one_macro(self):
        with pytest.raises(ConfigError):
            build_tiny(
                [[0.1, 0.1]],
                kinds=[BsKind.MACRO, BsKind.MACRO],
            )

    def test_demand_shape_checked(self):
        with pytest.raises(ConfigError):
            build_tiny([[0.1, 0.1]], demand=np.zeros((3, 1), dtype=np.int64))

    def test_demand_cannot_exceed_station_blocks(self):
        # a micro owns 50 RBs, so 60 can never be leased from it
        with pytest.raises(ConfigError):
            build_tiny([[0.1, 0.1]], demand=[60])

    @pytest.mark.parametrize(
        "kwargs",
        [
            # slot 1 leases 20 blocks at 1e307: an infinite income
            dict(demand=[[1, 20, 20]], spectrum=1e307),
            # the micro's draw overflows once it carries load, from slot 1
            dict(stations=(
                PARAMS[BsKind.MACRO],
                dataclasses.replace(PARAMS[BsKind.MICRO], zeta=1e10, p_tx=1e300),
            )),
        ],
        ids=["leasing", "power"],
    )
    def test_slot_that_overflows_is_rejected_by_name(self, kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="^slot 1: .* not finite$"):
                build_tiny([[0.1, 0.0], [0.2, 0.2], [0.3, 0.3]], **kwargs)

    def test_zero_sbs_network_is_legal(self):
        scn = build_tiny([[0.3]])
        assert scn.num_sbs == 0
        assert scn.all_on().gamma == (True,)

    def test_accessors(self):
        scn = build_tiny([[0.3, 0.2], [0.4, 0.1]], demand=[7])
        assert scn.num_slots == 2
        assert scn.load(1, 1) == pytest.approx(0.1)
        assert scn.demand(1, 0) == 7

    @pytest.mark.parametrize("station, slot", [(-1, 0), (2, 0), (0, -1), (0, 2)])
    def test_load_rejects_index_out_of_range(self, station, slot):
        # a negative index must not alias the last SBS or the last slot
        scn = build_tiny([[0.3, 0.2], [0.4, 0.1]], demand=[7])
        with pytest.raises(IndexError):
            scn.load(station, slot)

    @pytest.mark.parametrize("station, slot", [(0, 0), (-1, 0), (2, 0), (1, -1), (1, 2)])
    def test_demand_rejects_index_out_of_range(self, station, slot):
        scn = build_tiny([[0.3, 0.2], [0.4, 0.1]], demand=[7])
        with pytest.raises(IndexError):
            scn.demand(station, slot)


def _with_sbs(n: int, mode: OffloadMode):
    """The reference network cut to n SBSs, or the benchmark one beyond 12."""
    scn = bench_scenario(n) if n > 12 else reference_scenario()
    return dataclasses.replace(
        scn,
        stations=scn.stations[: n + 1],
        traffic=scn.traffic[: n + 1],
        sn_demand=scn.sn_demand[:n],
        offload_mode=mode,
    )


class TestScenarioTables:
    @pytest.mark.parametrize("mode", list(OffloadMode))
    @pytest.mark.parametrize("n", [0, 1, 12, 128])
    def test_tables_equal_element_wise_definitions(self, n, mode):
        scn = _with_sbs(n, mode)
        assert scn.num_sbs == n
        mbs = scn.stations[0]
        ratios = [
            1.0 if mode is OffloadMode.DIRECT else bs.rb_capacity / mbs.rb_capacity
            for bs in scn.stations[1:]
        ]
        for t in range(scn.num_slots):
            loads = [float(x) for x in scn.traffic[:, t]]
            contrib = [loads[j + 1] * ratios[j] for j in range(n)]
            active = [bs.power(loads[i]) for i, bs in enumerate(scn.stations)]
            allon = active[0]
            for power in active[1:]:
                allon += power
            factor = scn.grid.slot_min / 60000.0
            elec = float(scn.electricity[t])
            price = float(scn.spectrum[t])
            weights = [
                (active[j + 1] - bs.p_sleep - contrib[j] * mbs.zeta * mbs.p_tx)
                * factor * elec
                + int(scn.sn_demand[j, t]) * price
                for j, bs in enumerate(scn.stations[1:])
            ]
            lease = [int(scn.sn_demand[j, t]) * price for j in range(n)]
            record = scn._slot(t)
            got = (
                record.loads,
                record.contrib,
                record.active,
                [record.allon, record.elec],
                record.lease,
                record.weights,
            )
            want = (loads, contrib, active, [allon, elec], lease, weights)
            for row, expected in zip(got, want):
                assert len(row) == len(expected)
                assert [x.hex() for x in row] == [x.hex() for x in expected]
            assert record.sleep == tuple(bs.p_sleep for bs in scn.stations)
            assert record.demands == [int(scn.sn_demand[j, t]) for j in range(n)]


PUBLIC_NAMES = {
    "BaseStation", "BsKind", "ConfigError", "CsvFormatError", "ES_MAX_SBS",
    "EnumerationCapError", "InfeasibleSwitchError", "Method", "OffloadMode",
    "OffloadReport", "RevenueBreakdown", "SaParams", "Scenario", "SlotProblem",
    "SolverResult", "SortOrder", "SwitchVector", "TimeGrid",
    "all_on_power_slot", "bench_config", "bench_scenario", "build_scenario",
    "daily_revenue", "default_electricity_multipliers", "default_parameter_set",
    "energy_revenue_slot", "es_solve_slot", "hetnet_power_slot", "is_feasible",
    "leasing_revenue_slot", "load_config", "metropolis_accept",
    "network_throughput", "offloaded_mbs_load", "power_saving_slot",
    "reference_config", "reference_scenario", "reference_variants",
    "runtime_scaling", "sa_solve_slot", "save_config", "sbs_off_weights",
    "slot_problem", "solve_day", "sorting_solve_slot",
    "throughput_invariance_report", "total_revenue_slot", "utility_vector",
    "validate_config", "write_bench_csv",
}


def test_public_surface():
    # adding or dropping an export is a deliberate edit of this list
    exported = {
        name
        for name, value in vars(hetlease).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 50


def test_settable_values():
    # the annealer's one setting is its seed; the schedule is fixed, and the
    # synthetic traffic has one shape
    assert [f.name for f in dataclasses.fields(hetlease.SaParams)] == ["rng_seed"]
    assert hetlease.SaParams().boltzmann_k == 1.0
    assert list(hetlease.validate_config({})["traffic"]) == [
        "source", "seed", "scale", "csv_path", "assignment"
    ]
    assert list(inspect.signature(hetlease.runtime_scaling).parameters) == [
        "n_values", "methods", "seed"
    ]
