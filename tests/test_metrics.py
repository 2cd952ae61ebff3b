import numpy as np
import pytest

from hetlease import (
    InfeasibleSwitchError,
    SwitchVector,
    bench_scenario,
    network_throughput,
    reference_scenario,
    runtime_scaling,
    throughput_invariance_report,
    write_bench_csv,
)
from hetlease.metrics import BenchRecord

import oracles
from conftest import build_tiny, switch_off


class TestNetworkThroughput:
    def test_idle_network_serves_nothing(self):
        scn = build_tiny([[0.0, 0.0]])
        assert network_throughput(scn, 0, scn.all_on()) == 0.0

    def test_equals_routed_oracle(self):
        scn = bench_scenario(4)
        for slot in (0, 60, 120):
            for mask in range(16):
                switch = SwitchVector.from_off_mask(mask, 4)
                got = network_throughput(scn, slot, switch)
                assert got == pytest.approx(
                    oracles.throughput(scn, slot, switch.gamma), abs=1e-12
                )

    def test_identical_across_every_feasible_switch(self):
        # all 16 vectors are feasible on the bench instance, so they must
        # serve the same traffic, bit for bit
        scn = bench_scenario(4)
        for slot in range(0, scn.num_slots, 11):
            baseline = network_throughput(scn, slot, scn.all_on())
            for mask in range(16):
                switch = SwitchVector.from_off_mask(mask, 4)
                assert network_throughput(scn, slot, switch) == baseline

    def test_rejects_infeasible_switch(self):
        scn = build_tiny([[0.9, 0.2]])
        with pytest.raises(InfeasibleSwitchError):
            network_throughput(scn, 0, switch_off(1, 1))


class TestInvarianceReport:
    def test_needs_two_variants(self):
        scn = reference_scenario()
        with pytest.raises(ValueError):
            throughput_invariance_report({"only": scn}, "dtype")

    def test_rejects_diverging_traffic(self):
        a = reference_scenario(seed=1)
        b = reference_scenario(seed=2)
        with pytest.raises(ValueError, match="share"):
            throughput_invariance_report({"a": a, "b": b}, "dtype")

    def test_reference_variants_are_invariant(self, variants):
        identical, rows = throughput_invariance_report(variants, "dtype")
        assert identical
        assert len(rows) == 144
        assert all(row["identical"] for row in rows)
        assert set(rows[0]) == {"slot", "identical", *variants}


class TestRuntimeScaling:
    def test_single_record(self):
        records = runtime_scaling([4], ["es"])
        assert len(records) == 1
        rec = records[0]
        assert rec.method == "es"
        assert rec.n_sbs == 4
        assert rec.evaluations == 144 * 16
        assert rec.runtime_ns > 0

    def test_es_count_multiplies_16x_per_four_stations(self):
        records = runtime_scaling([4, 8], ["es"])
        assert records[1].evaluations == 16 * records[0].evaluations

    def test_revenue_is_replayed_through_the_objective(self):
        from hetlease import daily_revenue, solve_day

        scn = bench_scenario(4)
        record = runtime_scaling([4], ["dtype"])[0]
        result = solve_day(scn, "dtype")
        assert record.daily_revenue == daily_revenue(scn, result.per_slot_switch).total

    def test_record_validation(self):
        with pytest.raises(ValueError):
            BenchRecord(method="es", n_sbs=4, runtime_ns=0, evaluations=1, daily_revenue=0.0)
        with pytest.raises(ValueError):
            BenchRecord(method="es", n_sbs=4, runtime_ns=1, evaluations=0, daily_revenue=0.0)


class TestBenchCsv:
    def test_exact_file_contents(self, tmp_path):
        records = [
            BenchRecord(method="es", n_sbs=4, runtime_ns=1500, evaluations=2304,
                        daily_revenue=1.25),
            BenchRecord(method="sa", n_sbs=4, runtime_ns=700, evaluations=11880,
                        daily_revenue=0.1 + 0.2),
        ]
        path = tmp_path / "bench.csv"
        write_bench_csv(records, path)
        want = (
            "method,n_sbs,runtime_ns,evaluations,daily_revenue\n"
            "es,4,1500,2304,1.25\n"
            f"sa,4,700,11880,{0.1 + 0.2!r}\n"
        )
        assert path.read_text() == want

    @pytest.mark.parametrize("method", ["a,b", 'say "sa"', "s\na", "s\ra"])
    def test_cell_that_needs_quoting_is_rejected(self, tmp_path, method):
        # cells are not quoted: "a,b" would make a six-field row
        record = BenchRecord(method, 4, 1, 1, 0.5)
        path = tmp_path / "bench.csv"
        with pytest.raises(ValueError, match="comma, a quote or a line break"):
            write_bench_csv([record], path)
        assert not path.exists()
