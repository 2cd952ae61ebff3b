import json
import math

import pytest

from hetlease import (
    SaParams,
    SwitchVector,
    build_scenario,
    is_feasible,
    leasing_revenue_slot,
    load_config,
    save_config,
    solve_day,
    validate_config,
)
from hetlease import feasibility
from hetlease.cli import main

# an integer too large for a double
HUGE = "1" * 401


@pytest.fixture
def small_config(tmp_path):
    """Four mixed SBSs, six hours of ten-minute slots; quick to solve."""
    config = validate_config(
        {
            "grid": {"horizon_min": 360, "slot_min": 10},
            "stations": [
                {"kind": "macro"},
                {"kind": "rrh"},
                {"kind": "micro"},
                {"kind": "pico"},
                {"kind": "femto"},
            ],
            "traffic": {"seed": 11, "scale": [0.6, 0.5, 0.5, 0.5, 0.5]},
        }
    )
    path = tmp_path / "small.yaml"
    save_config(config, path)
    return path


def read_rows(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [row.split(",") for row in rows]


def test_missing_config_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", str(tmp_path / "nope.yaml"), "--out", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_run_writes_per_slot_files(small_config, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(small_config), "--method", "sa",
                 "--seed", "3", "--out", str(out)]) == 0

    header, rows = read_rows(out / "revenue_per_slot.csv")
    assert header == ["slot", "energy", "leasing", "total", "mbs_load", "feasible"]
    assert len(rows) == 36
    assert all(row[5] == "true" for row in rows)
    for row in rows:
        assert float(row[3]) == pytest.approx(float(row[1]) + float(row[2]), abs=1e-12)

    _, switches = read_rows(out / "switch_per_slot.csv")
    assert all(len(row[1]) == 5 and row[1][0] == "1" for row in switches)

    summary = json.loads((out / "summary.json").read_text())
    assert summary["method"] == "sa"
    assert summary["seed"] == 3
    assert summary["num_sbs"] == 4
    assert summary["daily_total"] == pytest.approx(
        sum(float(row[3]) for row in rows), abs=1e-9
    )


@pytest.mark.parametrize("method", ["dtype", "sa"])
def test_run_checks_each_slot_once(small_config, tmp_path, monkeypatch, method):
    calls = []
    check = feasibility.offloaded_mbs_load

    def counted(*args):
        calls.append(args[1])
        return check(*args)

    monkeypatch.setattr(feasibility, "offloaded_mbs_load", counted)
    assert main(["run", "--config", str(small_config), "--method", method,
                 "--out", str(tmp_path / "out")]) == 0
    assert calls == list(range(36))


@pytest.mark.parametrize("method", ["dtype", "sa"])
def test_run_mbs_load_is_the_canonical_check(small_config, tmp_path, method):
    out = tmp_path / "out"
    assert main(["run", "--config", str(small_config), "--method", method,
                 "--out", str(out)]) == 0
    scenario = build_scenario(load_config(small_config))
    _, revenue = read_rows(out / "revenue_per_slot.csv")
    _, switches = read_rows(out / "switch_per_slot.csv")
    for (t, bits), row in zip(switches, revenue):
        switch = SwitchVector(gamma=tuple(c == "1" for c in bits))
        report = is_feasible(scenario, int(t), switch)
        assert float(row[4]).hex() == report.mbs_load_after.hex()
        assert row[5] == ("true" if report.feasible else "false")


def test_market_expenditure_is_the_canonical_leasing_sum(small_config, tmp_path):
    out = tmp_path / "market"
    assert main(["market", "--config", str(small_config), "--out", str(out)]) == 0
    scenario = build_scenario(load_config(small_config))
    _, rows = read_rows(out / "market.csv")
    for row in rows:
        result = solve_day(scenario, row[0], SaParams(rng_seed=0))
        spent = math.fsum(
            leasing_revenue_slot(scenario, t, switch)
            for t, switch in enumerate(result.per_slot_switch)
        )
        assert float(row[1]).hex() == spent.hex()


def test_run_is_deterministic(small_config, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", str(small_config), "--method", "sa",
                     "--seed", "5", "--out", str(out)]) == 0
        outs.append(out)
    for csv_name in ("revenue_per_slot.csv", "switch_per_slot.csv"):
        assert (outs[0] / csv_name).read_bytes() == (outs[1] / csv_name).read_bytes()


def test_seed_changes_the_scenario(small_config, tmp_path):
    contents = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        main(["run", "--config", str(small_config), "--seed", seed, "--out", str(out)])
        contents.append((out / "revenue_per_slot.csv").read_bytes())
    assert contents[0] != contents[1]


def test_out_dir_from_environment(small_config, tmp_path, monkeypatch):
    out = tmp_path / "from_env"
    monkeypatch.setenv("HETLEASE_OUT", str(out))
    assert main(["run", "--config", str(small_config), "--method", "dtype"]) == 0
    assert (out / "revenue_per_slot.csv").exists()


def test_compare_orders_methods_and_keeps_es_on_top(small_config, tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(small_config),
                 "--methods", "es", "sa", "atype",
                 "--seed", "0", "--out", str(out)]) == 0

    header, rows = read_rows(out / "compare_revenue.csv")
    assert header[:4] == ["slot", "hour", "mbs_load", "sn_demand_total"]
    for name in ("es", "sa", "atype"):
        assert f"{name}_total" in header
        assert (out / f"switch_per_slot_{name}.csv").exists()

    es_col = header.index("es_total")
    sa_col = header.index("sa_total")
    a_col = header.index("atype_total")
    for row in rows:
        assert float(row[es_col]) >= float(row[sa_col])
        assert float(row[es_col]) >= float(row[a_col])

    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["methods"]) == {"es", "sa", "atype"}


def test_compare_single_method_matches_run(small_config, tmp_path):
    cmp_out, run_out = tmp_path / "cmp", tmp_path / "run"
    main(["compare", "--config", str(small_config), "--methods", "es",
          "--seed", "0", "--out", str(cmp_out)])
    main(["run", "--config", str(small_config), "--method", "es",
          "--seed", "0", "--out", str(run_out)])
    cmp_header, cmp_rows = read_rows(cmp_out / "compare_revenue.csv")
    _, run_rows = read_rows(run_out / "revenue_per_slot.csv")
    col = cmp_header.index("es_total")
    assert [row[col] for row in cmp_rows] == [row[3] for row in run_rows]


def test_bench_records_every_size_method_pair(tmp_path):
    out = tmp_path / "bench"
    assert main(["bench", "--n", "2", "3", "--methods", "es", "sa",
                 "--out", str(out)]) == 0
    header, rows = read_rows(out / "bench.csv")
    assert header == ["method", "n_sbs", "runtime_ns", "evaluations", "daily_revenue"]
    assert [(row[0], row[1]) for row in rows] == [
        ("es", "2"), ("sa", "2"), ("es", "3"), ("sa", "3")
    ]
    es2 = next(row for row in rows if row[0] == "es" and row[1] == "2")
    assert int(es2[3]) == 144 * 4
    assert not (out / "bench_notes.txt").exists()


def test_bench_refuses_oversized_enumeration(tmp_path, caplog):
    out = tmp_path / "bench"
    assert main(["bench", "--n", "4", "--methods", "es", "sa",
                 "--es-limit", "3", "--out", str(out)]) == 0
    _, rows = read_rows(out / "bench.csv")
    assert [(row[0], row[1]) for row in rows] == [("sa", "4")]
    notes = (out / "bench_notes.txt").read_text()
    assert "es refused at n_sbs=4" in notes


def test_market_reports_both_solvers(small_config, tmp_path):
    out = tmp_path / "market"
    assert main(["market", "--config", str(small_config), "--seed", "0",
                 "--out", str(out)]) == 0
    header, rows = read_rows(out / "market.csv")
    assert header == ["method", "expenditure", "rbs_leased", "avg_unit_cost"]
    assert [row[0] for row in rows] == ["sa", "es"]
    for row in rows:
        spent, leased = float(row[1]), int(row[2])
        assert leased > 0
        assert float(row[3]) == pytest.approx(spent / leased, rel=1e-12)


def test_market_with_no_demand_leaves_unit_cost_empty(tmp_path):
    config = validate_config(
        {
            "grid": {"horizon_min": 120, "slot_min": 10},
            "stations": [{"kind": "macro"}, {"kind": "micro"}],
            "traffic": {"seed": 2, "scale": [0.5, 0.5]},
            "demand": {"beta": 0.0},
        }
    )
    path = tmp_path / "zero.yaml"
    save_config(config, path)
    out = tmp_path / "market"
    assert main(["market", "--config", str(path), "--out", str(out)]) == 0
    _, rows = read_rows(out / "market.csv")
    for row in rows:
        assert float(row[1]) == 0.0
        assert row[2] == "0"
        assert row[3] == ""


def test_unknown_method_is_an_error(small_config, tmp_path, capsys):
    code = main(["run", "--config", str(small_config), "--method", "downhill",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "unknown method" in capsys.readouterr().err


@pytest.mark.parametrize(
    "yaml_text,key",
    [
        ("traffic: {scale: 5}", "traffic.scale"),
        ("traffic: {seed: -5}", "traffic.seed"),
        ("grid: {slot_min: ten}", "grid.slot_min"),
        ("stations: [{kind: macro}, {kind: micro, p_o: x}]", "p_o"),
        ("demand: {beta: null}", "demand.beta"),
        (
            "pricing: {policy: dynamic, electricity_profile: [1.0, x]}",
            "pricing.electricity_profile[1]",
        ),
        ("pricing: {electricity_profile: 5}", "pricing.electricity_profile"),
        (
            "traffic: {source: csv, csv_path: a.csv, assignment: {7: x}}",
            "traffic.assignment[7]",
        ),
        (
            "traffic: {source: csv, csv_path: a.csv, assignment: [7, 0]}",
            "traffic.assignment",
        ),
        ("stations: [{kind: macro, p_o: .nan}]", "p_o"),
        ("stations: [{kind: macro, zeta: .inf}]", "zeta"),
        ("stations: [{kind: macro, p_tx: .nan}]", "p_tx"),
        ("stations: [{kind: macro}, {kind: micro, p_o: .nan}]", "p_o"),
        ("stations: [{kind: macro}, {kind: micro, zeta: .inf}]", "zeta"),
        ("stations: [{kind: macro}, {kind: micro, p_tx: .nan}]", "p_tx"),
        ("stations: [{kind: macro, bandwidth_mhz: .nan}]", "bandwidth_mhz"),
        ("stations: [{kind: macro}, {kind: micro, bandwidth_mhz: .inf}]", "bandwidth_mhz"),
        pytest.param(
            f"pricing: {{fixed_electricity: {HUGE}}}", "pricing.fixed_electricity",
            id="huge-fixed_electricity",
        ),
        pytest.param(
            f"mbs_capacity_limit: {HUGE}", "mbs_capacity_limit", id="huge-capacity"
        ),
        pytest.param(f"demand: {{beta: {HUGE}}}", "demand.beta", id="huge-beta"),
        pytest.param(
            f"stations: [{{kind: macro}}, {{kind: micro, rb_capacity: {HUGE}}}]",
            "rb_capacity",
            id="huge-rb_capacity",
        ),
        pytest.param(
            f"pricing: {{policy: dynamic, electricity_profile: [1.0, {HUGE}]}}",
            "pricing.electricity_profile[1]",
            id="huge-profile-entry",
        ),
    ],
)
def test_mistyped_config_value_is_a_one_line_error(tmp_path, capsys, yaml_text, key):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml_text + "\n")
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert key in err[0]


def test_negative_seed_option_is_a_one_line_error(small_config, tmp_path, capsys):
    code = main(["run", "--config", str(small_config), "--seed", "-1",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: traffic.seed must be non-negative, got -1"]


def test_malformed_yaml_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("traffic: {seed: [1,\n")
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {path}: invalid YAML")
    assert "line 2" in err[0]


def test_non_utf8_yaml_error_names_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes("traffic: {seed: 3}\n# caf\u00e9\n".encode("latin-1"))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {path}: not UTF-8 text (invalid continuation byte)"]


@pytest.mark.parametrize(
    "case", ["config-dir", "profile-dir", "out-file", "out-under-file"]
)
def test_path_errors_are_one_line_errors(small_config, tmp_path, capsys, case):
    a_dir = tmp_path / "a_dir"
    a_dir.mkdir()
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    config, out = str(small_config), tmp_path / "out"
    if case == "config-dir":
        config = str(a_dir)
    elif case == "profile-dir":
        config = tmp_path / "profile.yaml"
        config.write_text(
            f"pricing: {{policy: dynamic, electricity_profile: {a_dir}}}\n"
        )
    elif case == "out-file":
        out = a_file
    else:
        out = a_file / "sub"
    code = main(["run", "--config", str(config), "--method", "dtype",
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert ("a_dir" if "dir" in case else "a_file") in err[0]


@pytest.mark.parametrize("method", ["sa", "es", "atype", "dtype"])
def test_macro_only_network_runs(tmp_path, method):
    path = tmp_path / "macro.yaml"
    path.write_text("grid: {horizon_min: 60, slot_min: 10}\nstations: [{kind: macro}]\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--method", method, "--out", str(out)]) == 0
    _, rows = read_rows(out / "switch_per_slot.csv")
    assert [row[1] for row in rows] == ["1"] * 6
    _, revenue = read_rows(out / "revenue_per_slot.csv")
    assert all(float(row[3]) == 0.0 and row[5] == "true" for row in revenue)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["num_sbs"] == 0
    assert summary["daily_total"] == 0.0
