import json
import math
import re
import warnings

import pytest

from hetlease import (
    SaParams,
    SwitchVector,
    bench_config,
    build_scenario,
    is_feasible,
    leasing_revenue_slot,
    load_config,
    reference_config,
    save_config,
    solve_day,
    validate_config,
)
from hetlease import cli, feasibility
from hetlease.cli import _write_json, main

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
        off = [j for j, c in enumerate(bits) if c == "0"]
        switch = SwitchVector.from_off_indices(off, len(bits) - 1)
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
    assert (cmp_out / "switch_per_slot_es.csv").read_bytes() == (
        run_out / "switch_per_slot.csv"
    ).read_bytes()
    cmp_es = json.loads((cmp_out / "summary.json").read_text())["methods"]["es"]
    run_summary = json.loads((run_out / "summary.json").read_text())
    for key in ("daily_energy", "daily_leasing", "daily_total", "evaluations"):
        assert cmp_es[key] == run_summary[key], key


def test_every_csv_ends_its_lines_in_newline(small_config, tmp_path):
    config = ["--config", str(small_config)]
    commands = {
        "run": ["run", *config, "--method", "dtype"],
        "compare": ["compare", *config, "--methods", "dtype", "atype"],
        "market": ["market", *config],
        "bench": ["bench", "--n", "2", "--methods", "es", "dtype"],
    }
    written = []
    for name, argv in commands.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
        written += sorted((tmp_path / name).glob("*.csv"))
    assert {path.parent.name for path in written} == set(commands)
    for path in written:
        data = path.read_bytes()
        assert b"\r" not in data, path
        assert data.endswith(b"\n"), path


@pytest.mark.parametrize("slot_min", [45, 120])
def test_compare_labels_each_slot_with_its_start_hour(small_config, tmp_path, slot_min):
    config = load_config(small_config)
    config["grid"] = {"horizon_min": 1440, "slot_min": slot_min}
    path = tmp_path / "grid.yaml"
    save_config(config, path)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(path), "--methods", "dtype",
                 "--out", str(out)]) == 0
    header, rows = read_rows(out / "compare_revenue.csv")
    total, hourly = header.index("dtype_total"), header.index("dtype_hourly")
    assert len(rows) == 1440 // slot_min
    assert [int(row[1]) for row in rows] == [t * slot_min // 60 for t in range(len(rows))]
    for row in rows:
        same_hour = [float(r[total]) for r in rows if r[1] == row[1]]
        assert float(row[hourly]).hex() == math.fsum(same_hour).hex()


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
    # ES_MAX_SBS is 24: the solver's own cap is bench's one limit
    out = tmp_path / "bench"
    assert main(["bench", "--n", "25", "--methods", "es", "dtype",
                 "--out", str(out)]) == 0
    _, rows = read_rows(out / "bench.csv")
    assert [(row[0], row[1]) for row in rows] == [("dtype", "25")]
    notes = (out / "bench_notes.txt").read_text()
    assert "es refused at n_sbs=25" in notes


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


def test_market_refuses_an_oversized_network_before_solving(tmp_path, capsys, monkeypatch):
    path = tmp_path / "big.yaml"
    save_config(bench_config(25), path)

    def no_solve(*args):
        raise AssertionError("market solved a day it then refuses")

    monkeypatch.setattr(cli, "solve_day", no_solve)
    out = tmp_path / "market"
    assert main(["market", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: 25 SBSs means 2^25 states; enumeration is capped at 24 SBSs"]
    assert not out.exists()


def test_bench_checks_every_size_before_solving(tmp_path, capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("bench solved a size before rejecting another")

    monkeypatch.setattr(cli, "runtime_scaling", no_solve)
    out = tmp_path / "bench"
    assert main(["bench", "--n", "2", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: benchmark size must be >= 1, got 0"]
    assert not out.exists()


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
        (
            "traffic: {source: csv, csv_path: [a], assignment: {1: 0}}",
            "traffic.csv_path",
        ),
        # an integer path would be opened as a file descriptor: no process
        # has this one open
        (
            "traffic: {source: csv, csv_path: 987654, assignment: {1: 0}}",
            "traffic.csv_path",
        ),
        ("stations: [{kind: macro, p_o: .nan}]", "p_o"),
        ("stations: [{kind: macro, zeta: .inf}]", "zeta"),
        ("stations: [{kind: macro, p_tx: .nan}]", "p_tx"),
        ("stations: [{kind: macro}, {kind: micro, p_o: .nan}]", "p_o"),
        ("stations: [{kind: macro}, {kind: micro, zeta: .inf}]", "zeta"),
        ("stations: [{kind: macro}, {kind: micro, p_tx: .nan}]", "p_tx"),
        (
            "stations: [{kind: macro, bandwidth_mhz: 20}]",
            "unknown config key stations[0].bandwidth_mhz",
        ),
        ("pricing: {policy: dynamic, spectrum_m_max: .inf}", "pricing.spectrum_m_max"),
        ("pricing: {spectrum_m_min: .nan}", "pricing.spectrum_m_min"),
        ("offload_mode: foo", "unknown offload_mode 'foo'"),
        ("pricing: {fixed_electricity: .nan}", "pricing.fixed_electricity must be finite"),
        ("pricing: {fixed_spectrum: .inf}", "pricing.fixed_spectrum must be finite"),
        (
            "stations: [{kind: macro}, {kind: rrh}, {kind: rrh, p_sleep: 500}]",
            "stations[2].p_sleep must be null for the macro cell and below stations[2].p_o "
            "otherwise, got p_sleep=500, p_o=84.0",
        ),
        ("stations: [{kind: macro}, {kind: rrh, rb_capacity: 0}]", "stations[1].rb_capacity"),
        ("stations: [{kind: macro}, {kind: rrh, p_o: -1}]", "stations[1].p_o"),
        ("mbs_capacity_limit: .nan", "mbs_capacity_limit must be finite, got nan"),
        ("demand: {beta: 1.5}", "demand.beta must lie in [0, 1], got 1.5"),
        ("demand: {mode: foo}", "unknown demand.mode 'foo', expected one of 'ndt', 'dt'"),
        ("grid: {horizon_min: 0}", "grid.horizon_min must be positive, got 0"),
        ("grid: {slot_min: 7}", "grid.horizon_min 1440 is not a multiple of grid.slot_min 7"),
        ("traffic: {scale: [.nan]}", "traffic.scale[0] must be finite, got nan"),
        (
            "traffic: {source: foo}",
            "unknown traffic.source 'foo', expected one of 'synthetic', 'csv'",
        ),
        (
            "pricing: {policy: foo}",
            "unknown pricing.policy 'foo', expected one of 'fixed', 'dynamic'",
        ),
        (
            "pricing: {spectrum_m_min: 2, spectrum_m_max: 1}",
            "pricing.spectrum_m_min 2 exceeds pricing.spectrum_m_max 1",
        ),
        ("pricing: {fixed_electricity: 0}", "pricing.fixed_electricity must be positive, got 0"),
        (
            "pricing: {policy: dynamic, electricity_profile: [1.0]}",
            "pricing.electricity_profile has 1 slots, grid has 144",
        ),
        (
            "pricing: {policy: fixed, electricity_profile: [2.0]}",
            "got pricing.electricity_profile[0] = 2.0",
        ),
        # no formula reads a macro cell's sleep power
        ("stations: [{kind: macro, p_sleep: 3}]", "stations[0].p_sleep"),
        ("stations: [{kind: rrh}]", "stations[0].kind must be 'macro', got 'rrh'"),
        ("stations: [{kind: macro}, {kind: macro}]", "stations[1].kind"),
        (
            "traffic: {source: csv, csv_path: a.csv}",
            "traffic.source csv needs traffic.csv_path and traffic.assignment",
        ),
        ("grid: 5", "grid must be a mapping, got 5"),
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
        # 2^70 is a finite double, but no int64 demand count
        pytest.param(
            "stations: [{kind: macro}, {kind: micro, rb_capacity: 1180591620717411303424}]",
            "stations[1].rb_capacity must lie in (0, 2^53], got 1180591620717411303424",
            id="2^70-rb_capacity",
        ),
        pytest.param(
            "mbs_capacity_limit: 0.5",
            "mbs_capacity_limit 0.5 is below the macro's peak load 1.0, which is "
            "traffic.scale[0]",
            id="limit-below-macro-peak",
        ),
        # refused before the CSV is opened: a.csv does not exist
        pytest.param(
            "traffic: {source: csv, csv_path: a.csv, assignment: {1: 5}}",
            "traffic.assignment[1] names station 5, but there is 1 station",
            id="assignment-to-unknown-station",
        ),
        pytest.param(
            "stations: [{kind: macro}, {kind: micro}]\n"
            "traffic: {source: csv, csv_path: a.csv, assignment: {1: 0}}",
            "traffic.assignment assigns no grid to stations [1]",
            id="station-without-grid",
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


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--pricing", "dynamic"],
        ["compare", "--demand", "dt"],
        ["market", "--offload-mode", "direct"],
        ["bench", "--es-limit", "3"],
    ],
    ids=lambda argv: argv[1],
)
def test_option_that_shadows_a_setting_is_unknown(small_config, tmp_path, capsys, argv):
    # pricing, demand and offload mode are config keys; es's cap is ES_MAX_SBS
    command, *option = argv
    if command != "bench":
        option += ["--config", str(small_config)]
    with pytest.raises(SystemExit) as exc:
        main([command, *option, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method", ["dtype", "sa", "es"])
def test_price_that_overflows_a_slot_is_a_one_line_error(tmp_path, capsys, method):
    config = reference_config()
    config["pricing"]["fixed_spectrum"] = 1e307
    path = tmp_path / "dear.yaml"
    save_config(config, path)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--config", str(path), "--method", method, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"error: slot \d+: .* not finite", err[0])
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["run", "--method", "dtype"], ["run", "--method", "sa"], ["run", "--method", "es"],
     ["compare", "--methods", "dtype", "atype"]],
    ids=["run-dtype", "run-sa", "run-es", "compare"],
)
def test_day_that_overflows_is_a_one_line_error(tmp_path, capsys, argv):
    # every slot's revenue is finite, but the day's leasing sum is not
    config = reference_config()
    config["pricing"]["fixed_spectrum"] = 1e305
    path = tmp_path / "dear.yaml"
    save_config(config, path)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--config", str(path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: daily leasing revenue overflows a double"]
    assert not out.exists()


def test_summary_is_strict_json(tmp_path):
    path = tmp_path / "summary.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        _write_json(path, {"daily_total": math.inf})
    assert not path.exists()


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


def test_subnormal_prices_solve_with_every_method(tmp_path):
    # the annealer's temperatures, in units of the weights, underflow to 0
    config = reference_config()
    config["pricing"].update(fixed_electricity=3.0e-320, fixed_spectrum=5.0e-324)
    path = tmp_path / "tiny.yaml"
    save_config(config, path)
    totals = {}
    for method in ("es", "sa", "dtype"):
        out = tmp_path / method
        assert main(["run", "--config", str(path), "--method", method, "--out", str(out)]) == 0
        totals[method] = json.loads((out / "summary.json").read_text())["daily_total"]
    assert totals["es"] >= totals["sa"] and totals["es"] >= totals["dtype"]
