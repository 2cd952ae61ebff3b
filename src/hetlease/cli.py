"""Command-line entry point.

Four subcommands tie the library together and emit plot-ready CSVs:

* ``run``     - solve one scenario with one method, dump per-slot results
* ``compare`` - per-slot revenue of several methods side by side
* ``bench``   - runtime/evaluation scaling across network sizes
* ``market``  - secondary-network spend, leased blocks, and unit cost

Every CSV is deterministic for a fixed (config, seed); wall-clock times
only appear in the JSON summaries.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

from .metrics import runtime_scaling, write_bench_csv
from .model import ConfigError, Scenario, SolverResult
from .scenario import CsvFormatError, build_scenario, load_config
from .solvers import ES_MAX_SBS, Method, SaParams, solve_day

logger = logging.getLogger(__name__)

OUT_DIR_ENV = "HETLEASE_OUT"
DEFAULT_OUT = "hetlease_out"
DEFAULT_BENCH_ES_LIMIT = 20


def _fmt(value: float) -> str:
    # repr keeps full precision and round-trips bit-exactly
    return repr(float(value))


def _resolve_out(arg_out: str | None) -> Path:
    out = arg_out or os.environ.get(OUT_DIR_ENV) or DEFAULT_OUT
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_lines(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _apply_overrides(config: dict, args) -> dict:
    if args.seed is not None:
        config["traffic"]["seed"] = args.seed
    if args.pricing:
        config["pricing"]["policy"] = args.pricing
    if args.demand:
        config["demand"]["mode"] = args.demand
    if args.offload_mode:
        config["offload_mode"] = args.offload_mode
    return config


def _scenario(args) -> Scenario:
    config = _apply_overrides(load_config(args.config), args)
    # build_scenario validates again: that second check is the one that
    # rejects a bad override, such as a negative --seed
    return build_scenario(config)


def _sa_params(args) -> SaParams:
    return SaParams(rng_seed=args.seed if args.seed is not None else 0)


def _write_run_outputs(out: Path, scenario: Scenario, result: SolverResult) -> list[Path]:
    revenue_rows = []
    switch_rows = []
    for t, (switch, revenue, report) in enumerate(
        zip(result.per_slot_switch, result.per_slot_revenue, result.per_slot_report)
    ):
        revenue_rows.append(
            [
                str(t),
                _fmt(revenue.energy),
                _fmt(revenue.leasing),
                _fmt(revenue.total),
                _fmt(report.mbs_load_after),
                "true" if report.feasible else "false",
            ]
        )
        switch_rows.append([str(t), switch.bitstring()])

    revenue_path = out / "revenue_per_slot.csv"
    switch_path = out / "switch_per_slot.csv"
    summary_path = out / "summary.json"
    _write_lines(
        revenue_path,
        ["slot", "energy", "leasing", "total", "mbs_load", "feasible"],
        revenue_rows,
    )
    _write_lines(switch_path, ["slot", "switch"], switch_rows)
    summary = {
        "method": result.method,
        "seed": scenario.config["traffic"]["seed"],
        "num_slots": scenario.num_slots,
        "num_sbs": scenario.num_sbs,
        "daily_energy": result.daily.energy,
        "daily_leasing": result.daily.leasing,
        "daily_total": result.daily.total,
        "evaluations": result.evaluations,
        "runtime_ns": result.runtime_ns,
    }
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [revenue_path, switch_path, summary_path]


def cmd_run(args) -> int:
    scenario = _scenario(args)
    result = solve_day(scenario, Method.from_str(args.method), _sa_params(args))
    out = _resolve_out(args.out)
    files = _write_run_outputs(out, scenario, result)
    logger.info("wrote %s", ", ".join(str(f) for f in files))
    return 0


def cmd_compare(args) -> int:
    scenario = _scenario(args)
    methods = [Method.from_str(m) for m in args.methods]
    params = _sa_params(args)
    results = {m.value: solve_day(scenario, m, params) for m in methods}
    out = _resolve_out(args.out)

    slots_per_hour = max(1, 60 // scenario.grid.slot_min)
    hourly: dict[str, list[float]] = {}
    for name, result in results.items():
        totals = [r.total for r in result.per_slot_revenue]
        hourly[name] = [
            math.fsum(totals[h : h + slots_per_hour])
            for h in range(0, scenario.num_slots, slots_per_hour)
        ]

    header = ["slot", "hour", "mbs_load", "sn_demand_total"]
    for name in results:
        header += [f"{name}_total", f"{name}_hourly"]
    rows = []
    for t in range(scenario.num_slots):
        hour = t // slots_per_hour
        demand_total = sum(
            scenario.demand(j, t) for j in range(1, scenario.num_sbs + 1)
        )
        row = [str(t), str(hour), _fmt(scenario.load(0, t)), str(demand_total)]
        for name, result in results.items():
            row.append(_fmt(result.per_slot_revenue[t].total))
            row.append(_fmt(hourly[name][hour]))
        rows.append(row)
    _write_lines(out / "compare_revenue.csv", header, rows)

    for name, result in results.items():
        _write_lines(
            out / f"switch_per_slot_{name}.csv",
            ["slot", "switch"],
            [
                [str(t), result.per_slot_switch[t].bitstring()]
                for t in range(scenario.num_slots)
            ],
        )

    summary = {
        "methods": {
            name: {
                "daily_total": res.daily.total,
                "daily_energy": res.daily.energy,
                "daily_leasing": res.daily.leasing,
                "evaluations": res.evaluations,
                "runtime_ns": res.runtime_ns,
            }
            for name, res in results.items()
        },
        "seed": scenario.config["traffic"]["seed"],
    }
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    logger.info("wrote compare outputs to %s", out)
    return 0


def cmd_bench(args) -> int:
    out = _resolve_out(args.out)
    es_limit = min(args.es_limit, ES_MAX_SBS)
    methods = [Method.from_str(m) for m in args.methods]
    notes = []
    records = []
    for n in args.n:
        if n < 1:
            raise ConfigError(f"benchmark size must be >= 1, got {n}")
        run = [m for m in methods if m is not Method.ES or n <= es_limit]
        if len(run) < len(methods):
            note = (
                f"es refused at n_sbs={n}: enumeration limited to "
                f"{es_limit} SBSs (2^{n} states per slot)"
            )
            notes += [note] * (len(methods) - len(run))
            logger.warning(note)
        if run:
            # one scenario per size, shared by its methods
            records.extend(runtime_scaling([n], run, args.seed))
    write_bench_csv(records, out / "bench.csv")
    if notes:
        with open(out / "bench_notes.txt", "w", encoding="utf-8") as fh:
            fh.write("\n".join(notes) + "\n")
    logger.info("wrote %d benchmark records to %s", len(records), out / "bench.csv")
    return 0


def cmd_market(args) -> int:
    scenario = _scenario(args)
    params = _sa_params(args)
    out = _resolve_out(args.out)

    rows = []
    for method in (Method.SA, Method.ES):
        result = solve_day(scenario, method, params)
        leased = sum(
            scenario.demand(j, t)
            for t, switch in enumerate(result.per_slot_switch)
            for j in switch.off_indices()
        )
        expenditure = result.daily.leasing
        unit_cost = _fmt(expenditure / leased) if leased else ""
        rows.append([method.value, _fmt(expenditure), str(leased), unit_cost])

    _write_lines(
        out / "market.csv",
        ["method", "expenditure", "rbs_leased", "avg_unit_cost"],
        rows,
    )
    logger.info("wrote %s", out / "market.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetlease",
        description="Cell-switching and spectrum-leasing revenue optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="scenario YAML")
        p.add_argument("--seed", type=int, default=None, help="override traffic/search seed")
        p.add_argument("--out", default=None, help=f"output dir (or ${OUT_DIR_ENV})")
        p.add_argument(
            "--pricing", choices=["fixed", "dynamic"], default=None,
            help="override pricing policy",
        )
        p.add_argument(
            "--demand", choices=["ndt", "dt"], default=None,
            help="override demand mode",
        )
        p.add_argument(
            "--offload-mode", choices=["direct", "capacity_scaled"], default=None,
            help="override offload accounting",
        )

    p_run = sub.add_parser("run", help="solve one scenario with one method")
    common(p_run)
    p_run.add_argument("--method", default="sa", help="sa | es | atype | dtype")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several methods side by side")
    common(p_cmp)
    p_cmp.add_argument(
        "--methods", nargs="+", default=["es", "sa", "atype", "dtype"],
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_bench = sub.add_parser("bench", help="runtime scaling across network sizes")
    p_bench.add_argument("--n", nargs="+", type=int, default=[4, 8, 12, 16])
    p_bench.add_argument("--methods", nargs="+", default=["es", "sa"])
    p_bench.add_argument("--seed", type=int, default=7)
    p_bench.add_argument("--out", default=None)
    p_bench.add_argument(
        "--es-limit", type=int, default=DEFAULT_BENCH_ES_LIMIT,
        help=f"largest network exhaustive search will attempt (hard cap {ES_MAX_SBS})",
    )
    p_bench.set_defaults(func=cmd_bench)

    p_mkt = sub.add_parser("market", help="secondary-network market report (sa + es)")
    common(p_mkt)
    p_mkt.set_defaults(func=cmd_market)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CsvFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
