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
from itertools import groupby
from operator import itemgetter
from pathlib import Path

from .metrics import _write_csv, runtime_scaling, write_bench_csv
from .model import ConfigError, Scenario, SolverResult
from .scenario import CsvFormatError, build_scenario, load_config
from .solvers import ES_MAX_SBS, Method, SaParams, check_es_size, solve_day

logger = logging.getLogger(__name__)

OUT_DIR_ENV = "HETLEASE_OUT"
DEFAULT_OUT = "hetlease_out"


def _fmt(value: float) -> str:
    # repr keeps full precision and round-trips bit-exactly
    return repr(float(value))


def _resolve_out(arg_out: str | None) -> Path:
    out = arg_out or os.environ.get(OUT_DIR_ENV) or DEFAULT_OUT
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, data: dict) -> None:
    # strict JSON, serialized first: a non-finite value leaves no file
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _write_switches(path: Path, result: SolverResult) -> None:
    _write_csv(
        path, ["slot", "switch"],
        [[t, switch.bitstring()] for t, switch in enumerate(result.per_slot_switch)],
    )


def _day_totals(result: SolverResult) -> dict:
    return {
        "daily_energy": result.daily.energy,
        "daily_leasing": result.daily.leasing,
        "daily_total": result.daily.total,
        "evaluations": result.evaluations,
        "runtime_ns": result.runtime_ns,
    }


def _scenario(args) -> Scenario:
    config = load_config(args.config)
    if args.seed is not None:
        config["traffic"]["seed"] = args.seed
    # build_scenario validates again: that second check is the one that
    # rejects a negative --seed
    return build_scenario(config)


def _sa_params(args) -> SaParams:
    return SaParams(rng_seed=args.seed if args.seed is not None else 0)


def cmd_run(args) -> int:
    scenario = _scenario(args)
    result = solve_day(scenario, Method.from_str(args.method), _sa_params(args))
    out = _resolve_out(args.out)
    files = [out / "revenue_per_slot.csv", out / "switch_per_slot.csv", out / "summary.json"]
    _write_csv(
        files[0],
        ["slot", "energy", "leasing", "total", "mbs_load", "feasible"],
        [
            [t, _fmt(revenue.energy), _fmt(revenue.leasing), _fmt(revenue.total),
             _fmt(report.mbs_load_after), "true" if report.feasible else "false"]
            for t, (revenue, report) in enumerate(
                zip(result.per_slot_revenue, result.per_slot_report)
            )
        ],
    )
    _write_switches(files[1], result)
    _write_json(
        files[2],
        {
            "method": result.method,
            "seed": scenario.config["traffic"]["seed"],
            "num_slots": scenario.num_slots,
            "num_sbs": scenario.num_sbs,
            **_day_totals(result),
        },
    )
    logger.info("wrote %s", ", ".join(str(f) for f in files))
    return 0


def cmd_compare(args) -> int:
    scenario = _scenario(args)
    methods = [Method.from_str(m) for m in args.methods]
    params = _sa_params(args)
    results = {m.value: solve_day(scenario, m, params) for m in methods}
    out = _resolve_out(args.out)

    # each slot is labelled with the hour it starts in; an hour's revenue
    # sums every slot that starts in it
    hours = [t * scenario.grid.slot_min // 60 for t in range(scenario.num_slots)]
    header = ["slot", "hour", "mbs_load", "sn_demand_total"]
    columns = []
    for name, result in results.items():
        header += [f"{name}_total", f"{name}_hourly"]
        totals = [revenue.total for revenue in result.per_slot_revenue]
        hourly = []
        for _, group in groupby(zip(hours, totals), key=itemgetter(0)):
            same_hour = [total for _, total in group]
            hourly += [math.fsum(same_hour)] * len(same_hour)
        columns += [totals, hourly]
    sbs = range(1, scenario.num_sbs + 1)
    rows = [
        [t, hour, _fmt(scenario.load(0, t)), sum(scenario.demand(j, t) for j in sbs),
         *map(_fmt, values)]
        for t, (hour, *values) in enumerate(zip(hours, *columns))
    ]
    _write_csv(out / "compare_revenue.csv", header, rows)
    for name, result in results.items():
        _write_switches(out / f"switch_per_slot_{name}.csv", result)
    _write_json(
        out / "summary.json",
        {
            "methods": {name: _day_totals(result) for name, result in results.items()},
            "seed": scenario.config["traffic"]["seed"],
        },
    )
    logger.info("wrote compare outputs to %s", out)
    return 0


def cmd_bench(args) -> int:
    methods = [Method.from_str(m) for m in args.methods]
    for n in args.n:
        if n < 1:
            raise ConfigError(f"benchmark size must be >= 1, got {n}")
    notes = []
    records = []
    for n in args.n:
        run = [m for m in methods if m is not Method.ES or n <= ES_MAX_SBS]
        if len(run) < len(methods):
            note = (
                f"es refused at n_sbs={n}: enumeration limited to "
                f"{ES_MAX_SBS} SBSs (2^{n} states per slot)"
            )
            notes += [note] * (len(methods) - len(run))
            logger.warning(note)
        if run:
            # one scenario per size, shared by its methods
            records.extend(runtime_scaling([n], run, args.seed))
    out = _resolve_out(args.out)
    write_bench_csv(records, out / "bench.csv")
    if notes:
        (out / "bench_notes.txt").write_text("\n".join(notes) + "\n", encoding="utf-8")
    logger.info("wrote %d benchmark records to %s", len(records), out / "bench.csv")
    return 0


def cmd_market(args) -> int:
    scenario = _scenario(args)
    params = _sa_params(args)
    check_es_size(scenario.num_sbs)  # before the sa day, which es would follow
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
        rows.append([method.value, _fmt(expenditure), leased, unit_cost])

    out = _resolve_out(args.out)
    _write_csv(out / "market.csv", ["method", "expenditure", "rbs_leased", "avg_unit_cost"], rows)
    logger.info("wrote %s", out / "market.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetlease",
        description="Cell-switching and spectrum-leasing revenue optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario YAML")
        p.add_argument("--seed", type=int, default=None, help="override traffic/search seed")
        p.add_argument("--out", default=None, help=f"output dir (or ${OUT_DIR_ENV})")

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
