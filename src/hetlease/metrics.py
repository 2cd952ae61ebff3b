"""Evaluation metrics and the runtime-scaling benchmark.

Throughput here is aggregate served demand: whatever a sleeping SBS
would have served is served by the macro cell instead, so any feasible
switch vector serves exactly the traffic offered.  The benchmark
measures how exhaustive search and annealing scale with network size,
in exact evaluation counts and in wall time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .feasibility import is_feasible
from .model import InfeasibleSwitchError, Scenario, SwitchVector
from .scenario import bench_scenario
from .solvers import Method, SaParams, solve_day


def network_throughput(scenario: Scenario, slot: int, switch: SwitchVector) -> float:
    """Total served load in one slot under a feasible switch vector.

    Sums the macro cell's own load, the loads it absorbs from sleeping
    SBSs (counted in source units), and the loads of active SBSs.  The
    compensated sum makes the result bit-identical for every feasible
    switch, since the addend multiset never changes.
    """
    report = is_feasible(scenario, slot, switch)
    if not report.feasible:
        raise InfeasibleSwitchError(
            f"throughput undefined: switch violates QoS in slot {slot}"
        )
    served_by_macro = [scenario.load(0, slot)]
    served_locally = []
    for j in range(1, scenario.num_sbs + 1):
        if switch.is_on(j):
            served_locally.append(scenario.load(j, slot))
        else:
            # sleeping cell: its users ride on the macro carrier
            served_by_macro.append(scenario.load(j, slot))
    return math.fsum(served_by_macro + served_locally)


def throughput_invariance_report(
    variants: Mapping[str, Scenario] | Sequence[Scenario],
    method: Method | str,
    params: SaParams | None = None,
) -> tuple[bool, list[dict]]:
    """Check that per-slot throughput is identical across scenario variants.

    The variants must share primary-network traffic (they may differ in
    prices and secondary demand).  Each variant is solved with the given
    method; the report lists per-slot throughput per variant and whether
    all values in the row match exactly.
    """
    if isinstance(variants, Mapping):
        named = list(variants.items())
    else:
        named = [(f"variant{i}", scn) for i, scn in enumerate(variants)]
    if len(named) < 2:
        raise ValueError("need at least two variants to compare")
    first = named[0][1]
    for name, scn in named[1:]:
        if scn.num_sbs != first.num_sbs or scn.num_slots != first.num_slots:
            raise ValueError(f"variant {name!r} has a different network shape")
        for i in range(scn.num_sbs + 1):
            if not np.array_equal(scn.traffic[i].values, first.traffic[i].values):
                raise ValueError(
                    f"variant {name!r} does not share primary traffic (station {i})"
                )

    per_variant = []
    for name, scn in named:
        result = solve_day(scn, method, params)
        per_variant.append(
            [
                network_throughput(scn, t, result.per_slot_switch[t])
                for t in range(scn.num_slots)
            ]
        )

    rows = []
    all_identical = True
    for t in range(first.num_slots):
        values = [series[t] for series in per_variant]
        identical = all(v == values[0] for v in values[1:])
        all_identical = all_identical and identical
        row = {"slot": t, "identical": identical}
        row.update({name: series[t] for (name, _), series in zip(named, per_variant)})
        rows.append(row)
    return all_identical, rows


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark measurement: a method at a network size."""

    method: str
    n_sbs: int
    runtime_ns: int
    evaluations: int
    daily_revenue: float

    def __post_init__(self):
        if self.runtime_ns <= 0:
            raise ValueError("runtime must be positive")
        if self.evaluations < 1:
            raise ValueError("at least one evaluation is required")


def runtime_scaling(
    n_values: Sequence[int],
    methods: Sequence[Method | str],
    seed: int = 7,
    params: SaParams | None = None,
) -> list[BenchRecord]:
    """Solve one full day per (network size, method) and record the cost.

    Builds one seeded benchmark scenario per size, shared by every method.
    Each record holds ``solve_day``'s wall time, evaluation count and daily
    total revenue, which sums the canonical objective of every slot.
    """
    records = []
    for n in n_values:
        scn = bench_scenario(n, seed)
        for method in methods:
            result = solve_day(scn, method, params)
            records.append(
                BenchRecord(
                    method=result.method,
                    n_sbs=n,
                    runtime_ns=result.runtime_ns,
                    evaluations=result.evaluations,
                    daily_revenue=result.daily.total,
                )
            )
    return records


BENCH_CSV_HEADER = ("method", "n_sbs", "runtime_ns", "evaluations", "daily_revenue")


def write_bench_csv(records: Sequence[BenchRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCH_CSV_HEADER)
        for rec in records:
            writer.writerow(
                [
                    rec.method,
                    rec.n_sbs,
                    rec.runtime_ns,
                    rec.evaluations,
                    repr(rec.daily_revenue),
                ]
            )
