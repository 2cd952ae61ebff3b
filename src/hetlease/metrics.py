"""Evaluation metrics and the runtime-scaling benchmark.

Throughput here is aggregate served demand: whatever a sleeping SBS
would have served is served by the macro cell instead, so any feasible
switch vector serves exactly the traffic offered.  The benchmark
measures how exhaustive search and annealing scale with network size,
in exact evaluation counts and in wall time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .feasibility import is_feasible
from .model import InfeasibleSwitchError, Scenario, SwitchVector
from .scenario import bench_scenario
from .solvers import Method, SaParams, solve_day


def network_throughput(scenario: Scenario, slot: int, switch: SwitchVector) -> float:
    """Total served load in one slot under a feasible switch vector.

    Whatever a sleeping SBS would have served the macro cell serves
    instead, so a feasible switch serves every station's load: this is
    ``is_feasible``'s compensated ``demand_before``, bit-identical for
    every feasible switch.
    """
    report = is_feasible(scenario, slot, switch)
    if not report.feasible:
        raise InfeasibleSwitchError(
            f"throughput undefined: switch violates QoS in slot {slot}"
        )
    return report.demand_before


def throughput_invariance_report(
    variants: Mapping[str, Scenario],
    method: Method | str,
    params: SaParams | None = None,
) -> tuple[bool, list[dict]]:
    """Check that per-slot throughput is identical across scenario variants.

    ``variants`` maps a name to each scenario.  The variants must share
    primary-network traffic (they may differ in prices and secondary
    demand).  Each variant is solved with the given method; the report
    lists per-slot throughput per variant, under its name, and whether all
    values in the row match exactly.
    """
    named = list(variants.items())
    if len(named) < 2:
        raise ValueError("need at least two variants to compare")
    first = named[0][1]
    for name, scn in named[1:]:
        if scn.traffic.shape != first.traffic.shape:
            raise ValueError(f"variant {name!r} has a different network shape")
        differs = np.flatnonzero((scn.traffic != first.traffic).any(axis=1))
        if differs.size:
            raise ValueError(
                f"variant {name!r} does not share primary traffic (station {differs[0]})"
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
            result = solve_day(scn, method)
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


# characters that a cell would have to be quoted for; cells are never quoted
_CSV_SPECIALS = frozenset(',"\r\n')


def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as comma-separated lines ending in
    ``\\n``, each cell through ``str``.  Every CSV the package writes goes
    through here; callers pass floats as their ``repr``.  Cells are not
    quoted, so a cell that holds a comma, a double quote or a line break
    raises ``ValueError`` before the file is opened."""
    lines = []
    for row in (header, *rows):
        cells = [str(cell) for cell in row]
        for cell in cells:
            if not _CSV_SPECIALS.isdisjoint(cell):
                raise ValueError(f"CSV cell {cell!r} holds a comma, a quote or a line break")
        lines.append(",".join(cells) + "\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)


def write_bench_csv(records: Sequence[BenchRecord], path) -> None:
    _write_csv(
        path,
        ("method", "n_sbs", "runtime_ns", "evaluations", "daily_revenue"),
        [
            [rec.method, rec.n_sbs, rec.runtime_ns, rec.evaluations, repr(rec.daily_revenue)]
            for rec in records
        ],
    )
