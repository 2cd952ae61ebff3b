"""The benchmark's workloads, and the checks on every output they produce.

A workload turns a seed into a scenario config, runs operations on the
scenario (one slot solve, or one CLI command), and checks each result
against the canonical objective outside every timed region.  The exact
optimum behind ``revenue_ratio`` is computed outside timed regions too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from hetlease import (
    SaParams,
    SwitchVector,
    bench_config,
    build_scenario,
    load_config,
    reference_config,
    save_config,
    sbs_off_weights,
)
from hetlease import cli, solvers
from hetlease.economics import total_revenue_slot
from hetlease.feasibility import is_feasible
from hetlease.solvers import es_solve_slot

# Slot workloads visit slot (i * 89) % 144 for op i: 89/144 is close to the
# golden ratio, so any run length samples the whole day evenly instead of
# only its first hours.
SLOT_STRIDE = 89


@dataclass
class Op:
    key: object  # slot index, or CLI method name
    ns: int
    phase: str  # "warmup", "timed", "traced" or "probe"
    result: object = None
    error: str | None = None
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.failures


def revenue_bits(revenue) -> tuple[str, str, str]:
    return (revenue.energy.hex(), revenue.leasing.hex(), revenue.total.hex())


def check_switch(scenario, slot, switch, revenue) -> list[str]:
    """Canonical re-check of one returned switch and its reported revenue."""
    if not is_feasible(scenario, slot, switch).feasible:
        return [f"slot {slot}: switch {switch.bitstring()} is infeasible"]
    if revenue_bits(total_revenue_slot(scenario, slot, switch)) != revenue_bits(revenue):
        return [f"slot {slot}: revenue differs from the canonical recompute"]
    return []


def positive_weight_optimum(scenario) -> list[float]:
    """Per-slot optimum of a scenario on which every switch is feasible.

    Revenue is a sum of one weight per sleeping cell, so when capacity never
    binds the optimum sleeps exactly the cells with a positive weight.
    """
    all_off = SwitchVector.from_off_mask((1 << scenario.num_sbs) - 1, scenario.num_sbs)
    for slot in range(scenario.num_slots):
        if not is_feasible(scenario, slot, all_off).feasible:
            raise RuntimeError(
                f"slot {slot}: the all-off switch is infeasible, so the "
                "positive-weight optimum does not apply to this scenario"
            )
    return [
        math.fsum(w for w in sbs_off_weights(scenario, slot) if w > 0)
        for slot in range(scenario.num_slots)
    ]


class SlotWorkload:
    """One operation solves one slot with ``es`` or ``sa``."""

    root_span = None

    def __init__(self, name, why, config, method, reference, default_seed, traced_ops):
        self.name = name
        self.why = why
        self.config = config
        self.method = method
        self.reference = reference  # "es" or "weights"
        self.default_seed = default_seed
        self.traced_ops = traced_ops

    def setup(self, scenario, config, seed, workdir: Path) -> None:
        self.scenario = scenario
        self.params = SaParams(rng_seed=seed)
        self.optimum: dict[int, float] = {}
        if self.reference == "weights":
            self.optimum = dict(enumerate(positive_weight_optimum(scenario)))

    def keys(self):
        i = 0
        while True:
            yield (i * SLOT_STRIDE) % self.scenario.num_slots
            i += 1

    def run(self, slot):
        # looked up on the module at call time, so the tracer's recorders apply
        if self.method == "es":
            return solvers.es_solve_slot(self.scenario, slot)
        return solvers.sa_solve_slot(self.scenario, slot, self.params)

    def collect(self, slot, out):
        return out

    def slots_of(self, key) -> int:
        return 1

    def inject_infeasible(self, op: Op) -> None:
        _, revenue, evals = op.result
        n = self.scenario.num_sbs
        op.result = (SwitchVector.from_off_mask((1 << n) - 1, n), revenue, evals)

    def check(self, ops: list[Op]) -> None:
        sc = self.scenario
        full = 1 << sc.num_sbs
        first: dict[int, tuple] = {}
        for op in ops:
            if op.error is not None:
                continue
            switch, revenue, evals = op.result
            op.failures += check_switch(sc, op.key, switch, revenue)
            if self.method == "es" and evals != full:
                op.failures.append(f"slot {op.key}: es made {evals} evaluations, not {full}")
            signature = (switch.off_mask(), evals, revenue_bits(revenue))
            if first.setdefault(op.key, signature) != signature:
                op.failures.append(f"slot {op.key}: a repeated solve gave another result")
        if self.reference != "es":
            return
        for op in ops:
            if not op.ok:
                continue
            if op.key not in self.optimum:
                if self.method == "es":
                    self.optimum[op.key] = op.result[1].total
                else:
                    self.optimum[op.key] = es_solve_slot(sc, op.key)[1].total
            if op.result[1].total > self.optimum[op.key]:
                op.failures.append(f"slot {op.key}: {self.method} beats es")

    def revenue_ratio(self, ops: list[Op]) -> float:
        achieved = {op.key: op.result[1].total for op in ops if op.ok}
        if not achieved:
            return 0.0
        return math.fsum(achieved.values()) / math.fsum(self.optimum[k] for k in achieved)


class CliWorkload:
    """One operation is one in-process ``hetlease run`` command on a YAML config."""

    root_span = "cli.main"

    def __init__(self, name, why, config, methods, default_seed, traced_ops):
        self.name = name
        self.why = why
        self.config = config
        self.methods = methods
        self.default_seed = default_seed
        self.traced_ops = traced_ops

    def setup(self, scenario, config, seed, workdir: Path) -> None:
        self.config_path = workdir / f"{self.name}.yaml"
        self.out = workdir / f"{self.name}-out"
        save_config(config, self.config_path)
        # the CLI builds from the YAML, so the in-process reference does too
        self.scenario = build_scenario(load_config(self.config_path))
        self.reference: dict[str, tuple] = {}

    def keys(self):
        i = 0
        while True:
            yield self.methods[i % len(self.methods)]
            i += 1

    def run(self, method):
        return cli.main(
            ["run", "--config", str(self.config_path), "--method", method,
             "--out", str(self.out)]
        )

    def collect(self, method, rc):
        """Parse the command's output files before the next command replaces them."""
        switch_lines = (self.out / "switch_per_slot.csv").read_text().splitlines()
        revenue_lines = (self.out / "revenue_per_slot.csv").read_text().splitlines()
        summary = json.loads((self.out / "summary.json").read_text())
        return {
            "rc": rc,
            "switches": [line.split(",")[1] for line in switch_lines[1:]],
            "totals": [float(line.split(",")[3]).hex() for line in revenue_lines[1:]],
            "feasible": [line.split(",")[5] for line in revenue_lines[1:]],
            "summary": summary,
            "bytes": sum(
                (self.out / f).stat().st_size
                for f in ("switch_per_slot.csv", "revenue_per_slot.csv", "summary.json")
            ),
        }

    def slots_of(self, key) -> int:
        return self.scenario.num_slots

    def _reference(self, method):
        """In-process ``solve_day``, itself re-checked canonically per slot."""
        if method not in self.reference:
            sc = self.scenario
            result = solvers.solve_day(sc, method)
            failures = []
            for slot, (switch, revenue) in enumerate(
                zip(result.per_slot_switch, result.per_slot_revenue)
            ):
                failures += check_switch(sc, slot, switch, revenue)
            self.reference[method] = (
                [s.bitstring() for s in result.per_slot_switch],
                [r.total.hex() for r in result.per_slot_revenue],
                result.daily.total,
                failures,
            )
        return self.reference[method]

    def check(self, ops: list[Op]) -> None:
        slots = self.scenario.num_slots
        for op in ops:
            if op.error is not None:
                continue
            out = op.result
            switches, totals, daily, failures = self._reference(op.key)
            op.failures += failures
            if out["rc"] != 0:
                op.failures.append(f"{op.key}: exit code {out['rc']}")
            if out["switches"] != switches:
                op.failures.append(f"{op.key}: switch_per_slot.csv differs from solve_day")
            if out["totals"] != totals or set(out["feasible"]) != {"true"}:
                op.failures.append(f"{op.key}: revenue_per_slot.csv differs from solve_day")
            if out["summary"]["evaluations"] != slots or out["summary"]["daily_total"] != daily:
                op.failures.append(f"{op.key}: summary.json differs from solve_day")

    def revenue_ratio(self, ops: list[Op]) -> float:
        achieved = {op.key: op.result["summary"]["daily_total"] for op in ops if op.ok}
        if not achieved:
            return 0.0
        day_optimum = math.fsum(positive_weight_optimum(self.scenario))
        return math.fsum(achieved.values()) / (len(achieved) * day_optimum)


def reference_day(seed):
    return reference_config(seed=seed)


def loose64(seed):
    return bench_config(64, seed)


def loose128(seed):
    return bench_config(128, seed)


WORKLOADS = {
    wl.name: wl
    for wl in (
        SlotWorkload(
            "ref12-es",
            "exhaustive search on the reference day: 4096 canonical feasibility "
            "and revenue calls per slot, with capacity binding at busy hours",
            reference_day, "es", "es", 2024, traced_ops=144,
        ),
        SlotWorkload(
            "ref12-sa",
            "annealing on the reference day: 4096 states, so caches fill and "
            "moves, draws and the empty-neighbourhood skip path dominate",
            reference_day, "sa", "es", 2024, traced_ops=144,
        ),
        SlotWorkload(
            "loose64-sa",
            "annealing at N=64 where every mask is feasible: almost every "
            "visited state is new, so bit loops and cache growth dominate",
            loose64, "sa", "weights", 7, traced_ops=2,
        ),
        CliWorkload(
            "cli128-greedy",
            "greedy CLI runs at N=128: YAML load, scenario build, feasibility "
            "re-check and CSV/JSON writing carry half the time",
            loose128, ("dtype", "atype"), 7, traced_ops=4,
        ),
    )
}


def cli_probe(workload) -> CliWorkload:
    """One ``run --method dtype`` command on a slot workload's own config,
    so that the traced run times the CLI and scenario layers everywhere."""
    return CliWorkload("probe", "", workload.config, ("dtype",), workload.default_seed, 1)
