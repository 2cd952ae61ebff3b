"""Run one benchmark workload in this process and report its metrics.

``run.py`` starts this script once per workload, in a fresh process with
the numpy/BLAS thread variables set to 1:

    python3 perfbench/bench.py --workload ref12-es --seed 2024 --seconds 20 --trace 0

Import, warm-up, checks and the exact optimum all stay outside the timed
regions.  End-to-end times are scaled to a reference host speed (see
REFERENCE_CALIBRATION_NS); the raw times are printed beside them, with a
``.raw`` suffix.  With ``--trace 1`` the timed run is followed by a traced phase of
fixed work and by micro-timings of single public calls; the last line of
standard output is then the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"


def import_source():
    """Import hetlease from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "hetlease" / "__init__.py").is_file():
        sys.exit(f"error: no hetlease source under {SRC}")
    sys.path.insert(0, str(SRC))
    import hetlease

    if Path(hetlease.__file__).resolve().parent != SRC / "hetlease":
        sys.exit(f"error: imported hetlease from {hetlease.__file__}, not {SRC}")


import_source()

import numpy  # noqa: E402

from hetlease import SortOrder, SwitchVector, build_scenario  # noqa: E402
from hetlease.economics import sbs_off_weights, total_revenue_slot  # noqa: E402
from hetlease.feasibility import is_feasible  # noqa: E402
from hetlease.solvers import sorting_solve_slot  # noqa: E402
from tracing import END, EVALS, LAYERS, NAME, OP, SLOT_SOLVERS, START, Tracer  # noqa: E402
from workloads import WORKLOADS, Op, cli_probe  # noqa: E402

SETUP_REPEATS = 21
MICRO_REPEATS = 5
MICRO_CALLS = 1000
GREEDY_SLOTS = 24
# below this many operations a p90 would have fewer than ten samples beyond it
P90_MIN_OPS = 100

# Host speed.  The 2-vCPU virtual machine these bounds were set on shares its
# cores with other machines, and its speed drifts by a third within minutes;
# wall time and CPU time drift together.  A fixed pure-Python loop, timed
# between operations, tracks that drift.  The end-to-end times are reported
# as if that loop had taken REFERENCE_CALIBRATION_NS; the raw ones are
# printed beside them.
CALIBRATION_ITERS = 60_000
REFERENCE_CALIBRATION_NS = 4_000_000
CALIBRATE_EVERY_NS = 250_000_000


# -- environment ------------------------------------------------------------

def read_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hetlease").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg_before": os.getloadavg(),
        "commit": read_commit(),
        "src_sha256": source_digest(),
    }


# -- timing ---------------------------------------------------------------

def calibration_ns() -> int:
    start = time.perf_counter_ns()
    acc = 0
    for i in range(CALIBRATION_ITERS):
        acc += i * i
    return time.perf_counter_ns() - start


def measure_setup(config):
    """Median of several ``build_scenario`` calls after an untimed warm-up,
    each preceded by one calibration sample."""
    scenario = build_scenario(config)
    times, calibration = [], []
    for _ in range(SETUP_REPEATS):
        calibration.append(calibration_ns())
        start = time.perf_counter_ns()
        scenario = build_scenario(config)
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times), statistics.median(calibration), scenario


def run_ops(wl, phase, max_ops=None, budget_ns=None, tracer=None,
            calibration: list[int] | None = None) -> list[Op]:
    """Run operations in the workload's key order until a count or a time
    budget (summed over the operations' own timed spans) is used up.  With a
    ``calibration`` list, a calibration sample is taken between operations
    every CALIBRATE_EVERY_NS of operation time."""
    ops: list[Op] = []
    spent = 0
    next_calibration = 0
    for key in wl.keys():
        if (max_ops is not None and len(ops) >= max_ops) or (
            budget_ns is not None and ops and spent >= budget_ns
        ):
            break
        if calibration is not None and spent >= next_calibration:
            calibration.append(calibration_ns())
            next_calibration = spent + CALIBRATE_EVERY_NS
        error = None
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                out = wl.run(key)
            else:
                with tracer.operation(wl.root_span):
                    out = wl.run(key)
        except Exception as exc:  # a raising operation is a failed one
            error = f"{type(exc).__name__}: {exc}"
        ns = time.perf_counter_ns() - start
        spent += ns
        op = Op(key, ns, phase, error=error)
        if error is None:
            try:
                op.result = wl.collect(key, out)
            except Exception as exc:
                op.error = f"{type(exc).__name__}: {exc}"
        ops.append(op)
    return ops


def check(wl, ops: list[Op]) -> None:
    try:
        wl.check(ops)
    except Exception as exc:  # a check that cannot run fails every op it covers
        for op in ops:
            op.failures.append(f"check raised {type(exc).__name__}: {exc}")


def median_or_zero(values) -> float:
    # an empty list means the operations that feed it failed, which is reported
    values = list(values)
    return statistics.median_low(values) if values else 0


def per_call(fn, calls: int) -> float:
    """Median over repeats of one timed pass, divided by the calls it makes."""
    times = []
    for _ in range(MICRO_REPEATS):
        start = time.perf_counter_ns()
        fn()
        times.append((time.perf_counter_ns() - start) / calls)
    return statistics.median(times)


def micro_timings(scenario, seed) -> dict:
    """Single public calls on seeded random (slot, mask) pairs of the scenario."""
    rng = random.Random(seed)
    n, slots = scenario.num_sbs, scenario.num_slots
    pairs = [(rng.randrange(slots), rng.getrandbits(n)) for _ in range(MICRO_CALLS)]
    switches = [(t, SwitchVector.from_off_mask(m, n)) for t, m in pairs]
    feasible = [(t, s) for t, s in switches if is_feasible(scenario, t, s).feasible]
    # revenue is only defined on feasible switches; pad with all-on ones
    on = scenario.all_on()
    priced = (feasible + [(t, on) for t, _ in pairs])[:MICRO_CALLS]
    greedy_slots = [rng.randrange(slots) for _ in range(GREEDY_SLOTS)]

    def from_off_mask():
        for _, m in pairs:
            SwitchVector.from_off_mask(m, n)

    def feasibility():
        for t, s in switches:
            is_feasible(scenario, t, s)

    def revenue():
        for t, s in priced:
            total_revenue_slot(scenario, t, s)

    def weights():
        for t in range(slots):
            sbs_off_weights(scenario, t)

    def greedy():
        for t in greedy_slots:
            sorting_solve_slot(scenario, t, SortOrder.DESCENDING)

    work = f"{MICRO_REPEATS} x {MICRO_CALLS} calls"
    return {
        "model.from_off_mask_ns": (per_call(from_off_mask, MICRO_CALLS), "ns", work),
        "feasibility.is_feasible_ns": (per_call(feasibility, MICRO_CALLS), "ns", work),
        "economics.total_revenue_ns": (per_call(revenue, MICRO_CALLS), "ns", work),
        "economics.weights_us": (
            per_call(weights, slots) / 1e3, "us", f"{MICRO_REPEATS} x {slots} slots"
        ),
        "solvers.greedy_slot_us": (
            per_call(greedy, GREEDY_SLOTS) / 1e3, "us",
            f"{MICRO_REPEATS} x {GREEDY_SLOTS} slots",
        ),
        "solvers.es_feasible_share": (
            len(feasible) / MICRO_CALLS, "ratio", f"{MICRO_CALLS} random masks"
        ),
    }


# -- metrics --------------------------------------------------------------

def throughput(wl, ops) -> float:
    return sum(wl.slots_of(op.key) for op in ops) / (sum(op.ns for op in ops) / 1e9)


def host_speed(calibration) -> tuple:
    return (
        statistics.median(calibration) / 1e6, "ms",
        f"median of {len(calibration)} samples; reference {REFERENCE_CALIBRATION_NS / 1e6} ms",
    )


def end_to_end(wl, setup, timed, calibration, checked) -> dict:
    setup_ns, setup_calibration_ns = setup
    # host-scaled time = raw time * scale
    setup_scale = REFERENCE_CALIBRATION_NS / setup_calibration_ns
    scale = REFERENCE_CALIBRATION_NS / statistics.median(calibration)
    ns = [op.ns for op in timed]
    slots = sum(wl.slots_of(op.key) for op in timed)
    attempted = [op for op in checked if op.phase != "warmup"]
    failed = sum(not op.ok for op in attempted)
    ratio = wl.revenue_ratio(checked)
    host = f"host-scaled x{scale:.3f}"
    metrics = {
        "setup_s": (setup_ns * setup_scale / 1e9, "s",
                    f"median of {SETUP_REPEATS} builds, host-scaled x{setup_scale:.3f}"),
        "setup_s.raw": (setup_ns / 1e9, "s", f"median of {SETUP_REPEATS} builds"),
        "slots_per_s": (throughput(wl, timed) / scale, "1/s", host),
        "slots_per_s.raw": (
            throughput(wl, timed), "1/s", f"{slots} slots in {sum(ns) / 1e9:.3f} s"
        ),
        "op_ms_p50": (statistics.median(ns) * scale / 1e6, "ms", f"{len(ns)} ops, {host}"),
        "op_ms_p50.raw": (statistics.median(ns) / 1e6, "ms", f"{len(ns)} ops"),
    }
    if len(ns) >= P90_MIN_OPS:
        metrics["op_ms_p90"] = (
            statistics.quantiles(ns, n=10)[8] * scale / 1e6, "ms", f"{len(ns)} ops, {host}"
        )
    metrics.update({
        "host.calibration_ms": host_speed(calibration),
        "revenue_ratio": (ratio, "ratio", "achieved / exact optimum"),
        "revenue_gap": (1.0 - ratio, "ratio", "shortfall / exact optimum"),
        "ok_share": (1.0 - failed / len(attempted), "ratio", f"{len(attempted)} ops"),
        "failed_share": (failed / len(attempted), "ratio", f"{failed} of {len(attempted)} ops"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "whole process"
        ),
    })
    return metrics


def per_layer(wl, tracer, traced, probe_ops, untraced, calibration, micro) -> dict:
    """``calibration`` maps "traced" and "untraced" to their phases' samples."""
    spans = tracer.spans
    ops = range(len(traced))  # tracer op ids of the workload's own operations
    solver_spans = [s for s in spans if s[NAME] in SLOT_SOLVERS and s[OP] in ops]
    evals = sum(s[EVALS] for s in solver_spans)
    solver_ns = sum(s[END] - s[START] for s in solver_spans)
    skipped = sum(tracer.skipped[i] for i in ops)
    empty = sum(tracer.empty[i] for i in ops)

    def median_ms(name):
        times = [s[END] - s[START] for s in spans if s[NAME] == name]
        return median_or_zero(times) / 1e6, len(times)

    build_ms, builds = median_ms("build_scenario")
    load_ms, loads = median_ms("load_config")
    own = tracer.self_ns()
    mains = [i for i, s in enumerate(spans) if s[NAME] == "cli.main"]
    write_ms = median_or_zero(own[i] for i in mains) / 1e6
    written = [op.result["bytes"] for op in traced + probe_ops if isinstance(op.result, dict)]
    self_ns = tracer.self_ns_by_layer()
    metrics = dict(micro)
    metrics.update({
        "solvers.evals": (evals, "count", f"{len(solver_spans)} traced slot solves"),
        "solvers.ns_per_eval": (solver_ns / max(evals, 1), "ns", f"{evals} evaluations"),
        "solvers.skipped_steps": (skipped, "count", "from DEBUG records"),
        "solvers.empty_neighborhoods": (empty, "count", "from DEBUG records"),
        "solvers.sa_step_yield": (
            evals / max(evals + skipped, 1), "ratio", "evaluations / attempted steps"
        ),
        "scenario.build_ms": (build_ms, "ms", f"median of {builds} traced builds"),
        "scenario.load_config_ms": (load_ms, "ms", f"median of {loads} traced loads"),
        "cli.write_ms": (write_ms, "ms", f"median over {len(mains)} commands"),
        "cli.bytes_written": (median_or_zero(written), "bytes", "per command"),
    })
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (
            self_ns[layer] / 1e6, "ms", f"summed over {len(traced) + len(probe_ops)} traced ops"
        )
    # both phases scaled to the same host speed
    metrics["trace.speed_ratio"] = (
        throughput(wl, traced) * statistics.median(calibration["traced"])
        / (throughput(wl, untraced) * statistics.median(calibration["untraced"])),
        "ratio", "traced slots_per_s / untraced slots_per_s, host-scaled",
    )
    metrics["host.calibration_ms"] = host_speed(calibration["untraced"])
    return metrics


# -- main -----------------------------------------------------------------

def run(args, wl, seed, workdir: Path) -> tuple[dict, dict, dict]:
    config = wl.config(seed)
    *setup, scenario = measure_setup(config)
    wl.setup(scenario, config, seed, workdir)

    # the warm-up solves the first key again later, which checks repeatability
    warm = run_ops(wl, "warmup", max_ops=1)
    calibration: list[int] = []
    timed = run_ops(
        wl, "timed",
        max_ops=2 if args.quick else None,
        budget_ns=None if args.quick else int(args.seconds * 1e9),
        calibration=calibration,
    )
    calibration.append(calibration_ns())
    if args.inject_infeasible:
        wl.inject_infeasible(timed[0])
    checked = warm + timed
    report = {"trace": None}

    if args.trace:
        # slot workloads end the traced phase with one CLI command, so that
        # every layer is timed on every workload
        probe = None if wl.root_span else cli_probe(wl)
        if probe:
            probe.setup(scenario, config, seed, workdir)
        tracer = Tracer()
        traced_calibration: list[int] = []
        with tracer.installed():
            traced = run_ops(wl, "traced", max_ops=1 if args.quick else wl.traced_ops,
                             tracer=tracer, calibration=traced_calibration)
            probe_ops = run_ops(probe, "probe", max_ops=1, tracer=tracer) if probe else []
        check(wl, checked + traced)
        if probe:
            check(probe, probe_ops)
        traced_calibration.append(calibration_ns())
        metrics = per_layer(
            wl, tracer, traced, probe_ops, timed,
            {"traced": traced_calibration, "untraced": calibration},
            micro_timings(scenario, seed),
        )
        attempted = timed + traced + probe_ops
        report["trace"] = tracer.to_json()
    else:
        check(wl, checked)
        metrics = end_to_end(wl, setup, timed, calibration, checked)
        attempted = timed
    failures = [f for op in attempted for f in ([op.error] if op.error else op.failures)]
    result = {
        "correct": not failures,
        "attempted": len(attempted),
        "failed": sum(not op.ok for op in attempted),
    }
    report["failures"] = failures[:50]
    return result, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="a few operations instead of --seconds (self-test)")
    parser.add_argument("--inject-infeasible", action="store_true",
                        help="replace the first timed result by an infeasible switch (self-test)")
    args = parser.parse_args(argv)

    # the CLI's own basicConfig becomes a no-op, so commands stay quiet
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s %(message)s")
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR))
    try:
        result, metrics, report = run(args, wl, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()

    print(f"# workload {wl.name} seed {seed} seconds {args.seconds} trace {args.trace}")
    print(f"# why: {wl.why}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, work) in metrics.items():
        print(f"{name:30s} {value!r:>24} {unit:6s} ({work})")
    for failure in report["failures"]:
        print(f"# FAILED {failure}")
    report.update(
        workload=wl.name, seed=seed, seconds=args.seconds, env=env, result=result,
        metrics={k: {"value": v, "unit": u, "work": w} for k, (v, u, w) in metrics.items()},
    )
    name = f"{wl.name}-seed{seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report) + "\n")

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    result["metrics"] = {
        m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
        for m in wanted
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
