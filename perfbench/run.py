"""Entry point of the hetlease benchmark.

    python3 perfbench/run.py --workload ref12-es --seed 2024 --seconds 20 --trace 0
    python3 perfbench/run.py --all [--seconds 20] [--trace 0|1]
    python3 perfbench/run.py --self-test

Each workload runs in a fresh Python process (``bench.py``) with the
numpy/BLAS thread variables set to 1 in that process only.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Run from the root
of a checkout; the package is imported from its ``src`` directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ref12-es", "ref12-sa", "loose64-sa", "cli128-greedy")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
CHILD_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_child(argv: list[str]) -> tuple[dict | None, str]:
    """Run bench.py to completion; return its parsed result line and its output."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "bench.py"), *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        return None, (exc.stdout or "") + f"\nerror: no result within {CHILD_TIMEOUT_S} s\n"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stdout
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, proc.stdout
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None, proc.stdout
    return result, proc.stdout


def contract_metrics(trace: int) -> dict[str, str]:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in contract["per_layer" if trace else "end_to_end"]}


def self_test() -> int:
    """Every workload on a few operations, with and without tracing; then one
    run whose first result is replaced by an infeasible switch."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, out = run_child(
                ["--workload", workload, "--trace", str(trace), "--quick"]
            )
            label = f"{workload} trace {trace}"
            if result is None:
                problems.append(f"{label}: no result\n{out}")
                continue
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != contract_metrics(trace):
                problems.append(f"{label}: metrics {printed} differ from BENCHMARK.json")
            for name in printed:
                if not any(line.startswith(name + " ") for line in out.splitlines()):
                    problems.append(f"{label}: {name} missing from the report lines")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: checks failed\n{out}")
            print(f"self-test {label}: {result['attempted']} ops, failed {result['failed']}")
    result, out = run_child(
        ["--workload", "ref12-es", "--trace", "0", "--quick", "--inject-infeasible"]
    )
    if result is None:
        problems.append(f"injected run: no result\n{out}")
    elif result["correct"] or not result["failed"] or result["metrics"]["ok_share"]["value"] >= 1:
        problems.append(f"injected infeasible switch went unnoticed\n{out}")
    else:
        print(f"self-test injected infeasible switch: failed {result['failed']} "
              f"of {result['attempted']}")
    for problem in problems:
        print(f"self-test FAILED {problem}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="every workload, default seeds")
    which.add_argument("--self-test", action="store_true")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hetlease" / "__init__.py").is_file():
        print(f"error: no hetlease source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()

    common = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]
    results = {}
    for workload in [args.workload] if args.workload else WORKLOADS:
        result, out = run_child(["--workload", workload, *common])
        if result is None:
            print(out, file=sys.stderr)
            print(f"error: workload {workload} gave no result", file=sys.stderr)
            return 1
        results[workload] = result
        # the child's report, whose last line is its result
        sys.stdout.write(out)
    if args.all:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
