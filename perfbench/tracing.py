"""Span recording at the package's layer boundaries, from outside the package.

While a ``Tracer`` is installed, the public callees below are replaced, as
the calling module sees them, by recorders.  Each recorded span holds a
name, its layer, the operation id it belongs to, its parent span, and its
start and end.  Per-mask calls (``is_feasible`` and ``total_revenue_slot``
run 2^N times per exhaustive slot) are kept only as a count and a summed
time per (parent span, name), so memory stays bounded on long runs.
"""

from __future__ import annotations

import importlib
import logging
import time
from contextlib import contextmanager

# module -> {attribute: (layer, aggregate per parent?)}
PATCHES = {
    "hetlease.solvers": {
        "es_solve_slot": ("solvers", False),
        "sa_solve_slot": ("solvers", False),
        "sorting_solve_slot": ("solvers", False),
        "is_feasible": ("feasibility", True),
        "total_revenue_slot": ("economics", True),
    },
    "hetlease.cli": {
        "load_config": ("scenario", False),
        "build_scenario": ("scenario", False),
        "solve_day": ("solvers", False),
    },
}

# spans whose return value carries an evaluation count (or counts as one)
SLOT_SOLVERS = ("es_solve_slot", "sa_solve_slot", "sorting_solve_slot")

LAYERS = ("cli", "scenario", "solvers", "feasibility", "economics")

NAME, LAYER, OP, PARENT, START, END, EVALS = range(7)


class _SolverLogCounter(logging.Handler):
    """Counts the annealer's DEBUG records about skipped and empty steps."""

    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.DEBUG)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        msg = record.msg
        if "neighborhood steps had no feasible move" in msg:
            self.tracer.skipped[self.tracer.op] += record.args[1]
        elif "empty from state" in msg:
            self.tracer.empty[self.tracer.op] += 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        # (parent span index, name) -> [calls, summed ns]
        self.aggregates: dict[tuple[int | None, str], list[int]] = {}
        self.aggregate_layer: dict[str, str] = {}
        self.skipped: dict[int, int] = {}
        self.empty: dict[int, int] = {}
        self.op = -1
        self._stack: list[int] = []

    # -- recording -------------------------------------------------------

    def _span_recorder(self, name: str, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts_evals = name in SLOT_SOLVERS

        def recorder(*args, **kwargs):
            span = [name, layer, self.op, stack[-1] if stack else None, clock(), 0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counts_evals:
                span[EVALS] = out[2] if len(out) == 3 else 1
            return out

        return recorder

    def _aggregate_recorder(self, name: str, fn):
        aggregates, stack, clock = self.aggregates, self._stack, time.perf_counter_ns

        def recorder(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                key = (stack[-1] if stack else None, name)
                slot = aggregates.get(key)
                if slot is None:
                    slot = aggregates[key] = [0, 0]
                slot[0] += 1
                slot[1] += clock() - start

        return recorder

    @contextmanager
    def operation(self, root: str | None = None):
        """One operation: a fresh id, and optionally a root span of its own
        (the CLI's ``main``, the only root the benchmark calls directly)."""
        self.op += 1
        self.skipped[self.op] = 0
        self.empty[self.op] = 0
        if root is None:
            yield
            return
        span = [root, "cli", self.op, None, time.perf_counter_ns(), 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[END] = time.perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def installed(self):
        """Swap the recorders in, and the originals back on exit."""
        saved = []
        try:
            for module_name, attrs in PATCHES.items():
                module = importlib.import_module(module_name)
                for attr, (layer, aggregate) in attrs.items():
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    if aggregate:
                        self.aggregate_layer[attr] = layer
                        recorder = self._aggregate_recorder(attr, original)
                    else:
                        recorder = self._span_recorder(attr, layer, original)
                    setattr(module, attr, recorder)
            logger = logging.getLogger("hetlease.solvers")
            handler = _SolverLogCounter(self)
            saved_log = (logger.level, logger.propagate)
            logger.setLevel(logging.DEBUG)
            logger.propagate = False
            logger.addHandler(handler)
            try:
                yield self
            finally:
                logger.removeHandler(handler)
                logger.setLevel(saved_log[0])
                logger.propagate = saved_log[1]
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    # -- analysis --------------------------------------------------------

    def self_ns(self) -> list[int]:
        """A span's self time is its duration minus what its children cover."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                covered[span[PARENT]] += span[END] - span[START]
        for (parent, _), (_, ns) in self.aggregates.items():
            if parent is not None:
                covered[parent] += ns
        return [s[END] - s[START] - c for s, c in zip(self.spans, covered)]

    def self_ns_by_layer(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for span, own in zip(self.spans, self.self_ns()):
            out[span[LAYER]] += own
        for (_, name), (_, ns) in self.aggregates.items():
            out[self.aggregate_layer[name]] += ns
        return out

    def to_json(self) -> dict:
        return {
            "spans": [
                dict(zip(("name", "layer", "op", "parent", "start_ns", "end_ns", "evals"), s))
                for s in self.spans
            ],
            "aggregates": [
                {"parent": parent, "name": name, "calls": calls, "ns": ns}
                for (parent, name), (calls, ns) in self.aggregates.items()
            ],
        }
