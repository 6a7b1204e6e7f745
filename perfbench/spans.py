"""Outside-in tracing: spans around the calls into each layer of ``repro``.

:func:`install` replaces the public functions and methods named in
:data:`TIMED` with wrappers that record a span and call the original,
and adds count-only hooks for table builds, useful refits and dirty
shards.  Nothing inside ``src/`` knows
about it; only a traced child process calls :func:`install`, so the
untraced runs that give the end-to-end numbers execute the program
unmodified.

Spans live in memory as parallel arrays (start, end, parent, row,
request key) and are reduced once at the end: a row's self time is the
sum of its spans' durations minus the time their direct children
cover.  Every recorded time therefore lands in exactly one row, and the
rows plus ``unattributed_s`` add up to the traced total.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from benchstats import self_times

_ON = ("on_job_arrival", "on_epoch_end", "on_job_completion", "on_timer", "on_fault")

#: (module, class or None for a module attribute, attribute, row).  A
#: module attribute is patched in the module that *calls* it.
TIMED: List[Tuple[str, Optional[str], str, str]] = [
    ("repro.sim.kernel", "SimulationKernel", "run", "sim.kernel_self_s"),
    ("repro.sim.kernel", "SimulationKernel", "step", "sim.kernel_self_s"),
    ("repro.sim.handlers", "ArrivalHandler", "handle", "sim.arrival_self_s"),
    ("repro.sim.handlers", "EpochEndHandler", "handle", "sim.epoch_end_self_s"),
    ("repro.sim.handlers", "TimerHandler", "handle", "sim.timer_self_s"),
    ("repro.sim.ledger", "ProgressLedger", "advance_to", "sim.ledger_s"),
    ("repro.sim.ledger", "ProgressLedger", "materialize_all", "sim.ledger_s"),
    ("repro.jobs.throughput", "ThroughputModel", "throughput", "jobs.throughput_s"),
    ("repro.jobs.throughput", "ThroughputModel", "step_time", "jobs.throughput_s"),
    ("repro.prediction.predictor", "ProgressPredictor", "refit", "prediction.refit_s"),
    ("repro.prediction.predictor", "ProgressPredictor", "progress_distributions",
     "prediction.distributions_s"),
    ("repro.prediction.gpr", "GaussianProcessRegression", "fit", "prediction.gpr_fit_s"),
    ("repro.core.evolution", "EvolutionarySearch", "step", "core.evolve_self_s"),
    ("repro.core.evolution", None, "run_generation", "core.generation_self_s"),
    ("repro.core.evolution_batched", None, "fill_idle_decomposed", "core.fill_s"),
    ("repro.core.evolution_batched", None, "reorder_decomposed", "core.reorder_s"),
    ("repro.core.evolution_batched", None, "score_decomposition", "core.score_s"),
    ("repro.core.scoring_incremental", "IncrementalScoringEngine", "prepare", "core.score_s"),
    ("repro.core.evolution_batched", None, "sample_progress", "core.sample_s"),
    ("repro.core.scoring_incremental", "IncrementalScoringEngine", "commit", "core.select_s"),
    *[("repro.core.ones_scheduler", "ONESScheduler", name, "core.callback_self_s")
      for name in _ON if name != "on_timer"],
    *[("repro.core.partitioned", "HierarchicalONESScheduler", name, "core.reconcile_self_s")
      for name in _ON if name != "on_timer"],
    *[(module, cls, name, "baselines.callback_s")
      for module, cls in (("repro.baselines.tiresias", "TiresiasScheduler"),
                          ("repro.baselines.optimus", "OptimusScheduler"),
                          ("repro.baselines.gandiva", "GandivaScheduler"))
      for name in _ON],
    ("repro.service.engine", "SchedulerService", "__init__", "setup.build_s"),
    ("repro.service.engine", "SchedulerService", "submit", "service.decision_self_s"),
    ("repro.service.engine", "SchedulerService", "advance_to", "service.catchup_self_s"),
    ("repro.service.engine", "SchedulerService", "queue_depth", "service.queue_depth_s"),
    ("repro.service.engine", "SchedulerService", "drain", "service.drain_self_s"),
    ("repro.service.streams", "StreamHub", "publish", "service.publish_s"),
]

#: Rows that are not calls into the program: the child's own phases.
SETUP_ROWS = ("setup.import_s", "setup.build_s", "workload.trace_gen_s")

#: Inclusive (span, not self) totals reported next to the self rows.
INCLUSIVE = {
    "service.submit_s": "service.decision_self_s",
    "service.catchup_s": "service.catchup_self_s",
    "service.drain_s": "service.drain_self_s",
}

ROWS: Tuple[str, ...] = tuple(dict.fromkeys(list(SETUP_ROWS) + [t[3] for t in TIMED]))


class Recorder:
    """In-memory span store for one thread of one process."""

    def __init__(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.row = array("H")
        self.key = array("q")
        self.keys: List[str] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._row_index = {name: i for i, name in enumerate(ROWS)}
        self._key = -1

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def begin(self, row: str, key: Optional[str] = None) -> int:
        span = len(self.start)
        if key is not None:
            self.keys.append(key)
            self._key = len(self.keys) - 1
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.row.append(self._row_index[row])
        self.key.append(self._key)
        self._stack.append(span)
        return span

    def finish(self, span: int, key_scope: bool = False) -> None:
        self.end[span] = perf_counter()
        self._stack.pop()
        if key_scope:
            self._key = -1

    def timed(self, row: str, fn: Callable, key_of: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = key_of(args) if key_of is not None else None
            span = self.begin(row, key)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(span, key_scope=key is not None)

        return wrapper

    @contextmanager
    def phase(self, row: str) -> Iterator[None]:
        """Span one of the child's own phases (:data:`SETUP_ROWS`)."""
        span = self.begin(row)
        try:
            yield
        finally:
            self.finish(span)

    # -- reduction --------------------------------------------------------------------

    def summary(self, total_s: float) -> Dict[str, object]:
        """Per-row self times, inclusive totals, counts and ``unattributed_s``."""
        parents = [p if p >= 0 else None for p in self.parent]
        selfs = self_times(parents, self.start, self.end)
        rows = {name: 0.0 for name in ROWS}
        calls = {name: 0 for name in ROWS}
        inclusive = {name: 0.0 for name in INCLUSIVE}
        by_row = {row: name for name, row in INCLUSIVE.items()}
        for i, own in enumerate(selfs):
            name = ROWS[self.row[i]]
            rows[name] += own
            calls[name] += 1
            if name in by_row:
                # Only the outermost span of a row adds to its inclusive total.
                p = self.parent[i]
                if p < 0 or ROWS[self.row[p]] != name:
                    inclusive[by_row[name]] += self.end[i] - self.start[i]
        attributed = sum(rows.values())
        return {
            "rows": rows,
            "inclusive": inclusive,
            "counts": dict(self.counts),
            "calls": calls,
            "spans": len(self.start),
            "total_s": total_s,
            "unattributed_s": total_s - attributed,
        }

    def keyed_spans(self, row: str) -> Dict[str, Tuple[float, float]]:
        """Outermost ``row`` spans by request key: ``{key: (start, end)}``."""
        index = self._row_index[row]
        out: Dict[str, Tuple[float, float]] = {}
        for i in range(len(self.start)):
            if self.row[i] == index and self.key[i] >= 0:
                out.setdefault(self.keys[self.key[i]], (self.start[i], self.end[i]))
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON document of parallel arrays."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "rows": list(ROWS),
                    "start": list(self.start),
                    "end": list(self.end),
                    "parent": list(self.parent),
                    "row": list(self.row),
                    "key": list(self.key),
                    "keys": self.keys,
                },
                handle,
            )


def _counted(fn: Callable, on_call: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        on_call(args, result)
        return result

    return wrapper


def _scheduler_deltas(recorder: Recorder, fn: Callable) -> Callable:
    """Count table reuses and deployed full updates across one ONES callback."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        reuses, updates = self.num_table_reuses, self.num_full_updates
        try:
            return fn(self, *args, **kwargs)
        finally:
            recorder.count("jobs.table_reuses", self.num_table_reuses - reuses)
            recorder.count("core.full_updates", self.num_full_updates - updates)

    return wrapper


def _submission_name(args) -> str:
    return args[1].name


def install(recorder: Recorder) -> None:
    """Wrap every entry in :data:`TIMED` plus the count-only hooks."""
    for module_name, cls_name, attr, row in TIMED:
        module = importlib.import_module(module_name)
        owner = getattr(module, cls_name) if cls_name else module
        original = getattr(owner, attr)
        # Spans inside one submission share its name as their request key.
        key_of = _submission_name if (cls_name, attr) == ("SchedulerService", "submit") else None
        if cls_name == "ONESScheduler":
            original = _scheduler_deltas(recorder, original)
        setattr(owner, attr, recorder.timed(row, original, key_of))

    import repro.core.partitioned as partitioned
    import repro.jobs.throughput as throughput
    import repro.prediction.predictor as predictor

    def on_refit(args, result):
        recorder.count("prediction.refit_useful", 1.0 if result else 0.0)

    def on_table(args, result):
        recorder.count("jobs.table_builds")

    def on_dirty(args, result):
        recorder.count("core.dirty_shards", len(result))

    cls = predictor.ProgressPredictor
    cls.refit = _counted(cls.refit, on_refit)
    table = throughput.ThroughputTable
    table.__init__ = _counted(table.__init__, on_table)
    partitioned.dirty_list = _counted(partitioned.dirty_list, on_dirty)


def layer_metrics(recorder: Recorder, total_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (see ``BENCHMARK.json``)."""
    summary = recorder.summary(total_s)
    rows, counts, calls = summary["rows"], summary["counts"], summary["calls"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    handler_rows = ("sim.arrival_self_s", "sim.epoch_end_self_s", "sim.timer_self_s")
    builds = counts.get("jobs.table_builds", 0.0)
    reuses = counts.get("jobs.table_reuses", 0.0)
    refits = float(calls["prediction.refit_s"])
    evolves = float(calls["core.evolve_self_s"])
    metrics = {name: rows[name] for name in ROWS}
    metrics.update(summary["inclusive"])
    metrics.update(
        {
            "sim.events": float(sum(calls[r] for r in handler_rows)),
            "jobs.throughput_calls": float(calls["jobs.throughput_s"]),
            "jobs.table_builds": builds,
            "jobs.table_reuse_ratio": ratio(reuses, reuses + builds),
            "prediction.refit_calls": refits,
            "prediction.refit_useful_ratio": ratio(
                counts.get("prediction.refit_useful", 0.0), refits
            ),
            "prediction.gpr_fit_calls": float(calls["prediction.gpr_fit_s"]),
            "core.evolve_calls": evolves,
            "core.generations": float(calls["core.generation_self_s"]),
            "core.deploy_ratio": ratio(counts.get("core.full_updates", 0.0), evolves),
            "core.dirty_shards": counts.get("core.dirty_shards", 0.0),
            "baselines.callback_calls": float(calls["baselines.callback_s"]),
            "unattributed_s": summary["unattributed_s"],
        }
    )
    return metrics


def rows_sum_check(metrics: Dict[str, float], total_s: float, tolerance: float = 1e-6) -> bool:
    """True when the self-time rows plus ``unattributed_s`` equal the total."""
    attributed = sum(metrics[name] for name in ROWS) + metrics["unattributed_s"]
    return abs(attributed - total_s) <= tolerance * max(1.0, total_s)
