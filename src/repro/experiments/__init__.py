"""Experiment orchestration: declarative specs, registry, runner, artifacts.

The public API for producing every table and figure of the paper:

* :mod:`repro.experiments.registry` — scheduler registry: string names
  -> factories + Table-3 capabilities; new schedulers self-register with
  the :func:`~repro.experiments.registry.register_scheduler` decorator.
* :mod:`repro.experiments.spec` — declarative
  :class:`~repro.experiments.spec.ExperimentSpec` grids (schedulers x
  capacities x seeds x traces) that expand to individual
  :class:`~repro.experiments.spec.RunSpec` cells.
* :mod:`repro.experiments.backends` — pluggable execution backends:
  serial, a process pool producing bit-identical results in parallel,
  or the durable lease-based work queue.
* :mod:`repro.experiments.queue` / :mod:`repro.experiments.worker` —
  the crash-safe file-backed :class:`~repro.experiments.queue.WorkQueue`
  (append-only work log + atomic leases) and the worker loop that
  executes cells from it, surviving ``kill -9`` worker churn.
* :mod:`repro.experiments.orchestrator` — the
  :class:`~repro.experiments.orchestrator.Runner`: executes grids with
  content-keyed on-disk caching and ``resume`` support.
* :mod:`repro.experiments.artifacts` — serializable
  :class:`~repro.experiments.artifacts.RunArtifact` /
  :class:`~repro.experiments.artifacts.SweepArtifact` results (JSON
  round-trip, per-job metrics, telemetry summaries).
* :mod:`repro.experiments.report` — Markdown reports of one comparison
  slice or a whole sweep of a
  :class:`~repro.experiments.artifacts.SweepArtifact`.
* :mod:`repro.experiments.figures` — generators for every figure and
  table; the simulation-driven ones run a spec through the Runner.

Running a multi-scheduler experiment always goes spec -> Runner ->
SweepArtifact; a caller holding a hand-built scheduler instance replays
a trace directly with :func:`~repro.experiments.backends.simulate_trace`.
"""

from repro.experiments.artifacts import RunArtifact, SweepArtifact, dead_cell_artifact
from repro.experiments.backends import (
    CellTimeoutError,
    ExecutionBackend,
    ExecutionPolicy,
    ProcessPoolBackend,
    QueueBackend,
    SerialBackend,
    execute_run,
    make_backend,
    simulate_run,
    simulate_trace,
)
from repro.experiments.queue import CellState, LeaseLostError, WorkQueue
from repro.experiments.orchestrator import Runner, RunnerStats
from repro.experiments.registry import (
    SchedulerEntry,
    UnknownSchedulerError,
    available_schedulers,
    capabilities_table,
    create_scheduler,
    paper_schedulers,
    register_scheduler,
)
from repro.experiments.report import build_comparison_report, write_comparison_report
from repro.experiments.spec import ExperimentSpec, RunSpec
from repro.experiments import figures

__all__ = [
    # declarative API
    "ExperimentSpec",
    "RunSpec",
    "Runner",
    "RunnerStats",
    "RunArtifact",
    "SweepArtifact",
    "dead_cell_artifact",
    # backends
    "CellTimeoutError",
    "ExecutionBackend",
    "ExecutionPolicy",
    "SerialBackend",
    "ProcessPoolBackend",
    "QueueBackend",
    "make_backend",
    # durable work queue
    "WorkQueue",
    "CellState",
    "LeaseLostError",
    "simulate_trace",
    "simulate_run",
    "execute_run",
    # registry
    "SchedulerEntry",
    "UnknownSchedulerError",
    "register_scheduler",
    "create_scheduler",
    "available_schedulers",
    "paper_schedulers",
    "capabilities_table",
    # reports and figures
    "build_comparison_report",
    "write_comparison_report",
    "figures",
]
