"""Discrete-event simulation of scheduling a trace on a GPU cluster.

The :class:`repro.sim.simulator.ClusterSimulator` replays a workload
trace against a scheduler and the analytic job models, producing per-job
completion / execution / queuing times — the measurements behind
Figs. 15, 17 and 18 and Table 4.

Layering
--------
The simulation engine is split into three layers, composed by the
``ClusterSimulator`` facade:

``kernel``
    :class:`~repro.sim.kernel.SimulationKernel` — the policy-free event
    loop: clock, deterministic event heap, max-event / max-time guards,
    and the event-kind → handler dispatch table.  It knows nothing about
    jobs or schedulers.
``ledger``
    :class:`~repro.sim.ledger.ProgressLedger` — dense NumPy arrays of
    per-job rate / resume-time / last-progress plus the progress-bearing
    ``Job`` state, keyed by a job-index map.  Advancing the clock is a
    handful of array expressions over the *running* jobs (bit-identical
    to the scalar ``Job.advance`` it replaced); values are lazily
    materialized back into ``Job`` objects only when a handler or a
    scheduler snapshot is about to read them.
``handlers``
    :mod:`repro.sim.handlers` — one small strategy object per event
    kind (arrival, epoch end, timer) holding the domain logic.  ONES and
    every baseline share this single dispatch path.

Adding an event kind
--------------------
Add the kind to :class:`~repro.cluster.events.EventKind` (its integer
value is the same-timestamp tie-break priority), implement an
:class:`~repro.sim.kernel.EventHandler` strategy for it in
:mod:`repro.sim.handlers`, register it in
:func:`~repro.sim.handlers.default_handlers`, and push the first event
of that kind from wherever it originates (``ClusterSimulator.run`` seeds
arrivals and the first timer tick).

Profiling
---------
:mod:`repro.sim.profiling` is the program's one wall-clock timer.
``SimulationConfig(collect_profile=True)`` gives the kernel a
:class:`~repro.sim.profiling.SimProfile`, which it makes the process's
active profile while it dispatches events.  The kernel charges the
ledger advance and each event kind's handler time; the predictor's GPR
refits and the search's evolution operators, which run inside those
handlers, charge their phases to the same profile through
:func:`~repro.sim.profiling.charge`.  The table lands in
``SimulationResult.profile`` and in experiment artifacts, and the live
service renders the per-kind handler histograms as its step latency.
"""

from repro.sim.kernel import EventHandler, SimulationKernel
from repro.sim.ledger import ProgressLedger
from repro.sim.profiling import SimProfile
from repro.sim.simulator import ClusterSimulator, SimulationConfig, SimulationResult
from repro.sim.telemetry import (
    GanttSegment,
    RunTelemetry,
    busy_gpu_timeline,
    job_gantt,
    summarize_run,
    utilization_timeline,
)

__all__ = [
    "ClusterSimulator",
    "EventHandler",
    "ProgressLedger",
    "SimProfile",
    "SimulationConfig",
    "SimulationKernel",
    "SimulationResult",
    "GanttSegment",
    "RunTelemetry",
    "busy_gpu_timeline",
    "job_gantt",
    "summarize_run",
    "utilization_timeline",
]
