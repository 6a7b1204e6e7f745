"""The program's one wall-clock timer: where a simulation's host time goes.

A :class:`SimProfile` records the host wall-clock of one simulation run:

* ``advance_seconds`` — moving the clock and the progress ledger to each
  event;
* one :class:`~repro.obs.metrics.LatencyHistogram` per event kind — the
  time inside that kind's handler, which includes the scheduler
  callback the handler invokes.  It is exported as
  ``handler_<kind>_seconds`` (sum) and ``events_<kind>`` (count), and
  the live service renders the same histograms as
  ``service_step_latency_seconds``;
* named *phases* charged through :func:`charge` from code the handlers
  call: ``gpr_refit`` (the predictor's refit after every job
  completion, §3.2.1), the evolution operators ``evo_fill``,
  ``evo_crossover``, ``evo_mutation`` and ``evo_selection``, and the
  scoring-cache phases ``rescore_full`` / ``rescore_delta`` (see
  :mod:`repro.core.scoring_incremental`).

Charging follows the :func:`repro.obs.trace.active_tracer` pattern: the
process has at most one *active* profile.  A kernel makes its own
profile (or ``None``) active while a ``run()`` or ``step()`` dispatches
and restores the previous one afterwards, so a nested simulation charges
its own profile and an unprofiled one charges nothing.  Every scheduler
instance in the process — the inner schedulers of a partitioned
``ONES-hier`` included — charges the run that is dispatching it, with no
per-scheduler timers to gather up afterwards.

Profiling is switched on by ``SimulationConfig.collect_profile``: any
declarative :class:`~repro.experiments.spec.RunSpec` can enable it, and
the table rides along in ``SimulationResult.profile`` (and hence in sweep
artifacts).  It is off by default because wall-clock is host-dependent;
when off, the hot paths take one global read and a branch per call site
and never read the clock.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional

from repro.cluster.events import EventKind
from repro.obs.metrics import LatencyHistogram


class SimProfile:
    """Per-phase wall-clock seconds and per-kind handler histograms of one run."""

    def __init__(self) -> None:
        self.advance_seconds: float = 0.0
        #: Handler wall-clock per event kind; one observation per event.
        self.handlers: Dict[EventKind, LatencyHistogram] = {}
        #: Seconds charged through :func:`charge`, by phase name.
        self.phases: Dict[str, float] = {}
        self._started = perf_counter()

    def charge_advance(self, start: float) -> float:
        """Add ``perf_counter() - start`` to the advance row; return the new mark."""
        now = perf_counter()
        self.advance_seconds += now - start
        return now

    def charge_handler(self, kind: EventKind, start: float) -> None:
        """Record ``perf_counter() - start`` as one event of ``kind``."""
        elapsed = perf_counter() - start
        hist = self.handlers.get(kind)
        if hist is None:
            hist = self.handlers[kind] = LatencyHistogram()
        hist.record(elapsed)

    def as_dict(self) -> Dict[str, float]:
        """Flat profiling table: ``*_seconds`` rows plus ``events_<kind>`` counts.

        ``total_seconds`` runs from the profile's creation to this call.
        The disjoint rows — ``advance_seconds``, every
        ``handler_<kind>_seconds`` and ``unattributed_seconds`` (set-up
        and everything outside the event loop) — sum to it.  The phase
        rows ``gpr_refit_seconds``, ``evo_*_seconds`` and
        ``rescore_*_seconds`` are *nested* inside the handler rows (the
        scheduler callbacks run inside handlers), so adding them as well
        counts that time twice.  Event counts are floats for JSON
        uniformity, not seconds.  Event kinds serialise as their
        lower-case names (``handler_timer_seconds``,
        ``events_node_down``), never enum reprs, so keys stay stable
        across enum reordering.
        """
        total = perf_counter() - self._started
        handled = sum(hist.total for hist in self.handlers.values())
        payload: Dict[str, float] = {
            "total_seconds": total,
            "advance_seconds": self.advance_seconds,
        }
        for kind, hist in sorted(self.handlers.items()):
            payload[f"handler_{kind.name.lower()}_seconds"] = hist.total
        for kind, hist in sorted(self.handlers.items()):
            payload[f"events_{kind.name.lower()}"] = float(hist.count)
        for phase, seconds in sorted(self.phases.items()):
            payload[f"{phase}_seconds"] = seconds
        payload["unattributed_seconds"] = total - self.advance_seconds - handled
        return payload


# -- the active profile -----------------------------------------------

_ACTIVE: Optional[SimProfile] = None


def activate(profile: Optional[SimProfile]) -> Optional[SimProfile]:
    """Make ``profile`` the active one (``None`` for none); return the previous."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, profile
    return previous


def active_profile() -> Optional[SimProfile]:
    """The profile that :func:`charge` currently adds to (``None`` when off)."""
    return _ACTIVE


def mark() -> float:
    """A start mark for :func:`charge`: the clock when profiling, else 0."""
    return perf_counter() if _ACTIVE is not None else 0.0


def charge(phase: str, start: float) -> float:
    """Add ``perf_counter() - start`` to ``phase`` of the active profile.

    Returns the mark for the next phase, so consecutive phases chain:
    ``m = mark(); ...; m = charge("a", m); ...; charge("b", m)``.
    Without an active profile this neither reads the clock nor records.
    """
    profile = _ACTIVE
    if profile is None:
        return 0.0
    now = perf_counter()
    phases = profile.phases
    phases[phase] = phases.get(phase, 0.0) + (now - start)
    return now
