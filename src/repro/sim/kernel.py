"""The discrete-event kernel: clock, heap, guards and handler dispatch.

The kernel is the policy-free core of the simulator.  It owns

* the simulation clock (``now``) with the time-goes-backwards guard,
* the :class:`~repro.cluster.events.EventQueue`,
* the run guards (``max_events`` / ``max_time``),
* the event-kind → handler-strategy dispatch table, and
* its optional :class:`~repro.sim.profiling.SimProfile`, the process's
  active profile while :meth:`SimulationKernel.run` or
  :meth:`SimulationKernel.step` dispatches.

Everything domain-specific — jobs, allocations, scheduler callbacks —
lives in the handler strategies (:mod:`repro.sim.handlers`) and the
:class:`~repro.sim.simulator.ClusterSimulator` facade that wires them
up.  The ``advance_hook`` is called exactly once per processed event,
*before* the handler, with the (clamped) target time; the facade uses it
for GPU busy-time accounting and to advance the vectorized
:class:`~repro.sim.ledger.ProgressLedger`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Mapping, Optional

from repro.cluster.events import Event, EventKind, EventQueue
from repro.obs.trace import TraceRecorder
from repro.sim.profiling import SimProfile, activate

#: Called with the clamped target time before each event's handler runs.
AdvanceHook = Callable[[float], None]
#: Stop predicate checked after each handled event.
DonePredicate = Callable[[], bool]


class EventHandler:
    """Strategy interface: one event kind's domain logic.

    Subclasses implement :meth:`handle`; the kernel never inspects the
    event beyond its ``kind``.  See :mod:`repro.sim.handlers` for the
    concrete strategies and the recipe for adding a new event kind.
    """

    #: The :class:`EventKind` this handler consumes (dispatch key).
    kind: EventKind

    def handle(self, event: Event) -> None:
        """Process one event (the clock has already advanced to it)."""
        raise NotImplementedError


class SimulationKernel:
    """Deterministic event loop with guards and pluggable handlers."""

    def __init__(
        self,
        *,
        max_time: float,
        max_events: int,
        advance_hook: AdvanceHook,
        done: DonePredicate,
        handlers: Mapping[EventKind, EventHandler],
        profile: Optional[SimProfile] = None,
        tracer: Optional[TraceRecorder] = None,
    ) -> None:
        self.max_time = float(max_time)
        self.max_events = int(max_events)
        self.now: float = 0.0
        self.events = EventQueue()
        self.events_processed: int = 0
        self.profile = profile
        self.tracer = tracer
        self._advance_hook = advance_hook
        self._done = done
        self._handlers = dict(handlers)

    # -- event plumbing -----------------------------------------------------------------

    def push(self, event: Event) -> None:
        """Schedule an event (delegates to the deterministic queue)."""
        self.events.push(event)

    def inject(self, event: Event) -> None:
        """Push an event into a *live* kernel (online submissions).

        Unlike :meth:`push` — which trusts the caller because pre-run
        trace loading legitimately schedules the whole future — ``inject``
        is the entry point for events originating *outside* the event
        loop while it is running (job submissions against a live
        simulator).  It guards against scheduling into the past: an event
        earlier than the current clock could never be processed in order
        and would trip the backwards-time guard (or worse, silently
        corrupt causality if the clock already moved past it).
        """
        if event.time < self.now - 1e-9:
            raise RuntimeError(
                f"cannot inject event at t={event.time} into a kernel already "
                f"at t={self.now} (events must not be scheduled in the past)"
            )
        self.events.push(event)

    def advance(self, to_time: float) -> None:
        """Advance the clock to ``to_time`` (clamped to never go backwards).

        Raises ``RuntimeError`` when an event surfaces more than the
        float tolerance *before* the current clock — that is an event
        ordering bug, never a legal schedule.
        """
        if to_time < self.now - 1e-9:
            raise RuntimeError(
                f"time went backwards: {self.now} -> {to_time} (event ordering bug)"
            )
        to_time = max(to_time, self.now)
        self._advance_hook(to_time)
        self.now = to_time

    # -- incremental stepping (online mode) ---------------------------------------------

    def step(self) -> Optional[Event]:
        """Process exactly one due event; ``None`` when nothing is processable.

        The stepping twin of :meth:`run`: same clock advance, same
        profiling, same dispatch — but the caller owns the loop, so new
        events can be :meth:`inject`\\ ed between steps (a live service
        interleaving submissions with event processing).  Guards are
        honoured non-destructively: an event beyond ``max_time`` stays
        queued (``run`` discards it, but a stepping caller may still
        raise ``max_time`` and continue).
        """
        if not self.events or self.events_processed >= self.max_events:
            return None
        if self.events.peek().time > self.max_time:
            return None
        event = self.events.pop()
        self.events_processed += 1
        previous = activate(self.profile)
        try:
            self._process(event)
        finally:
            activate(previous)
        return event

    def _process(self, event: Event) -> None:
        """Advance the clock to ``event`` and run its kind's handler.

        The one per-event path of :meth:`run` and :meth:`step`.  With a
        profile, the advance and the handler are charged to it (every
        processed event counts under its kind, handled or not).  When a
        tracer is installed *and enabled*, the handler runs inside an
        ``event:{KIND}`` span so scheduler decisions, fault evictions and
        service admissions emitted during handling nest under the kernel
        event that caused them.  The span's times are virtual
        (``event.time`` → ``self.now``), never wall-clock, preserving
        trace content-comparability across runs.
        """
        profile = self.profile
        start = perf_counter() if profile is not None else 0.0
        self.advance(event.time)
        if profile is not None:
            start = profile.charge_advance(start)
        handler = self._handlers.get(event.kind)
        if handler is not None:
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                span = tracer.begin_span(
                    f"event:{event.kind.name}", "kernel", event.time, job=event.job_id
                )
                try:
                    handler.handle(event)
                finally:
                    tracer.end_span(span, t=self.now)
            else:
                handler.handle(event)
        if profile is not None:
            profile.charge_handler(event.kind, start)

    def run_until(self, to_time: float) -> int:
        """Process every event *strictly before* ``to_time``; return the count.

        Strictness is what makes online replay bit-identical to offline
        runs: events at exactly ``to_time`` stay queued, so an event
        injected *at* ``to_time`` (a job arrival) still sorts against
        them by the deterministic (time, kind, insertion) order instead
        of being processed after events it should precede.  The clock is
        not advanced past the last processed event — the next event (or
        an explicit :meth:`advance`) moves it.
        """
        processed = 0
        while self.events and self.events_processed < self.max_events:
            if self.events.peek().time >= to_time:
                break
            if self.step() is None:
                break
            processed += 1
            if self._done():
                break
        return processed

    # -- the loop -----------------------------------------------------------------------

    def run(self) -> int:
        """Process events until done / drained / guard-tripped.

        Returns the number of events processed.  The loop is exactly the
        historical ``ClusterSimulator.run`` loop: pop, stop past
        ``max_time``, advance the clock, dispatch to the kind's handler
        (unknown kinds are ignored, matching the old if/elif chain), stop
        when the done-predicate holds.
        """
        previous = activate(self.profile)
        try:
            while self.events and self.events_processed < self.max_events:
                event = self.events.pop()
                if event.time > self.max_time:
                    break
                self.events_processed += 1
                self._process(event)
                if self._done():
                    break
        finally:
            activate(previous)
        return self.events_processed
