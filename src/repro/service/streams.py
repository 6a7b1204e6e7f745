"""Per-tenant decision/telemetry streams.

The engine publishes every :class:`~repro.service.schemas.PlacementDecision`
(and job-completion notice) into a :class:`StreamHub`; transports and
tests subscribe with a cursor and poll/await new records.  The hub is a
bounded ring per tenant — a slow consumer loses the *oldest* records
(tracked in ``dropped``), never blocks the scheduler's event loop.  That
back-pressure stance is what keeps decision latency independent of how
many clients are watching.

The hub is transport-agnostic: it never imports asyncio.  Async servers
register a plain callable via :meth:`add_waiter` and get poked once per
publish; pull-based consumers just call :meth:`read` with their cursor.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Mapping, Optional, Tuple

#: Wildcard tenant: subscribes to every tenant's records.
ALL_TENANTS = "*"


class StreamHub:
    """Bounded multi-tenant pub/sub of JSON-serialisable records."""

    def __init__(self, *, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be a positive integer")
        self.capacity = int(capacity)
        self._rings: Dict[str, Deque[Tuple[int, Mapping[str, object]]]] = {}
        self._next_seq: Dict[str, int] = {}
        self._dropped: Dict[str, int] = {}
        self._waiters: List[Callable[[], None]] = []

    # -- publishing (engine side) -------------------------------------------------------

    def publish(self, tenant: str, record: Mapping[str, object]) -> int:
        """Append ``record`` to ``tenant``'s ring; returns its sequence number.

        Records are also mirrored into the ``*`` ring so firehose
        consumers (the CI smoke test, ``service-status --follow``) see a
        single totally-ordered feed across tenants.
        """
        seq = self._append(tenant, record)
        if tenant != ALL_TENANTS:
            self._append(ALL_TENANTS, record)
        for waiter in list(self._waiters):
            waiter()
        return seq

    def _append(self, tenant: str, record: Mapping[str, object]) -> int:
        ring = self._rings.get(tenant)
        if ring is None:
            ring = deque()
            self._rings[tenant] = ring
            self._next_seq[tenant] = 0
            self._dropped[tenant] = 0
        seq = self._next_seq[tenant]
        self._next_seq[tenant] = seq + 1
        ring.append((seq, dict(record)))
        if len(ring) > self.capacity:
            ring.popleft()
            self._dropped[tenant] += 1
        return seq

    # -- consuming (transport side) -----------------------------------------------------

    def read(
        self,
        tenant: str,
        cursor: int = 0,
        *,
        limit: Optional[int] = None,
    ) -> Tuple[List[Mapping[str, object]], int]:
        """Records with sequence >= ``cursor``; returns ``(records, next_cursor)``.

        A consumer loops ``records, cursor = hub.read(tenant, cursor)``;
        an empty list means it is caught up.  If the ring already evicted
        part of the requested range the consumer silently resumes at the
        oldest retained record (the gap is visible via :meth:`dropped`).
        """
        ring = self._rings.get(tenant)
        if not ring:
            return [], cursor
        out: List[Mapping[str, object]] = []
        next_cursor = cursor
        for seq, record in ring:
            if seq < cursor:
                continue
            out.append(record)
            next_cursor = seq + 1
            if limit is not None and len(out) >= limit:
                break
        return out, next_cursor

    def dropped(self, tenant: str) -> int:
        """Records evicted from ``tenant``'s ring before any read caught up."""
        return self._dropped.get(tenant, 0)

    def depth(self, tenant: str) -> int:
        """Records currently retained in ``tenant``'s ring."""
        ring = self._rings.get(tenant)
        return len(ring) if ring else 0

    # -- wakeup plumbing ----------------------------------------------------------------

    def add_waiter(self, waiter: Callable[[], None]) -> None:
        """Register a zero-arg callable poked after every publish."""
        self._waiters.append(waiter)

    def remove_waiter(self, waiter: Callable[[], None]) -> None:
        """Unregister a waiter previously added with :meth:`add_waiter`."""
        try:
            self._waiters.remove(waiter)
        except ValueError:
            pass

    # -- introspection ------------------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant ring statistics (published / retained / dropped)."""
        return {
            tenant: {
                "published": self._next_seq.get(tenant, 0),
                "retained": self.depth(tenant),
                "dropped": self.dropped(tenant),
            }
            for tenant in sorted(self._rings)
        }
