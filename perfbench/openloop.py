"""Open-loop load over one connection to the scheduler service.

Requests are written on a fixed wall-clock schedule whether or not
earlier replies have arrived (the JSONL transport answers one
connection's requests in order), and a reader thread stamps each reply.
Latency is then taken from each request's due time, so a stall is
charged to every request queued behind it.
"""

from __future__ import annotations

import json
import threading
import time
from time import perf_counter
from typing import Any, Dict, List, Sequence

from repro.service.http import ServiceClient


class OpenLoopClient(ServiceClient):
    """:class:`ServiceClient` plus pipelined submits on the same connection."""

    def _send(self, payload: Dict[str, Any]) -> None:
        self._file.write(json.dumps(payload).encode() + b"\n")
        self._file.flush()

    def _receive(self) -> Dict[str, Any]:
        line = self._file.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line.decode())

    def offer(self, submissions: Sequence[Any], rate: float) -> Dict[str, List[Any]]:
        """Send ``submissions`` at ``rate`` per second; wait for every reply.

        Returns parallel lists: ``due``, ``sent`` and ``replied`` instants
        (``perf_counter`` seconds) and the decoded ``replies``.
        """
        count = len(submissions)
        replied: List[float] = [0.0] * count
        replies: List[Dict[str, Any]] = [{}] * count
        errors: List[BaseException] = []

        def read_all() -> None:
            try:
                for index in range(count):
                    replies[index] = self._receive()
                    replied[index] = perf_counter()
            except (OSError, ValueError) as exc:  # reported by the caller
                errors.append(exc)

        reader = threading.Thread(target=read_all, name="openloop-reader", daemon=True)
        reader.start()
        start = perf_counter() + 0.05
        due = [start + index / rate for index in range(count)]
        sent: List[float] = []
        for index, submission in enumerate(submissions):
            delay = due[index] - perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent.append(perf_counter())
            self._send({"op": "submit", "submission": submission.to_dict()})
        reader.join(timeout=170.0)
        if reader.is_alive():
            raise TimeoutError("replies did not arrive within the run's time limit")
        if errors:
            raise errors[0]
        return {"due": due, "sent": sent, "replied": replied, "replies": replies}
