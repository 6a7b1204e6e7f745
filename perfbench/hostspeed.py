"""Host speed, sampled inside a timed program process while it works.

The vCPUs of a shared host run the same code up to a third slower, for
seconds or for minutes, while other guests are busy, and little of that
shows as stolen time.  A :class:`Sampler` therefore runs a fixed block of
interpreter work from a ``SIGALRM`` handler every ``INTERVAL_S`` seconds
of the timed process and records how long each block took.  The blocks
slow down with the program (their times correlate at about 0.95 with
those of repeated identical replays on the host in README.md), so host
seconds timed over a window convert to seconds at the reference speed::

    seconds * REFERENCE_S * mean(1 / block seconds in the window)

Each sample runs the block twice and times the second run, so the
block's small working set is in the caches, however much of them the
program used since the last sample.  The block allocates no object the
garbage collector tracks, so it never triggers a collection of the
program's heap.  Sampling costs about 1.5% of the process's time, which
the timed seconds include.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import Dict, List

#: Typical block seconds on the host described in README.md.
REFERENCE_S = 0.0006
#: Seconds between blocks.
INTERVAL_S = 0.1

_VALUES = [0.0] * 100
_TABLE = dict.fromkeys(range(31), 0.0)


def block() -> None:
    """Fixed interpreter work on preallocated containers: arithmetic, dict updates, a sort."""
    state = 12345
    for _ in range(12):
        for i in range(100):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            x = state / 2147483648.0
            _VALUES[i] = x
            _TABLE[i % 31] += x
        _VALUES.sort()


class Sampler:
    """Times :func:`block` every ``INTERVAL_S`` seconds of this process, from a signal handler."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.seconds: List[float] = []

    def _sample(self, _signum, _frame) -> None:
        block()  # brings the block's code and data back into the caches
        start = perf_counter()
        block()
        self.seconds.append(perf_counter() - start)
        self.starts.append(start)

    def start(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def as_dict(self) -> Dict[str, List[float]]:
        return {"starts": self.starts, "seconds": self.seconds}
