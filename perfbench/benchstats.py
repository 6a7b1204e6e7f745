"""Arithmetic of the benchmark: percentiles, spreads, open-loop timing, verdicts.

Pure functions over plain lists so the tests in ``tests/`` can pin them
without starting the program.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10
#: Relative slack of the JCT >= execution time check (a few float ulps).
ROUNDING = 1e-12


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(count: int, beyond: int = TAIL_BEYOND) -> Optional[float]:
    """Highest percentile with at least ``beyond`` of ``count`` samples above it.

    ``None`` when the sample is too small to have any such tail.
    """
    if count <= beyond:
        return None
    return 100.0 * (count - beyond) / count


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Dict[str, float]:
    """The tail value, its percentile and the sample count (see :func:`tail_percentile`)."""
    q = tail_percentile(len(values), beyond)
    if q is None:
        return {"value": max(values) if values else float("nan"), "percentile": 100.0,
                "samples": len(values)}
    return {"value": percentile(values, q), "percentile": q, "samples": len(values)}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for constant samples)."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def open_loop_latencies(
    due: Sequence[float], sent: Sequence[float], replied: Sequence[float]
) -> Tuple[List[float], List[float]]:
    """Per-request latency from its due time, and the generator's lateness.

    Timing from the due time rather than the send time charges a stall
    to every request queued behind it (coordinated omission).
    """
    if not len(due) == len(sent) == len(replied):
        raise ValueError("due, sent and replied must have equal length")
    latency = [r - d for d, r in zip(due, replied)]
    lateness = [max(0.0, s - d) for d, s in zip(due, sent)]
    return latency, lateness


def server_busy_times(sent: Sequence[float], replied: Sequence[float]) -> List[float]:
    """Per-request server time on one in-order connection.

    A request starts once it has arrived and its predecessor's reply has
    left, so its work is ``reply - max(sent, previous reply)``.
    """
    busy: List[float] = []
    previous = -math.inf
    for s, r in zip(sent, replied):
        busy.append(r - max(s, previous))
        previous = r
    return busy


def backlog_grows(due: Sequence[float], sent: Sequence[float], replied: Sequence[float],
                  tolerance: float = 0.95) -> bool:
    """True when the offered load keeps the server busy for the whole phase.

    The server's work (:func:`server_busy_times`) is compared with the
    phase's offered duration, ``count / rate``: at a utilisation near 1
    every stall leaves a queue that the next requests only lengthen,
    while below it the server catches up between requests.  One slow
    request at the end of a phase does not count as a growing backlog.
    """
    if len(due) < 2:
        return False
    offered = (due[-1] - due[0]) * len(due) / (len(due) - 1)
    return sum(server_busy_times(sent, replied)) > tolerance * offered


def replay_seconds(runs: Sequence[Dict[str, object]], key: str = "run_s") -> float:
    """Host seconds of one process's replays: each scheduler's median over its rounds, summed.

    Every round replays the same trace with the same schedulers, so the
    rounds differ only in what the host did meanwhile; the median drops a
    round that other work on the host slowed down.
    """
    per_scheduler: Dict[str, List[float]] = {}
    for run in runs:
        per_scheduler.setdefault(str(run["scheduler"]), []).append(float(run[key]))
    return sum(statistics.median(times) for times in per_scheduler.values())


def at_reference_speed(seconds: float, begin: float, end: float,
                       samples: Dict[str, Sequence[float]], reference: float) -> float:
    """Host ``seconds`` timed over ``[begin, end)``, at the reference speed.

    ``samples`` holds the ``starts`` and ``seconds`` of the speed blocks
    of :mod:`hostspeed`; the blocks that started in the window give the
    host's mean speed over it relative to ``reference``, the block time
    at the reference speed.  A window without a block uses all blocks.
    """
    inside = [d for s, d in zip(samples["starts"], samples["seconds"]) if begin <= s < end]
    return seconds * reference * statistics.fmean(1.0 / d for d in inside or samples["seconds"])


def self_times(
    parents: Sequence[Optional[int]], starts: Sequence[float], ends: Sequence[float]
) -> List[float]:
    """Self time of every span, given each span's parent index (or ``None``).

    A span's self time is its duration minus the durations of its direct
    children (children never outlive their parent here, because the
    spans come from nested calls on one thread).  The self times of a
    tree therefore sum to the durations of its roots.
    """
    own = [end - start for start, end in zip(starts, ends)]
    for index, parent in enumerate(parents):
        if parent is not None:
            own[parent] -= ends[index] - starts[index]
    return own


def verdict(
    old: Sequence[float], new: Sequence[float], bound: Optional[float], better: str
) -> str:
    """Judge ``new`` against ``old`` by medians, the bound and the spread.

    * ``unresolved`` — either side's spread exceeds the bound, and not
      every new run beats every old run;
    * ``worse`` — the median moved the wrong way by more than the bound;
    * ``better`` — the median moved the right way by more than the bound;
    * ``same`` — within the bound.

    Metrics without a bound (per-layer) are compared by the larger of
    the two spreads instead.
    """
    if not old or not new:
        return "missing"
    sign = 1.0 if better == "lower" else -1.0
    old_med = statistics.median(old)
    new_med = statistics.median(new)
    spread = max(relative_spread(old), relative_spread(new))
    limit = bound if bound is not None else spread
    if old_med == 0:
        change = 0.0 if new_med == 0 else math.copysign(math.inf, new_med)
    else:
        change = (new_med - old_med) / abs(old_med)
    all_better = all(sign * n < sign * o for n in new for o in old)
    if bound is not None and spread > bound and not all_better:
        return "unresolved"
    if sign * change > limit:
        return "worse"
    if sign * change < -limit:
        return "better"
    return "same"


def check_jobs(completed: Dict[str, Dict[str, float]], incomplete: Sequence[str],
               expected: int) -> List[str]:
    """Output checks of one simulation; returns one message per failed job or check.

    Every job completes, and each has finite metrics with
    JCT >= execution time >= 0.  The JCT/execution comparison allows
    :data:`ROUNDING` relative slack: a job that never queued has both
    values computed along different float paths, which can differ in
    the last bit.
    """
    problems = [f"{job_id}: incomplete" for job_id in incomplete]
    if len(completed) + len(incomplete) != expected:
        problems.append(f"{len(completed) + len(incomplete)} jobs reported, {expected} submitted")
    for job_id, metrics in sorted(completed.items()):
        if not all(math.isfinite(float(v)) for v in metrics.values()):
            problems.append(f"{job_id}: non-finite metric")
        elif not (metrics["jct"] >= metrics["execution_time"] * (1.0 - ROUNDING)
                  and metrics["execution_time"] >= 0.0):
            problems.append(f"{job_id}: jct {metrics['jct']} < execution {metrics['execution_time']}")
    return problems


def check_summary(summary: Dict[str, object], expected: int) -> List[str]:
    """Output checks of a drained service's summary (the service reports no per-job rows)."""
    problems: List[str] = []
    if summary.get("incomplete_jobs") != 0:
        problems.append(f"{summary.get('incomplete_jobs')} jobs incomplete after drain")
    if summary.get("completed_jobs") != expected:
        problems.append(f"{summary.get('completed_jobs')} jobs completed, {expected} submitted")
    numbers = [float(summary.get(k, float("nan"))) for k in
               ("average_jct", "average_execution_time", "makespan")]
    if not all(math.isfinite(v) for v in numbers):
        problems.append("non-finite simulated metric")
    elif not (numbers[0] >= numbers[1] * (1.0 - ROUNDING) and numbers[1] >= 0.0):
        problems.append("average jct below average execution time")
    return problems
