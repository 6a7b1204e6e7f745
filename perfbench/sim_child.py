"""One offline program process: build a seeded trace, replay it, report.

Run by ``run.py``, never by hand: ``python3 perfbench/sim_child.py
--workload W --seed N --index I --launch T [--rounds R] [--setup-only]
[--sample setup|all] [--spans PATH]``.  The last stdout line is a JSON
record of the set-up instant, the host seconds and simulated summary of
every replay, and the output checks.  Each of the ``R`` rounds replays the
trace once per scheduler, in the workload's order, on a freshly built
scheduler after a full garbage collection; every round must reproduce
the first bit for bit.  ``--setup-only`` stops after set-up.  With
``--sample`` the host's speed is sampled (:mod:`hostspeed`) from before
the imports to the end of set-up (``setup``) or of the last replay
(``all``), and set-up, and with ``all`` every replay, are also reported
at the reference speed.  With ``--spans`` the layer wrappers of
:mod:`spans` are installed first and the per-layer reduction is written
to PATH.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import statistics
import sys
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import benchstats  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402


def digest(result) -> str:
    """Hash of every simulated number of a result, to compare runs bit for bit."""
    payload = {
        "completed": {j: {k: repr(v) for k, v in sorted(m.items())}
                      for j, m in sorted(result.completed.items())},
        "incomplete": sorted(result.incomplete),
        "makespan": repr(result.makespan),
        "reconfigurations": result.num_reconfigurations,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.OFFLINE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--sample", choices=("setup", "all"), default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    sampler = hostspeed.Sampler().start() if args.sample else None

    recorder = None
    if args.spans:
        import spans

        recorder = spans.Recorder()
    phase = recorder.phase if recorder else (lambda _row: contextlib.nullcontext())

    with phase("setup.import_s"):
        from repro.experiments.backends import simulate_trace
        from repro.experiments.registry import create_scheduler
    if recorder is not None:
        spans.install(recorder)
    spec = workloads.OFFLINE[args.workload]
    with phase("workload.trace_gen_s"):
        trace = workloads.build_trace(args.workload, args.seed, args.index)
    with phase("setup.build_s"):
        schedulers = [
            (name, create_scheduler(name, workloads.PROGRAM_SEED))
            for name in spec["schedulers"]
        ]
    ready = perf_counter()
    if sampler is not None and args.sample == "setup":
        sampler.stop()
    if args.setup_only:
        return report(sampler, args.launch, {"ready": ready, "runs": []}, False)

    runs, first_digest = [], {}
    for round_ in range(args.rounds):
        if round_:
            schedulers = [(name, create_scheduler(name, workloads.PROGRAM_SEED))
                          for name, _scheduler in schedulers]
        for name, scheduler in schedulers:
            gc.collect()
            start, cpu = perf_counter(), process_time()
            result = simulate_trace(scheduler, trace, int(spec["gpus"]))
            stop, cpu_s = perf_counter(), process_time() - cpu
            problems = benchstats.check_jobs(result.completed, result.incomplete, len(trace))
            run = {
                "scheduler": name,
                "round": round_,
                "start": start,
                "run_s": stop - start,
                "cpu_s": cpu_s,
                "jobs": len(trace),
                "avg_jct_s": result.average_jct,
                "makespan_s": result.makespan,
                "problems": problems,
                "digest": digest(result),
            }
            if first_digest.setdefault(name, run["digest"]) != run["digest"]:
                problems.append(f"{name} round {round_} differs from round 0")
            runs.append(run)
    end = perf_counter()

    record = {"ready": ready, "end": end, "runs": runs}
    if recorder is not None:
        metrics = spans.layer_metrics(recorder, end - args.launch)
        record["layers"] = metrics
        record["rows_sum_ok"] = spans.rows_sum_check(metrics, end - args.launch)
        recorder.write(args.spans)
    return report(sampler, args.launch, record, args.sample == "all")


def report(sampler, launch: float, record: dict, runs_sampled: bool) -> int:
    """Add the reference-speed seconds of what was sampled, and print the record."""
    if sampler is not None:
        sampler.stop()
        samples = sampler.as_dict()

        def at_reference(seconds: float, begin: float, end: float) -> float:
            return benchstats.at_reference_speed(seconds, begin, end, samples,
                                                 hostspeed.REFERENCE_S)

        record["setup_ref_s"] = at_reference(record["ready"] - launch, launch, record["ready"])
        for run in record["runs"] if runs_sampled else ():
            run["run_ref_s"] = at_reference(run["run_s"], run["start"],
                                            run["start"] + run["run_s"])
        record["speed_blocks"] = len(samples["seconds"])
        record["speed_block_mean_s"] = statistics.fmean(samples["seconds"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
