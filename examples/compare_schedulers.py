#!/usr/bin/env python3
"""Compare ONES against DRL, Tiresias and Optimus on a shared trace.

This is a scaled-down version of the paper's main experiment (Fig. 15 and
Table 4), expressed with the declarative orchestration API: an
:class:`~repro.experiments.spec.ExperimentSpec` grid describes the runs,
a :class:`~repro.experiments.orchestrator.Runner` executes them — serially
or on a process pool (``--workers``), with optional on-disk caching so a
re-run only executes missing cells (``--cache-dir`` + ``--resume``).

Run with::

    python examples/compare_schedulers.py              # ~1-2 minutes
    python examples/compare_schedulers.py --quick      # smaller, ~20 s
    python examples/compare_schedulers.py --workers 4  # parallel cells
"""

from __future__ import annotations

import argparse

from repro.analysis.metrics import completion_fraction_within, improvement_over, mean_metric
from repro.analysis.reporting import ascii_bar_chart, format_table
from repro.analysis.stats import significance_table
from repro.experiments import ExperimentSpec, Runner
from repro.workload.trace import TraceConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run a smaller configuration")
    parser.add_argument("--gpus", type=int, default=None, help="cluster size (multiple of 4)")
    parser.add_argument("--jobs", type=int, default=None, help="number of jobs in the trace")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool size (1 = serial; results are identical)")
    parser.add_argument("--cache-dir", default=None,
                        help="cache per-cell artifacts here (enables --resume)")
    parser.add_argument("--resume", action="store_true",
                        help="skip cells already cached in --cache-dir")
    args = parser.parse_args()
    if args.resume and not args.cache_dir:
        parser.error("--resume requires --cache-dir (the cell cache lives there)")

    num_gpus = args.gpus or (16 if args.quick else 32)
    num_jobs = args.jobs or (10 if args.quick else 20)

    spec = ExperimentSpec.comparison(
        num_gpus=num_gpus,
        seed=args.seed,
        trace=TraceConfig(num_jobs=num_jobs, arrival_rate=1.0 / 30.0),
    )
    print(f"Running {num_jobs} jobs on {num_gpus} GPUs with schedulers: "
          f"{', '.join(spec.schedulers)}")
    runner = Runner(
        backend="process" if args.workers > 1 else "serial",
        workers=args.workers if args.workers > 1 else None,
        cache_dir=args.cache_dir,
    )
    sweep = runner.run(spec, resume=args.resume)
    print(f"[runner] {runner.stats.describe()} ({runner.backend.name} backend)")
    results = sweep.results_for(num_gpus)

    for metric, label in [
        ("jct", "Average JCT (s)"),
        ("execution_time", "Average execution time (s)"),
        ("queuing_time", "Average queuing time (s)"),
    ]:
        print()
        print(label)
        print("-" * len(label))
        averages = {name: mean_metric(result, metric) for name, result in results.items()}
        print(ascii_bar_chart(averages, unit="s"))

    print()
    print("Fraction of jobs completed within 200 s")
    fractions = completion_fraction_within(list(results.values()), 200.0)
    print(ascii_bar_chart({k: 100 * v for k, v in fractions.items()}, unit="%"))

    ones = results["ONES"]
    baselines = {n: r for n, r in results.items() if n != "ONES"}
    print()
    print("ONES average-JCT improvement over baselines:")
    for name, result in baselines.items():
        print(f"  vs {name:10s}: {100 * improvement_over(ones, result):5.1f}%")

    table4 = significance_table(ones, list(baselines.values()))
    print()
    print("Wilcoxon significance tests (Table 4)")
    print(format_table([report.as_row() for report in table4.values()]))


if __name__ == "__main__":
    main()
