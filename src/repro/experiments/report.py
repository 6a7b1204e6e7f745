"""Markdown report generation for comparison and sweep experiments.

``build_comparison_report`` renders one comparison slice of a
:class:`~repro.experiments.artifacts.SweepArtifact` — a capacity plus an
optional fault-axis index — as a self-contained Markdown document
(headline averages, distributions, improvements, Wilcoxon tests,
per-scheduler telemetry), which the CLI can write next to the exported
CSV/JSON artefacts.  Telemetry comes from each cell's
:class:`~repro.experiments.artifacts.RunArtifact`, computed while the
live ``Job`` objects still existed.  ``build_sweep_report`` renders a
whole sweep grid (the Fig. 17/18 tables) the same way.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.analysis.metrics import compare_results, improvement_over
from repro.analysis.stats import significance_table
from repro.experiments.artifacts import SweepArtifact

PathLike = Union[str, Path]


def _markdown_table(rows: Sequence[Dict[str, object]]) -> str:
    """Render dict rows as a GitHub-flavoured Markdown table."""
    if not rows:
        return "_(no data)_"
    columns = list(rows[0].keys())
    lines = ["| " + " | ".join(str(c) for c in columns) + " |",
             "|" + "|".join("---" for _ in columns) + "|"]
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(f"{value:.2f}")
            else:
                cells.append(str(value))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def build_comparison_report(
    sweep: SweepArtifact,
    capacity: int,
    fault_index: int = 0,
    reference: str = "ONES",
    title: str = "Scheduler comparison report",
) -> str:
    """Build the full Markdown report for one comparison slice of ``sweep``.

    The slice is every scheduler's cell at ``capacity`` on the sweep's
    first seed and trace, under fault-axis entry ``fault_index``.
    """
    by_name = sweep.results_for(capacity, fault_index=fault_index)
    results = list(by_name.values())
    capacity = int(capacity)
    seed = sweep.spec.seeds[0]
    lines: List[str] = [f"# {title}", ""]
    lines.append(f"- Cluster: **{capacity} GPUs** ({capacity // 4} Longhorn-style nodes)")
    lines.append(f"- Trace: **{sweep.spec.traces[0].num_jobs} jobs**, seed {seed}")
    lines.append(f"- Schedulers: {', '.join(by_name)}")
    lines.append("")

    # Headline averages.
    lines.append("## Average metrics")
    lines.append("")
    rows = []
    for name, result in by_name.items():
        rows.append(
            {
                "scheduler": name,
                "avg JCT (s)": result.average_jct,
                "avg execution (s)": result.average_execution_time,
                "avg queuing (s)": result.average_queuing_time,
                "GPU utilisation": result.gpu_utilization,
                "incomplete jobs": len(result.incomplete),
            }
        )
    lines.append(_markdown_table(rows))
    lines.append("")

    # Distributions.
    lines.append("## JCT distribution")
    lines.append("")
    summaries = compare_results(results, "jct")
    lines.append(
        _markdown_table(
            [
                {
                    "scheduler": name,
                    "p25": s.stats.p25,
                    "median": s.stats.median,
                    "p75": s.stats.p75,
                    "max": s.stats.maximum,
                    "jobs within 200 s": f"{100 * s.fraction_within(200.0):.0f}%",
                }
                for name, s in summaries.items()
            ]
        )
    )
    lines.append("")

    # Improvements + significance relative to the reference scheduler.
    if reference in by_name:
        lines.append(f"## {reference} vs the baselines")
        lines.append("")
        ref_result = by_name[reference]
        baselines = {n: r for n, r in by_name.items() if n != reference}
        tests = significance_table(ref_result, list(baselines.values()))
        rows = []
        for name, result in baselines.items():
            value = improvement_over(ref_result, result)
            report = tests.get(name)
            rows.append(
                {
                    "baseline": name,
                    "avg JCT reduction": f"{100 * value:.1f}%",
                    "p (two-sided)": report.p_two_sided if report else float("nan"),
                    "p (one-sided negative)": report.p_one_sided_greater if report else float("nan"),
                    "significant": "yes" if report and report.ours_is_smaller else "no",
                }
            )
        lines.append(_markdown_table(rows))
        lines.append("")

    # Telemetry was summarised at simulation time: the artifacts' results
    # carry no live Job objects to summarise from.
    lines.append("## Cluster telemetry")
    lines.append("")
    telemetry_rows = [
        dict(sweep.get(name, capacity, seed, fault_index=fault_index).telemetry)
        for name in by_name
    ]
    lines.append(_markdown_table(telemetry_rows))
    lines.append("")
    lines.append(
        "_Fraction-of-jobs and utilisation figures are computed from the same "
        "simulation traces as the averages above._"
    )
    return "\n".join(lines)


def write_comparison_report(
    sweep: SweepArtifact,
    capacity: int,
    path: PathLike,
    fault_index: int = 0,
    reference: str = "ONES",
    title: str = "Scheduler comparison report",
) -> Path:
    """Build the comparison report of one slice and write it to ``path``."""
    path = Path(path)
    report = build_comparison_report(
        sweep, capacity, fault_index=fault_index, reference=reference, title=title
    )
    path.write_text(report + "\n")
    return path


def build_sweep_report(
    sweep: SweepArtifact,
    reference: str = "ONES",
    title: str = "Scalability sweep report",
) -> str:
    """Markdown report of a declarative sweep (Fig. 17/18 style tables)."""
    spec = sweep.spec
    lines: List[str] = [f"# {title}", ""]
    lines.append(f"- Schedulers: {', '.join(spec.schedulers)}")
    lines.append(f"- Capacities: {', '.join(str(c) for c in spec.capacities)} GPUs")
    lines.append(f"- Seeds: {', '.join(str(s) for s in spec.seeds)}")
    lines.append(
        f"- Traces: {', '.join(str(t.num_jobs) + ' jobs' for t in spec.traces)}"
    )
    lines.append("")

    for metric, heading in (
        ("jct", "Average JCT (s) vs cluster capacity (Fig. 17)"),
        ("queuing_time", "Average queuing time (s) vs cluster capacity"),
    ):
        table = sweep.mean_metric_table(metric)
        lines.append(f"## {heading}")
        lines.append("")
        lines.append(
            _markdown_table(
                [
                    {"scheduler": name, **{f"{c} GPUs": by_cap.get(c, float("nan"))
                                           for c in spec.capacities}}
                    for name, by_cap in table.items()
                ]
            )
        )
        lines.append("")

    # relative_to divides by the reference cell's mean, which a dead
    # placeholder cannot provide — skip the ratio table in that case
    # (the "Dead cells" section below explains why).
    if reference in spec.schedulers and not sweep.dead_runs():
        relative = sweep.relative_to(reference, "jct")
        lines.append(f"## Relative JCT, {reference} = 1.0 (Fig. 18)")
        lines.append("")
        lines.append(
            _markdown_table(
                [
                    {"scheduler": name, **{f"{c} GPUs": by_cap.get(c, float("nan"))
                                           for c in spec.capacities}}
                    for name, by_cap in relative.items()
                ]
            )
        )
        lines.append("")

    # Robustness sweeps carry a fault axis: surface the recovery metrics
    # (goodput, evictions, restarts, lost GPU-seconds, downtime) and the
    # JCT-degradation headline for every faulted slice of the grid.
    for fault_index, fault in enumerate(spec.faults):
        if fault is None:
            continue
        lines.append(f"## Fault recovery — {fault.describe()}")
        lines.append("")
        if None in spec.faults:
            degradation = sweep.fault_degradation("jct", fault_index=fault_index)
            lines.append("JCT degradation vs the zero-fault twin cells "
                         "(1.0 = faults fully absorbed):")
            lines.append("")
            lines.append(
                _markdown_table(
                    [
                        {"scheduler": name, "JCT degradation": value}
                        for name, value in degradation.items()
                    ]
                )
            )
            lines.append("")
        recovery_rows = [
            {
                "cell": row["cell"],
                "avg JCT (s)": row["average_jct"],
                "goodput": row["goodput"],
                "evictions": row["evictions"],
                "restarts": row["restarts"],
                "lost GPU-s": row["lost_gpu_seconds"],
                "downtime GPU-s": row["downtime_gpu_seconds"],
                "incomplete": row["incomplete"],
            }
            for row in sweep.recovery_table(fault_index=fault_index)
        ]
        lines.append(_markdown_table(recovery_rows))
        lines.append("")

    dead = sweep.dead_runs()
    if dead:
        lines.append("## Dead cells")
        lines.append("")
        lines.append(
            "The following cells exhausted their retry budget and are "
            "reported as placeholders — their metrics are excluded from "
            "every table above."
        )
        lines.append("")
        lines.append(
            _markdown_table(
                [
                    {
                        "cell": run.spec.label(),
                        "cell_key": run.spec.cell_key(),
                        "error": (run.error or "")[:80],
                    }
                    for run in dead
                ]
            )
        )
        lines.append("")
    lines.append(
        "_Values are means over the grid's seeds and traces; per-cell results "
        "live in the sweep artifact JSON._"
    )
    return "\n".join(lines)


def write_sweep_report(
    sweep: SweepArtifact,
    path: PathLike,
    reference: str = "ONES",
    title: str = "Scalability sweep report",
) -> Path:
    """Build the sweep report and write it to ``path``; returns the path."""
    path = Path(path)
    path.write_text(build_sweep_report(sweep, reference=reference, title=title) + "\n")
    return path
