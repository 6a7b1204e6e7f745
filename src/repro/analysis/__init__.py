"""Analysis of simulation results: metrics, significance tests, reports.

* :mod:`repro.analysis.metrics` — JCT / execution / queuing summaries,
  distributions and cumulative-frequency curves (Fig. 15).
* :mod:`repro.analysis.stats` — Wilcoxon signed-rank significance tests
  (Table 4).
* :mod:`repro.analysis.reporting` — text tables and ASCII charts used by
  the benchmark harness to print paper-style figures.
"""

from repro.analysis.metrics import (
    MetricSummary,
    compare_results,
    improvement_over,
    metric_summary,
    relative_jct,
)
from repro.analysis.stats import WilcoxonReport, wilcoxon_comparison, significance_table
from repro.analysis.reporting import (
    ascii_bar_chart,
    ascii_cdf,
    format_table,
)
from repro.analysis.export import (
    export_comparison_csv,
    export_comparison_json,
    export_result_csv,
    export_result_json,
    export_sweep_json,
)

__all__ = [
    "export_comparison_csv",
    "export_comparison_json",
    "export_result_csv",
    "export_result_json",
    "export_sweep_json",
    "MetricSummary",
    "compare_results",
    "improvement_over",
    "metric_summary",
    "relative_jct",
    "WilcoxonReport",
    "wilcoxon_comparison",
    "significance_table",
    "ascii_bar_chart",
    "ascii_cdf",
    "format_table",
]
