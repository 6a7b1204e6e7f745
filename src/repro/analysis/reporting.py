"""Plain-text reporting: tables and ASCII charts.

The benchmark harness runs in a terminal without matplotlib, so every
figure of the paper is rendered as a text table plus (where it helps) an
ASCII bar chart or CDF so the *shape* of the result is visible directly
in the benchmark output.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    float_format: str = "{:.2f}",
) -> str:
    """Render a list of dict rows as an aligned text table."""
    rows = list(rows)
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col, "")
            if isinstance(value, float):
                if value != 0 and (abs(value) < 1e-3 or abs(value) >= 1e6):
                    cells.append(f"{value:.3e}")
                else:
                    cells.append(float_format.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)
    widths = [
        max(len(str(col)), max(len(r[i]) for r in rendered))
        for i, col in enumerate(columns)
    ]
    header = " | ".join(str(col).ljust(w) for col, w in zip(columns, widths))
    separator = "-+-".join("-" * w for w in widths)
    body = "\n".join(
        " | ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rendered
    )
    return "\n".join([header, separator, body])


def ascii_bar_chart(
    values: Mapping[str, float], width: int = 40, unit: str = ""
) -> str:
    """Horizontal ASCII bar chart, one bar per labelled value."""
    if not values:
        return "(no data)"
    maximum = max(abs(v) for v in values.values())
    if maximum <= 0:
        maximum = 1.0
    label_width = max(len(str(k)) for k in values)
    lines = []
    for label, value in values.items():
        bar = "#" * max(1, int(round(width * abs(value) / maximum)))
        lines.append(f"{str(label).ljust(label_width)} | {bar} {value:.2f}{unit}")
    return "\n".join(lines)


def ascii_cdf(
    curves: Mapping[str, Tuple[np.ndarray, np.ndarray]],
    thresholds: Sequence[float],
    label: str = "value",
) -> str:
    """Tabulate CDF curves at a set of thresholds (one row per threshold)."""
    if not curves:
        return "(no data)"
    rows: List[Dict[str, object]] = []
    for threshold in thresholds:
        row: Dict[str, object] = {label: threshold}
        for name, (x, cf) in curves.items():
            idx = np.searchsorted(x, threshold, side="right") - 1
            if idx < 0:
                row[name] = 0.0
            else:
                row[name] = float(cf[min(idx, len(cf) - 1)])
        rows.append(row)
    return format_table(rows, columns=[label] + list(curves.keys()), float_format="{:.2f}")


def ascii_series(
    x_values: Sequence[float],
    series: Mapping[str, Sequence[float]],
    x_label: str = "x",
) -> str:
    """Tabulate several y-series over shared x values (Fig. 17/18 style)."""
    rows: List[Dict[str, object]] = []
    for i, x in enumerate(x_values):
        row: Dict[str, object] = {x_label: x}
        for name, ys in series.items():
            row[name] = float(ys[i])
        rows.append(row)
    return format_table(rows, columns=[x_label] + list(series.keys()))
