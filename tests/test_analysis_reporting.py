"""Tests for repro.analysis.reporting."""

import numpy as np
import pytest

from repro.analysis.reporting import (
    ascii_bar_chart,
    ascii_cdf,
    ascii_series,
    format_table,
)


class TestFormatTable:
    def test_renders_columns_and_rows(self):
        rows = [{"a": 1.0, "b": "x"}, {"a": 2.5, "b": "y"}]
        text = format_table(rows)
        assert "a" in text and "b" in text
        assert "2.50" in text
        assert text.count("\n") >= 3

    def test_empty(self):
        assert format_table([]) == "(empty table)"

    def test_explicit_columns_and_missing_cells(self):
        rows = [{"a": 1.0}]
        text = format_table(rows, columns=["a", "missing"])
        assert "missing" in text

    def test_scientific_notation_for_tiny_values(self):
        text = format_table([{"p": 5.2e-8}])
        assert "e-08" in text


class TestAsciiBarChart:
    def test_bars_scale_with_values(self):
        chart = ascii_bar_chart({"ONES": 100.0, "Tiresias": 400.0})
        lines = chart.splitlines()
        assert lines[1].count("#") > lines[0].count("#")

    def test_empty(self):
        assert ascii_bar_chart({}) == "(no data)"

    def test_zero_values_do_not_crash(self):
        assert "0.00" in ascii_bar_chart({"a": 0.0})


class TestAsciiCdf:
    def test_tabulates_thresholds(self):
        x = np.array([1.0, 10.0, 100.0])
        cf = np.array([0.2, 0.6, 1.0])
        text = ascii_cdf({"ONES": (x, cf)}, thresholds=[5.0, 50.0, 500.0], label="jct")
        assert "jct" in text
        assert "ONES" in text

    def test_empty(self):
        assert ascii_cdf({}, thresholds=[1.0]) == "(no data)"


class TestAsciiSeries:
    def test_rows_per_x_value(self):
        text = ascii_series([16, 32], {"ONES": [100, 50], "DRL": [150, 80]}, x_label="gpus")
        assert "16" in text and "32" in text
        assert "ONES" in text and "DRL" in text
