"""Shared utilities for the ONES reproduction.

This subpackage holds small, dependency-free helpers used throughout the
library: deterministic random-number management (:mod:`repro.utils.rng`),
unit constants and formatting (:mod:`repro.utils.units`), argument
validation (:mod:`repro.utils.validation`) and summary-statistics helpers
(:mod:`repro.utils.stats`).
"""

from repro.utils.rng import RngFactory, as_generator, spawn_generator
from repro.utils.units import (
    GB,
    GIGA,
    KB,
    MB,
    MEGA,
    MICROSECOND,
    MILLISECOND,
    MINUTE,
    HOUR,
    format_duration,
)
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)
from repro.utils.stats import (
    SummaryStats,
    cumulative_frequency,
    summarize,
)

__all__ = [
    "RngFactory",
    "as_generator",
    "spawn_generator",
    "GB",
    "GIGA",
    "KB",
    "MB",
    "MEGA",
    "MICROSECOND",
    "MILLISECOND",
    "MINUTE",
    "HOUR",
    "format_duration",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "SummaryStats",
    "cumulative_frequency",
    "summarize",
]
