"""Unit constants and human-readable formatting helpers.

All simulator quantities use SI base units internally: seconds for time,
bytes for data sizes, FLOP/s for compute rates and bytes/second for
bandwidths.  The constants below are multipliers to those base units.
"""

from __future__ import annotations

# --- data sizes (bytes) ---------------------------------------------------
KB: float = 1e3
MB: float = 1e6
GB: float = 1e9
KIB: float = 1024.0
MIB: float = 1024.0**2
GIB: float = 1024.0**3

# --- generic SI multipliers ------------------------------------------------
KILO: float = 1e3
MEGA: float = 1e6
GIGA: float = 1e9
TERA: float = 1e12

# --- time (seconds) ---------------------------------------------------------
MICROSECOND: float = 1e-6
MILLISECOND: float = 1e-3
SECOND: float = 1.0
MINUTE: float = 60.0
HOUR: float = 3600.0
DAY: float = 86400.0


def format_duration(seconds: float) -> str:
    """Format a duration in seconds as a compact human-readable string."""
    seconds = float(seconds)
    if seconds < 0:
        return "-" + format_duration(-seconds)
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < MINUTE:
        return f"{seconds:.2f}s"
    if seconds < HOUR:
        minutes, rem = divmod(seconds, MINUTE)
        return f"{int(minutes)}m{rem:04.1f}s"
    hours, rem = divmod(seconds, HOUR)
    minutes = rem / MINUTE
    return f"{int(hours)}h{minutes:04.1f}m"
