"""One BLAS thread by default.

The paper-exact predictor refits its GPR after every job completion
(§3.2.1) on kernel matrices of at most 128×128.  At that size a second
OpenBLAS thread costs more in hand-off than it saves, and numpy and
scipy each load their own OpenBLAS copy, which together oversubscribe a
small host: on 2 CPUs one fit took 140 ms with the default two threads
per copy and 45 ms with one.  The thread count changes no result, only
the time a run takes.

:func:`default_one_thread` runs first in ``repro/__init__.py``, before
anything loads numpy.  When none of ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` is set, it sets all three to
``1``: OpenBLAS reads them when it loads, and child processes inherit
them.  A copy that is already loaded (numpy imported before ``repro``)
is told through its exported setter, the way threadpoolctl does it.  A
variable the user has set always wins: then nothing is changed.

This module must not import numpy.
"""

from __future__ import annotations

import ctypes
import glob
import os
import sys
from typing import Callable, Dict, Iterator, Tuple

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Thread-count entry points of the OpenBLAS that numpy and scipy wheels
#: ship (``scipy_openblas``); numpy's copy carries the ILP64 suffix.
_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads")


def _loaded_openblas() -> Iterator[Tuple[str, Callable[[], int], Callable[[int], None]]]:
    """``(package, get_threads, set_threads)`` per OpenBLAS copy loaded now.

    Looks only in the wheel library directories (``numpy.libs``,
    ``scipy.libs``) of packages already imported, and opens each file
    with ``RTLD_NOLOAD`` so a copy that is not loaded yet stays unloaded.
    """
    no_load = getattr(os, "RTLD_NOLOAD", None)
    if no_load is None:  # not a dlopen platform
        return
    for package in ("numpy", "scipy"):
        location = getattr(sys.modules.get(package), "__file__", None)
        if not location:
            continue
        site = os.path.dirname(os.path.dirname(location))
        pattern = os.path.join(site, f"{package}.libs", "libscipy_openblas*")
        for path in sorted(glob.glob(pattern)):
            try:
                library = ctypes.CDLL(path, mode=no_load)
            except OSError:
                continue
            for template in _SYMBOLS:
                if hasattr(library, template.format("get")):
                    get_threads = getattr(library, template.format("get"))
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    set_threads = getattr(library, template.format("set"))
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    yield package, get_threads, set_threads
                    break


def default_one_thread() -> None:
    """Default every BLAS to one thread unless the user chose a count."""
    if any(name in os.environ for name in _THREAD_VARS):
        return
    for name in _THREAD_VARS:
        os.environ[name] = "1"
    for _, _, set_threads in _loaded_openblas():
        set_threads(1)


def blas_threads() -> Dict[str, int]:
    """Effective thread count of each loaded OpenBLAS copy, by package."""
    return {package: get_threads() for package, get_threads, _ in _loaded_openblas()}
