"""The one-BLAS-thread default (``repro._blas``).

Each check runs in a fresh interpreter, because the thread count is
process state and this test process has long since loaded numpy.  The
probe below reads the counts through ctypes on its own, so it does not
import ``repro`` before the step under test.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PROBE = textwrap.dedent(
    """
    import ctypes, glob, json, os, sys

    def counts():
        found = {}
        for package, getter in (
            ("numpy", "scipy_openblas_get_num_threads64_"),
            ("scipy", "scipy_openblas_get_num_threads"),
        ):
            site = os.path.dirname(os.path.dirname(sys.modules[package].__file__))
            for path in glob.glob(os.path.join(site, package + ".libs", "*openblas*")):
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
                found[package] = int(getattr(lib, getter)())
        return found
    """
)


def _env(**overrides: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    env.update(overrides)
    return env


def _python(code: str, env: dict) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", PROBE + textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


needs_dlopen = pytest.mark.skipif(
    not hasattr(os, "RTLD_NOLOAD"), reason="thread probe needs dlopen(RTLD_NOLOAD)"
)


@needs_dlopen
class TestThreadDefault:
    def test_import_repro_first_sets_one_thread(self):
        seen = _python(
            """
            import repro
            import scipy.linalg
            print(json.dumps(dict(counts(), env=os.environ["OPENBLAS_NUM_THREADS"])))
            """,
            _env(),
        )
        assert seen == {"numpy": 1, "scipy": 1, "env": "1"}

    def test_numpy_loaded_before_repro_is_set_through_ctypes(self):
        seen = _python(
            """
            import numpy, scipy.linalg
            import repro
            print(json.dumps(counts()))
            """,
            _env(),
        )
        assert seen == {"numpy": 1, "scipy": 1}

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS caps threads at CPUs")
    def test_user_setting_wins(self):
        seen = _python(
            """
            import repro
            import scipy.linalg
            from repro._blas import blas_threads
            print(json.dumps(dict(counts(), reported=blas_threads())))
            """,
            _env(OPENBLAS_NUM_THREADS="2"),
        )
        assert seen == {"numpy": 2, "scipy": 2, "reported": {"numpy": 2, "scipy": 2}}


def test_thread_count_does_not_change_the_run(tmp_path):
    """A 16-GPU, 10-job ONES trace is byte-equal with one and two threads."""
    payloads = []
    for threads in ("1", "2"):
        out = tmp_path / f"run-{threads}.json"
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", "--scheduler", "ones",
             "--gpus", "16", "--jobs", "10", "--seed", "7", "--json", str(out)],
            capture_output=True, text=True, env=_env(OPENBLAS_NUM_THREADS=threads),
            timeout=300, check=True,
        )
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]
