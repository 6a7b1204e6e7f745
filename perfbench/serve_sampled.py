"""``repro-ones serve`` with the host's speed sampled (:mod:`hostspeed`).

Run by ``run.py``: ``python3 perfbench/serve_sampled.py SAMPLES_PATH
serve ARGS...``.  It starts the sampler before anything of the program
is imported and runs ``repro.cli.main(["serve", ARGS...])`` exactly as
``python -m repro.cli serve ARGS...`` would.  ``SIGUSR1``, which
``run.py`` sends once it has read the readiness line, stops the
sampler, so that only set-up is sampled.  When the server has shut down
the speed blocks are written to SAMPLES_PATH.
"""

from __future__ import annotations

import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import hostspeed  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    sampler = hostspeed.Sampler().start()
    signal.signal(signal.SIGUSR1, lambda _signum, _frame: sampler.stop())
    from repro.cli import main as cli_main

    code = cli_main(argv)
    sampler.stop()
    with open(path, "w") as handle:
        json.dump(sampler.as_dict(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
