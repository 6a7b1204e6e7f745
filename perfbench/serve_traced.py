"""The service's server with the layer wrappers installed.

The traced twin of ``repro-ones serve --mode virtual``: it installs the
wrappers of :mod:`spans`, builds the same ``ServiceConfig`` the CLI
would, and calls ``repro.service.http.run_server``.  After the client's
shutdown op it writes the per-layer reduction and the server-side
``submit`` span of every submission (keyed by the submission name) to
``--summary``, and every span to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scheduler", required=True)
    parser.add_argument("--gpus", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tenant", action="append", default=[])
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--summary", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    recorder = spans.Recorder()
    with recorder.phase("setup.import_s"):
        from repro.experiments.registry import resolve
        from repro.service.http import run_server
        from repro.service.schemas import ServiceConfig, TenantQuota
    spans.install(recorder)
    config = ServiceConfig(
        num_gpus=args.gpus,
        scheduler=resolve(args.scheduler).name,
        seed=args.seed,
        mode="virtual",
        tenants=tuple(TenantQuota(tenant=name) for name in args.tenant),
    )
    run_server(config, host="127.0.0.1", port=0)
    end = perf_counter()

    metrics = spans.layer_metrics(recorder, end - args.launch)
    summary = {
        "layers": metrics,
        "rows_sum_ok": spans.rows_sum_check(metrics, end - args.launch),
        "submit_spans": recorder.keyed_spans("service.decision_self_s"),
    }
    with open(args.summary, "w") as handle:
        json.dump(summary, handle)
    recorder.write(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
