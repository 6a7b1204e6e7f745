"""Seeded inputs of the benchmark's workloads.

Every input is a pure function of the workload seed, so a seed names
one input set on any host.  The program receives only what these
functions build: job traces for the offline workloads and a submission
list for the service.

The job traces keep the paper's Poisson arrivals but fix what a small
trace would otherwise leave to chance: the arrival count is fixed and
the times are uniform order statistics over ``num_jobs / rate`` (a
Poisson process conditioned on its count); every 50 jobs cover the
50-template Table-2 catalogue once, in seeded order; and GPU requests
come in the exact proportions of the default request mix, in seeded
order.  The seed still moves every job's arrival time, template order,
size and convergence jitter.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Dict, List

#: Offline workloads: jobs per trace, arrivals per second, GPUs, schedulers,
#: traces per run at ``--seconds 30`` (one program process each), rounds
#: (replays of every scheduler on its trace, interleaved, inside that
#: process; ``run_s`` takes each scheduler's median over them), launches
#: per run that only measure set-up, besides the replaying ones, and
#: whether ``run_s`` is at the reference host speed (:mod:`hostspeed`).
#: It is not for ONES: its two BLAS threads slow the speed blocks
#: themselves (block means 0.66-1.15 ms against 0.6-0.7 ms beside the
#: single-threaded baselines), so scaling would credit a change to the
#: program's threads to the host.
OFFLINE: Dict[str, Dict[str, object]] = {
    "paper-64-ones": {
        "num_jobs": 50,
        "rate": 1.0 / 30.0,
        "gpus": 64,
        "schedulers": ("ONES",),
        "traces": 2,
        "rounds": 1,
        "setup_launches": 0,
        "run_at_reference_speed": False,
    },
    "baselines-64-contended": {
        "num_jobs": 200,
        "rate": 1.0 / 10.0,
        "gpus": 64,
        "schedulers": ("Tiresias", "Optimus", "Gandiva"),
        "traces": 1,
        "rounds": 3,
        "setup_launches": 2,
        "run_at_reference_speed": True,
    },
}

SERVICE = "service-256-hier"
SERVICE_GPUS = 256
SERVICE_SCHEDULER = "ones-hier"
TENANTS = ("tenant-a", "tenant-b")
#: Open-loop phases of one service run at ``--seconds 30``: (offered
#: submissions per wall second, submissions), on one server, in order.
SERVICE_PHASES = ((2.5, 24), (4.0, 38), (8.0, 38))
#: Limit on the tail reply latency for a rate to count as sustained.
SERVICE_TAIL_LIMIT_MS = 1500.0
#: ``serve`` launches per run that only measure set-up, besides the loaded one.
SERVICE_SETUP_LAUNCHES = 2

#: The schedulers' own seed: program configuration (the CLI's default
#: ``--seed``), held fixed so that ``--seed`` varies only the inputs.
PROGRAM_SEED = 2021

#: Request mix of :class:`repro.workload.trace.TraceConfig`'s default.
GPU_CHOICES = (1, 2, 4, 8)
GPU_WEIGHTS = (0.45, 0.30, 0.17, 0.08)


def derive_seed(seed: int, *parts: object) -> int:
    """Stable positive sub-seed for one input of one workload."""
    text = ":".join([str(int(seed))] + [str(p) for p in parts])
    return int(hashlib.sha256(text.encode()).hexdigest()[:12], 16) + 1


def traces_per_run(workload: str, seconds: float) -> int:
    """Traces in one run: the count at 30 s, scaled to ``seconds``, at least one."""
    return max(1, int(int(OFFLINE[workload]["traces"]) * seconds / 30.0))


def build_trace(workload: str, seed: int, index: int) -> list:
    """Trace ``index`` of ``workload`` for ``seed`` (a list of ``JobSpec``)."""
    import numpy as np

    from repro.workload.tasks import build_workload_catalog, make_job_spec

    spec = OFFLINE[workload]
    num_jobs = int(spec["num_jobs"])
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, workload, index)))
    catalog = build_workload_catalog()
    times = np.sort(rng.uniform(0.0, num_jobs / float(spec["rate"]), size=num_jobs))
    times -= times[0]
    rounds = -(-num_jobs // len(catalog))
    templates = np.concatenate([rng.permutation(len(catalog)) for _ in range(rounds)])
    counts = np.floor(np.asarray(GPU_WEIGHTS) * num_jobs).astype(int)
    counts[0] += num_jobs - int(counts.sum())
    gpus = rng.permutation(np.repeat(GPU_CHOICES, counts))
    return [
        make_job_spec(
            catalog[int(templates[i])],
            job_id=f"job-{i:03d}",
            arrival_time=float(times[i]),
            requested_gpus=int(gpus[i]),
            rng=rng,
        )
        for i in range(num_jobs)
    ]


def service_submissions(seed: int, per_tenant: int) -> List[object]:
    """Merged two-tenant load: tenant-a Poisson, tenant-b diurnal, 1/30 s each.

    Arrival times, tenants and names come from
    ``repro.service.load.generate_submissions``.  As in the offline
    traces, the benchmark then fixes what a short stream leaves to
    chance: each tenant's times are scaled so its last arrival falls at
    ``(per_tenant - 1) * 30`` s, every 50 submissions name each Table-2
    template once, and the GPU demands follow the request mix exactly,
    in seeded order.
    """
    import numpy as np

    from repro.service.load import generate_submissions
    from repro.workload.arrivals import ArrivalConfig
    from repro.workload.tasks import build_workload_catalog

    base = ArrivalConfig(rate=1.0 / 30.0, seed=derive_seed(seed, SERVICE))
    span = (per_tenant - 1) * 30.0
    load = []
    for tenant, arrivals in ((TENANTS[0], base), (TENANTS[1], replace(base, profile="diurnal"))):
        stream = generate_submissions([tenant], per_tenant, arrivals=arrivals)
        scale = span / max(s.arrival_time for s in stream)
        load += [replace(s, arrival_time=s.arrival_time * scale) for s in stream]
    load.sort(key=lambda s: (s.arrival_time, s.tenant, s.name))
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, SERVICE, "mix")))
    names = [template.name for template in build_workload_catalog()]
    count = len(load)
    templates = np.concatenate(
        [rng.permutation(len(names)) for _ in range(-(-count // len(names)))]
    )
    demands = np.floor(np.asarray(GPU_WEIGHTS) * count).astype(int)
    demands[0] += count - int(demands.sum())
    replicas = rng.permutation(np.repeat(GPU_CHOICES, demands))
    return [
        replace(s, job_type="any", workload=names[int(templates[i])], replicas=int(replicas[i]))
        for i, s in enumerate(load)
    ]
