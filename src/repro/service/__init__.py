"""Scheduler-as-a-service: an online submission API over a live simulator.

The offline pipeline replays a complete trace through
:class:`~repro.sim.simulator.ClusterSimulator`; this subpackage turns the
same simulator into a *service* — a long-running process that accepts
job submissions while the simulated cluster is live, decides placements
with any registered scheduler, and reports decision latency as a
first-class SLO metric:

* :mod:`repro.service.schemas` — typed request/response dataclasses
  (submission, decision, tenant quota, service config) with exact JSON
  round-trips and boundary validation;
* :mod:`repro.service.engine` — :class:`SchedulerService`: admission,
  deterministic workload instantiation, kernel stepping, latency
  histograms and per-tenant telemetry;
* :mod:`repro.service.streams` — bounded per-tenant decision/completion
  pub/sub;
* :mod:`repro.service.http` — stdlib JSONL-over-TCP transport (asyncio
  server + blocking client) behind the ``repro-ones serve`` /
  ``submit`` / ``service-status`` CLI verbs;
* :mod:`repro.service.load` — deterministic multi-tenant load
  generation from the seeded arrival-profile registry.

Determinism contract: in ``virtual`` time mode, a recorded trace pushed
through the service produces *bit-identical* placement decisions and
final metrics to an offline ``ClusterSimulator.run`` of the same trace —
enforced by the golden-parity test in ``tests/test_service_parity.py``.
"""

from repro.service.schemas import (
    AdmissionError,
    JobSubmission,
    JobType,
    PlacementDecision,
    SchemaValidationError,
    ServiceConfig,
    TenantQuota,
)
from repro.service.engine import SchedulerService, TenantState
from repro.service.streams import ALL_TENANTS, StreamHub
from repro.service.http import DEFAULT_PORT, ServiceClient, ServiceServer, run_server
from repro.service.load import (
    arrival_summary,
    generate_submissions,
    tenant_seed,
)

__all__ = [
    "AdmissionError",
    "JobSubmission",
    "JobType",
    "PlacementDecision",
    "SchemaValidationError",
    "ServiceConfig",
    "TenantQuota",
    "SchedulerService",
    "TenantState",
    "ALL_TENANTS",
    "StreamHub",
    "DEFAULT_PORT",
    "ServiceClient",
    "ServiceServer",
    "run_server",
    "arrival_summary",
    "generate_submissions",
    "tenant_seed",
]
