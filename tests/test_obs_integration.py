"""Observability integration: tracing is invisible to simulation outputs.

The determinism contract has two halves, both pinned here:

* a traced run is **bit-identical** in its simulation outputs to an
  untraced run (the recorder never consumes RNG state or touches the
  virtual clock), and
* two identical traced runs export **byte-identical** trace files
  (record ordering is deterministic in virtual time).

Plus the content checks from the acceptance list — a hierarchical run
emits reconfig decisions, per-shard generations, and reconciler
assignments — and the ``SimProfile`` keys, row sums and per-shard
charging.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.cluster.topology import make_longhorn_cluster
from repro.core.evolution import EvolutionConfig
from repro.core.ones_scheduler import ONESConfig, ONESScheduler
from repro.core.partitioned import HierarchicalConfig, HierarchicalONESScheduler
from repro.faults import FaultConfig, FaultInjection, FaultKind
from repro.experiments.registry import create_scheduler
from repro.obs.trace import TraceRecorder, install_tracer, uninstall_tracer
from repro.sim.profiling import SimProfile, activate, charge, mark
from repro.sim.simulator import ClusterSimulator, SimulationConfig, SimulationResult
from repro.workload.trace import TraceConfig, TraceGenerator

warnings.filterwarnings("ignore", message="Covariance of the parameters")

SEED = 2021


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    uninstall_tracer()
    yield
    uninstall_tracer()


def _trace(num_jobs=6, seed=17):
    config = TraceConfig(
        num_jobs=num_jobs, arrival_rate=1.0 / 20.0, convergence_patience=3
    )
    return TraceGenerator(config, seed=seed).generate()


def _faults():
    return FaultConfig(
        injections=(
            FaultInjection(60.0, FaultKind.NODE_DOWN, 1),
            FaultInjection(150.0, FaultKind.NODE_UP, 1),
        )
    )


def _ones():
    return ONESScheduler(
        ONESConfig(evolution=EvolutionConfig(population_size=4)), seed=SEED
    )


def _hier(partitions=2):
    return HierarchicalONESScheduler(
        HierarchicalConfig(
            partitions=partitions,
            ones=ONESConfig(evolution=EvolutionConfig(population_size=4)),
        ),
        seed=SEED,
    )


def _run(scheduler, faults=None, collect_profile=False, num_gpus=16):
    simulator = ClusterSimulator(
        make_longhorn_cluster(num_gpus),
        scheduler,
        _trace(),
        config=SimulationConfig(faults=faults, collect_profile=collect_profile),
    )
    return simulator.run()


def _payload(result):
    payload = result.to_dict()
    payload.pop("profile", None)  # wall-clock, host-specific by design
    return json.dumps(payload, sort_keys=True)


class TestBitIdentity:
    def test_traced_run_matches_untraced_run(self):
        baseline = _payload(_run(_ones(), faults=_faults()))
        install_tracer(TraceRecorder())
        traced = _payload(_run(_ones(), faults=_faults()))
        assert traced == baseline

    def test_dormant_recorder_also_invisible(self):
        baseline = _payload(_run(_ones()))
        install_tracer(TraceRecorder(enabled=False))
        assert _payload(_run(_ones())) == baseline

    def test_two_traced_runs_export_identical_bytes(self, tmp_path):
        paths = []
        for name in ("a", "b"):
            tracer = install_tracer(TraceRecorder())
            _run(_hier(), faults=_faults())
            path = tmp_path / f"{name}.jsonl"
            tracer.export_jsonl(str(path))
            uninstall_tracer()
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].stat().st_size > 0


class TestTraceContent:
    @pytest.fixture(scope="class")
    def hier_records(self):
        uninstall_tracer()
        tracer = install_tracer(TraceRecorder())
        _run(_hier(), faults=_faults())
        uninstall_tracer()
        return tracer.records()

    def test_reconfig_decisions_recorded_with_scores(self, hier_records):
        decisions = [r for r in hier_records if r["name"] == "reconfig_decision"]
        assert decisions
        for record in decisions:
            attrs = record["attrs"]
            assert isinstance(attrs["score"], float)
            # The search adapts its population to the active-job count,
            # so the trace records whatever size that evolution used.
            assert attrs["population_size"] >= 1
            assert attrs["generations"] >= 1
            assert isinstance(attrs["deployed"], bool)

    def test_per_shard_generations_recorded(self, hier_records):
        generations = [r for r in hier_records if r["name"] == "generation"]
        shards = {r["attrs"]["shard"] for r in generations}
        assert shards >= {"p0", "p1"}
        # Generation numbers count up within each shard.
        for shard in sorted(shards):
            numbers = [
                r["attrs"]["generation"] for r in generations
                if r["attrs"]["shard"] == shard
            ]
            assert numbers == sorted(numbers)

    def test_reconciler_assignments_recorded(self, hier_records):
        assigns = [r for r in hier_records if r["name"] == "assign"]
        assert assigns
        assert all(r["cat"] == "reconciler" for r in assigns)
        assert all("job" in r["attrs"] and "partition" in r["attrs"] for r in assigns)

    def test_fault_events_recorded(self, hier_records):
        names = {r["name"] for r in hier_records if r["cat"] == "fault"}
        assert "node_down" in names
        assert "node_up" in names

    def test_kernel_spans_wrap_scheduler_records(self, hier_records):
        spans = [
            r for r in hier_records
            if r["cat"] == "kernel" and r["name"].startswith("event:")
        ]
        assert spans
        span_seqs = {r["seq"] for r in spans}
        evolves = [r for r in hier_records if r["name"] == "evolve"]
        assert evolves
        assert all(r["parent"] in span_seqs for r in evolves)

    def test_timestamps_are_virtual_and_monotonic(self, hier_records):
        times = [r["t"] for r in hier_records]
        assert times == sorted(times)
        assert times[-1] < 1e9  # virtual seconds, not a wall-clock epoch


class TestSimProfileRoundTrip:
    """Stable string keys, and the profile's route into the result."""

    def test_profile_keys_are_stable_strings(self):
        profile = _run(_ones(), faults=_faults(), collect_profile=True).profile
        assert profile
        for key in profile:
            assert "EventKind." not in key
            assert key == key.lower()
        assert "handler_job_arrival_seconds" in profile
        assert "events_node_down" in profile

    def test_profile_round_trips_through_result_json(self):
        result = _run(_ones(), collect_profile=True)
        assert "gpr_refit_seconds" in result.profile
        clone = SimulationResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone.profile == result.profile

    def test_charged_phases_land_in_as_dict(self):
        profile = SimProfile()
        previous = activate(profile)
        try:
            start = charge("gpr_refit", mark())
            charge("evo_mutation", start)
        finally:
            activate(previous)
        charge("evo_mutation", mark())  # no active profile: not recorded
        payload = profile.as_dict()
        assert payload["gpr_refit_seconds"] >= 0.0
        assert set(profile.phases) == {"gpr_refit", "evo_mutation"}

    def test_disjoint_rows_sum_to_total(self):
        payload = _run(_hier(), faults=_faults(), collect_profile=True).profile
        disjoint = payload["advance_seconds"] + payload["unattributed_seconds"] + sum(
            value for key, value in payload.items() if key.startswith("handler_")
        )
        assert disjoint == pytest.approx(payload["total_seconds"], rel=1e-9)
        assert payload["unattributed_seconds"] >= 0.0
        # The nested phases fit inside the handler rows that contain them.
        handled = sum(v for k, v in payload.items() if k.startswith("handler_"))
        nested = sum(
            v for k, v in payload.items()
            if k.startswith(("gpr_refit", "evo_", "rescore_"))
        )
        assert nested <= handled


class TestPartitionedProfile:
    def test_every_shard_charges_the_run_profile(self):
        # Each partition's inner ONES instance has its own predictor and
        # search; all of them charge the one profile of the run.
        trace = TraceGenerator(
            TraceConfig(num_jobs=12, arrival_rate=1.0 / 10.0, convergence_patience=3),
            seed=SEED,
        ).generate()
        scheduler = create_scheduler("ONES-hier", SEED, partition_size=32)
        result = ClusterSimulator(
            make_longhorn_cluster(64),
            scheduler,
            trace,
            config=SimulationConfig(collect_profile=True),
        ).run()
        assert scheduler.describe_state()["partitions"] == 2
        profile = result.profile
        for phase in (
            "gpr_refit", "evo_fill", "evo_crossover", "evo_mutation", "evo_selection"
        ):
            assert profile[f"{phase}_seconds"] > 0.0, phase
