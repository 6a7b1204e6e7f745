"""Behavioural tests of ONES's policy details (§3.2.2 Update, §3.3.2 policies)."""

import pytest

from repro.baselines.base import ClusterState
from repro.cluster.allocation import Allocation
from repro.cluster.topology import make_longhorn_cluster
from repro.core.evolution import EvolutionConfig
from repro.core.ones_scheduler import ONESConfig, ONESScheduler
from repro.jobs.throughput import ThroughputModel
from repro.sim.simulator import ClusterSimulator, SimulationConfig
from repro.workload.trace import TraceConfig, TraceGenerator
from tests.conftest import make_job, make_running_job


def _state(jobs, topology, allocation=None, now=0.0):
    return ClusterState(
        now=now,
        topology=topology,
        throughput_model=ThroughputModel(topology),
        allocation=allocation or Allocation.empty(),
        jobs=jobs,
    )


@pytest.fixture
def scheduler():
    return ONESScheduler(ONESConfig(evolution=EvolutionConfig(population_size=4)), seed=3)


@pytest.fixture
def topology():
    return make_longhorn_cluster(8)


class TestUpdateCondition:
    def test_first_deployment_is_immediate(self, scheduler, topology):
        job = make_job(job_id="a")
        state = _state({"a": job}, topology)
        assert scheduler._may_full_update(state)

    def test_blocked_until_every_running_job_finishes_an_epoch(self, scheduler, topology):
        job = make_job(job_id="a")
        state = _state({"a": job}, topology)
        proposal = scheduler.on_job_arrival(job, state)
        assert proposal is not None
        config = proposal.config_of("a")
        job.start_running(0.0, config.gpu_ids, config.local_batches)
        running_state = _state({"a": job}, topology, proposal, now=1.0)
        # No epoch finished since the deployment: a full update is not allowed.
        assert not scheduler._may_full_update(running_state)
        job.advance(job.dataset_size, 10.0)
        job.complete_epoch(10.0)
        assert scheduler._may_full_update(_state({"a": job}, topology, proposal, now=10.0))

    def test_incremental_fill_never_touches_running_jobs(self, scheduler, topology):
        running = make_running_job(job_id="run", gpu_ids=(0, 1), local_batches=(64, 64))
        pending = make_job(job_id="wait", arrival_time=5.0)
        allocation = Allocation.from_job_map({"run": [(0, 64), (1, 64)]})
        jobs = {"run": running, "wait": pending}
        scheduler._has_deployed = True
        scheduler._epochs_at_last_update = {"run": running.epochs_completed}
        state = _state(jobs, topology, allocation, now=5.0)
        proposal = scheduler.on_job_arrival(pending, state)
        assert proposal is not None
        # The running job's configuration is untouched by the immediate fill.
        assert proposal.config_of("run") == allocation.config_of("run")
        assert proposal.num_gpus("wait") >= 1


class TestResumePolicy:
    def test_rejected_waiting_job_limit_is_halved(self, scheduler, topology):
        # Fill the cluster with running jobs so the newcomer stays waiting.
        jobs = {}
        mapping = {}
        for i in range(2):
            job_id = f"busy-{i}"
            job = make_running_job(job_id=job_id, gpu_ids=tuple(range(i * 4, i * 4 + 4)),
                                   local_batches=(64,) * 4)
            job.advance(2000, 10.0)
            jobs[job_id] = job
            mapping[job_id] = [(g, 64) for g in range(i * 4, i * 4 + 4)]
        allocation = Allocation.from_job_map(mapping)
        waiting = make_job(job_id="wait", arrival_time=20.0, base_batch=128)
        jobs["wait"] = waiting
        scheduler.limiter.on_job_arrival(waiting)
        before = scheduler.limiter.limit("wait")
        state = _state(jobs, topology, allocation, now=20.0)
        # Force a full update; if the best candidate keeps "wait" out, the
        # resume policy halves its limit (floored at the submitted batch).
        scheduler._apply_resume_policy(state, allocation)
        after = scheduler.limiter.limit("wait")
        assert after <= before

    def test_preempted_job_keeps_its_limit(self, scheduler, topology):
        job = make_running_job(job_id="run", gpu_ids=(0,), local_batches=(64,))
        scheduler.limiter.on_job_arrival(job)
        before = scheduler.limiter.limit("run")
        state = _state({"run": job}, topology, Allocation.from_job_map({"run": [(0, 64)]}))
        scheduler._apply_resume_policy(state, Allocation.empty())
        assert scheduler.limiter.limit("run") == before


class TestEndToEndBehaviour:
    def test_reconfigurations_stay_cheap(self, topology):
        trace = TraceGenerator(
            TraceConfig(num_jobs=6, arrival_rate=1.0 / 15.0, convergence_patience=3), seed=5
        ).generate()
        scheduler = ONESScheduler(
            ONESConfig(evolution=EvolutionConfig(population_size=6)), seed=5
        )
        result = ClusterSimulator(
            topology, scheduler, trace, config=SimulationConfig(max_time=48 * 3600)
        ).run()
        assert not result.incomplete
        total_overhead = sum(m["reconfig_overhead"] for m in result.completed.values())
        total_exec = sum(m["execution_time"] for m in result.completed.values())
        # Elastic scaling keeps total re-configuration cost a small fraction
        # of the work done, even though ONES re-configures aggressively.
        assert total_overhead < 0.3 * total_exec

    def test_learning_rate_scaling_enabled_for_all_jobs(self, topology, tiny_trace):
        scheduler = ONESScheduler(
            ONESConfig(evolution=EvolutionConfig(population_size=4)), seed=5
        )
        result = ClusterSimulator(topology, scheduler, tiny_trace).run()
        for job in result.jobs.values():
            assert job.lr_scaled

    def test_no_job_exceeds_its_batch_limit_cap(self, topology, tiny_trace):
        config = ONESConfig(evolution=EvolutionConfig(population_size=4))
        scheduler = ONESScheduler(config, seed=5)
        result = ClusterSimulator(topology, scheduler, tiny_trace).run()
        cap_multiplier = config.batch_limits.max_batch_multiplier
        for spec in tiny_trace:
            job = result.jobs[spec.job_id]
            max_batch = max((b for _, b in job.batch_history), default=0)
            assert max_batch <= cap_multiplier * spec.base_batch + spec.base_batch
