"""repro — a reproduction of ONES (SC'21).

*Online Evolutionary Batch Size Orchestration for Scheduling Deep
Learning Workloads in GPU Clusters* (Bian, Li, Wang, You — SC 2021).

The package layers, bottom-up:

* :mod:`repro.utils` — RNG, units, validation, summary statistics.
* :mod:`repro.cluster` — the simulated GPU cluster (devices, topology,
  allocations, events).
* :mod:`repro.jobs` — analytic throughput/convergence models of DL
  training jobs and their runtime state.
* :mod:`repro.workload` — the Table-2 workload catalogue and trace
  generation.
* :mod:`repro.prediction` — the online progress predictor (Beta
  distributions over training progress, GPR / Bayesian-linear backends).
* :mod:`repro.scaling` — elastic batch-size scaling: the
  re-configuration overhead model (Fig. 16).
* :mod:`repro.core` — ONES itself: schedule genomes, SRUF scoring,
  batch-size limits, evolution operators and the scheduler.
* :mod:`repro.baselines` — DRL, Tiresias, Optimus (and reference FIFO /
  SRTF policies) behind a common scheduler interface.
* :mod:`repro.sim` — the discrete-event cluster simulator.
* :mod:`repro.analysis` — metrics, Wilcoxon tests, text reporting.
* :mod:`repro.experiments` — declarative experiment specs, the Runner,
  sweep artifacts and figure/table generators.

Quickstart
----------
>>> from repro.analysis.metrics import mean_metric
>>> from repro.experiments import ExperimentSpec, Runner
>>> from repro.workload.trace import TraceConfig
>>> spec = ExperimentSpec.comparison(
...     num_gpus=16, seed=7, trace=TraceConfig(num_jobs=8, arrival_rate=1.0 / 15.0)
... )
>>> spec.schedulers
('ONES', 'DRL', 'Tiresias', 'Optimus')
>>> sweep = Runner().run(spec)                   # doctest: +SKIP
>>> {name: mean_metric(result, "jct")            # doctest: +SKIP
...  for name, result in sweep.results_for(16).items()}
"""

__version__ = "1.0.0"

from repro.cluster.topology import ClusterTopology, make_longhorn_cluster
from repro.core.ones_scheduler import ONESConfig, ONESScheduler
from repro.baselines import (
    DRLScheduler,
    FIFOScheduler,
    OptimusScheduler,
    SRTFScheduler,
    TiresiasScheduler,
)
from repro.sim.simulator import ClusterSimulator, SimulationConfig, SimulationResult
from repro.workload.trace import TraceConfig, TraceGenerator

__all__ = [
    "__version__",
    "ClusterTopology",
    "make_longhorn_cluster",
    "ONESConfig",
    "ONESScheduler",
    "DRLScheduler",
    "FIFOScheduler",
    "OptimusScheduler",
    "SRTFScheduler",
    "TiresiasScheduler",
    "ClusterSimulator",
    "SimulationConfig",
    "SimulationResult",
    "TraceConfig",
    "TraceGenerator",
]
