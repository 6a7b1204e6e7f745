"""GPU-cluster substrate.

The paper evaluates ONES on TACC Longhorn: 16 GPU servers, each with
4 NVIDIA V100 GPUs, NVLink within a node and EDR InfiniBand between
nodes.  This subpackage provides the simulated equivalent:

* :mod:`repro.cluster.devices` — GPU and node hardware descriptions.
* :mod:`repro.cluster.topology` — the cluster as a collection of nodes
  and GPUs with intra-/inter-node bandwidths (a star around one switch).
* :mod:`repro.cluster.allocation` — a concrete assignment of GPU workers
  (with local batch sizes) to jobs.
* :mod:`repro.cluster.placement` — locality/fragmentation measures.
* :mod:`repro.cluster.events` — the discrete-event queue.
"""

from repro.cluster.devices import GPUSpec, NodeSpec, V100, LONGHORN_NODE
from repro.cluster.topology import ClusterTopology, make_longhorn_cluster
from repro.cluster.allocation import Allocation, WorkerAssignment
from repro.cluster.events import Event, EventKind, EventQueue
from repro.cluster.placement import (
    fragmentation,
    nodes_spanned,
    placement_quality,
)

__all__ = [
    "GPUSpec",
    "NodeSpec",
    "V100",
    "LONGHORN_NODE",
    "ClusterTopology",
    "make_longhorn_cluster",
    "Allocation",
    "WorkerAssignment",
    "Event",
    "EventKind",
    "EventQueue",
    "fragmentation",
    "nodes_spanned",
    "placement_quality",
]
