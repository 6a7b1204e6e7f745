"""Placement quality measures.

The evolution operators of ONES can scatter a job's workers across
servers; the *reorder* operator (Fig. 10) re-packs workers of the same
job onto contiguous GPUs so that all-reduce rings stay inside a server
whenever possible.  The helpers here measure the resulting locality and
fragmentation for reports and tests.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.cluster.topology import ClusterTopology


def nodes_spanned(topology: ClusterTopology, gpu_ids: Iterable[int]) -> int:
    """Number of servers spanned by a set of GPUs (0 for an empty set)."""
    return topology.nodes_spanned(gpu_ids)


def placement_quality(topology: ClusterTopology, gpu_ids: Sequence[int]) -> float:
    """Locality score in ``(0, 1]`` for a worker placement.

    1.0 means the fewest possible servers are used for that worker count;
    lower values indicate avoidable spreading.  An empty placement scores
    1.0 (nothing to misplace).
    """
    gpu_ids = list(gpu_ids)
    if not gpu_ids:
        return 1.0
    per_node = topology.gpus_per_node
    minimal = int(np.ceil(len(gpu_ids) / per_node))
    actual = topology.nodes_spanned(gpu_ids)
    return minimal / actual


def fragmentation(topology: ClusterTopology, free_gpu_ids: Sequence[int]) -> float:
    """Fragmentation of the idle GPUs in ``[0, 1]``.

    0 when all idle GPUs are concentrated on as few servers as possible
    (so a multi-GPU job could be gang-scheduled locally), approaching 1
    when idle GPUs are scattered one per server.  With no idle GPUs the
    cluster is saturated and fragmentation is 0 by definition.
    """
    free_gpu_ids = list(free_gpu_ids)
    if not free_gpu_ids:
        return 0.0
    per_node = topology.gpus_per_node
    minimal_nodes = int(np.ceil(len(free_gpu_ids) / per_node))
    actual_nodes = topology.nodes_spanned(free_gpu_ids)
    if actual_nodes == minimal_nodes:
        return 0.0
    worst_nodes = min(len(free_gpu_ids), topology.num_nodes)
    if worst_nodes == minimal_nodes:
        return 0.0
    return (actual_nodes - minimal_nodes) / (worst_nodes - minimal_nodes)
