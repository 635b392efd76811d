"""Partition-parallel spatial join (beyond the paper).

The paper's Algorithm JOIN and the Section 4.4 strategies are inherently
single-threaded page-at-a-time designs.  This subsystem adds the
partition-based evaluation of Tsitsigkos & Mamoulis et al. (2019), minus
the shared-memory threads CPython does not offer: uniform grid
partitioning with the reference-point duplicate-avoidance
rule (:mod:`repro.parallel.partitioner`), a forward plane-sweep kernel
over a group of tiles (:mod:`repro.parallel.plane_sweep`), and the loop
that sweeps the groups on one cost meter (:mod:`repro.parallel.pool`).  The Theta side
(scatter, sweep, result ordering) runs on flat numpy arrays; the theta
side refines candidate pairs one by one on the stored geometries.  The
executor exposes it as the ``partition`` strategy.
"""

from repro.parallel.join import partition_join
from repro.parallel.partitioner import (
    Entry,
    GridSpec,
    PartitionTask,
    partition_pair,
    reference_point,
    scatter,
)
from repro.parallel.plane_sweep import sweep_task
from repro.parallel.pool import PoolReport, run_partitions

__all__ = [
    "Entry",
    "GridSpec",
    "PartitionTask",
    "PoolReport",
    "partition_join",
    "partition_pair",
    "reference_point",
    "run_partitions",
    "scatter",
    "sweep_task",
]
