"""Simulated storage substrate: pages, disk, buffer pool and files.

The paper's cost model (Section 4) charges three abstract units --
``C_Theta`` per predicate evaluation, ``C_IO`` per page access and
``C_U`` per update computation -- against a disk of ``s``-byte pages, an
``M``-page main memory and files whose pages hold ``m = s*l / v`` tuples.
This subpackage builds exactly that machine so the *empirical* benchmarks
can count the same units the analytical formulas predict:

* :class:`~repro.storage.costs.CostMeter` -- counters + a total weighted
  by Table 3's :data:`~repro.storage.costs.C_THETA`,
  :data:`~repro.storage.costs.C_IO` and :data:`~repro.storage.costs.C_UPDATE`;
* :class:`~repro.storage.page.Page` / :class:`~repro.storage.disk.SimulatedDisk`
  -- page-granular storage with stable page ids;
* :class:`~repro.storage.buffer.BufferPool` -- LRU cache of ``M`` pages;
* :class:`~repro.storage.heapfile.HeapFile` -- unclustered record file
  (strategy IIa's layout);
* :class:`~repro.storage.clustered.ClusteredFile` -- records placed in a
  caller-chosen order, e.g. breadth-first tree order (strategy IIb).
"""

from repro.storage.costs import C_IO, C_THETA, C_UPDATE, CostMeter
from repro.storage.page import Page, PAGE_SIZE
from repro.storage.disk import SimulatedDisk
from repro.storage.buffer import BufferPool
from repro.storage.record import RecordId
from repro.storage.heapfile import HeapFile
from repro.storage.clustered import ClusteredFile

__all__ = [
    "C_IO",
    "C_THETA",
    "C_UPDATE",
    "CostMeter",
    "Page",
    "PAGE_SIZE",
    "SimulatedDisk",
    "BufferPool",
    "RecordId",
    "HeapFile",
    "ClusteredFile",
]
