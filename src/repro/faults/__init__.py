"""Deterministic fault injection for the simulated storage stack.

The paper's cost model prices strategies assuming I/O always succeeds;
production storage does not.  This subpackage makes failure a
first-class, *reproducible* input:

* :class:`~repro.faults.plan.FaultPlan` -- a seeded schedule of
  transient read/write failures, torn writes, permanent page losses and
  shard-worker kills, with an audit log of every injected fault and
  whether recovery consumed it;
* :class:`~repro.faults.disk.FaultyDisk` -- a drop-in
  :class:`~repro.storage.disk.SimulatedDisk` that executes the plan and
  detects torn writes via per-page checksums;
* :class:`~repro.faults.net.ChaosProxy` -- a line-oriented TCP proxy
  that executes the plan's *network* side (connection drops, stalls,
  garbled and partial reply lines) between a query client and server.

Recovery lives in the layers above: the buffer pool retries transient
faults with bounded virtual-clock backoff, the shard supervisor restarts
killed workers from their write-ahead log, and the executor falls back
across join strategies -- each step recorded in an
:class:`~repro.core.report.ExecutionReport`.
"""

from repro.faults.disk import FaultyDisk, page_checksum
from repro.faults.net import ChaosProxy, garble_line
from repro.faults.plan import NET_FAULT_KINDS, FaultEvent, FaultKind, FaultPlan

__all__ = [
    "ChaosProxy",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FaultyDisk",
    "NET_FAULT_KINDS",
    "garble_line",
    "page_checksum",
]
