"""Execution reports: what the executor tried, what failed, what ran.

A resilient execution is only trustworthy if it can account for itself.
:class:`ExecutionReport` records every strategy attempt of
:meth:`~repro.core.executor.SpatialQueryExecutor.execute_join` -- the
strategy name, whether it succeeded, the failure cause otherwise, and
the I/O retries and virtual-clock backoff its attempt consumed -- plus
the fault plan's injected/consumed audit counters when the operands live
on a :class:`~repro.faults.disk.FaultyDisk`.

On a clean run (no fault injection) the report is deliberately boring:
one successful attempt, zero retries, zero fallbacks.  Tests pin that,
so the recovery machinery provably costs nothing on the happy path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import JoinError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.obs.drift import DriftReport

#: Injected-fault events rendered in full before eliding the rest; keeps
#: a high-fault-rate report readable while still proving what happened.
MAX_RENDERED_FAULT_EVENTS = 6


@dataclass(slots=True)
class AttemptRecord:
    """One strategy attempt inside a fallback chain."""

    strategy: str
    ok: bool
    error_type: str | None = None
    error: str | None = None
    #: The attempt's ``CostMeter.snapshot()``; its ``io_retries`` and
    #: ``backoff_steps`` are the attempt's retry cost.
    stats: dict[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        if self.ok:
            tail = f"ok ({self.stats.get('io_retries', 0)} retries)"
        else:
            tail = f"failed: {self.error_type}: {self.error}"
        return f"{self.strategy}: {tail}"


@dataclass(slots=True)
class ExecutionReport:
    """Full account of one resilient join execution."""

    query: str
    requested_strategy: str
    attempts: list[AttemptRecord] = field(default_factory=list)
    fault_summary: dict[str, int] = field(default_factory=dict)
    fault_events: list[str] = field(default_factory=list)
    drift: DriftReport | None = None
    #: Cache tier that served the result ("exact"/"containment"), or
    #: None when the query actually executed.
    cached: str | None = None

    @property
    def strategy(self) -> str:
        """The strategy that produced the returned result."""
        for a in self.attempts:
            if a.ok:
                return a.strategy
        raise JoinError("no attempt succeeded in this report")

    @property
    def succeeded(self) -> bool:
        return any(a.ok for a in self.attempts)

    @property
    def fallbacks(self) -> int:
        """Strategies that failed before one succeeded."""
        return sum(1 for a in self.attempts if not a.ok)

    @property
    def retries(self) -> int:
        """Total transparently retried page I/Os across all attempts."""
        return sum(a.stats.get("io_retries", 0) for a in self.attempts)

    @property
    def backoff_steps(self) -> int:
        """Total virtual-clock backoff units spent on retries."""
        return sum(a.stats.get("backoff_steps", 0) for a in self.attempts)

    def format(self) -> str:
        """Human-readable multi-line account."""
        lines = [
            self.query,
            f"requested strategy: {self.requested_strategy}",
        ]
        for i, a in enumerate(self.attempts):
            prefix = "attempt" if i == 0 else "fallback"
            lines.append(f"  {prefix} {i + 1}: {a.describe()}")
        if self.cached is not None:
            lines.append(f"served from cache ({self.cached} tier)")
        if self.fault_summary:
            lines.append(
                "faults: {injected} injected, {consumed} consumed, "
                "{outstanding} outstanding".format(**self.fault_summary)
            )
        if self.fault_events:
            shown = self.fault_events[:MAX_RENDERED_FAULT_EVENTS]
            for desc in shown:
                lines.append(f"  - {desc}")
            elided = len(self.fault_events) - len(shown)
            if elided:
                lines.append(f"  ... and {elided} more fault events")
        if self.drift is not None:
            lines.extend("  " + line for line in self.drift.format().splitlines())
        return "\n".join(lines)
