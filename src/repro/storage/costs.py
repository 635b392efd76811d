"""Cost accounting in the paper's abstract units.

Table 2 defines three *system performance dependent* parameters:

* ``C_Theta`` -- cost of one Theta-operator (predicate) computation;
* ``C_IO``    -- cost of one disk I/O (page access);
* ``C_U``     -- cost of one update computation.

Table 3 fixes them at ``1 / 1000 / 1`` for the comparative study; this
module declares them once, as :data:`C_THETA`, :data:`C_IO` and
:data:`C_UPDATE`, and the Section 4 model's parameters default to them.
The :class:`CostMeter` is threaded through the storage layer and the
join strategies so every empirical run yields the same three counters
the analytical formulas predict, plus a total weighted by them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable

#: Table 3: one Theta-operator computation.
C_THETA = 1.0
#: Table 3: one disk I/O.
C_IO = 1000.0
#: Table 3: one update computation.
C_UPDATE = 1.0
#: One raster-interval probe of the second-tier filter (beyond the
#: paper): a merge over two short sorted interval lists, much cheaper
#: than an exact geometric predicate, hence a fraction of ``C_THETA``.
C_INTERVAL = 0.25


@dataclass(slots=True)
class CostMeter:
    """Mutable event counters for one measured operation.

    The storage layer records page reads/writes and buffer hits; the join
    strategies record predicate evaluations (split into Theta-filter and
    exact-theta refinements, which sum to the paper's single ``C_Theta``
    category) and update computations.
    """

    page_reads: int = 0
    page_writes: int = 0
    buffer_hits: int = 0
    theta_filter_evals: int = 0
    theta_exact_evals: int = 0
    update_computations: int = 0
    io_retries: int = 0
    backoff_steps: int = 0
    log_writes: int = 0
    checkpoint_pages: int = 0
    cache_probes: int = 0
    cache_hits: int = 0
    interval_probes: int = 0
    interval_sure_hits: int = 0
    interval_evals_saved: int = 0

    @property
    def io_operations(self) -> int:
        """Physical page accesses (reads + writes); buffer hits are free."""
        return self.page_reads + self.page_writes

    @property
    def predicate_evaluations(self) -> int:
        """All predicate computations, filter and refinement combined."""
        return self.theta_filter_evals + self.theta_exact_evals

    @property
    def durability_ios(self) -> int:
        """Physical I/Os spent purely on crash safety (WAL + checkpoints).

        Kept separate from ``page_reads``/``page_writes`` so non-durable
        baseline numbers are untouched by the durability layer; they are
        still priced at ``C_IO`` in :meth:`total`.
        """
        return self.log_writes + self.checkpoint_pages

    def record_read(self, pages: int = 1) -> None:
        self.page_reads += pages

    def record_write(self, pages: int = 1) -> None:
        self.page_writes += pages

    def record_hit(self, pages: int = 1) -> None:
        self.buffer_hits += pages

    def record_filter_eval(self, count: int = 1) -> None:
        self.theta_filter_evals += count

    def record_exact_eval(self, count: int = 1) -> None:
        self.theta_exact_evals += count

    def record_update(self, count: int = 1) -> None:
        self.update_computations += count

    def record_retry(self, backoff: int = 1) -> None:
        """One failed I/O attempt about to be retried.

        ``backoff`` is the virtual-clock wait taken before the retry (in
        abstract backoff units -- nothing sleeps).  The successful access
        is charged separately as exactly one read/write, so a retried I/O
        is never double-charged in ``page_reads``/``page_writes``;
        ``io_retries``/``backoff_steps`` keep the failure cost visible.
        """
        self.io_retries += 1
        self.backoff_steps += backoff

    def record_cache_probe(self, count: int = 1) -> None:
        """One query-cache lookup (hit or miss).

        Cache traffic is pure observation: probes and hits are in-memory
        dictionary operations, charged at zero in :meth:`total` and kept
        out of ``durability_ios`` -- a cached run's baseline I/O and
        durability surcharge read exactly like an uncached run's, minus
        the work the cache saved.
        """
        self.cache_probes += count

    def record_cache_hit(self, count: int = 1) -> None:
        """One query answered from the cache (any tier)."""
        self.cache_hits += count

    def record_interval_probe(self, count: int = 1) -> None:
        """One raster-interval classification of a candidate pair.

        Priced at :data:`C_INTERVAL` in :meth:`total` -- the second-tier
        filter is cheap, but it is not free.
        """
        self.interval_probes += count

    def record_interval_sure_hit(self, count: int = 1) -> None:
        """One candidate pair resolved as a guaranteed hit (a FULL cell
        of one side met a cover cell of the other)."""
        self.interval_sure_hits += count

    def record_interval_saved(self, count: int = 1) -> None:
        """One exact refinement the interval tier made unnecessary
        (sure hit or sure miss -- either way ``theta`` never ran)."""
        self.interval_evals_saved += count

    def record_log_write(self, pages: int = 1) -> None:
        """One physical write of a WAL log/anchor page (write-through)."""
        self.log_writes += pages

    def record_checkpoint_page(self, pages: int = 1) -> None:
        """One physical write of a checkpoint snapshot page."""
        self.checkpoint_pages += pages

    def absorb(self, other: "CostMeter") -> None:
        """Add another meter's counters into this one.

        This is how per-worker private meters flow back into the caller's
        meter after a parallel run.  Field-driven so a counter added to
        the dataclass can never be silently dropped here.
        """
        for name in COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @classmethod
    def merge(cls, meters: "Iterable[CostMeter]") -> "CostMeter":
        """One combined meter summing every counter of ``meters``."""
        merged = cls()
        for m in meters:
            merged.absorb(m)
        return merged

    def total(self) -> float:
        """Weighted cost in the paper's units.

        ``predicate_evaluations * C_Theta + io_operations * C_IO +
        update_computations * C_U`` -- directly comparable to the formulas
        of Sections 4.2-4.4.  Durability I/Os (WAL + checkpoint writes)
        are priced at ``C_IO`` on top: a non-durable run has zero of them,
        so baseline totals are unchanged, while durable runs show the
        crash-safety surcharge explicitly.  Interval probes (the raster
        second-tier filter) are priced at :data:`C_INTERVAL`; a run
        without the filter has zero of them, keeping baseline totals
        untouched.
        """
        return (
            self.predicate_evaluations * C_THETA
            + (self.io_operations + self.durability_ios) * C_IO
            + self.update_computations * C_UPDATE
            + self.interval_probes * C_INTERVAL
        )

    def reset(self) -> None:
        """Zero all counters."""
        for name in COUNTER_FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, float]:
        """Plain-dict view for reports and benchmark output.

        Exhaustive by construction: every declared counter field appears
        under its own name, plus the weighted ``total``.
        """
        view: dict[str, float] = {
            name: getattr(self, name) for name in COUNTER_FIELDS
        }
        view["total"] = self.total()
        return view


#: Every counter field of :class:`CostMeter`, in declaration order.
#: ``snapshot``/``absorb``/``reset`` iterate this tuple, so adding a
#: counter to the dataclass automatically flows through all three.
COUNTER_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(CostMeter))
