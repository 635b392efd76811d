"""LRU buffer pool: the ``M``-page main memory of the cost model.

Table 3 gives ``M = 4000`` pages of main memory.  Both the nested-loop
join and the tree join of Section 4.4 rely on a "main memory utilization
technique" that fills most of memory (``M - 10`` pages) with one operand
and streams the other; the pool supports that via pinning.

Every miss charges one page read to the meter; hits are free, exactly as
the analytical model assumes for pages already resident (e.g. the root of
a generalization tree, which the paper locks in main memory).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import BufferPoolError, TransientStorageError, WALError
from repro.storage.costs import CostMeter
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page

#: Pages the paper's memory utilization technique keeps aside for the
#: streamed relation and bookkeeping (Section 4.4: "say, M - 10 pages").
RESERVED_PAGES = 10

#: Default bound on transparent retries of a transiently failed page
#: access.  One above the fault plan's default ``max_burst`` so bounded
#: injection can never outlast the retry budget.
DEFAULT_MAX_RETRIES = 5


class BufferPool:
    """An LRU cache of disk pages with pin support.

    ``capacity`` is the number of page frames (the model's ``M``).  Pinned
    pages are never evicted; attempting to fetch when every frame is
    pinned raises, mirroring a real system's buffer-starvation error.

    Transient disk faults (:class:`TransientStorageError`, injected by a
    :class:`~repro.faults.disk.FaultyDisk`) are retried transparently up
    to ``max_retries`` times with exponential *virtual-clock* backoff:
    each failed attempt records one ``io_retry`` and its backoff units on
    the meter instead of sleeping.  The eventual successful access is
    charged as exactly one read/write -- retries never double-charge.
    Permanent faults are not retried and propagate immediately.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        capacity: int,
        meter: CostMeter | None = None,
        *,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ) -> None:
        if capacity <= 0:
            raise BufferPoolError(f"buffer capacity must be positive, got {capacity}")
        if max_retries < 0:
            raise BufferPoolError(f"max_retries must be >= 0, got {max_retries}")
        self.disk = disk
        self.capacity = capacity
        self.meter = meter if meter is not None else CostMeter()
        self.max_retries = max_retries
        self._frames: "OrderedDict[int, Page]" = OrderedDict()
        self._pin_counts: dict[int, int] = {}
        self._dirty: set[int] = set()
        # Metrics series, bound by attach_metrics(); None = unobserved
        # (the hot path then pays exactly one None check per access).
        self._m_hits = None
        self._m_misses = None
        self._m_writes = None
        self._m_retries = None
        self._m_hit_ratio = None
        #: When a :class:`~repro.wal.log.WriteAheadLog` is attached, the
        #: pool enforces the WAL rule: a dirty page whose ``page_lsn``
        #: exceeds the log's ``durable_lsn`` must not be physically
        #: written -- its log record has not reached the disk yet.
        self.wal = None

    def attach_metrics(self, registry, pool: str = "buffer") -> None:
        """Publish this pool's behavior into a metrics registry.

        Binds the counter/gauge objects once, so the per-access cost of
        observation is one ``inc()`` -- no registry lookups on the hot
        path.  ``pool`` labels the series when several pools share one
        registry.
        """
        self._m_hits = registry.counter("buffer.hits", pool=pool)
        self._m_misses = registry.counter("buffer.misses", pool=pool)
        self._m_writes = registry.counter("buffer.writes", pool=pool)
        self._m_retries = registry.counter("buffer.retries", pool=pool)
        self._m_hit_ratio = registry.gauge("buffer.hit_ratio", pool=pool)

    def _note_access(self, hit: bool) -> None:
        (self._m_hits if hit else self._m_misses).inc()
        seen = self._m_hits.value + self._m_misses.value
        self._m_hit_ratio.set(self._m_hits.value / seen)

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------

    def fetch(self, page_id: int) -> Page:
        """Return the page, charging one read on a miss.

        The page becomes the most-recently-used frame.
        """
        if page_id in self._frames:
            self._frames.move_to_end(page_id)
            self.meter.record_hit()
            if self._m_hits is not None:
                self._note_access(hit=True)
            return self._frames[page_id]
        page = self._read_with_retry(page_id)
        self._admit(page)
        self.meter.record_read()
        if self._m_hits is not None:
            self._note_access(hit=False)
        return page

    def charge_hit(self) -> None:
        """Charge one buffer hit without fetching.

        What re-fetching the page the last :meth:`fetch` returned costs:
        the page is the most recent frame, so that fetch is a hit that
        leaves LRU order as it is.  A traversal that learns only later
        whether it needs such a re-fetch charges it here.
        """
        self.meter.record_hit()
        if self._m_hits is not None:
            self._note_access(hit=True)

    def mark_dirty(self, page_id: int) -> None:
        """Flag a resident page as modified; it is written back on eviction."""
        if page_id not in self._frames:
            raise BufferPoolError(f"page {page_id} is not resident")
        self._dirty.add(page_id)

    def new_page(self) -> Page:
        """Allocate a page on disk and admit it dirty (one write is charged
        when it is eventually evicted or flushed)."""
        page = self.disk.allocate_page()
        self._admit(page)
        self._dirty.add(page.page_id)
        return page

    def pin(self, page_id: int) -> Page:
        """Fetch and pin a page so it cannot be evicted."""
        page = self.fetch(page_id)
        self._pin_counts[page_id] = self._pin_counts.get(page_id, 0) + 1
        return page

    def unpin(self, page_id: int) -> None:
        """Release one pin on a page."""
        count = self._pin_counts.get(page_id, 0)
        if count <= 0:
            raise BufferPoolError(f"page {page_id} is not pinned")
        if count == 1:
            del self._pin_counts[page_id]
        else:
            self._pin_counts[page_id] = count - 1

    def flush_all(self) -> None:
        """Write back every dirty resident page (charging writes).

        Dirty ids whose frame is gone are stale bookkeeping -- eviction
        already wrote them out -- and are dropped explicitly rather than
        skipped; each id is also cleared as it is processed, so a failed
        write leaves only the genuinely unflushed pages marked dirty.
        """
        for page_id in sorted(self._dirty):
            page = self._frames.get(page_id)
            if page is not None:
                self._check_wal_rule(page)
                self._write_with_retry(page)
                self.meter.record_write()
                if self._m_writes is not None:
                    self._m_writes.inc()
            self._dirty.discard(page_id)

    def clear(self) -> None:
        """Flush and drop all frames (e.g. between benchmark phases).

        Pinned pages are checked *before* anything is written back: a
        refused clear must not have mutated disk or meter state.
        """
        if self._pin_counts:
            raise BufferPoolError(f"cannot clear pool with pinned pages: {sorted(self._pin_counts)}")
        self.flush_all()
        self._frames.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def is_resident(self, page_id: int) -> bool:
        """True if the page currently occupies a frame (no cost)."""
        return page_id in self._frames

    def peek(self, page_id: int) -> Page | None:
        """The resident page, with no charge and no LRU effect.

        Used for LSN stamping after a logged mutation: the page was just
        touched through :meth:`fetch`/:meth:`new_page`, so peeking is
        bookkeeping on an already-charged access, not hidden I/O.
        """
        return self._frames.get(page_id)

    @property
    def resident_count(self) -> int:
        return len(self._frames)

    @property
    def pinned_count(self) -> int:
        return len(self._pin_counts)

    @property
    def dirty_count(self) -> int:
        """Resident pages with unflushed modifications.

        The restart-cost signal health probes report: every dirty page
        is one physical write a clean shutdown (or the WAL, after a
        crash) still owes the disk.
        """
        return len(self._dirty)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _admit(self, page: Page) -> None:
        if page.page_id in self._frames:
            self._frames.move_to_end(page.page_id)
            return
        while len(self._frames) >= self.capacity:
            self._evict_one()
        self._frames[page.page_id] = page

    def _evict_one(self) -> None:
        for victim_id in self._frames:
            if victim_id not in self._pin_counts:
                break
        else:
            raise BufferPoolError("all buffer frames are pinned; cannot evict")
        page = self._frames.pop(victim_id)
        if victim_id in self._dirty:
            self._check_wal_rule(page)
            self._write_with_retry(page)
            self.meter.record_write()
            if self._m_writes is not None:
                self._m_writes.inc()
            self._dirty.discard(victim_id)

    def _check_wal_rule(self, page: Page) -> None:
        """Refuse to write a page ahead of its log record.

        This is the write-ahead invariant itself, checked -- not assumed
        -- at every physical write-back path.  Under ``sync="always"``
        log records are durable before the page is stamped, so this
        never fires; under group commit it surfaces a missing
        ``wal.sync()`` deterministically instead of by ordering luck.
        """
        if self.wal is not None and page.page_lsn > self.wal.durable_lsn:
            raise WALError(
                f"WAL rule violation: page {page.page_id} carries LSN "
                f"{page.page_lsn} but the log is only durable up to "
                f"{self.wal.durable_lsn}; sync the log before flushing"
            )

    def _read_with_retry(self, page_id: int) -> Page:
        backoff = 1
        for attempt in range(self.max_retries + 1):
            try:
                return self.disk.read_page(page_id)
            except TransientStorageError:
                if attempt == self.max_retries:
                    raise
                self.meter.record_retry(backoff)
                if self._m_retries is not None:
                    self._m_retries.inc()
                backoff *= 2
        raise AssertionError("unreachable")  # pragma: no cover

    def _write_with_retry(self, page: Page) -> None:
        backoff = 1
        for attempt in range(self.max_retries + 1):
            try:
                self.disk.write_page(page)
                return
            except TransientStorageError:
                if attempt == self.max_retries:
                    raise
                self.meter.record_retry(backoff)
                if self._m_retries is not None:
                    self._m_retries.inc()
                backoff *= 2


def paired_pools(
    disk_r: SimulatedDisk,
    disk_s: SimulatedDisk,
    memory_pages: int,
    meter: CostMeter,
) -> tuple["BufferPool", "BufferPool"]:
    """Two pool handles sharing one ``M``-page budget, per the paper.

    Join strategies that access two relations must divide *one* main
    memory of ``memory_pages`` frames between them -- not conjure a full
    ``M`` frames per side -- or their I/O charges are not comparable to
    the other strategies.  ``RESERVED_PAGES`` frames are held back for
    bookkeeping (the ``M - 10`` convention); the remainder is one shared
    pool when both relations live on the same disk, or split evenly when
    they do not.
    """
    if memory_pages <= RESERVED_PAGES:
        raise BufferPoolError(
            f"memory_pages must exceed the {RESERVED_PAGES} reserved pages, "
            f"got {memory_pages}"
        )
    budget = memory_pages - RESERVED_PAGES
    if disk_r is disk_s:
        shared = BufferPool(disk_r, budget, meter)
        return shared, shared
    half = max(1, budget // 2)
    return (
        BufferPool(disk_r, half, meter),
        BufferPool(disk_s, max(1, budget - half), meter),
    )
