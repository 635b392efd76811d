"""Strategy III: the precomputed join index of Valduriez [Vald87].

"A join index is nothing but a two-column relation that stores the tuple
IDs of matching tuples" (Section 2.1).  Per assumption S4 it is
implemented over a B+-tree: entries are keyed by the R-side tuple id with
the S-side id as value, so one B+-tree lookup (``d`` page accesses, root
pinned) followed by a leaf scan retrieves all partners of a tuple.

The maintenance costs the paper emphasizes are real here: inserting a new
R tuple re-checks it against *every* S tuple (``N`` update computations
plus a full scan of S -- the model's ``U_III``) and pushes the new pairs
into the B+-tree.
"""

from __future__ import annotations

from typing import Iterable

from repro.btree import BPlusTree
from repro.errors import JoinError
from repro.join.result import JoinResult, SelectResult
from repro.predicates.theta import ThetaOperator
from repro.relational.relation import Relation
from repro.relational.tuples import RelTuple
from repro.storage.buffer import BufferPool
from repro.storage.costs import CostMeter
from repro.storage.record import RecordId


class JoinIndex:
    """A persistent, maintained index of matching ``(tid_r, tid_s)`` pairs."""

    def __init__(
        self,
        rel_r: Relation,
        rel_s: Relation,
        column_r: str,
        column_s: str,
        theta: ThetaOperator,
        *,
        index_pool: BufferPool | None = None,
        order: int = 100,
    ) -> None:
        self.rel_r = rel_r
        self.rel_s = rel_s
        self.column_r = column_r
        self.column_s = column_s
        self.theta = theta
        if index_pool is None:
            index_pool = rel_r.buffer_pool
        self.index_pool = index_pool
        #: Forward index: key tid_r, value tid_s.
        self._forward = BPlusTree(index_pool, order=order)
        #: Reverse index: key tid_s, value tid_r (for S-side maintenance).
        self._reverse = BPlusTree(index_pool, order=order)
        self._built = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def precompute(
        cls,
        rel_r: Relation,
        rel_s: Relation,
        column_r: str,
        column_s: str,
        theta: ThetaOperator,
        *,
        index_pool: BufferPool | None = None,
        order: int = 100,
        meter: CostMeter | None = None,
    ) -> "JoinIndex":
        """Build the index by exhaustively joining the current contents.

        Precomputation cost is charged to ``meter`` if given (the paper's
        study charges only maintenance and lookup, amortizing the initial
        build away; benchmarks may still want to see it).
        """
        ji = cls(
            rel_r, rel_s, column_r, column_s, theta,
            index_pool=index_pool, order=order,
        )
        build_meter = meter if meter is not None else CostMeter()
        pairs: list[tuple[RecordId, RecordId]] = []
        s_tuples = [(t.tid, t[column_s]) for t in rel_s.scan()]
        for r in rel_r.scan():
            r_geom = r[column_r]
            for s_tid, s_geom in s_tuples:
                build_meter.record_update()
                if theta(r_geom, s_geom):
                    assert r.tid is not None and s_tid is not None
                    pairs.append((r.tid, s_tid))
        ji.load_pairs(pairs)
        return ji

    def load_pairs(self, pairs: Iterable[tuple[RecordId, RecordId]]) -> None:
        """Bulk-load precomputed match pairs (sorted internally)."""
        if self._built:
            raise JoinError("join index already built; use insert_r/insert_s")
        forward = sorted(pairs)
        reverse = sorted((s, r) for r, s in forward)
        self._forward.close()
        self._reverse.close()
        self._forward = BPlusTree.bulk_load(
            self.index_pool, forward, order=self._forward.order
        )
        self._reverse = BPlusTree.bulk_load(
            self.index_pool, reverse, order=self._reverse.order
        )
        self._built = True

    # ------------------------------------------------------------------
    # Maintenance (the model's U_III)
    # ------------------------------------------------------------------

    def insert_r(self, new_tuple: RelTuple, *, meter: CostMeter | None = None) -> int:
        """Maintain the index for a newly inserted R tuple.

        Checks the new object against every S tuple: ``|S|`` update
        computations plus a full page scan of S, then one B+-tree insert
        per discovered pair.  Returns the number of new pairs.
        """
        if meter is None:
            meter = CostMeter()
        if new_tuple.tid is None:
            raise JoinError("tuple must be stored (have a tid) before indexing")
        pool = BufferPool(self.rel_s.buffer_pool.disk, 4000, meter)
        geom = new_tuple[self.column_r]
        added = 0
        for pid in self.rel_s.page_ids:
            page = pool.fetch(pid)
            for slot, record in enumerate(page.slots):
                if record is None:
                    continue
                meter.record_update()
                if self.theta(geom, record[self.column_s]):
                    s_tid = RecordId(pid, slot)
                    self._forward.insert(new_tuple.tid, s_tid)
                    self._reverse.insert(s_tid, new_tuple.tid)
                    added += 1
        return added

    def insert_s(self, new_tuple: RelTuple, *, meter: CostMeter | None = None) -> int:
        """Maintain the index for a newly inserted S tuple (symmetric)."""
        if meter is None:
            meter = CostMeter()
        if new_tuple.tid is None:
            raise JoinError("tuple must be stored (have a tid) before indexing")
        pool = BufferPool(self.rel_r.buffer_pool.disk, 4000, meter)
        geom = new_tuple[self.column_s]
        added = 0
        for pid in self.rel_r.page_ids:
            page = pool.fetch(pid)
            for slot, record in enumerate(page.slots):
                if record is None:
                    continue
                meter.record_update()
                if self.theta(record[self.column_r], geom):
                    r_tid = RecordId(pid, slot)
                    self._forward.insert(r_tid, new_tuple.tid)
                    self._reverse.insert(new_tuple.tid, r_tid)
                    added += 1
        return added

    def remove_r(self, tid_r: RecordId) -> int:
        """Drop all index entries for a deleted R tuple."""
        partners = self._forward.search(tid_r)
        for s_tid in partners:
            self._forward.remove(tid_r, s_tid)
            self._reverse.remove(s_tid, tid_r)
        return len(partners)

    # ------------------------------------------------------------------
    # Query (the model's C_III and D_III)
    # ------------------------------------------------------------------

    def partners_of_r(self, tid_r: RecordId) -> list[RecordId]:
        """S-side tuple ids matching an R tuple (index lookup only)."""
        return self._forward.search(tid_r)

    def select(self, tid_r: RecordId, *, meter: CostMeter | None = None) -> SelectResult:
        """Spatial selection via the index: look up, then fetch tuples.

        Mirrors ``C_III``: a B+-tree descent plus a leaf scan proportional
        to the number of entries, plus the (Yao-governed) data-page
        fetches for the matching tuples.
        """
        if meter is None:
            meter = CostMeter()
        result = SelectResult(strategy="join-index-select")
        partner_tids = self._forward.search(tid_r)
        pool = BufferPool(self.rel_s.buffer_pool.disk, 4000, meter)
        for s_tid in sorted(partner_tids):
            page = pool.fetch(s_tid.page_id)
            result.matches.append((s_tid, page.get(s_tid.slot)))
        # Charge the index I/O explicitly: the index pool is shared with
        # other structures, so its traffic is attributed here.
        depth = self._forward.height
        entries = len(partner_tids)
        meter.record_read(max(0, depth - 1) + _ceil_div(entries, self._forward.order))
        result.stats = meter.snapshot()
        return result

    def join(
        self,
        *,
        meter: CostMeter | None = None,
        memory_pages: int = 4000,
        collect_tuples: bool = False,
    ) -> JoinResult:
        """Produce the full join from the precomputed index (``D_III``).

        Reads the whole index (``ceil(|JI| / z)`` pages), then retrieves
        the participating tuples with the blocked memory technique: R-side
        tuples in chunks, S-side partners fetched per chunk.
        """
        if meter is None:
            meter = CostMeter()
        result = JoinResult(strategy="join-index")
        all_pairs = [(r, s) for r, s in self._forward.items()]
        result.pairs = list(all_pairs)
        meter.record_read(self.pages)

        if collect_tuples and all_pairs:
            pool_r = BufferPool(self.rel_r.buffer_pool.disk, memory_pages, meter)
            pool_s = BufferPool(self.rel_s.buffer_pool.disk, memory_pages, meter)
            chunk = (memory_pages - 10) * self.rel_r.records_per_page
            for start in range(0, len(all_pairs), chunk):
                block = all_pairs[start : start + chunk]
                r_cache: dict[RecordId, RelTuple] = {}
                for r_tid, _ in sorted(block):
                    if r_tid not in r_cache:
                        page = pool_r.fetch(r_tid.page_id)
                        r_cache[r_tid] = page.get(r_tid.slot)
                for r_tid, s_tid in block:
                    s_page = pool_s.fetch(s_tid.page_id)
                    result.tuples.append((r_cache[r_tid], s_page.get(s_tid.slot)))
        result.stats = meter.snapshot()
        return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._forward)

    @property
    def pages(self) -> int:
        """The index pages :meth:`join` reads: the two-column relation
        packed ``z`` (the B+-tree order) entries to a page."""
        return _ceil_div(len(self._forward), self._forward.order)

    @property
    def height(self) -> int:
        """The B+-tree height (the model's ``d``)."""
        return self._forward.height

    def check_consistency(self) -> None:
        """Verify forward and reverse indices mirror each other (tests)."""
        fw = sorted((r, s) for r, s in self._forward.items())
        rv = sorted((r, s) for s, r in self._reverse.items())
        if fw != rv:
            raise JoinError(
                f"join index inconsistent: {len(fw)} forward vs {len(rv)} reverse entries"
            )


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)
