"""Orenstein's z-order sort-merge join -- the one sort-merge that works.

Section 2.2: sort-merge "often does not work at all" for spatial
theta-operators because no total order preserves proximity; the notable
exception is ``overlaps``, computable over a z-ordering [Oren86].  Each
object is decomposed into z-order grid cells (quadtree cells); two
objects can only overlap if some of their cells do, and two quadtree
cells overlap exactly when one is an ancestor-or-self of the other --
i.e. when their z-value intervals nest.  A single merge sweep over the
interval start points, with a stack of open intervals per side, finds all
nesting pairs.

As the paper notes, "any overlap is likely to be reported more than once
... once for each grid cell that the objects have in common"; the
candidate list therefore carries duplicates, which are removed before the
exact refinement step.
"""

from __future__ import annotations

from repro.errors import JoinError
from repro.geometry.rect import Rect
from repro.geometry.zorder import decompose_rect
from repro.join.result import JoinResult
from repro.obs.trace import coalesce
from repro.predicates.dispatch import exact_overlaps
from repro.relational.relation import Relation
from repro.storage.buffer import BufferPool, paired_pools
from repro.storage.costs import CostMeter
from repro.storage.record import RecordId


def _z_entries(
    relation: Relation,
    column: str,
    universe: Rect,
    max_level: int,
    pool: BufferPool,
) -> list[tuple[int, int, RecordId]]:
    """Decompose every tuple's MBR into (interval_lo, interval_hi, tid)."""
    entries: list[tuple[int, int, RecordId]] = []
    for pid in relation.page_ids:
        page = pool.fetch(pid)
        for slot, record in enumerate(page.slots):
            if record is None:
                continue
            tid = RecordId(pid, slot)
            # Closed-set decomposition: objects touching at a seam must
            # still produce candidate cell pairs (overlaps is closed).
            for cell in decompose_rect(
                record[column].mbr(), universe, max_level, closed=True
            ):
                lo, hi = cell.interval(max_level)
                entries.append((lo, hi, tid))
    entries.sort()
    return entries


def zorder_merge_join(
    rel_r: Relation,
    rel_s: Relation,
    column_r: str,
    column_s: str,
    *,
    universe: Rect,
    max_level: int = 8,
    meter: CostMeter | None = None,
    memory_pages: int = 4000,
    refine: bool = True,
    tracer=None,
) -> JoinResult:
    """Overlap join via z-order decomposition and a merge sweep.

    ``universe`` must cover all geometries; ``max_level`` bounds the
    decomposition depth (finer levels shrink the candidate set but grow
    the cell lists).  With ``refine=False`` the raw candidate pairs
    (including duplicates, as in Orenstein's original scheme) are
    returned; by default candidates are deduplicated and verified with
    the exact overlap test.

    A ``tracer`` sees the algorithm's three phases as sibling spans --
    ``zorder.decompose`` (cell entries per side), ``zorder.merge``
    (candidates, including Orenstein's duplicates) and ``zorder.refine``
    (unique candidates, surviving pairs) -- each carrying the meter
    delta that phase caused.
    """
    if max_level < 0:
        raise JoinError(f"max_level must be non-negative, got {max_level}")
    if meter is None:
        meter = CostMeter()
    tracer = coalesce(tracer)
    # One M-page memory budget shared across both sides (the paper's
    # M - 10 reservation convention), so I/O charges stay comparable to
    # the nested-loop and tree strategies.
    pool_r, pool_s = paired_pools(
        rel_r.buffer_pool.disk, rel_s.buffer_pool.disk, memory_pages, meter
    )

    with tracer.span("zorder.decompose", meter=meter, max_level=max_level) as span:
        entries_r = _z_entries(rel_r, column_r, universe, max_level, pool_r)
        entries_s = _z_entries(rel_s, column_s, universe, max_level, pool_s)
        span.set_tag("entries_r", len(entries_r))
        span.set_tag("entries_s", len(entries_s))

    # Merge sweep: advance over both lists in interval-start order,
    # maintaining a stack of open (enclosing) intervals per side.  When an
    # interval opens, every open interval of the *other* side that has not
    # yet closed encloses it (quadtree intervals nest or are disjoint), so
    # each such pair is a candidate.
    candidates: list[tuple[RecordId, RecordId]] = []
    open_r: list[tuple[int, int, RecordId]] = []
    open_s: list[tuple[int, int, RecordId]] = []
    with tracer.span("zorder.merge", meter=meter) as span:
        i = j = 0
        while i < len(entries_r) or j < len(entries_s):
            take_r = j >= len(entries_s) or (
                i < len(entries_r) and entries_r[i][0] <= entries_s[j][0]
            )
            lo, hi, tid = entries_r[i] if take_r else entries_s[j]
            if take_r:
                i += 1
            else:
                j += 1
            # Close expired intervals on both stacks.
            while open_r and open_r[-1][1] < lo:
                open_r.pop()
            while open_s and open_s[-1][1] < lo:
                open_s.pop()
            other = open_s if take_r else open_r
            for _olo, _ohi, other_tid in other:
                meter.record_filter_eval()
                pair = (tid, other_tid) if take_r else (other_tid, tid)
                candidates.append(pair)
            if take_r:
                open_r.append((lo, hi, tid))
            else:
                open_s.append((lo, hi, tid))
        span.set_tag("candidates", len(candidates))

    result = JoinResult(strategy="zorder-merge")
    if not refine:
        result.pairs = candidates
        result.stats = meter.snapshot()
        return result

    # Deduplicate, then refine with the exact geometric test.
    from repro.intermediate.filter import ExactRefiner

    with tracer.span("zorder.refine", meter=meter) as span:
        unique = sorted(set(candidates))
        geoms_r, geoms_s = [], []
        try:
            for r_tid, s_tid in unique:
                r_page = pool_r.fetch(r_tid.page_id)
                s_page = pool_s.fetch(s_tid.page_id)
                geoms_r.append(r_page.get(r_tid.slot)[column_r])
                geoms_s.append(s_page.get(s_tid.slot)[column_s])
        finally:
            # One batch; after a failed fetch, the pairs fetched before it
            # are still charged, as a pair-at-a-time loop charged them.
            hits = ExactRefiner(exact_overlaps).resolve(geoms_r, geoms_s, meter)
        result.pairs = [pair for pair, hit in zip(unique, hits) if hit]
        span.set_tag("unique", len(unique))
        span.set_tag("pairs", len(result.pairs))
    result.stats = meter.snapshot()
    return result
