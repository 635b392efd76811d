"""Forward plane sweep over one partition (grid tile or shard range).

The kernel of every partitioned join: both sides arrive sorted by
``xmin``; for each entry the sweep scans forward in the *other* side
while the x intervals still overlap.  Candidates that also overlap in y
are MBR matches; each is charged one Theta-filter evaluation.  Surviving
candidates pass through the reference-point ownership test (duplicate
avoidance across partitions, free of charge -- it is bookkeeping, not a
predicate) and are then refined with the exact theta-operator, which
dispatches over the stored geometries via
:mod:`repro.predicates.dispatch`.  An optional *refiner* (see
:mod:`repro.intermediate.filter`) replaces that exact step with the
raster-interval second tier: sure hits and misses are resolved from cell
intervals and only ambiguous pairs run the exact predicate.  Without a
refiner an :class:`~repro.intermediate.filter.ExactRefiner` is
constructed, which is byte-identical to the historical behavior.

:func:`sweep_task` runs that pass on MBR arrays: candidate generation,
the y test and the ownership test are array operations, and only
refinement touches objects.  Grid tiles (:mod:`repro.parallel.join`) and
z-order range shards (:mod:`repro.shard.worker`) both run it; the scalar
merge loop in ``tests/parallel/reference.py`` is its oracle, and both
charge the same counters for the same input.
"""

from __future__ import annotations

from repro.parallel.partitioner import PartitionTask
from repro.predicates.theta import ThetaOperator
from repro.storage.costs import CostMeter


#: Candidates a sweep holds in arrays at once.  A grid tile has a few
#: hundred; a shard's whole table pair has millions, which are walked in
#: blocks of about this many so the sweep's memory does not grow with
#: the partition.
BLOCK = 1 << 16


def _ranges(lo, counts):
    """Index pairs ``(i, j)`` for every ``j`` in ``lo[i]:lo[i] + counts[i]``."""
    import numpy as np

    outer = np.repeat(np.arange(len(lo)), counts)
    inner = np.arange(len(outer)) - np.repeat(np.cumsum(counts) - counts - lo, counts)
    return outer, inner


def _blocks(counts, total: int):
    """Slices ``(a, b)`` of ``counts``, which sum to ``total``, summing
    to about :data:`BLOCK` each."""
    import numpy as np

    if total <= BLOCK:
        return [(0, len(counts))]
    cuts = np.searchsorted(np.cumsum(counts), np.arange(BLOCK, total, BLOCK)) + 1
    edges = np.unique(np.concatenate(([0], cuts, [len(counts)]))).tolist()
    return list(zip(edges, edges[1:]))


def sweep_task(
    keyspace,
    task: PartitionTask,
    theta: ThetaOperator,
    meter: CostMeter,
    refiner=None,
):
    """Matching pairs owned by ``task``'s partition, as integer rows
    ``page_r, slot_r, page_s, slot_s``.

    The forward scan is two ``searchsorted`` ranges -- for each ``r`` the
    ``s`` with ``r.xmin <= s.xmin <= r.xmax`` (``r`` opens first; ties go
    to ``r``), for each ``s`` the ``r`` with ``s.xmin < r.xmin <=
    s.xmax`` -- whose total size is the Theta-filter evaluations a merge
    loop charges one by one.  The ranges are expanded into candidate
    arrays a block at a time.  The y test runs on the candidate arrays,
    and on its survivors so does the reference-point no-dedup rule:
    ``keyspace`` (a :class:`~repro.parallel.partitioner.GridSpec` or a
    :class:`~repro.shard.keyspace.ShardMap`) answers ``owners(xs, ys)``
    with the id of the one partition owning each point, and a pair is
    kept where that is ``task.key`` -- entries are replicated into every
    partition their MBR touches, so each qualifying pair is emitted
    exactly once across the partitioning.  What is left is refined one
    pair at a time on the stored geometries.
    """
    import numpy as np

    if refiner is None:
        from repro.intermediate.filter import ExactRefiner

        refiner = ExactRefiner(theta)
    boxes_r = task.r.box_array()[task.rows_r]
    boxes_s = task.s.box_array()[task.rows_s]
    xmin_r, xmin_s = boxes_r[:, 0], boxes_s[:, 0]
    # One range per row: the r rows (r opens first), then the s rows.
    lo = np.concatenate((
        np.searchsorted(xmin_s, xmin_r, "left"),
        np.searchsorted(xmin_r, xmin_s, "right"),
    ))
    hi = np.concatenate((
        np.searchsorted(xmin_s, boxes_r[:, 2], "right"),
        np.searchsorted(xmin_r, boxes_s[:, 2], "right"),
    ))
    counts = hi - lo
    candidates = int(counts.sum())
    meter.record_filter_eval(candidates)

    n_r = len(boxes_r)
    geoms_r, geoms_s = task.r.geoms, task.s.geoms
    found = []
    for a, b in _blocks(counts, candidates):
        opener, other = _ranges(lo[a:b], counts[a:b])
        opener += a
        r_opens = opener < n_r
        i = np.where(r_opens, opener, other)
        j = np.where(r_opens, other, opener - n_r)
        r, s = boxes_r[i], boxes_s[j]
        keep = np.flatnonzero((s[:, 1] <= r[:, 3]) & (r[:, 1] <= s[:, 3]))
        r, s = r[keep], s[keep]
        owner = keyspace.owners(
            np.maximum(r[:, 0], s[:, 0]), np.maximum(r[:, 1], s[:, 1])
        )
        keep = keep[owner == task.key]
        i, j = task.rows_r[i[keep]], task.rows_s[j[keep]]
        hits = [
            refiner.matches(geoms_r[x], geoms_s[y], meter)
            for x, y in zip(i.tolist(), j.tolist())
        ]
        found.append(np.hstack((task.r.id_array()[i[hits]], task.s.id_array()[j[hits]])))
    return found[0] if len(found) == 1 else np.concatenate(found)
