"""Forward plane sweep over a group of partitions (grid tiles, or one
shard range).

The kernel of every partitioned join: both sides arrive sorted by
``xmin``; for each entry the sweep scans forward in the *other* side
while the x intervals still overlap.  Candidates that also overlap in y
are MBR matches; each is charged one Theta-filter evaluation.  Surviving
candidates pass through the reference-point ownership test (duplicate
avoidance across partitions, free of charge -- it is bookkeeping, not a
predicate) and are then refined with the exact theta-operator, a block
of candidates per ``resolve`` call of an
:class:`~repro.intermediate.filter.ExactRefiner`.  For ``overlaps`` on
two columns of rectangles there is nothing left to refine: theta *is*
the MBR test just passed (Table 1), so the owned candidates are the
hits, their exact evaluations are charged in one step and no geometry
is read.  An optional *refiner* (see :mod:`repro.intermediate.filter`)
replaces the exact step with the raster-interval second tier: sure hits
and misses are resolved from cell intervals and only ambiguous pairs
run the exact predicate.

:func:`sweep_task` runs that pass on MBR arrays: candidate generation,
the y test and the ownership test are array operations, only
refinement touches objects, and the result is row numbers, which the
caller turns into the rows' ids.  Groups of grid tiles
(:mod:`repro.parallel.pool`) and z-order range shards, a group of one
(:mod:`repro.shard.worker`), both run it; the scalar
merge loop in ``tests/parallel/reference.py`` is its oracle, and both
charge the same counters for the same input.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.parallel.partitioner import PartitionTask
from repro.predicates.theta import Overlaps, ThetaOperator
from repro.storage.costs import CostMeter


#: Candidates a sweep holds in arrays at once.  A grid tile has a few
#: hundred, so tiles are swept in groups that cannot exceed this many
#: (:func:`task_groups`); a shard's whole table pair has millions, which
#: are walked in blocks of about this many -- either way the sweep's
#: memory grows neither with the partition nor with their number.
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


def task_groups(tasks: Sequence[PartitionTask]) -> Iterator[list[PartitionTask]]:
    """``tasks`` cut into runs of consecutive partitions that cannot
    hold more than :data:`BLOCK` candidates between them -- a partition
    has at most ``|r| * |s|`` -- so what one :func:`sweep_task` call
    holds in arrays stays block-sized however many partitions there
    are.  A partition that alone can exceed the bound is a run of one."""
    group: list[PartitionTask] = []
    bound = 0
    for task in tasks:
        pairs = len(task.rows_r) * len(task.rows_s)
        if group and bound + pairs > BLOCK:
            yield group
            group, bound = [], 0
        group.append(task)
        bound += pairs
    if group:
        yield group


def sweep_task(
    keyspace,
    tasks: Sequence[PartitionTask],
    theta: ThetaOperator,
    meter: CostMeter,
    refiner=None,
):
    """Matching pairs owned by ``tasks``' partitions, as an ``(k, 2)``
    integer array of row numbers into the two columns.

    ``tasks`` is a group of partitions over the same two
    :class:`~repro.relational.columns.Columns` -- consecutive tiles of
    one scatter, or the one task of a shard range -- swept together: the
    arithmetic below runs once on the group's concatenated rows, never
    once per partition.

    The forward scan is two ``searchsorted`` ranges -- for each ``r`` the
    ``s`` of its partition with ``r.xmin <= s.xmin <= r.xmax`` (``r``
    opens first; ties go to ``r``), for each ``s`` the ``r`` with
    ``s.xmin < r.xmin <= s.xmax`` -- whose total size is the Theta-filter
    evaluations a merge loop charges one by one.  A range stays inside
    its partition because the search runs on composite integer keys
    ``(position of the partition in the group, rank of the x value among
    the group's x values)``: exact, so equal ``xmin`` values and
    seam-touching MBRs order as the floats themselves do.  The ranges
    are expanded into candidate arrays a block at a time.  The y test
    runs on the candidate arrays, and on its survivors so does the
    reference-point no-dedup rule: ``keyspace`` (a
    :class:`~repro.parallel.partitioner.GridSpec` or a
    :class:`~repro.shard.keyspace.ShardMap`) answers ``owners(xs, ys)``
    with the id of the one partition owning each point, and a pair is
    kept where that is its partition's ``key`` -- entries are replicated
    into every partition their MBR touches, so each qualifying pair is
    emitted exactly once across the partitioning.  What is left is
    refined on the stored geometries, one ``refiner.resolve`` per block
    -- unless the sweep refines exactly (``refiner is None``), ``theta``
    is :class:`Overlaps` and both columns are all rectangles
    (``Columns.rects``): then what is left is the hits, and the block's
    exact evaluations are charged in bulk, as ``ExactRefiner.resolve``
    charges them.
    """
    import numpy as np

    columns_r, columns_s = tasks[0].r, tasks[0].s
    # Table 1: for ``overlaps`` on rectangles theta is the MBR test the
    # block has just run, so its owned candidates are its hits.
    decided = (
        refiner is None and type(theta) is Overlaps
        and columns_r.rects and columns_s.rects
    )
    if refiner is None:
        from repro.intermediate.filter import ExactRefiner

        refiner = ExactRefiner(theta)
    rows_r = np.concatenate([task.rows_r for task in tasks])
    rows_s = np.concatenate([task.rows_s for task in tasks])
    boxes_r = columns_r.box_array()[rows_r]
    boxes_s = columns_s.box_array()[rows_s]
    n_r, n_s = len(rows_r), len(rows_s)
    # Which of the group's partitions each row belongs to.
    places = np.arange(len(tasks))
    part_r = np.repeat(places, [len(task.rows_r) for task in tasks])
    part_s = np.repeat(places, [len(task.rows_s) for task in tasks])

    xs = np.concatenate((boxes_r[:, 0], boxes_s[:, 0], boxes_r[:, 2], boxes_s[:, 2]))
    keys = np.unique(xs, return_inverse=True)[1]
    keys += np.concatenate((part_r, part_s, part_r, part_s)) * len(xs)
    xmin_r, xmin_s, xmax_r, xmax_s = np.split(keys, (n_r, n_r + n_s, 2 * n_r + n_s))
    # One range per row: the r rows (r opens first), then the s rows.
    lo = np.concatenate((
        np.searchsorted(xmin_s, xmin_r, "left"),
        np.searchsorted(xmin_r, xmin_s, "right"),
    ))
    hi = np.concatenate((
        np.searchsorted(xmin_s, xmax_r, "right"),
        np.searchsorted(xmin_r, xmax_s, "right"),
    ))
    counts = hi - lo
    candidates = int(counts.sum())
    meter.record_filter_eval(candidates)

    partition_keys = np.array([task.key for task in tasks])
    geoms_r, geoms_s = columns_r.geoms, columns_s.geoms
    found = []
    for a, b in _blocks(counts, candidates):
        opener, other = _ranges(lo[a:b], counts[a:b])
        opener += a
        r_opens = opener < n_r
        i = np.where(r_opens, opener, other)
        j = np.where(r_opens, other, opener - n_r)
        # The y test gathers the two columns it reads, not whole boxes:
        # a block's candidates outnumber its survivors many times over.
        keep = boxes_s[j, 1] <= boxes_r[i, 3]
        keep &= boxes_r[i, 1] <= boxes_s[j, 3]
        keep = np.flatnonzero(keep)
        r, s = boxes_r[i[keep]], boxes_s[j[keep]]
        owner = keyspace.owners(
            np.maximum(r[:, 0], s[:, 0]), np.maximum(r[:, 1], s[:, 1])
        )
        keep = keep[owner == partition_keys[part_r[i[keep]]]]
        i, j = rows_r[i[keep]], rows_s[j[keep]]
        if decided:
            meter.record_exact_eval(len(i))
        else:
            hits = refiner.resolve(
                [geoms_r[x] for x in i.tolist()],
                [geoms_s[y] for y in j.tolist()], meter,
            )
            i, j = i[hits], j[hits]
        found.append(np.column_stack((i, j)))
    return found[0] if len(found) == 1 else np.concatenate(found)
