"""A column snapshot keeps each row's own ``RecordId`` and knows whether
every geometry is a rectangle.

``Columns.tids`` lets the partition join answer with the ids its rows
were stored with instead of building new ones, and ``Columns.rects``
lets the sweep decide ``overlaps`` on the box arrays (Table 1: on
rectangles theta is the MBR test).  Both are derived from the rows, so
they must stay in step with ``ids`` and ``geoms`` under every mutation a
column sees.
"""

from __future__ import annotations

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.parallel.partitioner import GridSpec, partition_pair
from repro.parallel.pool import run_partitions
from repro.predicates.theta import Overlaps
from repro.relational.columns import Columns, extract_columns
from repro.storage.record import RecordId

from tests import oracle
from tests.join.conftest import make_point_relation, make_rect_relation

TRIANGLE = Polygon([Point(0, 0), Point(4, 0), Point(0, 4)])


def in_step(columns: Columns) -> bool:
    """``tids`` spell ``ids`` row for row, and ``rects`` is never true of
    a column holding a non-rectangle."""
    ids = columns.ids
    spelled = [RecordId(ids[k], ids[k + 1]) for k in range(0, len(ids), 2)]
    return (
        columns.tids == spelled
        and len(columns.tids) == len(columns.geoms) == len(columns.boxes) // 4
        and (not columns.rects or all(type(g) is Rect for g in columns.geoms))
    )


def entry(page: int, slot: int, geom) -> tuple:
    return RecordId(page, slot), geom.mbr(), geom


def test_extract_takes_the_stored_rows_own_tids():
    rel = make_rect_relation("r", 60, seed=3)
    columns = extract_columns(rel, "shape")
    rows = list(rel.scan())
    assert len(columns.tids) == len(rows) == 60
    assert all(tid is row.tid for tid, row in zip(columns.tids, rows))
    assert columns.rects and in_step(columns)


def test_extract_flags_a_column_that_is_not_all_rectangles():
    columns = extract_columns(make_point_relation("p", 20, seed=3), "loc")
    assert not columns.rects and in_step(columns)


def test_append_extend_and_remove_keep_tids_and_the_flag_in_step():
    columns = Columns()
    assert columns.rects and columns.tids == []
    tid = RecordId(1, 0)
    columns.append(tid, Rect(0, 0, 1, 1), Rect(0, 0, 1, 1))
    assert columns.tids[0] is tid and columns.rects and in_step(columns)

    more = Columns()
    for slot in range(3):
        more.append(*entry(2, slot, Rect(slot, 0, slot + 1, 1)))
    columns.extend(more)
    assert columns.tids[1:] == more.tids and columns.rects and in_step(columns)

    columns.append(*entry(3, 0, TRIANGLE))
    assert not columns.rects and in_step(columns)
    columns.append(*entry(3, 1, Rect(5, 5, 6, 6)))
    assert not columns.rects and in_step(columns)

    assert columns.remove(RecordId(2, 1)) == 1
    assert RecordId(2, 1) not in columns.tids and in_step(columns)
    # Dropping the polygon leaves the flag conservative: still false.
    assert columns.remove(RecordId(3, 0)) == 1
    assert not columns.rects and in_step(columns)

    polygons = Columns()
    polygons.append(*entry(4, 0, TRIANGLE))
    rects = Columns()
    rects.append(*entry(5, 0, Rect(0, 0, 1, 1)))
    rects.extend(polygons)
    assert not rects.rects and in_step(rects)


def test_a_tidless_column_stays_tidless():
    """What the shard runtime ships to a worker keeps no id objects; a
    column extended by one stops keeping them too."""
    shipped = Columns(tids=None)
    shipped.append(*entry(1, 0, Rect(0, 0, 1, 1)))
    shipped.append(*entry(1, 1, Rect(1, 1, 2, 2)))
    assert shipped.tids is None and shipped.rects
    assert shipped.remove(RecordId(1, 0)) == 1 and len(shipped) == 1
    table = Columns()
    table.extend(shipped)
    assert table.tids is None and len(table) == 1
    table.append(*entry(1, 2, Rect(3, 3, 4, 4)))
    assert table.tids is None and list(table.ids) == [1, 1, 1, 2]


def test_partition_run_answers_with_the_snapshots_own_tids():
    rel_r = make_rect_relation("r", 120, seed=8)
    rel_s = make_rect_relation("s", 110, seed=9)
    columns_r = extract_columns(rel_r, "shape")
    columns_s = extract_columns(rel_s, "shape")
    grid = GridSpec(Rect(0, 0, 110, 110), 5, 5)
    pairs, meter, _ = run_partitions(
        partition_pair(columns_r, columns_s, grid), grid, Overlaps()
    )
    assert pairs == oracle.pairs(rel_r, "shape", rel_s, "shape", Overlaps())
    assert pairs == sorted(pairs) and len(pairs) > 50
    stored_r = {row.tid: row.tid for row in rel_r.scan()}
    stored_s = {row.tid: row.tid for row in rel_s.scan()}
    assert all(a is stored_r[a] and b is stored_s[b] for a, b in pairs)
    assert meter.theta_exact_evals == len(pairs)


def test_entries_keep_the_tids_they_were_given():
    """``as_columns`` entries -- what a caller holding ``(tid, mbr,
    geometry)`` triples passes -- are answered with those very tids."""
    entries_r = [entry(1, i, Rect(i, 0, i + 2, 2)) for i in range(10)]
    entries_s = [entry(2, i, Rect(i + 0.5, 1, i + 1, 3)) for i in range(10)]
    grid = GridSpec(Rect(0, 0, 12, 3), 3, 1)
    pairs, _, _ = run_partitions(partition_pair(entries_r, entries_s, grid), grid, Overlaps())
    given_r = {e[0]: e[0] for e in entries_r}
    given_s = {e[0]: e[0] for e in entries_s}
    assert pairs == oracle.join(
        {e[0]: e[2] for e in entries_r}, {e[0]: e[2] for e in entries_s}, Overlaps()
    )
    assert all(a is given_r[a] and b is given_s[b] for a, b in pairs)
