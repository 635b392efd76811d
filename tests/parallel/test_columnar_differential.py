"""Differential tests: the columnar partition pipeline vs the scalar one.

The columnar pipeline (``partition_pair`` on arrays, ``sweep_task`` per
group of tiles, integer result rows) replaced a per-object pipeline that
now lives in :mod:`tests.parallel.reference`.  Both must return the same
pair list *and* charge the same Theta-filter, exact and interval
counters -- the vectorised forward scan counts ``|{r.xmin <= s.xmin <=
r.xmax}| + |{s.xmin < r.xmin <= s.xmax}|`` per tile, which is what the
merge loop charges one candidate at a time -- wherever the group
boundaries fall: ``BLOCK`` is patched so that every tile is its own
group, so that a few tiles share one, and so that all do.

The same kernel runs under a second keyspace: a shard worker sweeps its
replicas with the :class:`ShardMap` answering ``owners``.  The real
:class:`ShardWorkerState` join is compared, over 1-5 shards, with the
scalar merge loop under ``owner_shard``.

Coordinates are drawn from a lattice that contains every seam of every
grid up to 8 x 8 over the universe, so equal ``xmin`` ties, zero-area
rectangles, seam-touching and universe-protruding MBRs are the common
case rather than a measure-zero accident.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.intermediate import IntervalFilter, IntervalSpec
from repro.parallel import plane_sweep
from repro.parallel.partitioner import (
    GridSpec,
    PartitionTask,
    as_columns,
    partition_pair,
    scatter,
)
from repro.parallel.pool import record_pairs, run_partitions
from repro.predicates.theta import Overlaps
from repro.shard.keyspace import ShardMap
from repro.storage.costs import COUNTER_FIELDS, CostMeter
from repro.storage.record import RecordId

from tests.parallel.reference import (
    scalar_join,
    scalar_scatter,
    scalar_shard_join,
    tids,
    worker_shard_join,
)

UNIVERSE = Rect(0.0, 0.0, 100.0, 100.0)
#: Multiples of 100/48 hit the seams of 2, 3, 4, 6 and 8 column grids
#: exactly (in floats: the seams are computed as ``k * (100 / n)``, so
#: some land one ulp off -- both sides of a seam get exercised).
LATTICE = [k * 100.0 / 48.0 for k in range(-6, 55)]

coordinate = st.one_of(
    st.sampled_from(LATTICE),
    st.floats(min_value=-15.0, max_value=115.0, allow_nan=False),
)
extent = st.one_of(
    st.just(0.0),
    st.sampled_from([k * 100.0 / 48.0 for k in range(1, 14)]),
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
)


def diamond(box: Rect) -> Polygon:
    """The polygon through ``box``'s side midpoints: same MBR, half the
    area, so MBR candidates exist that exact refinement rejects."""
    cx, cy = (box.xmin + box.xmax) / 2, (box.ymin + box.ymax) / 2
    return Polygon([
        Point(box.xmin, cy), Point(cx, box.ymin),
        Point(box.xmax, cy), Point(cx, box.ymax),
    ])


@st.composite
def geometries(draw, polygons: bool):
    x, y, w, h = draw(coordinate), draw(coordinate), draw(extent), draw(extent)
    box = Rect(x, y, x + w, y + h)
    # Not for sliver boxes: a denormal-sized polygon has no centroid.
    if polygons and min(box.width, box.height) > 1e-3 and draw(st.booleans()):
        return diamond(box)
    return box


def entry_lists(polygons: bool):
    def to_entries(page):
        return lambda geoms: [
            (RecordId(page + i // 7, i % 7), g.mbr(), g) for i, g in enumerate(geoms)
        ]

    return (
        st.lists(geometries(polygons), max_size=30).map(to_entries(1)),
        st.lists(geometries(polygons), max_size=30).map(to_entries(40)),
    )


grids = st.builds(
    GridSpec, st.just(UNIVERSE),
    st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8),
)


#: 1-5 shards over the 16 x 16 z-order cells of the universe (seams at
#: multiples of 100/16, a quarter of which are lattice points).
shard_maps = st.builds(
    ShardMap.split_uniform, st.just(UNIVERSE), st.integers(min_value=1, max_value=5)
)


def columnar_join(entries_r, entries_s, grid, refiner=None, **pool_args):
    tasks = partition_pair(entries_r, entries_s, grid)
    pairs, meter, report = run_partitions(
        tasks, grid, Overlaps(), refiner=refiner, **pool_args
    )
    return pairs, meter, report


def counters(meter) -> dict:
    return {name: getattr(meter, name) for name in COUNTER_FIELDS}


#: ``BLOCK`` values that make every tile a group, a few tiles a group
#: (a tile of these inputs bounds at most 900 candidates) and all one.
group_bounds = st.sampled_from([1, 300, plane_sweep.BLOCK])


@pytest.mark.parametrize("polygons", [False, True], ids=["rects", "polygons"])
@given(data=st.data(), grid=grids, block=group_bounds)
@settings(max_examples=80, deadline=None)
def test_pairs_and_counters_match_the_scalar_pipeline(polygons, data, grid, block):
    entries_r, entries_s = (data.draw(s) for s in entry_lists(polygons))
    expected_pairs, expected_meter = scalar_join(entries_r, entries_s, grid, Overlaps())
    with mock.patch.object(plane_sweep, "BLOCK", block):
        pairs, meter, _ = columnar_join(entries_r, entries_s, grid)
    assert pairs == expected_pairs
    assert counters(meter) == counters(expected_meter)


@given(data=st.data(), grid=grids, level=st.integers(min_value=2, max_value=6))
@settings(max_examples=50, deadline=None)
def test_interval_filter_counters_match_the_scalar_pipeline(data, grid, level):
    """With the raster tier on, probes / sure hits / saved evals and the
    remaining exact evals are the scalar pipeline's; MBRs protruding
    from the interval universe fall through to exact on both sides."""
    entries_r, entries_s = (data.draw(s) for s in entry_lists(polygons=True))
    spec = IntervalSpec(universe=UNIVERSE, level=level)
    expected_pairs, expected_meter = scalar_join(
        entries_r, entries_s, grid, Overlaps(), IntervalFilter(Overlaps(), spec)
    )
    pairs, meter, _ = columnar_join(
        entries_r, entries_s, grid, IntervalFilter(Overlaps(), spec)
    )
    assert pairs == expected_pairs
    assert counters(meter) == counters(expected_meter)
    plain_pairs, _, _ = columnar_join(entries_r, entries_s, grid)
    assert pairs == plain_pairs


@pytest.mark.parametrize("polygons", [False, True], ids=["rects", "polygons"])
@given(
    data=st.data(), shard_map=shard_maps,
    block=st.sampled_from([1, 7, plane_sweep.BLOCK]),
)
@settings(max_examples=60, deadline=None)
def test_shard_workers_match_the_scalar_sweep_under_owner_shard(
    polygons, data, shard_map, block
):
    """A shard sweeps its whole table pair as one partition, in blocks of
    ``BLOCK`` candidates; tiny blocks put a block edge in every range."""
    entries_r, entries_s = (data.draw(s) for s in entry_lists(polygons))
    expected_pairs, expected_meter = scalar_shard_join(
        entries_r, entries_s, shard_map, Overlaps()
    )
    with mock.patch.object(plane_sweep, "BLOCK", block):
        pairs, meter = worker_shard_join(entries_r, entries_s, shard_map, Overlaps())
    assert pairs == expected_pairs
    assert counters(meter) == counters(expected_meter)


@given(data=st.data(), grid=grids)
@settings(max_examples=40, deadline=None)
def test_scatter_replicates_exactly_like_covering_cells(data, grid):
    entries, _ = (data.draw(s) for s in entry_lists(polygons=False))
    expected = {
        ix * grid.ny + iy: sorted((e[1].xmin, e[0]) for e in cell)
        for (ix, iy), cell in scalar_scatter(entries, grid).items()
    }
    columns = as_columns(entries)
    boxes, ids = columns.box_array(), columns.id_array()
    cells = scatter(columns, grid)
    assert {
        cell: sorted(zip(boxes[rows, 0].tolist(), tids(ids[rows])))
        for cell, rows in cells.items()
    } == expected
    for rows in cells.values():
        assert boxes[rows, 0].tolist() == sorted(boxes[rows, 0].tolist())


@given(
    xs=st.lists(coordinate, min_size=1, max_size=20),
    ys=st.lists(coordinate, min_size=1, max_size=20),
    grid=grids,
)
def test_owner_cells_is_owner_cell_elementwise(xs, ys, grid):
    n = min(len(xs), len(ys))
    ix, iy = grid.owner_cells(np.array(xs[:n]), np.array(ys[:n]))
    assert list(zip(ix.tolist(), iy.tolist())) == [
        grid.owner_cell(x, y) for x, y in zip(xs[:n], ys[:n])
    ]


# ----------------------------------------------------------------------
# One fixed workload
# ----------------------------------------------------------------------


def fixed_workload(polygons=False):
    """160 x 140 boxes whose ``xmin`` is one of 61 lattice values (so
    most are shared, and a quarter sit on a seam of the 4 x 4 grid) and
    whose width is 0 or a seam-to-seam distance; with ``polygons`` every
    other box with area is a diamond inscribed in it."""
    import random

    rng = random.Random(15)

    def entries(page, count):
        out = []
        for i in range(count):
            x, y = rng.choice(LATTICE), rng.uniform(-5, 95)
            g = Rect(x, y, x + rng.choice([0.0, 6.25, 12.5, 9.0]), y + rng.uniform(0, 14))
            if polygons and i % 2 and g.width > 0:
                g = diamond(g)
            out.append((RecordId(page + i // 9, i % 9), g.mbr(), g))
        return out

    return entries(1, 160), entries(60, 140), GridSpec(UNIVERSE, 4, 4)


def shard_tasks(entries_r, entries_s, shard_map):
    """One task per shard over two shared ``Columns``: the shard's
    replicas as row numbers in ``xmin`` order -- what a fleet's workers
    each sweep alone, here as partitions of one group."""
    columns = as_columns(entries_r), as_columns(entries_s)

    def rows(entries, boxes, shard):
        members = np.array(
            [i for i, e in enumerate(entries)
             if shard in shard_map.covering_shards(e[1])],
            dtype=np.int64,
        )
        return members[np.argsort(boxes[members, 0], kind="stable")]

    return [
        PartitionTask(
            shard,
            columns[0], rows(entries_r, columns[0].box_array(), shard),
            columns[1], rows(entries_s, columns[1].box_array(), shard),
        )
        for shard in range(shard_map.n_shards)
    ]


#: ``BLOCK`` per keyspace -> how the fixed workload's 16 tiles (bounding
#: 42-368 candidates each) or 5 shards (558-2,072 each) group.
GROUPINGS = {
    "tile-per-group": {"grid": 1, "shards": 1},
    "several-groups": {"grid": 700, "shards": 3000},
    "one-group": {"grid": plane_sweep.BLOCK, "shards": plane_sweep.BLOCK},
}


@pytest.mark.parametrize("grouping", GROUPINGS)
@pytest.mark.parametrize("level", [None, 3, 6], ids=["exact", "interval-3", "interval-6"])
@pytest.mark.parametrize("polygons", [False, True], ids=["rects", "polygons"])
@pytest.mark.parametrize("keyspace", ["grid", "shards"])
def test_group_boundaries_change_neither_pairs_nor_counters(
    keyspace, polygons, level, grouping, monkeypatch
):
    entries_r, entries_s, grid = fixed_workload(polygons)
    theta = Overlaps()
    spec = None if level is None else IntervalSpec(universe=UNIVERSE, level=level)
    refiner = None if spec is None else IntervalFilter(theta, spec)
    if keyspace == "grid":
        partitioning = grid
        tasks = partition_pair(entries_r, entries_s, grid)
        expected_pairs, expected_meter = scalar_join(
            entries_r, entries_s, grid, theta,
            None if spec is None else IntervalFilter(theta, spec),
        )
    else:
        partitioning = ShardMap.split_uniform(UNIVERSE, 5)
        tasks = shard_tasks(entries_r, entries_s, partitioning)
        expected_pairs, expected_meter = scalar_shard_join(
            entries_r, entries_s, partitioning, theta, spec
        )
    monkeypatch.setattr(plane_sweep, "BLOCK", GROUPINGS[grouping][keyspace])
    groups = list(plane_sweep.task_groups(tasks))
    assert [t.key for g in groups for t in g] == [t.key for t in tasks]
    assert {
        "tile-per-group": len(groups) == len(tasks),
        "several-groups": 3 <= len(groups) < len(tasks),
        "one-group": len(groups) == 1,
    }[grouping]
    meter = CostMeter()
    pairs = record_pairs([
        plane_sweep.sweep_task(partitioning, group, theta, meter, refiner)
        for group in groups
    ])
    assert pairs == expected_pairs and len(pairs) > 100
    assert counters(meter) == counters(expected_meter)
    assert meter.theta_filter_evals > meter.theta_exact_evals + meter.interval_probes > 0


def test_two_workers_equal_one_worker():
    """``workers`` selects no execution path: on a given grid every value
    sweeps the same tiles on one meter in this process."""
    entries_r, entries_s, grid = fixed_workload()
    pairs_1, meter_1, _ = columnar_join(entries_r, entries_s, grid, workers=1)
    pairs_2, meter_2, report = columnar_join(entries_r, entries_s, grid, workers=2)
    assert pairs_2 == pairs_1 == scalar_join(entries_r, entries_s, grid, Overlaps())[0]
    assert counters(meter_2) == counters(meter_1)
    assert (report.requested_workers, report.effective_workers) == (2, 1)


def test_entry_sequences_and_columns_build_the_same_tasks():
    """``partition_pair`` takes ``(tid, mbr, geom)`` sequences (lists,
    tuples, generators) through one adapter and yields the tasks the
    columnar form yields."""
    entries_r, entries_s, grid = fixed_workload()
    from_columns = partition_pair(as_columns(entries_r), as_columns(entries_s), grid)
    for form in (list, tuple, iter):
        tasks = partition_pair(form(entries_r), form(entries_s), grid)
        assert len(tasks) == len(from_columns) > 1
        for got, want in zip(tasks, from_columns):
            for f in dataclasses.fields(got):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert np.array_equal(a, b) if hasattr(a, "shape") else a == b
            assert got.load == len(got.rows_r) + len(got.rows_s)
