"""The sweep decides rectangle pairs by their MBR test -- also on
degenerate boxes.

For ``overlaps`` on two all-rectangle columns the sweep takes its owned
candidates as the hits (Table 1: theta is the closed MBR test) and
charges their exact evaluations in bulk.  That holds only if the
sweep's candidate test is the closed one ``Rect.intersects`` runs, so
the inputs here are the boxes where an open test or an off-by-one seam
would differ: zero-width, zero-height and point-like boxes, boxes
touching along an edge or at a corner, runs of equal ``xmin``, and boxes
on a tile seam or past the universe.  Over grids from 1 x 1 to
128 x 128 the columnar run must agree with the scalar merge loop of
:mod:`tests.parallel.reference` pair for pair and counter for counter
without calling ``resolve`` -- and a column holding polygons must go
through ``resolve`` and match the nested loop of :mod:`tests.oracle`.
"""

from __future__ import annotations

import random

import pytest

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.intermediate import IntervalFilter, IntervalSpec
from repro.intermediate.filter import ExactRefiner
from repro.parallel import plane_sweep
from repro.parallel.partitioner import GridSpec, as_columns, partition_pair
from repro.parallel.pool import run_partitions
from repro.predicates.theta import Overlaps
from repro.storage.costs import COUNTER_FIELDS
from repro.storage.record import RecordId

from tests import oracle
from tests.parallel.reference import scalar_join

UNIVERSE = Rect(0.0, 0.0, 100.0, 100.0)
#: Every seam of every power-of-two grid up to 128 and of the 3, 6, 12,
#: 24 and 48 grids, from a little before the universe to a little past.
SEAMS = sorted(
    {k * 100.0 / 128 for k in range(-4, 133)} | {k * 100.0 / 48 for k in range(-2, 51)}
)
STEPS = [0.0, 0.0, 100.0 / 128, 100.0 / 48, 100.0 / 16, 100.0 / 8, 6.0]

GRIDS = [(1, 1), (2, 2), (3, 3), (1, 128), (128, 1), (7, 5), (16, 16), (48, 48), (128, 128)]


def degenerate_boxes(seed: int, count: int) -> tuple[list[Rect], list[Rect]]:
    """``count`` boxes a side on the seams, a fifth each zero-width,
    zero-height and point-like; the ``k``-th ``s`` box touches the
    ``k``-th ``r`` box along an edge or at a corner, shares its ``xmin``,
    is one of its corners or clears its top by a hair, and every other
    pair is swapped across."""
    rng = random.Random(seed)
    boxes_r, boxes_s = [], []
    for k in range(count):
        x, y = rng.choice(SEAMS), rng.choice(SEAMS)
        w = 0.0 if k % 5 in (0, 2) else rng.choice(STEPS)
        h = 0.0 if k % 5 in (1, 2) else rng.choice(STEPS)
        box = Rect(x, y, x + w, y + h)
        dw, dh = rng.choice(STEPS), rng.choice(STEPS)
        neighbour = rng.choice([
            Rect(box.xmax, box.ymin, box.xmax + dw, box.ymax),  # right edge
            Rect(box.xmin, box.ymax, box.xmin + dw, box.ymax + dh),  # top, same xmin
            Rect(box.xmax, box.ymax, box.xmax + dw, box.ymax + dh),  # corner
            Rect(box.xmin, box.ymin, box.xmin, box.ymin),  # its own corner point
            Rect(box.xmin, box.ymax + dh + 1e-9, box.xmax, box.ymax + 2 * dh + 1),  # gap
        ])
        if k % 2:
            box, neighbour = neighbour, box
        boxes_r.append(box)
        boxes_s.append(neighbour)
    return boxes_r, boxes_s


def entries(geoms, page: int) -> list:
    return [(RecordId(page + i // 8, i % 8), g.mbr(), g) for i, g in enumerate(geoms)]


def diamond(box: Rect) -> Polygon:
    cx, cy = (box.xmin + box.xmax) / 2, (box.ymin + box.ymax) / 2
    return Polygon([
        Point(box.xmin, cy), Point(cx, box.ymin), Point(box.xmax, cy), Point(cx, box.ymax),
    ])


def counters(meter) -> dict:
    return {name: getattr(meter, name) for name in COUNTER_FIELDS}


@pytest.fixture
def resolves(monkeypatch):
    """The batches ``ExactRefiner.resolve`` was handed, by size."""
    calls: list[int] = []
    real = ExactRefiner.resolve

    def spy(self, geoms_a, geoms_b, meter):
        calls.append(len(geoms_a))
        return real(self, geoms_a, geoms_b, meter)

    monkeypatch.setattr(ExactRefiner, "resolve", spy)
    return calls


@pytest.mark.parametrize("block", [1, plane_sweep.BLOCK], ids=["block-1", "block-default"])
@pytest.mark.parametrize("nx,ny", GRIDS, ids=[f"{nx}x{ny}" for nx, ny in GRIDS])
def test_rectangles_are_decided_by_the_filter(nx, ny, block, monkeypatch, resolves):
    monkeypatch.setattr(plane_sweep, "BLOCK", block)
    grid = GridSpec(UNIVERSE, nx, ny)
    boxes_r, boxes_s = degenerate_boxes(nx * 1000 + ny, 80)
    entries_r, entries_s = entries(boxes_r, 1), entries(boxes_s, 50)
    expected_pairs, expected_meter = scalar_join(entries_r, entries_s, grid, Overlaps())
    tasks = partition_pair(entries_r, entries_s, grid)
    assert tasks[0].r.rects and tasks[0].s.rects
    pairs, meter, _ = run_partitions(tasks, grid, Overlaps())
    assert pairs == expected_pairs and len(pairs) > 20
    assert counters(meter) == counters(expected_meter)
    assert meter.theta_exact_evals == len(pairs)
    assert resolves == []


@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 3), (16, 16), (128, 128)])
@pytest.mark.parametrize("side", ["r", "s"])
def test_a_polygon_in_either_column_falls_through_to_resolve(nx, ny, side, resolves):
    grid = GridSpec(UNIVERSE, nx, ny)
    boxes_r, boxes_s = degenerate_boxes(nx + 3, 80)
    mixed = boxes_r if side == "r" else boxes_s
    for k, box in enumerate(mixed):
        if k % 3 == 0 and min(box.width, box.height) > 1e-3:
            mixed[k] = diamond(box)
    entries_r, entries_s = entries(boxes_r, 1), entries(boxes_s, 50)
    tasks = partition_pair(entries_r, entries_s, grid)
    assert not (tasks[0].r.rects and tasks[0].s.rects)
    pairs, meter, _ = run_partitions(tasks, grid, Overlaps())
    assert pairs == oracle.join(
        {tid: g for tid, _, g in entries_r}, {tid: g for tid, _, g in entries_s}, Overlaps()
    )
    expected_pairs, expected_meter = scalar_join(entries_r, entries_s, grid, Overlaps())
    assert pairs == expected_pairs
    assert counters(meter) == counters(expected_meter)
    assert sum(resolves) == meter.theta_exact_evals > len(pairs)


def test_the_interval_tier_still_resolves_rectangles(monkeypatch):
    """Under an ``IntervalFilter`` every owned candidate goes through the
    tier's ``resolve``, rectangles or not."""
    seen: list[int] = []
    real = IntervalFilter.resolve

    def spy(self, geoms_a, geoms_b, meter):
        seen.append(len(geoms_a))
        return real(self, geoms_a, geoms_b, meter)

    monkeypatch.setattr(IntervalFilter, "resolve", spy)
    grid = GridSpec(UNIVERSE, 4, 4)
    boxes_r, boxes_s = degenerate_boxes(5, 80)
    entries_r, entries_s = entries(boxes_r, 1), entries(boxes_s, 50)
    refiner = IntervalFilter(Overlaps(), IntervalSpec(universe=UNIVERSE, level=4))
    expected_pairs, expected_meter = scalar_join(
        entries_r, entries_s, grid, Overlaps(),
        IntervalFilter(Overlaps(), IntervalSpec(universe=UNIVERSE, level=4)),
    )
    pairs, meter, _ = run_partitions(
        partition_pair(entries_r, entries_s, grid), grid, Overlaps(), refiner=refiner
    )
    assert pairs == expected_pairs
    assert counters(meter) == counters(expected_meter)
    assert sum(seen) > 0


def test_as_columns_flags_what_it_was_given():
    boxes, _ = degenerate_boxes(1, 10)
    assert as_columns(entries(boxes, 1)).rects
    assert not as_columns(entries([*boxes, diamond(Rect(0, 0, 2, 2))], 1)).rects
