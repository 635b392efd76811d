"""Unit and property tests for the grid partitioner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import JoinError
from repro.geometry.rect import Rect
from repro.parallel.partitioner import (
    GridSpec,
    as_columns,
    partition_pair,
    reference_point,
    scatter,
)
from repro.storage.record import RecordId

from tests.parallel.reference import tids

UNIVERSE = Rect(0.0, 0.0, 100.0, 100.0)


def entry(i, xmin, ymin, xmax, ymax):
    r = Rect(xmin, ymin, xmax, ymax)
    return (RecordId(0, i), r, r)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(JoinError):
            GridSpec(UNIVERSE, 0, 4)
        with pytest.raises(JoinError):
            GridSpec(Rect(0, 0, 0, 5), 2, 2)

    def test_cell_geometry_tiles_universe(self):
        grid = GridSpec(UNIVERSE, 4, 5)
        assert grid.num_cells == 20
        total = sum(
            grid.cell_rect(ix, iy).area()
            for ix in range(4) for iy in range(5)
        )
        assert total == pytest.approx(UNIVERSE.area())

    def test_owner_is_half_open(self):
        grid = GridSpec(UNIVERSE, 4, 4)
        # A point exactly on an interior seam belongs to the upper-right cell.
        assert grid.owner_cell(25.0, 25.0) == (1, 1)
        # The universe's max corner clamps into the last cell.
        assert grid.owner_cell(100.0, 100.0) == (3, 3)
        # Points outside the universe clamp to border cells.
        assert grid.owner_cell(-5.0, 120.0) == (0, 3)

    def test_covering_includes_seam_neighbours(self):
        grid = GridSpec(UNIVERSE, 4, 4)
        # MBR ending exactly on the seam at x=25 is replicated into both
        # column 0 and column 1 (closed-set semantics).
        cells = set(grid.covering_cells(Rect(10, 10, 25, 12)))
        assert (0, 0) in cells and (1, 0) in cells

    def test_for_workload_scales(self):
        small = GridSpec.for_workload(UNIVERSE, 10, workers=1)
        big = GridSpec.for_workload(UNIVERSE, 200_000, workers=1)
        assert small.num_cells < big.num_cells
        wide = GridSpec.for_workload(UNIVERSE, 10, workers=8)
        assert wide.num_cells >= 8

    def test_for_workload_pads_degenerate_universe(self):
        grid = GridSpec.for_workload(Rect(3, 3, 3, 3), 5, workers=1)
        assert grid.universe.width > 0 and grid.universe.height > 0


@given(
    x=st.floats(min_value=-10.0, max_value=110.0),
    y=st.floats(min_value=-10.0, max_value=110.0),
    w=st.floats(min_value=0.0, max_value=40.0),
    h=st.floats(min_value=0.0, max_value=40.0),
    nx=st.integers(min_value=1, max_value=9),
    ny=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=60, deadline=None)
def test_owner_cell_of_any_covered_point_is_a_covering_cell(x, y, w, h, nx, ny):
    """The invariant behind the reference-point rule: for any point of an
    MBR, the cell owning that point is among the cells the MBR was
    replicated to."""
    grid = GridSpec(UNIVERSE, nx, ny)
    mbr = Rect(x, y, x + w, y + h)
    covering = set(grid.covering_cells(mbr))
    for px, py in [(mbr.xmin, mbr.ymin), (mbr.xmax, mbr.ymax),
                   ((mbr.xmin + mbr.xmax) / 2, (mbr.ymin + mbr.ymax) / 2)]:
        assert grid.owner_cell(px, py) in covering


class TestReferencePoint:
    def test_is_intersection_corner(self):
        a = Rect(0, 0, 10, 10)
        b = Rect(5, 3, 20, 20)
        assert reference_point(a, b) == (5.0, 3.0)
        assert reference_point(b, a) == (5.0, 3.0)


class TestScatterAndPartition:
    def test_scatter_preserves_order_per_cell(self):
        grid = GridSpec(UNIVERSE, 2, 1)
        entries = [entry(0, 0, 0, 60, 5), entry(1, 10, 0, 20, 5), entry(2, 55, 0, 70, 5)]
        cells = scatter(as_columns(entries), grid)
        # Cells are numbered ix * ny + iy and hold row numbers.
        assert cells[0].tolist() == [0, 1]
        assert cells[1].tolist() == [0, 2]

    def test_partition_pair_drops_one_sided_cells(self):
        grid = GridSpec(UNIVERSE, 2, 1)
        left_only = [entry(0, 5, 5, 10, 10)]
        right_only = [entry(1, 80, 5, 90, 10)]
        assert partition_pair(left_only, right_only, grid) == []

    def test_partition_pair_sorts_by_xmin(self):
        grid = GridSpec(UNIVERSE, 1, 1)
        tasks = partition_pair(
            [entry(0, 50, 0, 60, 5), entry(1, 5, 0, 15, 5)],
            [entry(2, 30, 0, 40, 5)],
            grid,
        )
        assert len(tasks) == 1
        task = tasks[0]
        assert task.r.box_array()[task.rows_r, 0].tolist() == [5, 50]
        assert [t.slot for t in tids(task.r.id_array()[task.rows_r])] == [1, 0]
        assert task.load == 3
