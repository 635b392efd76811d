"""The scalar partition pipeline, kept as the tests' reference.

What :mod:`repro.parallel` ran before it moved to arrays: replicate
``(tid, mbr, geometry)`` entries with :meth:`GridSpec.covering_cells`,
then walk each tile with :func:`sweep_sorted` under the reference-point
ownership rule.  The columnar pipeline must agree with it pair for pair
and counter for counter.
"""

from repro.parallel.partitioner import GridSpec, partition_pair
from repro.parallel.plane_sweep import sweep_sorted, sweep_task
from repro.storage.costs import CostMeter
from repro.storage.record import RecordId


def scalar_scatter(entries, grid: GridSpec) -> dict:
    """``{(ix, iy): entries}`` with each cell's entries sorted by xmin."""
    cells: dict = {}
    for entry in sorted(entries, key=lambda e: e[1].xmin):
        for cell in grid.covering_cells(entry[1]):
            cells.setdefault(cell, []).append(entry)
    return cells


def scalar_join(entries_r, entries_s, grid: GridSpec, theta, refiner=None):
    """``(sorted pairs, meter)`` of the scalar pipeline."""
    meter = CostMeter()
    cells_r = scalar_scatter(entries_r, grid)
    cells_s = scalar_scatter(entries_s, grid)
    pairs = []
    for cell in sorted(set(cells_r) & set(cells_s)):
        pairs += sweep_sorted(
            cells_r[cell], cells_s[cell], theta, meter,
            lambda x, y, cell=cell: grid.owner_cell(x, y) == cell, refiner,
        )
    return sorted(pairs), meter


def tids(ids) -> list[RecordId]:
    """An ``(k, 2)`` id array as :class:`RecordId` objects."""
    return [RecordId(page, slot) for page, slot in ids.tolist()]


def columnar_sweep(entries_r, entries_s, grid: GridSpec, theta, refiner=None):
    """``(pairs in tile order, meter)`` of ``partition_pair`` + ``sweep_task``."""
    meter = CostMeter()
    pairs = []
    for task in partition_pair(entries_r, entries_s, grid):
        rows = sweep_task(grid, task, theta, meter, refiner)
        pairs += zip(tids(rows[:, :2]), tids(rows[:, 2:]))
    return pairs, meter
