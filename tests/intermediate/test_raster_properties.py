"""Hypothesis battery: rasterizer soundness and metamorphic laws.

The two soundness invariants that make the filter's verdicts safe:

* every FULL cell is contained in the geometry (closed containment), so
  a common cell with a FULL flag proves intersection;
* every cell whose *closed* extent intersects the geometry is in the
  FULL-union-PARTIAL cover, so the geometry is contained in its cover
  and disjoint covers prove a miss.

Plus the metamorphic laws: translating a geometry by whole cells shifts
its cell set by exactly that much, and uniformly scaling geometry and
universe together leaves the interval set bit-identical.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.geometry.zorder import ZCell, deinterleave, interleave
from repro.intermediate import rasterize
from repro.predicates.dispatch import exact_contains, exact_overlaps

UNIVERSE = Rect(0.0, 0.0, 128.0, 128.0)
#: 16 x 16 grid: coarse enough to enumerate every cell per example.
LEVEL = 4
CELL = UNIVERSE.width / (1 << LEVEL)  # 8.0, exactly representable


def cells_of(approx) -> set[tuple[int, int, bool]]:
    """Every finest-level cell of the approximation as (gx, gy, full)."""
    out = set()
    for lo, hi, full in approx.intervals:
        for z in range(lo, hi + 1):
            gx, gy = deinterleave(z, approx.level)
            out.add((gx, gy, full))
    return out


def cell_extent(gx: int, gy: int, universe: Rect = UNIVERSE) -> Rect:
    return ZCell(LEVEL, interleave(gx, gy, LEVEL)).extent(universe)


#: Coordinates on a 1/8 lattice inside the universe: seam-touching
#: configurations are common (the interesting closed-semantics cases)
#: and every arithmetic step below stays exact in binary floats.
coords = st.integers(min_value=0, max_value=1024).map(lambda v: v / 8.0)


@st.composite
def rects(draw) -> Rect:
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    return Rect(x1, y1, x2, y2)


@st.composite
def triangles(draw) -> Polygon:
    pts = [(draw(coords), draw(coords)) for _ in range(3)]
    (ax, ay), (bx, by), (cx, cy) = pts
    # Non-degenerate: twice the signed area must not vanish.
    assume((bx - ax) * (cy - ay) - (cx - ax) * (by - ay) != 0)
    return Polygon([Point(x, y) for x, y in pts])


@given(geom=rects() | triangles())
@settings(max_examples=40, deadline=None)
def test_rasterizer_soundness(geom):
    approx = rasterize(geom, UNIVERSE, LEVEL)
    assert approx is not None  # lattice coords are always in-universe

    cells = cells_of(approx)
    covered = {(gx, gy) for gx, gy, _ in cells}
    # No cell carries both flags: intervals are disjoint.
    assert len(covered) == len(cells)

    for gx, gy, full in cells:
        extent = cell_extent(gx, gy)
        if full:
            assert exact_contains(geom, extent), (gx, gy)
        else:
            assert exact_overlaps(geom, extent), (gx, gy)

    # Completeness: every closed cell meeting the geometry is covered,
    # hence the geometry is contained in its FULL-union-PARTIAL cover.
    for gx in range(1 << LEVEL):
        for gy in range(1 << LEVEL):
            if exact_overlaps(geom, cell_extent(gx, gy)):
                assert (gx, gy) in covered, (gx, gy)


@given(geom=rects() | triangles())
@settings(max_examples=40, deadline=None)
def test_interval_set_invariants(geom):
    approx = rasterize(geom, UNIVERSE, LEVEL)
    intervals = approx.intervals
    assert intervals, "lattice geometries always cover at least one cell"
    for (lo, hi, full), (nlo, nhi, nfull) in zip(intervals, intervals[1:]):
        assert lo <= hi and nlo <= nhi
        assert nlo > hi, "intervals must be sorted and disjoint"
        if nlo == hi + 1:
            assert nfull != full, "adjacent same-flag intervals must coalesce"


@st.composite
def interior_translations(draw):
    """A rect strictly inside the universe and a whole-cell offset of at
    most 8 cells per axis that keeps it strictly inside.

    Both interior: a geometry touching the universe boundary has no
    closed-seam neighbor cell on that side, which legitimately breaks
    the shift symmetry (the grid ends there).
    """
    inner = st.integers(min_value=1, max_value=1023).map(lambda v: v / 8.0)
    x1, x2 = sorted((draw(inner), draw(inner)))
    y1, y2 = sorted((draw(inner), draw(inner)))

    def offsets(lo, hi):
        # Whole cells c with 0 < lo + c * CELL and hi + c * CELL < 128.
        least = math.floor(-lo / CELL) + 1
        most = math.ceil((UNIVERSE.xmax - hi) / CELL) - 1
        return st.integers(max(-8, least), min(8, most))

    return Rect(x1, y1, x2, y2), draw(offsets(x1, x2)), draw(offsets(y1, y2))


@given(case=interior_translations())
@settings(max_examples=60, deadline=None)
def test_metamorphic_whole_cell_translation(case):
    """Translating by whole cells translates the cell set, flags intact."""
    geom, k, m = case
    moved = Rect(
        geom.xmin + k * CELL, geom.ymin + m * CELL,
        geom.xmax + k * CELL, geom.ymax + m * CELL,
    )
    base = rasterize(geom, UNIVERSE, LEVEL)
    shifted = rasterize(moved, UNIVERSE, LEVEL)
    assert shifted is not None
    expected = {(gx + k, gy + m, full) for gx, gy, full in cells_of(base)}
    assert cells_of(shifted) == expected


@given(geom=rects() | triangles())
@settings(max_examples=40, deadline=None)
def test_metamorphic_uniform_scaling(geom):
    """Doubling geometry and universe together is a no-op on intervals."""
    if isinstance(geom, Rect):
        doubled = Rect(
            2.0 * geom.xmin, 2.0 * geom.ymin, 2.0 * geom.xmax, 2.0 * geom.ymax
        )
    else:
        doubled = Polygon([Point(2.0 * v.x, 2.0 * v.y) for v in geom.vertices])
    big_universe = Rect(0.0, 0.0, 2.0 * UNIVERSE.xmax, 2.0 * UNIVERSE.ymax)
    base = rasterize(geom, UNIVERSE, LEVEL)
    scaled = rasterize(doubled, big_universe, LEVEL)
    assert scaled is not None
    assert scaled.intervals == base.intervals
    assert scaled.level == base.level


@given(a=rects() | triangles(), b=rects() | triangles())
@settings(max_examples=60, deadline=None)
def test_classify_sound_against_exact_predicate(a, b):
    """End to end: sure verdicts agree with the exact kernel."""
    from repro.intermediate import AMBIGUOUS, SURE_HIT, SURE_MISS, classify

    apx_a = rasterize(a, UNIVERSE, LEVEL)
    apx_b = rasterize(b, UNIVERSE, LEVEL)
    verdict = classify(apx_a, apx_b)
    if verdict == SURE_HIT:
        assert exact_overlaps(a, b)
    elif verdict == SURE_MISS:
        assert not exact_overlaps(a, b)
    else:
        assert verdict == AMBIGUOUS


def test_out_of_universe_geometry_is_unapproximable():
    assert rasterize(Rect(-1.0, 0.0, 5.0, 5.0), UNIVERSE, LEVEL) is None
    assert rasterize(Rect(0.0, 0.0, 129.0, 5.0), UNIVERSE, LEVEL) is None


def test_degenerate_universe_is_unapproximable():
    flat = Rect(0.0, 0.0, 128.0, 0.0)
    assert rasterize(Rect(1.0, 0.0, 2.0, 0.0), flat, LEVEL) is None


def test_bad_level_raises():
    with pytest.raises(GeometryError):
        rasterize(Rect(0, 0, 1, 1), UNIVERSE, -1)
    with pytest.raises(GeometryError):
        rasterize(Rect(0, 0, 1, 1), UNIVERSE, 31)


def test_seam_touching_rects_share_a_cover_cell():
    """Closed semantics: tangent objects still share a cover cell.

    This is the configuration that would break the sure-miss guarantee
    under half-open cells -- pinned explicitly, not just via Hypothesis.
    """
    from repro.intermediate import SURE_MISS, classify

    left = Rect(0.0, 0.0, 16.0, 16.0)
    right = Rect(16.0, 0.0, 32.0, 16.0)  # touches on the x=16 seam
    apx_l = rasterize(left, UNIVERSE, LEVEL)
    apx_r = rasterize(right, UNIVERSE, LEVEL)
    assert exact_overlaps(left, right)
    assert classify(apx_l, apx_r) != SURE_MISS
