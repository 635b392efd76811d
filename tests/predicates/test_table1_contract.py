"""The central Table 1 contract, property-tested.

Section 3.1: for objects ``o1' >= o1`` and ``o2' >= o2`` (containment),
``o1 theta o2`` must imply ``o1' Theta o2'`` -- otherwise a traversal
pruning on a Theta-miss would lose matches.  We generate random objects,
random containing rectangles, and check the implication for every
operator pair of Table 1.

The generators favour the degenerate cases where a closed-set predicate
and its filter are easiest to get wrong: coordinates on a shared lattice
(so ties are common), zero-width and zero-height rectangles, pairs that
touch along an edge or at a corner, polygons with collinear vertices and
with 3 to 16 of them, edges within ``_EPS`` of parallel or collinear, and
one polygon wholly inside another.

The same generators hold the batch refinement every join kernel runs to
the scalar predicate: ``resolve`` over a batch must answer and charge
what ``matches`` pair by pair does.
"""

from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.geometry import polygon_kernel
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.intermediate import ExactRefiner, IntervalFilter, IntervalSpec
from repro.predicates.theta import (
    ContainedIn,
    DirectionOf,
    DistanceBetween,
    Includes,
    NorthwestOf,
    Overlaps,
    ReachableWithin,
    WithinDistance,
)
from repro.storage.costs import CostMeter

#: Multiples of 2.5 make shared coordinates, edges and corners common.
coords = st.one_of(
    st.integers(-40, 40).map(lambda k: k * 2.5),
    st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
)
sizes = st.one_of(
    st.just(0.0),
    st.integers(1, 12).map(lambda k: k * 2.5),
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
)
pads = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


@st.composite
def rect_objects(draw):
    x = draw(coords)
    y = draw(coords)
    return Rect(x, y, x + draw(sizes), y + draw(sizes))


@st.composite
def point_objects(draw):
    return Point(draw(coords), draw(coords))


@st.composite
def polygon_objects(draw):
    cx = draw(coords)
    cy = draw(coords)
    radius = draw(st.floats(min_value=0.5, max_value=15))
    sides = draw(st.integers(min_value=3, max_value=16))
    return Polygon.regular(Point(cx, cy), radius, sides)


@st.composite
def collinear_polygons(draw):
    """A lattice rectangle or right triangle whose edges carry extra
    vertices on their supporting lines."""
    x, y = draw(coords), draw(coords)
    w, h = (draw(st.integers(1, 8).map(lambda k: k * 2.5)) for _ in range(2))
    corners = [Point(x, y), Point(x + w, y), Point(x + w, y + h), Point(x, y + h)]
    if draw(st.booleans()):
        del corners[2]
    ring = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        ring.append(a)
        if draw(st.booleans()):
            ring.append(Point((a.x + b.x) / 2, (a.y + b.y) / 2))
    return Polygon(ring)


spatial_objects = st.one_of(
    rect_objects(), point_objects(), polygon_objects(), collinear_polygons()
)


@st.composite
def touching(draw, objects=spatial_objects):
    """A pair meeting exactly along an edge or at a corner of the first
    object's MBR -- or, as often, two independent objects."""
    a, b = draw(objects), draw(objects)
    if draw(st.booleans()):
        return a, b
    ma, mb = a.mbr(), b.mbr()
    dx = draw(st.sampled_from([ma.xmax - mb.xmin, ma.xmin - mb.xmax, 0.0]))
    dy = draw(st.sampled_from([ma.ymax - mb.ymin, ma.ymin - mb.ymax, 0.0]))
    return a, translate(b, dx, dy)


#: Offsets about the orientation test's tolerance (1e-12): a pair moved
#: by one has edges collinear or parallel to within ``_EPS``.
nudges = st.sampled_from([0.0, 5e-13, -5e-13, 1e-12, -1e-12, 2e-12, -2e-12])


@st.composite
def nudged(draw, objects=spatial_objects):
    a, b = draw(touching(objects))
    return a, translate(b, draw(nudges), draw(nudges))


@st.composite
def nested(draw):
    """A polygon and a shrunken copy wholly inside it, either way round:
    no edges meet, so only point-in-polygon sees the overlap."""
    outer = draw(polygon_objects())
    c, f = outer.centerpoint(), draw(st.floats(min_value=0.05, max_value=0.95))
    inner = Polygon([Point(c.x + (v.x - c.x) * f, c.y + (v.y - c.y) * f)
                     for v in outer.vertices])
    return (outer, inner) if draw(st.booleans()) else (inner, outer)


def translate(obj, dx: float, dy: float):
    if isinstance(obj, Point):
        return Point(obj.x + dx, obj.y + dy)
    if isinstance(obj, Rect):
        return Rect(obj.xmin + dx, obj.ymin + dy, obj.xmax + dx, obj.ymax + dy)
    return Polygon([Point(v.x + dx, v.y + dy) for v in obj.vertices])


@st.composite
def with_containers(draw):
    """Two objects plus an enclosing rectangle each (possible tree-node
    regions)."""
    out = []
    for obj in draw(touching()):
        m = obj.mbr()
        out.append((obj, Rect(m.xmin - draw(pads), m.ymin - draw(pads),
                              m.xmax + draw(pads), m.ymax + draw(pads))))
    return out


THETAS = [
    WithinDistance(20.0),
    Overlaps(),
    Includes(),
    ContainedIn(),
    NorthwestOf(),
    DirectionOf("ne"),
    DirectionOf("sw"),
    DirectionOf("se"),
    ReachableWithin(minutes=7.0, speed=2.0),
    DistanceBetween(5.0, 40.0),
]


@given(with_containers())
# A rectangle too thin for a Polygon (its shoelace area rounds to zero)
# once made the closest-point distance raise instead of answer.
@example([
    (Rect(2.5, 15.0, 2.5000000596046448, 15.000000059604645),
     Rect(2.5, 15.0, 2.5000000596046448, 15.000000059604645)),
    (Polygon.regular(Point(0.0, 0.0), 1.0, 3),
     Polygon.regular(Point(0.0, 0.0), 1.0, 3).mbr()),
])
def test_theta_filters_are_conservative(pairs):
    """theta(o1, o2) implies Theta(container1, container2), all operators."""
    (o1, c1), (o2, c2) = pairs
    for theta in THETAS:
        if theta(o1, o2):
            big = theta.filter_operator()
            assert big(c1, c2), (
                f"{theta.name}: match between contained objects but filter "
                f"{big.name} rejected the containers"
            )


@given(touching())
def test_theta_match_implies_filter_match_on_objects_themselves(pair):
    """Each object is its own subobject: theta(o1,o2) -> Theta(o1,o2)."""
    o1, o2 = pair
    for theta in THETAS:
        if theta(o1, o2):
            assert theta.filter_operator()(o1, o2), theta.name


@given(touching(rect_objects()))
def test_overlap_filter_is_exact_for_rects(pair):
    """For rectangles the overlaps filter equals the exact test."""
    a, b = pair
    assert Overlaps()(a, b) == Overlaps().filter_operator()(a, b)


polygon_shapes = st.one_of(polygon_objects(), collinear_polygons())
candidate_pairs = st.one_of(
    touching(), touching(rect_objects()), touching(polygon_shapes),
    nudged(polygon_shapes), nudged(rect_objects()), nested(),
)
#: Level-3 and level-6 grids over a universe some objects leave (so the
#: unapproximable path is drawn too).
INTERVAL_SPECS = [IntervalSpec(Rect(-150.0, -150.0, 150.0, 150.0), level) for level in (3, 6)]


def assert_batch_is_scalar(make_refiner, pairs):
    """``resolve`` returns and charges what ``matches`` pair by pair does
    -- with each object in both roles and in several pairs."""
    pairs = pairs + [(b, a) for a, b in pairs] + pairs[:3]
    geoms_a, geoms_b = [a for a, _ in pairs], [b for _, b in pairs]
    scalar_meter, batch_meter = CostMeter(), CostMeter()
    scalar = make_refiner()
    expected = [scalar.matches(a, b, scalar_meter) for a, b in pairs]
    assert make_refiner().resolve(geoms_a, geoms_b, batch_meter) == expected
    assert batch_meter.snapshot() == scalar_meter.snapshot()


@pytest.mark.parametrize("block", [1, 7, polygon_kernel.BLOCK])
@given(st.lists(candidate_pairs, min_size=1, max_size=12))
@example([(Polygon.regular(Point(0.0, 0.0), 4.0, 12),
           Polygon.regular(Point(0.0, 0.0), 1.0, 5))])
# Corners 5e-13 apart: no two edges cross, but a vertex lies on an edge
# within _EPS -- only the collinear-and-on-segment terms see the touch.
@example([(Polygon([Point(0.0, 0.0), Point(2.5, 0.0), Point(0.0, 2.5)]),
           Polygon([Point(5e-13, 2.5), Point(2.5000000000005, 2.5), Point(5e-13, 5.0)]))])
# Int coordinates: the vertex (N, N - 1) misses the edge to (N + 1, N)
# by an orientation of -1 that float64 rounds to 0 -- a touch.
@example([(Polygon([Point(0, 0), Point(10**9 + 1, 10**9), Point(0, 10**9)]),
           Polygon([Point(10**9, 10**9 - 1), Point(10**9 + 5, 10**9 - 1),
                    Point(10**9 + 5, 0)]))])
def test_exact_batch_refinement_is_the_scalar_predicate(block, pairs):
    with mock.patch.object(polygon_kernel, "BLOCK", block):
        assert_batch_is_scalar(lambda: ExactRefiner(Overlaps()), pairs)


@given(st.lists(candidate_pairs, min_size=1, max_size=12))
def test_batch_refinement_of_every_operator_is_the_scalar_one(pairs):
    for theta in THETAS:
        assert_batch_is_scalar(lambda: ExactRefiner(theta), pairs)


@pytest.mark.parametrize("spec", INTERVAL_SPECS, ids=lambda spec: f"level{spec.level}")
@given(st.lists(candidate_pairs, min_size=1, max_size=12))
def test_interval_batch_refinement_is_the_scalar_filter(spec, pairs):
    assert_batch_is_scalar(lambda: IntervalFilter(Overlaps(), spec), pairs)
