"""The central Table 1 contract, property-tested.

Section 3.1: for objects ``o1' >= o1`` and ``o2' >= o2`` (containment),
``o1 theta o2`` must imply ``o1' Theta o2'`` -- otherwise a traversal
pruning on a Theta-miss would lose matches.  We generate random objects,
random containing rectangles, and check the implication for every
operator pair of Table 1.

The generators favour the degenerate cases where a closed-set predicate
and its filter are easiest to get wrong: coordinates on a shared lattice
(so ties are common), zero-width and zero-height rectangles, pairs that
touch along an edge or at a corner, and polygons with collinear vertices.
"""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
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
    sides = draw(st.integers(min_value=3, max_value=8))
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
