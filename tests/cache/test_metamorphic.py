"""Metamorphic relations of the query cache, as corners of the lattice.

* **translation invariance** -- rigidly translating the whole workload
  (data and queries) must reproduce the exact hit/miss/tier sequence
  against a fresh cache: cache behaviour depends on the *relative*
  geometry only.  This law needs no ground truth, only consistency.
* **window shrinkage** and **predicate symmetry** -- a window inside a
  cached one, and ``S join R`` after ``R join S``, are served from the
  cache.  :class:`~tests.test_lattice.Lattice` holds every answer to the
  model; these corners only check that the tier they pin served.
"""

import random

import pytest

from repro.geometry.rect import Rect
from repro.predicates.theta import Overlaps, WithinDistance

from tests.test_lattice import Config, Lattice, seeded_rects


def cached(seed: int, count: int, span: float, extent: float,
           dx: float = 0.0, dy: float = 0.0) -> Lattice:
    """A cached corner whose ``r`` holds ``count`` seeded rectangles in
    ``[0, span]^2``, rigidly translated by ``(dx, dy)``; ``s`` every
    other one of them."""
    rects = seeded_rects(random.Random(seed), count, span, extent, dx, dy)
    return Lattice(Config(cache=True), (rects, rects[::2]))


#: The cached outer window, then windows inside it: a concentric
#: shrink, one sharing its corner, a tiny interior one, itself again.
WINDOWS = [
    Rect(10.0, 10.0, 60.0, 60.0),
    Rect(15.0, 15.0, 55.0, 55.0),
    Rect(10.0, 10.0, 35.0, 60.0),
    Rect(40.0, 25.0, 42.5, 27.5),
    Rect(10.0, 10.0, 60.0, 60.0),
]


@pytest.mark.parametrize(
    "theta", [Overlaps(), WithinDistance(60.0)], ids=lambda t: t.name
)
def test_window_shrinkage_equals_fresh_execution(theta):
    lattice = cached(3, 30, 95.0, 12.0)
    for window in WINDOWS:
        lattice.select("r", window, theta, "tree")
    stats = lattice.cache.stats
    assert (stats.misses, stats.containment_hits) == (1, 3), theta.name


def test_shrinkage_chain_serves_from_best_fitting_window():
    """Nested windows cached outermost-first: each shrink is served."""
    lattice = cached(4, 30, 95.0, 12.0)
    windows = [Rect(5.0, 5.0, 95.0, 95.0), Rect(10.0, 10.0, 70.0, 70.0),
               Rect(25.0, 25.0, 50.0, 50.0)]
    tiers = [lattice.select("r", w, Overlaps(), "tree")[0].strategy for w in windows]
    assert tiers[1:] == ["cached-containment"] * 2


@pytest.mark.parametrize(
    "theta", [Overlaps(), WithinDistance(50.0)], ids=lambda t: t.name
)
def test_symmetric_join_mirrors_through_the_cache(theta):
    lattice = cached(5, 30, 95.0, 12.0)
    lattice.join("r", "s", theta, "tree")
    assert lattice.join("s", "r", theta, "tree").strategy == "cached-exact"


def _tier_sequence(dx: float, dy: float) -> list[str]:
    """Hit/miss/tier classification of a fixed query script, translated."""
    lattice = cached(7, 120, 900.0, 40.0, dx, dy)
    script = [
        Rect(100.0, 100.0, 500.0, 500.0),
        Rect(150.0, 150.0, 450.0, 450.0),   # containment in #1
        Rect(100.0, 100.0, 500.0, 500.0),   # exact repeat of #1
        Rect(600.0, 600.0, 700.0, 700.0),   # disjoint: miss
        Rect(620.0, 620.0, 680.0, 680.0),   # containment in #4
    ]
    tiers = []
    for window in script:
        shifted = Rect(window.xmin + dx, window.ymin + dy,
                       window.xmax + dx, window.ymax + dy)
        strategy = lattice.select("r", shifted, Overlaps(), "tree")[0].strategy
        tiers.append(strategy.removeprefix("cached-") if strategy.startswith("cached-")
                     else "miss")
    return tiers


@pytest.mark.parametrize("delta", [(1000.0, 0.0), (-250.0, 4000.0)])
def test_translation_preserves_hit_miss_classification(delta):
    baseline = _tier_sequence(0.0, 0.0)
    assert baseline == ["miss", "containment", "exact", "miss", "containment"]
    assert _tier_sequence(*delta) == baseline
