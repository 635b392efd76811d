"""Pinned corners of the configuration lattice: every join strategy.

``tests/test_lattice.py`` draws configurations at random, so at the
default profile a given corner -- ``index-nl`` behind a cache, ``partition``
under the interval tier at seed 42 -- may not come up.  These scripts
drive the same :class:`~tests.test_lattice.Lattice` through every
strategy at fixed corners.  Each asserts exactly what the machine
asserts -- the model's answer, the warm-hit law, the interval law --
and nothing of its own; the last line of a corner only checks that the
law it pins actually engaged.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.rect import Rect
from repro.predicates.theta import NorthwestOf, Overlaps, WithinDistance

from tests.test_lattice import NAMES, Config, Lattice, boxes, seeded_rects

WINDOW = Rect(25.0, 25.0, 75.0, 80.0)
SEEDS = [1, 7, 42]
#: Executor strategy and traversal order behind each corner's id.
SPECS = {
    "scan": ("scan", "bfs"), "tree": ("tree", "bfs"), "tree-dfs": ("tree", "dfs"),
    "zorder": ("zorder", "bfs"), "partition": ("partition", "bfs"),
    "join-index": ("join-index", "bfs"), "index-nl": ("index-nl", "bfs"),
}


def corner(seed: int = 11, **config) -> Lattice:
    """Both relations seeded, R-trees on both: every strategy applies."""
    rng = random.Random(seed)
    return Lattice(Config(**config), (seeded_rects(rng, 30), seeded_rects(rng, 25)))


def join(lattice: Lattice, spec: str, entry: str = "join", theta=Overlaps()):
    strategy, order = SPECS[spec]
    if strategy == "join-index":
        lattice.precompute_join_index(*NAMES, theta)
    return lattice.join(*NAMES, theta, strategy, order, entry)


@given(
    rows=st.tuples(st.lists(boxes(), max_size=40), st.lists(boxes(), max_size=40)),
    theta=st.sampled_from(
        [Overlaps(), WithinDistance(12.0), WithinDistance(40.0), NorthwestOf()]
    ),
)
@settings(max_examples=25, deadline=None)
def test_all_strategies_agree(rows, theta):
    lattice = Lattice(Config(), rows)
    lattice.precompute_join_index(*NAMES, theta)
    for strategy in lattice.strategies(*NAMES, theta):
        lattice.join(*NAMES, theta, strategy)
    lattice.close()


@pytest.mark.parametrize("spec", ["scan", "tree", "tree-dfs"])
def test_cached_select_matches_uncached(spec):
    lattice = corner(cache=True)
    lattice.select("r", WINDOW, Overlaps(), *SPECS[spec])
    assert lattice.cache.stats.exact_hits == 1, spec


@pytest.mark.parametrize("spec", SPECS)
def test_cached_join_matches_uncached(spec):
    lattice = corner(cache=True)
    join(lattice, spec)
    assert lattice.cache.stats.exact_hits == 1, spec


@pytest.mark.parametrize("spec", SPECS)
def test_warm_join_hits_read_zero_pages(spec):
    """The same law through a session of the query service."""
    lattice = corner(cache=True)
    join(lattice, spec, entry="session")
    assert lattice.cache.stats.exact_hits == 1, spec


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_interval_join_matches_plain(seed, spec):
    join(corner(seed, interval=True), spec)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed{s}")
def test_interval_join_matches_plain_under_cache(seed, spec):
    lattice = corner(seed, interval=True, cache=True)
    join(lattice, spec)
    assert lattice.cache.stats.exact_hits == 1, spec

