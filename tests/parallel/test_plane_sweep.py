"""Tests for the forward plane-sweep kernel."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.rect import Rect
from repro.parallel.partitioner import GridSpec
from repro.predicates.theta import Overlaps
from repro.storage.record import RecordId

from tests import oracle
from tests.parallel.reference import columnar_sweep

UNIVERSE = Rect(0.0, 0.0, 100.0, 100.0)


def random_entries(count, seed, page):
    rng = random.Random(seed)
    entries = []
    for i in range(count):
        x, y = rng.uniform(0, 90), rng.uniform(0, 90)
        r = Rect(x, y, x + rng.uniform(0, 10), y + rng.uniform(0, 10))
        entries.append((RecordId(page, i), r, r))
    return entries


def rows(entries):
    return {tid: geom for tid, _mbr, geom in entries}


class TestSingleTile:
    def test_matches_brute_force(self):
        entries_r = random_entries(60, 1, page=1)
        entries_s = random_entries(60, 2, page=2)
        grid = GridSpec(UNIVERSE, 1, 1)
        pairs, meter = columnar_sweep(entries_r, entries_s, grid, Overlaps())
        assert sorted(pairs) == oracle.join(rows(entries_r), rows(entries_s), Overlaps())
        # Filter evaluations dominate exact refinements.
        assert meter.theta_filter_evals >= meter.theta_exact_evals > 0


@given(
    n_r=st.integers(min_value=0, max_value=40),
    n_s=st.integers(min_value=0, max_value=40),
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_grid_invariant_result_and_no_duplicates(n_r, n_s, n, seed):
    """Any granularity yields the model's exact pair multiset: the
    reference-point rule makes tiles emit disjoint pair sets, so no
    duplicate appears without any dedup pass."""
    entries_r = random_entries(n_r, seed, page=1)
    entries_s = random_entries(n_s, seed + 1, page=2)
    grid = GridSpec(UNIVERSE, n, n)
    pairs, _ = columnar_sweep(entries_r, entries_s, grid, Overlaps())
    assert sorted(pairs) == oracle.join(rows(entries_r), rows(entries_s), Overlaps())


def test_seam_touching_objects_reported_once():
    """Two objects meeting exactly on a tile seam: replicated into both
    tiles, reported by exactly one."""
    grid = GridSpec(UNIVERSE, 2, 2)
    r = Rect(40, 40, 50, 50)   # ends on the x=50, y=50 seams
    s = Rect(50, 50, 60, 60)   # starts there
    entries_r = [(RecordId(1, 0), r, r)]
    entries_s = [(RecordId(2, 0), s, s)]
    pairs, _ = columnar_sweep(entries_r, entries_s, grid, Overlaps())
    assert pairs == [(RecordId(1, 0), RecordId(2, 0))]
