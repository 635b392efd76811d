"""Key-space invariants: every point owned once, replication covers pairs."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ShardError
from repro.geometry.rect import Rect
from repro.parallel.partitioner import GridSpec, reference_point
from repro.shard import ShardMap

UNIVERSE = Rect(0.0, 0.0, 100.0, 100.0)

coords = st.floats(
    min_value=-50.0, max_value=150.0,
    allow_nan=False, allow_infinity=False,
)


def rects(draw_x, draw_y):
    return st.builds(
        lambda x, y, w, h: Rect(x, y, x + w, y + h),
        draw_x, draw_y,
        st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
    )


class TestConstruction:
    def test_split_uniform_partitions_the_z_space(self):
        smap = ShardMap.split_uniform(UNIVERSE, 4, bits=3)
        assert smap.n_shards == 4
        ranges = [smap.zrange(i) for i in range(4)]
        # Contiguous, non-overlapping, covering [0, 4^bits - 1].
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 4**3 - 1
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert lo == hi + 1

    def test_single_shard_owns_everything(self):
        smap = ShardMap.split_uniform(UNIVERSE, 1, bits=2)
        assert smap.boundaries == ()
        assert smap.owner_shard(0.0, 0.0) == 0
        assert smap.owner_shard(99.9, 99.9) == 0

    def test_rejects_more_shards_than_cells(self):
        with pytest.raises(ShardError):
            ShardMap.split_uniform(UNIVERSE, 50, bits=2)

    def test_rejects_non_increasing_boundaries(self):
        with pytest.raises(ShardError):
            ShardMap(UNIVERSE, 2, (5, 5))


class TestOwnership:
    @given(x=coords, y=coords)
    def test_every_point_owned_by_exactly_one_shard(self, x, y):
        smap = ShardMap.split_uniform(UNIVERSE, 5, bits=4)
        owner = smap.owner_shard(x, y)
        assert 0 <= owner < smap.n_shards
        lo, hi = smap.zrange(owner)
        assert lo <= smap.z_of(x, y) <= hi

    @given(x=coords, y=coords)
    def test_out_of_universe_points_clamp_to_edge_cells(self, x, y):
        # Ownership must stay total even for geometry straying outside
        # the declared universe -- clamped, never an error.
        smap = ShardMap.split_uniform(UNIVERSE, 3, bits=4)
        cx, cy = smap.cell_of(x, y)
        assert 0 <= cx < (1 << smap.bits)
        assert 0 <= cy < (1 << smap.bits)

    @given(mbr=rects(coords, coords))
    def test_covering_shards_includes_every_corner_owner(self, mbr):
        smap = ShardMap.split_uniform(UNIVERSE, 5, bits=4)
        covering = set(smap.covering_shards(mbr))
        for x in (mbr.xmin, mbr.xmax):
            for y in (mbr.ymin, mbr.ymax):
                assert smap.owner_shard(x, y) in covering

    @given(mbr_a=rects(coords, coords), mbr_b=rects(coords, coords))
    def test_reference_point_owner_covers_both_operands(self, mbr_a, mbr_b):
        """The no-dedup rule's soundness: whichever shard owns the pair's
        reference point holds a replica of *both* MBRs, so exactly one
        shard reports each intersecting pair and none is lost."""
        if not mbr_a.intersects(mbr_b):
            return
        smap = ShardMap.split_uniform(UNIVERSE, 5, bits=4)
        rx, ry = reference_point(mbr_a, mbr_b)
        owner = smap.owner_shard(rx, ry)
        assert owner in smap.covering_shards(mbr_a)
        assert owner in smap.covering_shards(mbr_b)


class TestOneKeyspaceRule:
    """The shard map adds only the z-order cut: its cells are a
    ``2^bits x 2^bits`` :class:`GridSpec`'s, and the vectorised
    ownership the sweep kernel asks for is the scalar rule."""

    #: Cell seams of the 2^bits grids below, and the floats next to them.
    seams = st.builds(
        lambda k, n, ulps: _nudge(UNIVERSE.xmin + k * (UNIVERSE.width / n), ulps),
        st.integers(min_value=0, max_value=32),
        st.sampled_from([2, 4, 8, 16, 32]),
        st.integers(min_value=-2, max_value=2),
    )
    points = st.one_of(coords, seams)
    maps = st.builds(
        ShardMap.split_uniform,
        st.just(UNIVERSE),
        st.integers(min_value=1, max_value=4),
        bits=st.integers(min_value=1, max_value=5),
    )

    @given(smap=maps, x=points, y=points)
    def test_cell_of_is_the_grid_owner_cell(self, smap, x, y):
        n = 1 << smap.bits
        assert smap.grid == GridSpec(UNIVERSE, n, n)
        assert smap.cell_of(x, y) == smap.grid.owner_cell(x, y)

    @given(smap=maps, mbr=rects(points, points))
    def test_covering_shards_are_the_owners_of_the_covering_cells(self, smap, mbr):
        centers = (
            smap.grid.cell_rect(gx, gy).centerpoint()
            for gx, gy in smap.grid.covering_cells(mbr)
        )
        assert smap.covering_shards(mbr) == sorted(
            {smap.owner_shard(c.x, c.y) for c in centers}
        )

    @given(smap=maps, xy=st.lists(st.tuples(points, points), min_size=1, max_size=30))
    def test_owners_is_owner_shard_elementwise(self, smap, xy):
        import numpy as np

        xs, ys = (np.array(v) for v in zip(*xy))
        assert smap.owners(xs, ys).tolist() == [smap.owner_shard(x, y) for x, y in xy]


def _nudge(x: float, ulps: int) -> float:
    import math

    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else -math.inf)
    return x
