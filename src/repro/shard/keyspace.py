"""Z-order keyspace partitioning for the shard runtime.

A :class:`ShardMap` lays a ``2^bits x 2^bits``
:class:`~repro.parallel.partitioner.GridSpec` over the universe, orders
its cells along the Peano/z-order curve (Figure 1 of the paper), and
cuts the curve into contiguous intervals -- one standing shard per
interval.  Every shard therefore owns a compact set of cells, and
routing a point is two steps: the grid's owner cell, then a bisection of
the cut points.

The grid supplies the one cell-assignment rule (clamped floor, half-open
seams) and the one replication rule (closed-set corner semantics): an
MBR is replicated to every shard whose cell region it touches and a
candidate pair is owned by the single shard owning its reference point.
The owner cell of a reference point always lies inside the corner ranges
of both MBRs -- so the owning shard is guaranteed to hold both entries,
and each qualifying pair is reported exactly once across the shard fleet
with no dedup pass.  All this module adds is the z-order cut.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.errors import ShardError
from repro.geometry.rect import Rect
from repro.geometry.zorder import interleave
from repro.parallel.partitioner import GridSpec


@dataclass(frozen=True, slots=True)
class ShardMap:
    """An immutable cut of the z-order curve into shard key ranges.

    ``boundaries`` are the strictly increasing interior cut points: shard
    ``i`` owns the z-value interval ``[boundaries[i-1], boundaries[i])``
    (with 0 and ``4^bits`` as the outer limits).  Immutable so the map
    can be shipped to worker processes once and shared by reference.
    """

    universe: Rect
    bits: int
    boundaries: tuple[int, ...]
    #: The cells the curve runs over; derived from ``universe`` / ``bits``.
    grid: GridSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ShardError(f"bits must be >= 1, got {self.bits}")
        if self.universe.width <= 0 or self.universe.height <= 0:
            raise ShardError(
                f"shard universe must have positive area, got {self.universe}"
            )
        total = 1 << (2 * self.bits)
        previous = 0
        for b in self.boundaries:
            if not previous < b < total:
                raise ShardError(
                    f"boundaries must be strictly increasing in (0, {total}), "
                    f"got {self.boundaries}"
                )
            previous = b
        n = 1 << self.bits
        object.__setattr__(self, "grid", GridSpec(self.universe, n, n))

    @classmethod
    def split_uniform(
        cls, universe: Rect, n_shards: int, *, bits: int = 4
    ) -> "ShardMap":
        """Cut the curve into ``n_shards`` equal-length cell intervals."""
        if n_shards < 1:
            raise ShardError(f"n_shards must be >= 1, got {n_shards}")
        total = 1 << (2 * bits)
        if n_shards > total:
            raise ShardError(
                f"cannot split {total} z-cells into {n_shards} shards; "
                f"raise bits"
            )
        boundaries = tuple(
            (i * total) // n_shards for i in range(1, n_shards)
        )
        return cls(universe=universe, bits=bits, boundaries=boundaries)

    @property
    def n_shards(self) -> int:
        return len(self.boundaries) + 1

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        """Grid cell owning point ``(x, y)``; clamped at the border so
        protruding geometries still have an owner."""
        return self.grid.owner_cell(x, y)

    def z_of(self, x: float, y: float) -> int:
        gx, gy = self.cell_of(x, y)
        return interleave(gx, gy, self.bits)

    def owner_shard(self, x: float, y: float) -> int:
        """The unique shard owning point ``(x, y)``."""
        return bisect_right(self.boundaries, self.z_of(x, y))

    def owners(self, xs, ys):
        """:meth:`owner_shard` of many points, as an integer array --
        what :func:`~repro.parallel.plane_sweep.sweep_task` compares
        with a shard's id."""
        import numpy as np

        gx, gy = self.grid.owner_cells(xs, ys)
        z = np.zeros_like(gx)
        for i in range(self.bits):  # interleave(), on arrays
            z |= ((gx >> i) & 1) << (2 * i)
            z |= ((gy >> i) & 1) << (2 * i + 1)
        return np.searchsorted(self.boundaries, z, "right")

    def zrange(self, shard_id: int) -> tuple[int, int]:
        """Closed z-value interval ``[lo, hi]`` owned by ``shard_id``."""
        if not 0 <= shard_id < self.n_shards:
            raise ShardError(
                f"shard id {shard_id} out of range for {self.n_shards} shards"
            )
        lo = 0 if shard_id == 0 else self.boundaries[shard_id - 1]
        total = 1 << (2 * self.bits)
        hi = (
            total - 1
            if shard_id == self.n_shards - 1
            else self.boundaries[shard_id] - 1
        )
        return lo, hi

    def covering_shards(self, mbr: Rect) -> list[int]:
        """Sorted shard ids whose cell region intersects ``mbr``.

        Closed-set corner semantics, exactly like
        :meth:`GridSpec.covering_cells`: an MBR on a cell seam is
        replicated to both neighbours, so the owner of any reference
        point on the seam holds both entries of the pair.
        """
        return sorted({
            bisect_right(self.boundaries, interleave(gx, gy, self.bits))
            for gx, gy in self.grid.covering_cells(mbr)
        })
