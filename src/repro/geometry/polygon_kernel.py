"""``Polygon.overlaps`` for a batch of polygon pairs, on packed vertex arrays.

:meth:`~repro.geometry.polygon.Polygon.overlaps` rejects a pair whose
MBRs are disjoint, then tests every edge of one polygon against every
edge of the other (:meth:`~repro.geometry.segment.Segment.intersects`)
and, when no two edges meet, whether either polygon holds the other's
first vertex (the ray-crossing half of ``contains_point``).
:func:`overlaps_pairs` evaluates exactly that for many pairs at once:
the same ``orientation`` and ``_on_segment`` expressions on the same
float64 operands, each ``_EPS`` comparison included, so every verdict is
the scalar one.  No pair and no edge pair is skipped that the scalar
test does not skip.  (A block with an int coordinate too large for
float64 to multiply exactly is left to the scalar test.)

Two shortcuts change no verdict.  ``orientation(p1, q1, p2)`` of one
edge pair is ``orientation(p1, q1, q2)`` of the pair before it on the
other ring, so each edge is measured against each vertex once.  And the
boundary half of ``contains_point`` is dropped: a vertex of one polygon
on an edge of the other is already an edge-pair hit.

Pairs run :data:`BLOCK` at a time, each block packing its own
polygons, so the working arrays hold ``BLOCK x (largest ring) x
(largest ring)`` values however long the batch is.  This module is the
engine's one numpy user outside the columnar join; nothing imports it
until a batch holds polygon pairs.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.geometry.polygon import Polygon
from repro.geometry.segment import _EPS

#: Candidate pairs per block.
BLOCK = 128


def overlaps_pairs(polys_a: Sequence[Polygon], polys_b: Sequence[Polygon]) -> list[bool]:
    """``[a.overlaps(b) for a, b in zip(polys_a, polys_b)]``."""
    verdicts: list[bool] = []
    with np.errstate(all="ignore"):  # inf and nan compare as the scalar code's do
        for lo in range(0, len(polys_a), BLOCK):
            verdicts += _block(polys_a[lo:lo + BLOCK], polys_b[lo:lo + BLOCK]).tolist()
    return verdicts


def _block(polys_a, polys_b):
    """Verdicts of one block of pairs, each distinct polygon packed once."""
    n = len(polys_a)
    distinct = dict(zip(map(id, chain(polys_a, polys_b)), chain(polys_a, polys_b)))
    row_of = dict(zip(distinct, range(len(distinct))))
    rows = np.fromiter(
        map(row_of.__getitem__, map(id, chain(polys_a, polys_b))), dtype=np.intp, count=2 * n
    )
    polys = distinct.values()
    rings = list(map(attrgetter("vertices"), polys))
    counts = np.fromiter(map(len, rings), dtype=np.intp, count=len(rings))
    xy = np.fromiter(
        chain.from_iterable(map(attrgetter("x", "y"), chain.from_iterable(rings))),
        dtype=np.float64, count=2 * int(counts.sum()),
    )
    if np.abs(xy).max() >= 2.0 ** 25 and not all(
        type(v.x) is float and type(v.y) is float for v in chain.from_iterable(rings)
    ):
        # Python computes on int coordinates exactly.  Below 2**25 so
        # does float64 -- differences stay under 2**26, products under
        # 2**53 -- but past it float64 rounds where Python does not.
        return np.array(list(map(Polygon.overlaps, polys_a, polys_b)), dtype=bool)
    xs, ys = xy[0::2], xy[1::2]
    start = np.cumsum(counts) - counts
    box = np.fromiter(
        chain.from_iterable(map(attrgetter("xmin", "ymin", "xmax", "ymax"), map(Polygon.mbr, polys))),
        dtype=np.float64, count=4 * len(rings),
    ).reshape(-1, 4)
    ra, rb = rows[:n], rows[n:]
    a, b = box[ra], box[rb]
    verdict = (a[:, 0] <= b[:, 2]) & (b[:, 0] <= a[:, 2]) & (a[:, 1] <= b[:, 3]) & (b[:, 1] <= a[:, 3])
    near = np.flatnonzero(verdict)
    if len(near):
        verdict[near] = _meet(xs, ys, start, counts, box, ra[near], rb[near])
    return verdict


def _meet(xs, ys, start, counts, box, ra, rb):
    """Verdicts of the ring pairs ``(ra[k], rb[k])``, whose MBRs meet."""
    na, nb = counts[ra], counts[rb]
    ax, ay = _rings(xs, ys, start[ra], na)
    bx, by = _rings(xs, ys, start[rb], nb)
    # [k, e, j]: a's edge e against b's vertex j; [k, j, e] the reverse.
    side_a, touch_a = _sides(ax, ay, na, bx, by)
    side_b, touch_b = _sides(bx, by, nb, ax, ay)
    # Segment.intersects of a's edge e and b's edge j: o1..o4 are
    # side_a[e, j], side_a[e, j+1], side_b[j, e], side_b[j, e+1].
    crossed = (
        (side_a[:, :, :-1] != side_a[:, :, 1:])
        & (side_b[:, :, :-1] != side_b[:, :, 1:]).transpose(0, 2, 1)
        & (np.arange(ax.shape[1] - 1) < na[:, None])[:, :, None]
        & (np.arange(bx.shape[1] - 1) < nb[:, None])[:, None, :]
    ).any(axis=(1, 2))
    return (
        crossed | touch_a | touch_b
        | _holds(ax, ay, na, box[ra], bx[:, 0], by[:, 0])
        | _holds(bx, by, nb, box[rb], ax[:, 0], ay[:, 0])
    )


def _rings(xs, ys, start, count):
    """Vertex coordinates as ``(k, largest + 1)`` arrays: row ``i`` holds
    ring ``i``'s vertices and then its first vertex again, so edge ``e``
    runs from column ``e`` to ``e + 1``.  Columns past that are padding."""
    col = np.arange(count.max() + 1)
    at = start[:, None] + np.where(col < count[:, None], col, 0)
    return xs[at], ys[at]


def _sides(px, py, count, qx, qy):
    """``orientation(p[e], p[e + 1], q[j])`` for every edge ``e`` of ring
    ``p`` and vertex ``j`` of ring ``q`` (closing column included), as
    -1/0/+1; and per pair, whether some vertex of ``q`` is collinear with
    an edge of ``p`` and ``_on_segment`` of it -- the last four terms of
    ``Segment.intersects``, true of the edge pairs either side of it."""
    x0, y0 = px[:, :-1, None], py[:, :-1, None]
    x1, y1 = px[:, 1:, None], py[:, 1:, None]
    # (x1 - x0) * (qy - y0) - (y1 - y0) * (qx - x0), two arrays at a time.
    cross = qy[:, None, :] - y0
    cross *= x1 - x0
    term = qx[:, None, :] - x0
    term *= y1 - y0
    cross -= term
    side = (cross > _EPS).view(np.int8)
    side -= (cross < -_EPS).view(np.int8)
    k, e, j = np.unravel_index(np.flatnonzero(side == 0), side.shape)
    x0, y0, x1, y1 = px[k, e], py[k, e], px[k, e + 1], py[k, e + 1]
    cx, cy = qx[k, j], qy[k, j]
    on = (
        (e < count[k])
        & (np.minimum(x0, x1) - _EPS <= cx) & (cx <= np.maximum(x0, x1) + _EPS)
        & (np.minimum(y0, y1) - _EPS <= cy) & (cy <= np.maximum(y0, y1) + _EPS)
    )
    touch = np.zeros(len(px), dtype=bool)
    touch[k[on]] = True
    return side, touch


def _holds(px, py, count, box, x, y):
    """``contains_point`` of ring ``p`` at ``(x, y)``: inside its MBR and
    an odd number of ray crossings, each computed as the scalar loop does."""
    x, y = x[:, None], y[:, None]
    xj, yj, xi, yi = px[:, :-1], py[:, :-1], px[:, 1:], py[:, 1:]
    crossing = ((yi > y) != (yj > y)) & (x < xj + (y - yj) * (xi - xj) / (yi - yj))
    crossing &= np.arange(px.shape[1] - 1) < count[:, None]
    odd = crossing.sum(axis=1) % 2 == 1
    x, y = x[:, 0], y[:, 0]
    return (box[:, 0] <= x) & (x <= box[:, 2]) & (box[:, 1] <= y) & (y <= box[:, 3]) & odd
