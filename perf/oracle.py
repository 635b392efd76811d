"""Independent answer checkers: numpy over raw coordinates.

Nothing here imports ``repro.join`` or ``repro.parallel``; the only
program code used is the exact ``theta`` predicate, applied to the MBR
candidates numpy found, because polygon overlap has no second
implementation to compare with.  Answers are compared as
``(count, checksum)`` with an order-free checksum, and memoised under
``perf/out/`` per (workload, seed, sizing).
"""

from __future__ import annotations

import bisect
import json
from pathlib import Path

import numpy as np

_PRIME = 2_147_483_647
_PAIR_RADIX = 1_000_003
_CHUNK = 2_000_000
#: A write through ``StateManager.write`` advances the relation's epoch
#: twice: the pre-bump and the mutation itself.
_EPOCH_STEP = 2


def checksum(ids) -> int:
    """Order-free checksum of non-negative integer ids (python ints)."""
    return sum((i % _PRIME) ** 2 % _PRIME for i in ids)


def pair_id(oid_r: int, oid_s: int) -> int:
    return oid_r * _PAIR_RADIX + oid_s


def _checksum_np(ids: np.ndarray) -> int:
    m = ids.astype(np.int64) % _PRIME
    return int((m * m % _PRIME).sum())


def boxes_of(raw_shapes: list) -> np.ndarray:
    """``(n, 4)`` MBR array of rect 4-tuples or polygon vertex lists."""
    if raw_shapes and isinstance(raw_shapes[0][0], tuple):
        verts = np.asarray(raw_shapes, dtype=np.float64)  # (n, sides, 2)
        return np.concatenate([verts.min(axis=1), verts.max(axis=1)], axis=1)
    return np.asarray(raw_shapes, dtype=np.float64).reshape(-1, 4)


def mbr_pairs(boxes_r: np.ndarray, boxes_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)`` whose closed MBRs intersect.

    ``s`` is sorted by ``xmin``; for each ``r`` only the ``s`` whose
    ``xmin`` lies in ``[r.xmin - widest_s, r.xmax]`` can intersect it, and
    those runs are expanded and tested in chunks.
    """
    order = np.argsort(boxes_s[:, 0], kind="stable")
    s = boxes_s[order]
    widest = float((s[:, 2] - s[:, 0]).max()) if len(s) else 0.0
    lo = np.searchsorted(s[:, 0], boxes_r[:, 0] - widest, side="left")
    hi = np.searchsorted(s[:, 0], boxes_r[:, 2], side="right")
    runs = hi - lo
    out_i, out_j = [], []
    start = 0
    ends = np.cumsum(runs)
    while start < len(boxes_r):
        # Take r rows until the expanded run list reaches the chunk size.
        base = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, base + _CHUNK, side="right"))
        stop = max(stop, start + 1)
        n = runs[start:stop]
        i = np.repeat(np.arange(start, stop), n)
        offsets = np.arange(int(n.sum())) - np.repeat(np.cumsum(n) - n, n)
        j = np.repeat(lo[start:stop], n) + offsets
        r, t = boxes_r[i], s[j]
        keep = (
            (r[:, 0] <= t[:, 2]) & (t[:, 0] <= r[:, 2])
            & (r[:, 1] <= t[:, 3]) & (t[:, 1] <= r[:, 3])
        )
        out_i.append(i[keep])
        out_j.append(order[j[keep]])
        start = stop
    return np.concatenate(out_i), np.concatenate(out_j)


def join_answer(raw: dict[str, list], exact=None) -> dict[str, int]:
    """Expected ``count``/``checksum`` of ``r overlaps s`` over row indices.

    For rectangles the MBR pairs are the answer.  For polygons they are
    candidates, and ``exact(i, j)`` decides each.
    """
    i, j = mbr_pairs(boxes_of(raw["r"]), boxes_of(raw["s"]))
    candidates = len(i)
    if exact is not None:
        keep = np.fromiter(
            (exact(a, b) for a, b in zip(i.tolist(), j.tolist())),
            dtype=bool, count=len(i),
        )
        i, j = i[keep], j[keep]
    return {
        "candidates": candidates,
        "count": len(i),
        "checksum": _checksum_np(i.astype(np.int64) * _PAIR_RADIX + j),
    }


def window_matches(boxes: np.ndarray, window) -> np.ndarray:
    """Row indices whose closed MBR intersects the closed window."""
    x0, y0, x1, y1 = window
    return np.flatnonzero(
        (boxes[:, 0] <= x1) & (x0 <= boxes[:, 2])
        & (boxes[:, 1] <= y1) & (y0 <= boxes[:, 3])
    )


class SelectOracle:
    """Expected select answers, indexed by the epoch a reply reports.

    ``r`` only ever changes through the writer's insert stream, one row
    per write.  A read pinned at epoch ``e`` therefore saw the loaded
    rows plus the first ``(e - base_epoch) / _EPOCH_STEP`` inserts,
    whatever the interleaving of the connections was.
    """

    def __init__(self, raw: dict[str, list], inserts: list, insert_oid_base: int,
                 base_epoch: dict[str, int]) -> None:
        self._boxes = {rel: boxes_of(shapes) for rel, shapes in raw.items()}
        self._inserts = boxes_of(inserts) if inserts else np.empty((0, 4))
        self._oid_base = insert_oid_base
        self._base_epoch = base_epoch
        self._memo: dict[tuple, tuple] = {}

    def _window(self, relation: str, window: tuple) -> tuple:
        key = (relation, window)
        found = self._memo.get(key)
        if found is None:
            base = window_matches(self._boxes[relation], window)
            extra = (
                window_matches(self._inserts, window) if relation == "r"
                else np.empty(0, dtype=np.int64)
            )
            sums = [0]
            for k in extra.tolist():
                sums.append(sums[-1] + checksum([self._oid_base + k]))
            found = (len(base), _checksum_np(base), extra.tolist(), sums)
            self._memo[key] = found
        return found

    def expect(self, relation: str, window: tuple, epoch: int) -> tuple[int, int]:
        """``(count, checksum of oids)`` at ``epoch``; raises on a bad epoch."""
        applied, odd = divmod(epoch - self._base_epoch[relation], _EPOCH_STEP)
        if odd or applied < 0 or (relation != "r" and applied):
            raise ValueError(f"{relation} cannot be at epoch {epoch}")
        count, base_sum, extra, sums = self._window(relation, window)
        visible = bisect.bisect_left(extra, applied)
        return count + visible, base_sum + sums[visible]

    def insert_epoch(self, index: int) -> int:
        """The epoch the ``index``-th insert (0-based) must commit at."""
        return self._base_epoch["r"] + _EPOCH_STEP * (index + 1)


def memoised(out_dir: Path, key: str, compute) -> dict:
    """``compute()`` once per key; later runs read ``out/oracle_<key>.json``."""
    path = out_dir / f"oracle_{key}.json"
    if path.exists():
        return json.loads(path.read_text())
    answer = compute()
    out_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(answer))
    return answer
