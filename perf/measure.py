"""What the measured processes share: loading relations, timing statistics.

The benchmark measures the program in the checkout it runs from, so
:func:`use_checkout_source` puts ``<checkout>/src`` first on the path and
refuses to start when there is no program there to measure.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from statistics import median

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"

#: The buffer pool every ``repro`` assembly and ``repro serve`` uses.
POOL_PAGES = 4000
#: The query-cache budget ``repro serve`` defaults to.
CACHE_BYTES = 8 * 1024 * 1024


def use_checkout_source() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perf: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))


def child_env() -> dict[str, str]:
    """Environment of measured child processes: fixed hash seed, our source."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def calib_ms() -> float:
    """A fixed pure-python loop: how fast is this host right now?

    The fastest of three, because the first loop after a wait (a reply
    from a child, a sleeping socket) runs on a processor that was idle
    and reads up to 50% slow whatever the host is doing.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(500_000):
            acc += i * i % 7
        best = min(best, (time.perf_counter() - start) * 1e3)
    return best


def share_one_cpu() -> None:
    """Pin this process, and the children it starts, to one processor.

    For the serve workloads: the server runs python under one interpreter
    lock and its clients block on every reply, so two processors add no
    throughput (about 3,000 ops/s either way) -- but a reply that wakes a
    thread on the other processor goes through the hypervisor, and
    identical passes then differed by up to 35% where, sharing one
    processor, they differ by about 5%.  The highest-numbered one,
    because interrupts and kernel threads favour processor 0 (3% slower).
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def timed(fn) -> tuple[float, object]:
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def peak_rss_mb() -> float:
    """Peak resident set of this process image, from ``VmHWM``.

    Not ``ru_maxrss``: that survives ``exec``, so a child reports at least
    what its parent held when it forked -- here the bench process with the
    oracle's arrays, 430 MiB against the join's own 190.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def percentile(ordered: list[float], q: float) -> float:
    """Linear interpolation between closest ranks of a sorted list."""
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(ordered: list[float]) -> tuple[float, str]:
    """The highest percentile of p95/p75/p50 with ten samples beyond it.

    p95 is only taken from 200 samples up.  With fewer than 20 samples
    (the join workloads) nothing has ten beyond it and the tail is the
    median, labelled as such.
    """
    n = len(ordered)
    if n >= 200:
        return percentile(ordered, 0.95), "p95"
    if n >= 40:
        return percentile(ordered, 0.75), "p75"
    return percentile(ordered, 0.50), "p50"


def pass_summary(op_ms: list[float], wall_s: float) -> dict:
    ordered = sorted(op_ms)
    tail_ms, tail_label = tail(ordered)
    return {
        "samples": len(ordered),
        "wall_s": wall_s,
        "op_p50_ms": median(ordered),
        "op_tail_ms": tail_ms,
        "tail_label": tail_label,
        "ops_per_s": len(ordered) / wall_s,
    }


class Layers:
    """Per-layer metrics of one traced run; a probe that fails leaves zeros.

    Probes call single layers through their public functions.  A later
    change may move or remove one of those; the traced run then says
    which probe broke on stderr and still prints every other layer.
    """

    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.broken: list[str] = []

    def probe(self, label: str, fn) -> None:
        try:
            self.values.update(fn())
        except Exception as exc:  # noqa: BLE001 - boundary: report, keep going
            self.broken.append(f"{label}: {type(exc).__name__}: {exc}")
            print(f"perf: layer probe {label} failed: {exc!r}", file=sys.stderr)


def load_relations(workload, seed: int, n: int) -> tuple[dict, dict, dict]:
    """Generate, insert and index ``r`` and ``s`` the way a user would.

    Returns ``(relations, oid_of, split)``: ``oid_of[name]`` maps a tuple
    id to its row number (the oracle's identity for a row) and ``split``
    is the set-up time by layer.
    """
    import workloads
    from repro.geometry.point import Point
    from repro.geometry.polygon import Polygon
    from repro.geometry.rect import Rect
    from repro.relational.relation import Relation
    from repro.relational.schema import Column, ColumnType, Schema
    from repro.storage.buffer import BufferPool
    from repro.storage.costs import CostMeter
    from repro.storage.disk import SimulatedDisk
    from repro.trees.rtree import RTree

    t0 = time.perf_counter()
    raw = workloads.shapes(workload, seed, n)
    if workload.polygon_radius:
        shape_type = ColumnType.POLYGON
        geoms = {
            rel: [Polygon([Point(x, y) for x, y in verts]) for verts in shapes]
            for rel, shapes in raw.items()
        }
    else:
        shape_type = ColumnType.RECT
        geoms = {rel: [Rect(*t) for t in shapes] for rel, shapes in raw.items()}
    t1 = time.perf_counter()

    schema = Schema([Column("oid", ColumnType.INT), Column("shape", shape_type)])
    pool = BufferPool(SimulatedDisk(), POOL_PAGES, CostMeter())
    relations, oid_of = {}, {}
    for rel, shapes in geoms.items():
        relation = Relation(rel, schema, pool)
        oid_of[rel] = {
            relation.insert([oid, geom]).tid: oid for oid, geom in enumerate(shapes)
        }
        relations[rel] = relation
    t2 = time.perf_counter()

    if workload.indexed:
        for relation in relations.values():
            relation.attach_index("shape", RTree(max_entries=10))
    t3 = time.perf_counter()
    split = {
        "workloads.generate_ms": (t1 - t0) * 1e3,
        "relational.insert_us": (t2 - t1) * 1e6 / (2 * n),
        "trees.build_ms": (t3 - t2) * 1e3,
    }
    return relations, oid_of, split
