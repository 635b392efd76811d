"""Print the engine's deterministic behaviour transcript.

Usage::

    PYTHONPATH=src python tools/transcript.py                 # print it
    PYTHONPATH=src python tools/transcript.py --against REV   # compare with REV

The transcript walks the configuration lattice -- seeds 1/7/42 x
rectangles/polygons x clean disk / a disk whose read outages kill each
join's first strategy x every ``JOIN_STRATEGIES`` key plus ``auto`` x
interval tier off / ``True`` / an ``IntervalSpec`` x cache none / cold /
warm, then the same seeds and geometries on two inline shards (a join
twice and a select) with and without shard kills -- and prints, for every run, what the engine
decided and charged: the plan and its ``format_explain()``, a digest of
the sorted pair list, ``CostMeter.snapshot()``, ``ExecutionReport.format()``,
the names, tags and cost deltas of its spans (never wall time), and the
text of every typed refusal.  Each run builds its own relations, so a
difference stays local to the runs that changed.

Two runs over the same ``src/`` print identical bytes.  ``--against REV``
runs this script twice, concurrently -- with ``PYTHONPATH`` set to this
checkout's ``src/`` and to an exported copy of REV's ``src/`` (``git
archive``, so nothing is left behind in the repository) -- and exits 1
at the first line that differs, 0 when none does.  A change that means
to alter behaviour names the difference it expects as a function here
that filters both transcripts (:data:`FILTERS`), applied only against
revisions from before that change.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import random
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from repro.cache import QueryCache
from repro.core.executor import SpatialQueryExecutor
from repro.core.optimizer import plan_join
from repro.core.strategies import JOIN_STRATEGIES, JoinOperands
from repro.errors import ExecutionError, JoinError, ShardUnavailable
from repro.faults import FaultPlan, FaultyDisk
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.intermediate import IntervalSpec
from repro.obs import TraceContext
from repro.obs.trace import Tracer
from repro.predicates.theta import NorthwestOf, Overlaps, WithinDistance
from repro.relational.relation import Relation
from repro.relational.schema import Column, ColumnType, Schema
from repro.shard import ShardRuntime
from repro.storage.buffer import BufferPool
from repro.storage.costs import CostMeter
from repro.storage.disk import SimulatedDisk
from repro.trees.rtree import RTree

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 7, 42)
TIERS = ("none", "cold", "warm")
UNIVERSE = Rect(0.0, 0.0, 120.0, 120.0)
WINDOW = Rect(20.0, 25.0, 70.0, 60.0)
INTERVALS = {"off": False, "true": True, "spec": IntervalSpec(UNIVERSE, 4)}


def transcript(out) -> None:
    """Write the whole transcript to ``out``."""
    for seed in SEEDS:
        for geometry in ("rect", "polygon"):
            for faulty in (False, True):
                disk = "read_outages" if faulty else "clean"
                out.write(f"# seed={seed} geometry={geometry} disk={disk}\n")
                refusals(out, seed, geometry)
                for strategy in [*JOIN_STRATEGIES, "auto"]:
                    for interval in INTERVALS:
                        joins(out, seed, geometry, faulty, strategy, interval)
                planned(out, seed, geometry, faulty)
                selects(out, seed, geometry)
            for kill in (False, True):
                out.write(f"# seed={seed} geometry={geometry} shards=2 kill={kill}\n")
                sharded(out, seed, geometry, kill)


def relations(seed: int, geometry: str, faulty: bool = False):
    """``(r, s, fault plan or None)``: 30 and 25 rows, R-trees on both.
    Polygons are each box's side-midpoint diamond, so MBR candidates
    exist that exact refinement rejects."""
    plan = FaultPlan(seed, read_outages={}) if faulty else None
    pool = BufferPool(FaultyDisk(plan) if faulty else SimulatedDisk(), 4000, CostMeter())
    kind = ColumnType.RECT if geometry == "rect" else ColumnType.POLYGON
    schema = Schema([Column("oid", ColumnType.INT), Column("shape", kind)])
    rng = random.Random(seed)
    rels = []
    for name, count in (("r", 30), ("s", 25)):
        rel = Relation(name, schema, pool)
        for oid in range(count):
            x, y = rng.uniform(0.0, 95.0), rng.uniform(0.0, 95.0)
            w, h = rng.uniform(1.0, 25.0), rng.uniform(1.0, 25.0)
            cx, cy = x + w / 2, y + h / 2
            rel.insert([oid, Rect(x, y, x + w, y + h) if geometry == "rect" else Polygon([
                Point(x, cy), Point(cx, y), Point(x + w, cy), Point(cx, y + h)
            ])])
        rel.attach_index("shape", RTree(max_entries=4))
        rels.append(rel)
    return rels[0], rels[1], plan


def digest(items) -> str:
    items = sorted(items)
    return f"n={len(items)} sha={hashlib.sha256(repr(items).encode()).hexdigest()[:16]}"


def counters(snapshot: dict) -> str:
    return " ".join(f"{k}={v!r}" for k, v in sorted(snapshot.items()) if v)


def outcome(out, result, items, meter, report=None, tracer=None) -> None:
    """One run's answer, charges, report and spans."""
    out.write(f"  {result.strategy} {digest(items)}\n")
    out.write(f"  meter {counters(meter.snapshot())}\n")
    for line in report.format().splitlines() if report is not None else ():
        out.write(f"  | {line}\n")
    for record in tracer.to_records() if tracer is not None else ():
        tags = " ".join(f"{k}={v!r}" for k, v in record["tags"].items())
        out.write(
            f"  {'  ' * record['depth']}{record['name']} [{tags}] "
            f"{counters(record['cost'])}\n"
        )


def refused(out, exc) -> None:
    out.write(f"  refused: {type(exc).__name__}: {exc}\n")


def refusals(out, seed: int, geometry: str) -> None:
    """Which strategy refuses which operator, and why, in its own words."""
    rel_r, rel_s, _ = relations(seed, geometry)
    for theta in (Overlaps(), WithinDistance(6.0), NorthwestOf()):
        ops = JoinOperands(rel_r, "shape", rel_s, "shape", theta)
        for name, strategy in JOIN_STRATEGIES.items():
            out.write(f"refusal {theta.name} {name}: {strategy.refusal(ops)}\n")
    for strategy in ("join-index", "no-such-strategy", 7):
        out.write(f"join strategy={strategy!r}\n")
        try:
            SpatialQueryExecutor().join(
                rel_r, "shape", rel_s, "shape", Overlaps(), strategy=strategy
            )
        except JoinError as exc:
            refused(out, exc)


def joins(out, seed: int, geometry: str, faulty: bool, strategy: str,
          interval: str) -> None:
    """One strategy under one interval setting, uncached then cold then warm."""
    rel_r, rel_s, plan = relations(seed, geometry, faulty)
    cache = QueryCache(admission_threshold=0.0)
    for tier in TIERS:
        out.write(f"join strategy={strategy} interval={interval} cache={tier}\n")
        executor = SpatialQueryExecutor(
            cache=None if tier == "none" else cache, interval=INTERVALS[interval]
        )
        if strategy == "join-index":
            executor.precompute_join_index(rel_r, rel_s, "shape", "shape", Overlaps())
        if plan is not None:
            # Outlasts the pool's retry budget: the first attempt dies.
            plan.read_outages[rel_r.page_ids[0]] = 8
        meter, tracer = CostMeter(), Tracer()
        try:
            result, report = executor.execute_join(
                rel_r, "shape", rel_s, "shape", Overlaps(),
                strategy=strategy, meter=meter, tracer=tracer,
            )
        except (JoinError, ExecutionError) as exc:
            refused(out, exc)
            continue
        finally:
            if plan is not None:
                plan.read_outages.clear()
        outcome(out, result, result.pairs, meter, report, tracer)


def planned(out, seed: int, geometry: str, faulty: bool) -> None:
    """The Section 4 planner's decision record, then its execution."""
    for interval, setting in INTERVALS.items():
        rel_r, rel_s, plan = relations(seed, geometry, faulty)
        out.write(f"plan interval={interval}\n")
        explain = plan_join(
            rel_r, "shape", rel_s, "shape", Overlaps(), interval=setting or None
        ).format_explain()
        for line in explain.splitlines():
            out.write(f"  > {line}\n")
        if plan is not None:
            plan.read_outages[rel_r.page_ids[0]] = 8
        meter = CostMeter()
        try:
            result, report = SpatialQueryExecutor(interval=setting).plan_and_execute_join(
                rel_r, "shape", rel_s, "shape", Overlaps(), meter=meter
            )
        except ExecutionError as exc:
            refused(out, exc)
            continue
        outcome(out, result, result.pairs, meter, report)


def selects(out, seed: int, geometry: str) -> None:
    """Selections per strategy and cache tier, and a nearest query."""
    rel_r, _, _ = relations(seed, geometry)
    for strategy in ("tree", "scan", "auto"):
        cache = QueryCache(admission_threshold=0.0)
        for tier in TIERS:
            out.write(f"select strategy={strategy} cache={tier}\n")
            executor = SpatialQueryExecutor(cache=None if tier == "none" else cache)
            meter, tracer = CostMeter(), Tracer()
            result = executor.select(
                rel_r, "shape", WINDOW, Overlaps(),
                strategy=strategy, meter=meter, tracer=tracer,
            )
            outcome(out, result, (t for t, _ in result.matches), meter, tracer=tracer)
    meter = CostMeter()
    found = SpatialQueryExecutor().nearest(rel_r, "shape", Point(50.0, 50.0), k=4, meter=meter)
    out.write(f"nearest {[(d, t['oid']) for d, t in found]!r}\n")
    out.write(f"  meter {counters(meter.snapshot())}\n")


def sharded(out, seed: int, geometry: str, kill: bool) -> None:
    """Two inline shards: a join, its repeat and a select, with -- if
    ``kill`` -- shards killed mid-query."""
    rel_r, rel_s, _ = relations(seed, geometry)
    plan = FaultPlan(seed, kill_shard_at={5: -1, 9: -1}) if kill else None
    with ShardRuntime(UNIVERSE, 2, fault_plan=plan) as fleet:
        fleet.load_relation(rel_r, "shape")
        fleet.load_relation(rel_s, "shape")
        for run in (1, 2):
            out.write(f"shard join {run}\n")
            meter, tracer = CostMeter(), Tracer()
            try:
                with tracer.span("transcript.shard_join", meter=meter) as span:
                    result = fleet.router.join(
                        "r", "s", Overlaps(), meter=meter, tracer=tracer,
                        trace=TraceContext("transcript", 1).for_span(tracer.uid_of(span)),
                    )
            except ShardUnavailable as exc:
                refused(out, exc)
                continue
            outcome(out, result, result.pairs, meter, tracer=tracer)
        out.write("shard select\n")
        result = fleet.router.select("r", WINDOW, Overlaps())
        out.write(f"  {result.strategy} {digest(t for t, _ in result.matches)}\n")
        status = fleet.status()
        out.write(f"  dispatches={status['dispatches']} restarts={status['restarts']}\n")


#: A run's answer row: its strategy label (or a filter's neutral one),
#: then the pair digest.
ANSWER = re.compile(r"^  (?:\S+|<planner choice>) (n=\d+ sha=[0-9a-f]+)$")


def planner_choice(lines):
    """The rows that follow which strategy the planner picks.

    ``plan_join`` ranks by predicted seconds, and ``auto`` is its pick,
    so under an ``auto`` join or a ``plan`` section the explain lines,
    the strategy that ran, its counters, report and spans may all move.
    What may not is the answer: each run's pair digest is kept, under a
    neutral label; every other line of the transcript passes untouched.
    """
    planned = False
    for line in lines:
        if not line.startswith(" "):
            planned = line.startswith(("join strategy=auto ", "plan interval="))
            yield line
        elif not planned:
            yield line
        elif answer := ANSWER.match(line):
            yield f"  <planner choice> {answer.group(1)}"


def one_planned_join(lines):
    """The rows that follow ``auto`` deciding the interval tier.

    ``auto`` plans with the call's interval setting and runs the plan's
    verdict on the tier, and its report carries drift, so under an
    ``auto`` join everything but the answer row may move; the answer row
    (strategy label and pair digest) is kept as it is.
    ``plan_and_execute_join`` is ``auto`` now, so a ``plan`` section's
    report requests ``auto``: that one line is masked there.
    """
    section = ""
    for line in lines:
        if not line.startswith(" "):
            section = line
            yield line
        elif section.startswith("join strategy=auto "):
            if ANSWER.match(line):
                yield line
        elif section.startswith("plan interval=") and line.startswith(
            "  | requested strategy: "
        ):
            yield "  | requested strategy: <planned>"
        else:
            yield line


#: Table 3's model names, by the strategy each priced.
MODEL_STRATEGY = {
    "D_PAR": "partition", "D_I": "scan", "D_IIa": "tree", "D_IIb": "tree",
    "D_INL": "index-nl", "D_INL'": "index-nl-swapped", "D_III": "join-index",
}
#: An explain row of a plan's predictions: marker, name, seconds, and
#: (before seconds were the plan's one unit) the Table 3 cost.
EXPLAIN_COST = re.compile(r"^  >   (->|  ) (\S+?)(\+INT)?\s+(\d+\.\d+) s(?:\s+\S+)?$")
#: A drift row of a report: the strategy that ran, then its prices.
DRIFT_ROW = re.compile(r"^  \|     (\S+)\s+\S+\s+predicted=")


def one_unit(lines):
    """The rows that priced in Table 3's units beside seconds.

    A plan prices in seconds only, under strategy names, so each explain
    cost row is rewritten to its strategy's name and its seconds -- the
    seconds themselves must match -- and the header loses the units.  A
    drift row compares predicted with metered seconds where it compared
    units: only its strategy is kept.  Every other line passes untouched.
    """
    for line in lines:
        if line == "  > predicted seconds, and costs in Table 3 units:":
            yield "  > predicted seconds:"
        elif cost := EXPLAIN_COST.match(line):
            marker, name, suffix, secs = cost.groups()
            yield f"  >   {marker} {MODEL_STRATEGY.get(name, name)}{suffix or ''} {secs} s"
        elif drift := DRIFT_ROW.match(line):
            yield f"  |     {drift.group(1)} <drift row>"
        else:
            yield line


def no_fitted_model(lines):
    """The explain rows of Section 4's fitted full tree.

    A plan prices from the sampled selectivity, the memory budget and
    the structures it is handed, so no ``model: n= k= N= m=`` line
    follows the estimate any more; it is dropped.  Every other line
    passes untouched.
    """
    return (line for line in lines if not line.startswith("  > model: "))


#: A join section whose strategy refines exactly under an interval
#: setting it threaded the tier under before.
EXACT_UNDER_INTERVAL = re.compile(r"^join strategy=(tree|zorder) interval=(true|spec) ")


def sweep_only_tier(lines):
    """The rows of the interval tier where it no longer runs.

    The tier runs on the partition sweep only.  An explicit ``tree`` or
    ``zorder`` join under an interval setting refines exactly, so its
    meter row and span rows are masked there; its answer and report rows
    are kept as they are.  A plan prices the tier for ``partition``
    alone, so every other strategy's ``+INT`` explain row is dropped.
    Every other line passes untouched.
    """
    masked = False
    for line in lines:
        if not line.startswith(" "):
            masked = bool(EXACT_UNDER_INTERVAL.match(line))
            yield line
        elif (cost := EXPLAIN_COST.match(line)) and cost.group(3) and cost.group(2) != "partition":
            continue
        elif not masked or ANSWER.match(line) or line.startswith(("  | ", "  refused: ")):
            yield line
        elif line.startswith("  meter "):
            yield "  meter <exact under an interval setting>"
        else:
            yield "  <span row>"


def lacks(path: str):
    """A filter's marker: REV's ``src/`` lacks ``path``, a file the
    change adds."""
    return lambda src: not (src / path).exists()


def still_has(path: str, text: str):
    """A filter's marker: REV's ``src/path`` still contains ``text``,
    code the change removes."""
    return lambda src: (src / path).exists() and text in (src / path).read_text()


#: The differences a change means to make, each with a marker that tells
#: a REV from before the change.  ``--against REV`` applies a filter, in
#: order and to both transcripts, only when its marker holds for REV's
#: ``src/``: once the change is in REV, every line must match again.
FILTERS = (
    (planner_choice, lacks("repro/costmodel/profile.py")),
    (one_planned_join, still_has("repro/cache/cache.py", "def join_hit_probability(")),
    (one_unit, still_has("repro/core/strategies.py", "class Price(")),
    (no_fitted_model, still_has("repro/core/optimizer.py", "def fit_parameters(")),
    (sweep_only_tier, still_has("repro/shard/worker.py", "def _interval_refiner(")),
)


def against(rev: str) -> int:
    """Run the transcript over this checkout's src/ and REV's; report the
    first differing line."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", rev, "src"],
            check=True, capture_output=True,
        ).stdout
        theirs = Path(tmp, "rev")
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(theirs, filter="data")
        runs = {}
        for name, src in (("here", ROOT / "src"), (rev, theirs / "src")):
            path = Path(tmp, f"{len(runs)}.txt")
            with open(path, "w") as out:  # the child keeps its own handle
                runs[name] = path, subprocess.Popen(
                    [sys.executable, __file__], stdout=out,
                    env={**os.environ, "PYTHONPATH": str(src)},
                )
        failed = [name for name, (_, run) in runs.items() if run.wait()]
        if failed:
            print(f"the transcript over {failed[0]} failed", file=sys.stderr)
            return 2
        lines = {}
        for name, (path, _) in runs.items():
            text = path.read_text().splitlines()
            for normalise, before_change in FILTERS:
                if before_change(theirs / "src"):
                    text = list(normalise(text))
            lines[name] = text
    ours, others = lines["here"], lines[rev]
    for number, (mine, other) in enumerate(zip(ours, others), start=1):
        if mine != other:
            print(f"first difference at line {number}:\n- {rev}: {other}\n+ here: {mine}")
            return 1
    if len(ours) != len(others):
        print(f"one transcript ends early: {len(others)} lines at {rev}, {len(ours)} here")
        return 1
    print(f"identical to {rev}: {len(ours)} lines")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="compare with the transcript of REV's src/")
    args = parser.parse_args()
    if args.against:
        return against(args.against)
    transcript(sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
