"""Fit the planner's seconds profile, and measure how well it picks.

``python -m repro calibrate`` runs every applicable priced join strategy
over a grid of cells -- rectangles / 12-gons x UNIFORM / HI-LOC x sizes,
``overlaps`` and ``within_distance``, two indexes, one, a registered
join index, a buffer far smaller than the operands -- and times each.
Each run contributes one row to a least-squares fit: its wall seconds
against the work its meter counted, kind by kind
(:data:`~repro.costmodel.profile.WORK_KINDS`): ``page_reads`` against
``io``, a traversal's ``theta_filter_evals`` against ``theta``, every
strategy's ``theta_exact_evals`` against the ``exact.*`` constant of its
geometry class, and so on.  The fit minimises the *relative* error, so
a 2 ms run weighs as much as a 2 s one, and keeps every constant
non-negative.

The regret of a cell is the measured time of the strategy the planner
picks divided by the fastest priced strategy measured there.  ``--check``
prints it for the committed profile, at the fitting seed and at a
held-out one; it asserts nothing, because a wall clock is no test.
"""

from __future__ import annotations

import gc
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from repro.core.executor import SpatialQueryExecutor
from repro.core.optimizer import JoinPlan, plan_join, rank
from repro.core.strategies import INTERVAL_SUFFIX, JoinOperands, applicable, metered_work
from repro.costmodel import profile as profile_module
from repro.costmodel.profile import MEASURED_PROFILE, WORK_KINDS
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.predicates.theta import Overlaps, WithinDistance
from repro.relational.relation import Relation
from repro.relational.schema import Column, ColumnType, Schema
from repro.storage.buffer import BufferPool
from repro.storage.costs import CostMeter
from repro.storage.disk import SimulatedDisk
from repro.trees.rtree import RTree

#: The seed the profile is fitted at, and the one it is checked at too.
FIT_SEED = 1993
HELD_OUT_SEED = 4242
UNIVERSE = 1000.0
#: Standard deviation of the HI-LOC clusters (16 centres on a 4 x 4
#: lattice); rectangles are up to ``RECT_SIDE`` wide, 12-gons have radii
#: in ``POLYGON_RADIUS``.
CLUSTER_SIGMA = 75.0
RECT_SIDE = 20.0
POLYGON_RADIUS = (6.0, 11.0)
POLYGON_SIDES = 12
#: A ``within_distance`` bound giving about as many results as overlaps.
WITHIN = 15.0
#: Largest ``|R| * |S|`` the nested loop is timed at (beyond it the loop
#: takes seconds and is never the fastest).
SCAN_PAIRS = 1_000_000
#: Largest relation the index nested loops are timed at.
INDEX_NL_ROWS = 1_000


@dataclass(frozen=True)
class Cell:
    """One point of the grid: what is joined, how, and with what."""

    geometry: str  # "rect" | "polygon"
    distribution: str  # "uniform" | "hiloc"
    n: int
    theta: str = "overlaps"  # | "within"
    #: Which operands carry an R-tree: "both" or "r".
    indexed: str = "both"
    #: A join index registered for the join.
    join_index: bool = False
    #: Buffer pages; ``None`` sizes the buffer to hold both operands.
    memory_pages: int | None = None
    #: Also time the partition join with the raster-interval tier, cold
    #: and warm (fits the ``interval_*`` constants).
    interval: bool = False

    def label(self) -> str:
        extras = [self.theta, f"idx={self.indexed}"]
        if self.join_index:
            extras.append("join-index")
        if self.memory_pages is not None:
            extras.append(f"M={self.memory_pages}")
        return f"{self.geometry:7s} {self.distribution:7s} n={self.n:<5d} " + " ".join(extras)


def grid(tiny: bool = False) -> list[Cell]:
    """The cells ``calibrate`` measures (``tiny``: a seconds-long smoke
    run over the same kinds of cell)."""
    if tiny:
        return [
            Cell("polygon", "hiloc", 60, interval=True),
            Cell("rect", "uniform", 60, indexed="r"),
            Cell("rect", "hiloc", 60, theta="within"),
            Cell("polygon", "uniform", 60, join_index=True),
        ]
    cells = []
    for geometry in ("rect", "polygon"):
        for distribution in ("uniform", "hiloc"):
            for n in (100, 300, 1000, 3000):
                cells.append(Cell(
                    geometry, distribution, n,
                    interval=geometry == "polygon" and n in (300, 1000),
                ))
    for geometry, distribution in (("rect", "uniform"), ("polygon", "hiloc")):
        for n in (100, 300, 1000):
            cells.append(Cell(geometry, distribution, n, indexed="r"))
            cells.append(Cell(geometry, distribution, n, theta="within"))
            cells.append(Cell(geometry, distribution, n, theta="within", indexed="r"))
        cells.append(Cell(geometry, distribution, 1000, join_index=True))
        cells.append(Cell(geometry, distribution, 1000, memory_pages=64))
    return cells


# ----------------------------------------------------------------------
# Data
# ----------------------------------------------------------------------

def _anchors(rng: random.Random, cell: Cell, margin: float):
    lo, hi = margin, UNIVERSE - margin
    if cell.distribution == "uniform":
        for _ in range(cell.n):
            yield rng.uniform(lo, hi), rng.uniform(lo, hi)
        return
    step = UNIVERSE / 4
    centres = [((i + 0.5) * step, (j + 0.5) * step) for i in range(4) for j in range(4)]
    for k in range(cell.n):
        cx, cy = centres[k % len(centres)]
        yield (
            min(max(rng.gauss(cx, CLUSTER_SIGMA), lo), hi),
            min(max(rng.gauss(cy, CLUSTER_SIGMA), lo), hi),
        )


def _shapes(rng: random.Random, cell: Cell) -> list:
    if cell.geometry == "rect":
        return [
            Rect(x, y, min(x + rng.uniform(0.0, RECT_SIDE), UNIVERSE),
                 min(y + rng.uniform(0.0, RECT_SIDE), UNIVERSE))
            for x, y in _anchors(rng, cell, 0.0)
        ]
    shapes = []
    for x, y in _anchors(rng, cell, POLYGON_RADIUS[1]):
        radius = rng.uniform(*POLYGON_RADIUS)
        phase = rng.uniform(0.0, math.tau)
        shapes.append(Polygon([
            Point(x + radius * math.cos(phase + k * math.tau / POLYGON_SIDES),
                  y + radius * math.sin(phase + k * math.tau / POLYGON_SIDES))
            for k in range(POLYGON_SIDES)
        ]))
    return shapes


def relations(cell: Cell, seed: int) -> tuple[Relation, Relation]:
    """The cell's ``r`` and ``s`` at ``seed``, indexed as it says."""
    kind = ColumnType.RECT if cell.geometry == "rect" else ColumnType.POLYGON
    schema = Schema([Column("oid", ColumnType.INT), Column("shape", kind)])
    pool = BufferPool(SimulatedDisk(), 4000, CostMeter())
    out = []
    for name in ("r", "s"):
        rel = Relation(name, schema, pool)
        for oid, shape in enumerate(_shapes(random.Random(f"{seed}:{cell.geometry}:{cell.distribution}:{cell.n}:{name}"), cell)):
            rel.insert([oid, shape])
        if name == "r" or cell.indexed == "both":
            rel.attach_index("shape", RTree(max_entries=10))
        out.append(rel)
    return out[0], out[1]


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Run:
    """One timed strategy on one cell: its best wall time of ``reps``
    and the work its meter counted, by kind."""

    cell: Cell
    seed: int
    strategy: str
    seconds: float
    work: dict[str, float]


@dataclass
class CellResult:
    cell: Cell
    seed: int
    plan: JoinPlan
    runs: list[Run]

    def fastest(self) -> Run:
        """The fastest strategy run (the interval tier's runs only fit
        its constants: the planner weighs the tier, it is no strategy)."""
        return min(
            (run for run in self.runs if INTERVAL_SUFFIX not in run.strategy),
            key=lambda run: run.seconds,
        )

    def pick(self, profile: Mapping[str, float]) -> str:
        """The strategy ``plan_join`` picks for this cell under
        ``profile`` (ranked over the plan's predicted work)."""
        return rank(self.plan.predicted_work, profile)

    def regret(self, profile: Mapping[str, float]) -> tuple[str, float | None]:
        """``(pick, measured time of the pick / the fastest)``; ``None``
        when the pick was not timed (a nested loop past ``SCAN_PAIRS``)."""
        pick = self.pick(profile)
        timed = {run.strategy: run.seconds for run in self.runs}
        if pick not in timed:
            return pick, None
        return pick, timed[pick] / self.fastest().seconds


def _timed_strategies(cell: Cell, ops: JoinOperands) -> list[str]:
    names = []
    for strategy in applicable(ops):
        if strategy.price is None:
            continue  # unpriced: the planner never picks it
        if strategy.name == "scan" and cell.n * cell.n > SCAN_PAIRS:
            continue
        if strategy.name.startswith("index-nl") and cell.n > INDEX_NL_ROWS:
            continue
        names.append(strategy.name)
    return names


def _time(executor, ops: JoinOperands, strategy: str, reps: int, interval=False):
    """The best wall time of ``reps`` runs, and the work its meter counted."""
    best = None
    for _ in range(reps):
        gc.collect()
        meter = CostMeter()
        start = time.perf_counter()
        result = executor.join(*ops.positional, strategy=strategy, meter=meter,
                               interval=interval() if callable(interval) else interval)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, meter, len(result.pairs))
    elapsed, meter, matches = best
    return elapsed, metered_work(
        strategy, meter.snapshot(), kinds=ops.kinds, rows=ops.rows, matches=matches
    )


def measure(cell: Cell, seed: int, reps: int = 3) -> CellResult:
    """Plan the cell's join, then time every priced strategy on it."""
    rel_r, rel_s = relations(cell, seed)
    theta = Overlaps() if cell.theta == "overlaps" else WithinDistance(WITHIN)
    memory = cell.memory_pages or rel_r.num_pages + rel_s.num_pages + 64
    executor = SpatialQueryExecutor(memory_pages=memory)
    if cell.join_index:
        executor.precompute_join_index(rel_r, rel_s, "shape", "shape", theta)
    ops = JoinOperands(
        rel_r, "shape", rel_s, "shape", theta,
        join_index=executor.join_index_for(rel_r, rel_s, "shape", "shape", theta),
    )
    plan = plan_join(
        *ops.positional, join_index=ops.join_index, memory_pages=memory,
    )
    runs = []
    for name in _timed_strategies(cell, ops):
        runs.append(Run(cell, seed, name, *_time(executor, ops, name, reps)))
    if cell.interval:
        from repro.intermediate import IntervalSpec

        universe = ops.universe()
        fresh = iter(range(1, 1_000_000))

        def cold():  # a grid no table was built on yet
            grow = next(fresh) * 1e-9
            return IntervalSpec(Rect(universe.xmin - grow, universe.ymin,
                                     universe.xmax, universe.ymax))

        elapsed, work = _time(executor, ops, "partition", reps, cold)
        work["interval_build"] = float(len(rel_r) + len(rel_s))
        runs.append(Run(cell, seed, "partition+INT cold", elapsed, work))
        warm = IntervalSpec(universe)
        runs.append(Run(cell, seed, "partition+INT", *_time(executor, ops, "partition", reps + 1, warm)))
    return CellResult(cell, seed, plan, runs)


# ----------------------------------------------------------------------
# Fit
# ----------------------------------------------------------------------

def fit(runs: Iterable[Run]) -> dict[str, float]:
    """Non-negative least squares of ``seconds ~ sum(c[kind] * work[kind])``
    on the relative error: a kind whose constant comes out negative is
    dropped (priced at zero) and the rest refitted.  A kind no run
    exercises keeps the committed value."""
    runs = list(runs)
    kinds = [k for k in WORK_KINDS if any(run.work.get(k, 0.0) for run in runs)]
    rows = [[run.work.get(k, 0.0) / run.seconds for k in kinds] for run in runs]
    active = list(range(len(kinds)))
    while True:
        coef = _least_squares([[row[k] for k in active] for row in rows], [1.0] * len(rows))
        if min(coef) >= 0.0:
            break
        del active[coef.index(min(coef))]
    fitted = dict(MEASURED_PROFILE)
    fitted.update({kind: 0.0 for kind in kinds})
    fitted.update({kinds[k]: c for k, c in zip(active, coef)})
    return fitted


def _least_squares(a: list[list[float]], b: list[float]) -> list[float]:
    """``argmin |a x - b|``: the normal equations on unit-norm columns,
    by Gaussian elimination with partial pivoting."""
    cols = len(a[0])
    norms = [math.sqrt(sum(row[j] ** 2 for row in a)) or 1.0 for j in range(cols)]
    a = [[row[j] / norms[j] for j in range(cols)] for row in a]
    m = [
        [sum(row[i] * row[j] for row in a) for j in range(cols)]
        + [sum(row[i] * y for row, y in zip(a, b))]
        for i in range(cols)
    ]
    for i in range(cols):
        pivot = max(range(i, cols), key=lambda r: abs(m[r][i]))
        m[i], m[pivot] = m[pivot], m[i]
        for r in range(i + 1, cols):
            f = m[r][i] / m[i][i]
            m[r] = [x - f * y for x, y in zip(m[r], m[i])]
    x = [0.0] * cols
    for i in reversed(range(cols)):
        x[i] = (m[i][cols] - sum(m[i][j] * x[j] for j in range(i + 1, cols))) / m[i][i]
    return [xi / norm for xi, norm in zip(x, norms)]


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

def format_profile(profile: Mapping[str, float]) -> str:
    return "\n".join(f"  {kind:22s} {profile[kind]:.3e} s" for kind in WORK_KINDS)


def format_regret(results: Iterable[CellResult], profile: Mapping[str, float]) -> str:
    lines = [
        f"{'cell':44s} {'seed':>5s} {'fastest':>16s} {'pick':>16s} {'regret':>6s}"
        "  measured ms per strategy"
    ]
    for result in results:
        fastest = result.fastest()
        pick, regret = result.regret(profile)
        times = " ".join(f"{run.strategy}={run.seconds * 1e3:.1f}" for run in result.runs)
        lines.append(
            f"{result.cell.label():44s} {result.seed:5d} {fastest.strategy:>16s} "
            f"{pick:>16s} {'-' if regret is None else f'{regret:.2f}':>6s}  {times}"
        )
    return "\n".join(lines)


def write_profile(profile: Mapping[str, float], path: Path | None = None) -> Path:
    """Rewrite the fitted block of :mod:`repro.costmodel.profile`."""
    path = Path(profile_module.__file__) if path is None else path
    text = path.read_text()
    begin = text.index("# BEGIN FITTED PROFILE")
    begin = text.index("\n", begin) + 1
    end = text.index("# END FITTED PROFILE")
    body = "MEASURED_PROFILE: dict[str, float] = {\n" + "".join(
        f'    "{kind}": {profile[kind]:.3e},\n' for kind in WORK_KINDS
    ) + "}\n"
    path.write_text(text[:begin] + body + text[end:])
    return path


def calibrate(*, check: bool = False, tiny: bool = False, write: bool = False,
              reps: int = 3, log=None) -> str:
    """The ``repro calibrate`` command: fit (or, with ``check``, keep the
    committed profile) and report the profile and the regret table;
    ``write`` commits a fitted profile."""
    cells = grid(tiny)
    if tiny:
        reps = 2
    seeds = (FIT_SEED, HELD_OUT_SEED) if check else (FIT_SEED,)
    results = []
    for seed in seeds:
        for cell in cells:
            results.append(measure(cell, seed, reps))
            if log is not None:
                log(f"measured {cell.label()} seed={seed}")
    if check:
        profile, title = MEASURED_PROFILE, "committed profile"
    else:
        profile = fit(run for result in results for run in result.runs)
        title = "fitted profile"
    lines = [f"{title} (seconds per unit of work):", format_profile(profile), ""]
    lines.append(format_regret(results, profile))
    if write:
        lines.append(f"\nwrote {write_profile(profile)}")
    return "\n".join(lines)
