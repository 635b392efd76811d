"""One generative harness over the engine's configuration lattice.

A hypothesis state machine whose ``@initialize`` draws one configuration
(:class:`Config`: geometry, R-trees, cache, interval tier, WAL
durability, read-outage faults, inline shards) -- so a failure shrinks
to a configuration *and* an operation list -- and whose rules are the
system's real operations: writes through the service's state manager or
a session, reclusters, checkpoints, crash + recovery, shard kills,
selections (also inside and around a cached window), nearest neighbours,
joins under every applicable strategy or ``auto`` through every entry
point, sharded reads, and a second session's write between two of a
first session's reads.

Every answer equals :class:`tests.oracle.Model`'s at the epoch it was
pinned at, or is the typed error its configuration allows
(:class:`ExecutionError` once the injected outages exhaust the fallback
chain) -- never a partial answer.  The laws the per-feature suites
asserted ride along: :meth:`Lattice.check` (contents, R-tree soundness,
cache invariants), :meth:`Lattice.reading` (read-only snapshots),
:meth:`Lattice.warm` (a warm exact hit reads no page) and
:meth:`Lattice.interval_law`.  :class:`Lattice` is also driven directly,
by scripts pinning corners a random draw may miss
(``tests/join/test_strategies_agree.py``, ``tests/cache/test_metamorphic.py``).
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cache import QueryCache
from repro.core.executor import SpatialQueryExecutor
from repro.core.strategies import JOIN_STRATEGIES, JoinOperands, applicable
from repro.errors import ExecutionError
from repro.faults import FaultPlan, FaultyDisk
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.intermediate import IntervalSpec
from repro.predicates.dispatch import min_distance
from repro.predicates.theta import Includes, NorthwestOf, Overlaps, WithinDistance
from repro.relational.relation import Relation
from repro.relational.schema import Column, ColumnType, Schema
from repro.server import QueryService, StateManager
from repro.shard import ShardRuntime
from repro.storage.buffer import BufferPool
from repro.storage.costs import CostMeter
from repro.storage.disk import SimulatedDisk
from repro.trees.rtree import RTree
from repro.wal import Checkpointer, WriteAheadLog, recover

from tests.oracle import Model, nearest, rows_of

NAMES = ("r", "s")
UNIVERSE = Rect(0.0, 0.0, 120.0, 120.0)
SNAPSHOT = ("columns", "shape")
#: A few entries' worth: admissions evict.
CACHE_BUDGET = 32 * 1024
COLUMN_TYPES = {"rect": ColumnType.RECT, "polygon": ColumnType.POLYGON}
SELECT_THETAS = (Overlaps(), Includes(), WithinDistance(6.0))
JOIN_THETAS = (Overlaps(), WithinDistance(6.0), NorthwestOf())
ENTRIES = ("join", "execute_join", "plan_and_execute_join", "session")


@dataclass(frozen=True)
class Config:
    """One point of the lattice; the defaults are its simplest corner."""

    geometry: str = "rect"
    #: The relations carrying an R-tree on ``shape``.
    index: tuple[str, ...] = NAMES
    cache: bool = False
    #: Falsy, ``True`` or an :class:`IntervalSpec`.
    interval: Any = False
    #: WAL-logged relations: crash + recover becomes an operation.
    durable: bool = False
    #: Read outages kill the first attempt of every fallback chain.
    faulty: bool = False
    #: Inline shards mirroring both relations (0: none).
    shards: int = 0


configs = st.builds(
    Config,
    geometry=st.sampled_from(["rect", "polygon"]),
    index=st.sampled_from([NAMES, ("r",), ()]),
    cache=st.booleans(),
    interval=st.sampled_from(
        [False, True, IntervalSpec(UNIVERSE, 3), IntervalSpec(UNIVERSE, 6)]
    ),
    durable=st.booleans(),
    faulty=st.booleans(),
    shards=st.sampled_from([0, 2]),
)

#: Multiples of 2.5 put ties, shared edges and zero extents everywhere.
coordinates = st.one_of(st.integers(0, 40).map(lambda k: k * 2.5), st.floats(0.0, 100.0))
extents = st.one_of(st.integers(0, 8).map(lambda k: k * 2.5), st.floats(0.0, 20.0))


@st.composite
def boxes(draw, least: float = 0.0) -> Rect:
    x, y = draw(coordinates), draw(coordinates)
    return Rect(x, y, x + max(least, draw(extents)), y + max(least, draw(extents)))


def diamond(box: Rect) -> Polygon:
    """The polygon through ``box``'s side midpoints: same MBR, half the
    area, so MBR candidates exist that exact refinement rejects."""
    cx, cy = (box.xmin + box.xmax) / 2, (box.ymin + box.ymax) / 2
    return Polygon([
        Point(box.xmin, cy), Point(cx, box.ymin),
        Point(box.xmax, cy), Point(cx, box.ymax),
    ])


def geometries(kind: str):
    return boxes() if kind == "rect" else boxes(least=1.0).map(diamond)


def seeded_rects(rng: random.Random, count: int, span: float = 95.0,
                 extent: float = 25.0, dx: float = 0.0, dy: float = 0.0) -> list[Rect]:
    """``count`` rectangles in ``[0, span]^2`` with sides in ``[1, extent]``,
    translated by ``(dx, dy)``: the fixed workloads of pinned corners."""
    rects = []
    for _ in range(count):
        x, y = rng.uniform(0, span), rng.uniform(0, span)
        w, h = rng.uniform(1, extent), rng.uniform(1, extent)
        rects.append(Rect(x + dx, y + dy, x + w + dx, y + h + dy))
    return rects


def image(columns) -> tuple:
    return (
        bytes(columns.boxes), bytes(columns.ids), list(columns.geoms),
        list(columns.tids), columns.rects, columns.bounds,
    )


class Lattice:
    """The engine in one configuration, beside the model it must agree with.

    Every mutation commits through the service's :class:`StateManager`
    (directly, or through a session) and is logged in the model at the
    epoch it committed at; with shards on, it is mirrored into the fleet.
    Every read asserts its answer against the model.
    """

    def __init__(self, config: Config = Config(), rows=((), ())) -> None:
        self.config = config
        self.model = Model()
        self.oids = itertools.count()
        self.plan = FaultPlan(seed=0, read_outages={}) if config.faulty else None
        self.disk = FaultyDisk(self.plan) if config.faulty else SimulatedDisk()
        pool = BufferPool(self.disk, 4000, CostMeter())
        self.wal = WriteAheadLog(self.disk, CostMeter()) if config.durable else None
        schema = Schema([
            Column("oid", ColumnType.INT), Column("shape", COLUMN_TYPES[config.geometry]),
        ])
        self.cache = (
            QueryCache(byte_budget=CACHE_BUDGET, admission_threshold=0.0)
            if config.cache else None
        )
        self.executor = SpatialQueryExecutor(cache=self.cache, interval=config.interval)
        self.fleet = ShardRuntime(UNIVERSE, config.shards) if config.shards else None
        #: Per table, the fleet's logical tids to oids.
        self.fleet_oids: dict[str, dict] = {}
        relations = []
        for name, geoms in zip(NAMES, rows):
            rel = Relation(name, schema, pool, wal=self.wal)
            if name in config.index:
                rel.attach_index("shape", RTree(max_entries=4))
            for geom in geoms:
                rel.insert([next(self.oids), geom])
            self.model.load(name, rows_of(rel, key="oid"), rel.modification_count)
            if self.fleet is not None:
                self.fleet.load_relation(rel, "shape")
                self.fleet_oids[name] = {t.tid: t["oid"] for t in rel.scan()}
            relations.append(rel)
        self._serve(relations)

    def _serve(self, relations) -> None:
        self.rels = {rel.name: rel for rel in relations}
        self.state = StateManager()
        for rel in relations:
            self.state.register(rel)
        self.service = QueryService(self.state, executor=self.executor)
        self.service.attach_shards(self.fleet)
        self.sessions = (self.service.open_session(), self.service.open_session())

    def close(self) -> None:
        self.service.close()
        if self.fleet is not None:
            self.fleet.close()

    # -- writes ----------------------------------------------------------

    def insert(self, name: str, geom: Any, session=None) -> None:
        oid = next(self.oids)
        if session is None:
            _, epoch = self.state.write(name, lambda rel: rel.insert([oid, geom]))
        else:
            epoch = session.insert(name, [oid, geom])
        self.model.insert(name, oid, geom, epoch)
        if self.fleet is not None:
            self.fleet_oids[name][self.fleet.insert(name, [oid, geom])] = oid

    def delete(self, name: str, oid: int, session=None) -> None:
        if session is None:
            def run(rel):
                rel.delete(next(t.tid for t in rel.scan() if t["oid"] == oid))

            _, epoch = self.state.write(name, run)
        else:
            count, epoch = session.delete_where(name, lambda t: t["oid"] == oid)
            assert count == 1
        self.model.delete(name, oid, epoch)
        if self.fleet is not None:
            oids = self.fleet_oids[name]
            (tid,) = [tid for tid, o in oids.items() if o == oid]
            assert self.fleet.delete(name, tid) > 0
            del oids[tid]

    def recluster(self, name: str) -> None:
        """Rewrite the file in reverse scan order: every tid moves, no row."""
        self.state.write(name, lambda rel: rel.recluster([t.tid for t in rel.scan()][::-1]))

    def checkpoint(self) -> None:
        Checkpointer(self.wal, self.rels.values()).checkpoint()

    def crash(self) -> None:
        """Lose everything volatile, recover from the log, serve the result.

        The model keeps its own rows, re-based at the recovered epochs, so
        :meth:`check` holds the replay to them.  Recovery builds a fresh,
        fault-free disk.
        """
        relations, report = recover(self.disk, index_factories={
            (name, "shape"): lambda: RTree(max_entries=4) for name in self.config.index
        })
        assert report.pending_indexes == []
        self.disk, self.wal, self.plan = report.buffer_pool.disk, report.wal, None
        self.service.close()
        for name in NAMES:
            self.model.load(name, self.model.rows(name), relations[name].modification_count)
        self._serve([relations[name] for name in NAMES])

    # -- reads -----------------------------------------------------------

    @contextmanager
    def reading(self, *relations):
        """A step that only reads leaves every retained snapshot as it was."""
        kept = [(rel, rel.modification_count, rel.derived(SNAPSHOT)) for rel in relations]
        images = [columns is not None and image(columns) for _, _, columns in kept]
        yield
        for (rel, epoch, columns), before in zip(kept, images):
            if columns is not None and rel.modification_count == epoch:
                assert rel.derived(SNAPSHOT) is columns
                assert image(columns) == before

    def warm(self, admissions: int, cold, repeat, answer) -> None:
        """An admitted miss, asked again, is an exact hit that reads no
        page and gives the same ``answer``."""
        if self.cache is None or self.cache.stats.admissions == admissions:
            return
        meter = CostMeter()
        hit = repeat(meter)
        assert hit.strategy == "cached-exact"
        assert (meter.page_reads, meter.cache_hits) == (0, 1)
        assert answer(hit) == answer(cold)

    @staticmethod
    def interval_law(meter: CostMeter, want: list) -> None:
        """The tier probes whenever there are candidates (a true pair is
        one) and never saves an exact evaluation it did not probe for."""
        assert meter.interval_evals_saved + meter.theta_exact_evals >= meter.interval_probes
        assert meter.interval_probes > 0 or not want

    def select(self, name: str, window: Rect, theta, strategy: str = "auto",
               order: str = "bfs", session=None):
        rel = self.rels[name]
        admissions = self.cache.stats.admissions if self.cache else 0

        def run(meter):
            if session is not None:
                return session.select(name, "shape", window, theta,
                                      strategy=strategy, order=order, meter=meter)
            epoch = rel.modification_count
            return self.executor.select(rel, "shape", window, theta, strategy=strategy,
                                        order=order, meter=meter), epoch

        with self.reading(rel):
            result, epoch = run(CostMeter())
            self.warm(admissions, result, lambda meter: run(meter)[0],
                      lambda r: sorted(tid for tid, _ in r.matches))
        got = sorted(t["oid"] for _, t in result.matches)
        assert got == self.model.select(name, window, theta, epoch)
        return result, epoch, got

    def nearest(self, name: str, point: Point, k: int) -> None:
        rel = self.rels[name]
        with self.reading(rel):
            found = self.executor.nearest(rel, "shape", point, k=k)
        assert [d for d, _ in found] == pytest.approx(nearest(self.model.rows(name), point, k))
        for dist, t in found:
            assert min_distance(point, t["shape"]) == pytest.approx(dist)

    def strategies(self, name_r: str, name_s: str, theta) -> list[str]:
        """The executor strategies that can run this join, then ``auto``."""
        rel_r, rel_s = self.rels[name_r], self.rels[name_s]
        ops = JoinOperands(rel_r, "shape", rel_s, "shape", theta, join_index=(
            self.executor.join_index_for(rel_r, rel_s, "shape", "shape", theta)
        ))
        return [s.name for s in applicable(ops)] + ["auto"]

    def precompute_join_index(self, name_r: str, name_s: str, theta) -> None:
        self.executor.precompute_join_index(
            self.rels[name_r], self.rels[name_s], "shape", "shape", theta
        )

    def join(self, name_r: str, name_s: str, theta, strategy: str = "auto",
             order: str = "bfs", entry: str = "join"):
        rel_r, rel_s = self.rels[name_r], self.rels[name_s]
        operands = (rel_r, "shape", rel_s, "shape", theta)
        admissions = self.cache.stats.admissions if self.cache else 0
        armed = self.plan is not None and entry in ("execute_join", "plan_and_execute_join")
        if armed and rel_r.num_pages:
            # Outlasts the pool's retry budget: the first attempt dies.
            self.plan.read_outages[rel_r.page_ids[0]] = 8

        def run(meter):
            if entry == "session":
                return self.sessions[0].join(name_r, "shape", name_s, "shape", theta,
                                             strategy=strategy, meter=meter)
            epochs = (rel_r.modification_count, rel_s.modification_count)
            if entry == "join":
                return self.executor.join(*operands, strategy=strategy, order=order,
                                          meter=meter), epochs
            if entry == "execute_join":
                return self.executor.execute_join(
                    *operands, strategy=strategy, order=order, meter=meter)[0], epochs
            return self.executor.plan_and_execute_join(*operands, meter=meter)[0], epochs

        meter = CostMeter()
        with self.reading(rel_r, rel_s):
            try:
                result, epochs = run(meter)
            except ExecutionError:
                assert armed, "only the injected outages may exhaust the chain"
                return None
            finally:
                if armed:
                    self.plan.read_outages.clear()
            if entry in ("join", "session"):
                self.warm(admissions, result, lambda meter: run(meter)[0],
                          lambda r: sorted(r.pairs))
        got = sorted((rel_r.get(a)["oid"], rel_s.get(b)["oid"]) for a, b in result.pairs)
        want = self.model.join(name_r, name_s, theta, epochs)
        assert got == want, (result.strategy, entry)
        if entry == "join" and strategy != "auto" and not result.strategy.startswith("cached-"):
            # The tier runs on the partition sweep only.
            if JOIN_STRATEGIES[strategy].filters(self.config.interval, theta):
                self.interval_law(meter, want)
            else:
                assert meter.interval_probes == 0, strategy
        return result

    def shard_join(self, session=None) -> None:
        if session is not None:
            result = session.shard_join("r", "s", Overlaps())
        else:
            result = self.fleet.router.join("r", "s", Overlaps())
        oids_r, oids_s = self.fleet_oids["r"], self.fleet_oids["s"]
        want = self.model.join("r", "s", Overlaps())
        assert sorted((oids_r[a], oids_s[b]) for a, b in result.pairs) == want

    def shard_select(self, name: str, window: Rect, theta) -> None:
        result = self.fleet.router.select(name, window, theta)
        got = sorted(self.fleet_oids[name][tid] for tid, _ in result.matches)
        assert got == self.model.select(name, window, theta)

    def check(self) -> None:
        for name, rel in self.rels.items():
            rows = self.model.rows(name)
            assert rows_of(rel, key="oid") == rows
            if rel.has_index_on("shape"):
                tree = rel.index_on("shape")
                tree.check_invariants()
                assert len(tree) == len(rel) == len(rows)
        if self.cache is not None:
            self.cache.purge_stale()
            assert all(entry.fresh() for entry in self.cache.entries())
            assert self.cache.total_bytes <= CACHE_BUDGET or len(self.cache) == 1
            s = self.cache.stats
            assert s.probes == s.exact_hits + s.containment_hits + s.misses


class LatticeMachine(RuleBasedStateMachine):
    """Hypothesis drives :class:`Lattice`: one configuration, many steps."""

    lattice: Lattice | None = None

    @initialize(config=configs, data=st.data())
    def setup(self, config, data):
        rows = st.lists(geometries(config.geometry), max_size=10)
        self.lattice = Lattice(config, (data.draw(rows), data.draw(rows)))
        self.last_select = None

    def teardown(self):
        if self.lattice is not None:
            self.lattice.close()

    def _names(self, ok) -> list[str]:
        return [name for name, rel in self.lattice.rels.items() if ok(rel)]

    def _geometry(self, data):
        return data.draw(geometries(self.lattice.config.geometry))

    # -- writes (a clustered file is append-frozen) ------------------------

    @precondition(lambda self: self._names(lambda rel: not rel.is_clustered))
    @rule(data=st.data(), via_session=st.booleans())
    def insert(self, data, via_session):
        name = data.draw(st.sampled_from(self._names(lambda rel: not rel.is_clustered)))
        session = self.lattice.sessions[1] if via_session else None
        self.lattice.insert(name, self._geometry(data), session)

    @precondition(lambda self: self._names(len))
    @rule(data=st.data(), via_session=st.booleans())
    def delete(self, data, via_session):
        name = data.draw(st.sampled_from(self._names(len)))
        oid = data.draw(st.sampled_from(sorted(self.lattice.model.rows(name))))
        self.lattice.delete(name, oid, self.lattice.sessions[1] if via_session else None)

    @precondition(lambda self: self._names(len))
    @rule(data=st.data())
    def recluster(self, data):
        self.lattice.recluster(data.draw(st.sampled_from(self._names(len))))

    @precondition(lambda self: self.lattice.config.durable)
    @rule()
    def checkpoint(self):
        self.lattice.checkpoint()

    @precondition(lambda self: self.lattice.config.durable)
    @rule()
    def crash(self):
        self.lattice.crash()

    @precondition(lambda self: self.lattice.fleet is not None)
    @rule(shard_id=st.sampled_from([0, 1]))
    def kill_shard(self, shard_id):
        self.lattice.fleet.kill_shard(shard_id)

    @precondition(lambda self: self.lattice.cache is not None)
    @rule()
    def clear_cache(self):
        self.lattice.cache.clear()

    # -- reads -----------------------------------------------------------

    @rule(data=st.data(), name=st.sampled_from(NAMES), theta=st.sampled_from(SELECT_THETAS),
          order=st.sampled_from(["bfs", "dfs"]), via_session=st.booleans())
    def select(self, data, name, theta, order, via_session):
        tree = ["tree"] if self.lattice.rels[name].has_index_on("shape") else []
        strategy = data.draw(st.sampled_from(["auto", "scan"] + tree))
        self.last_select = (name, data.draw(boxes()), theta, strategy, order, via_session)
        self._select(*self.last_select)

    def _select(self, name, window, theta, strategy, order, via_session):
        # The session is looked up at every replay: a crash serves the
        # recovered relations through new sessions, and an old session
        # would still answer from the relations it was opened on.
        session = self.lattice.sessions[0] if via_session else None
        self.lattice.select(name, window, theta, strategy, order, session)

    @precondition(lambda self: self.last_select is not None)
    @rule(grow=st.booleans(), cuts=st.lists(st.integers(0, 4), min_size=4, max_size=4))
    def select_nested(self, grow, cuts):
        """The last selection again, its window grown around the old one
        or shrunk inside it: the cache's containment tier decides."""
        name, window, *rest = self.last_select
        if grow:
            a, b, c, d = (k * 10.0 for k in cuts)
            nested = Rect(window.xmin - a, window.ymin - b, window.xmax + c, window.ymax + d)
        else:  # at most 40% off each side
            w, h = window.width / 10, window.height / 10
            nested = Rect(window.xmin + cuts[0] * w, window.ymin + cuts[1] * h,
                          window.xmax - cuts[2] * w, window.ymax - cuts[3] * h)
        self._select(name, nested, *rest)

    @precondition(lambda self: self.lattice.config.index)
    @rule(data=st.data(), k=st.integers(1, 4))
    def nearest(self, data, k):
        name = data.draw(st.sampled_from(self.lattice.config.index))
        point = Point(data.draw(coordinates), data.draw(coordinates))
        self.lattice.nearest(name, point, k)

    @rule(theta=st.sampled_from(JOIN_THETAS))
    def precompute_join_index(self, theta):
        self.lattice.precompute_join_index("r", "s", theta)

    @rule(data=st.data(), theta=st.sampled_from(JOIN_THETAS),
          names=st.sampled_from([NAMES, NAMES[::-1], ("r", "r")]),
          order=st.sampled_from(["bfs", "dfs"]), entry=st.sampled_from(ENTRIES))
    def join(self, data, theta, names, order, entry):
        strategy = data.draw(st.sampled_from(self.lattice.strategies(*names, theta)))
        self.lattice.join(*names, theta, strategy, order, entry)

    @precondition(lambda self: self.lattice.fleet is not None)
    @rule(via_session=st.booleans())
    def shard_join(self, via_session):
        self.lattice.shard_join(self.lattice.sessions[0] if via_session else None)

    @precondition(lambda self: self.lattice.fleet is not None)
    @rule(data=st.data(), name=st.sampled_from(NAMES), theta=st.sampled_from(SELECT_THETAS))
    def shard_select(self, data, name, theta):
        self.lattice.shard_select(name, data.draw(boxes()), theta)

    @precondition(lambda self: self._names(lambda rel: len(rel) or not rel.is_clustered))
    @rule(data=st.data(), theta=st.sampled_from(SELECT_THETAS))
    def interleaved_write(self, data, theta):
        """Session 0 reads, session 1 inserts or deletes, session 0 reads
        again: the first answer is still the model's at its own epoch,
        the second sees the write."""
        lattice = self.lattice
        writes = [(name, "insert") for name in self._names(lambda rel: not rel.is_clustered)]
        writes += [(name, "delete") for name in self._names(len)]
        name, write = data.draw(st.sampled_from(writes))
        window = data.draw(boxes())
        first, second = lattice.sessions
        _, epoch, got = lattice.select(name, window, theta, session=first)
        if write == "insert":
            lattice.insert(name, self._geometry(data), second)
        else:
            lattice.delete(name, data.draw(st.sampled_from(sorted(lattice.model.rows(name)))), second)
        _, later, _ = lattice.select(name, window, theta, session=first)
        assert later > epoch
        assert got == lattice.model.select(name, window, theta, epoch)

    @invariant()
    def agrees_with_the_model(self):
        if self.lattice is not None:
            self.lattice.check()


LatticeTest = LatticeMachine.TestCase
# The example count comes from the hypothesis profile: ``suite`` in
# tier-1, ``soak`` in CI (tests/conftest.py).
LatticeTest.settings = settings(stateful_step_count=50)


class Script:
    """Stands in for ``st.data()``: each draw returns the next value."""

    def __init__(self, *values) -> None:
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


def test_nested_select_after_a_crash_reads_the_recovered_relation():
    """A shrunk failure of the machine, pinned: the replayed selection
    used the session opened before the crash, which still answered from
    the pre-crash relation and missed the row inserted after recovery."""
    machine = LatticeMachine()
    steps = [
        lambda: machine.setup(Config(durable=True),
                              Script([Rect(10, 10, 20, 20), Rect(30, 30, 40, 40)], [])),
        lambda: machine.delete(Script("r", 0), via_session=False),
        lambda: machine.select(Script("scan", Rect(0, 0, 100, 100)), name="r",
                               theta=Overlaps(), order="bfs", via_session=True),
        machine.checkpoint,
        machine.crash,
        lambda: machine.insert(Script("r", Rect(50, 50, 60, 60)), via_session=False),
        lambda: machine.select_nested(grow=False, cuts=[0, 0, 0, 0]),
    ]
    try:
        for step in steps:
            step()
            machine.agrees_with_the_model()
    finally:
        machine.teardown()



def test_partition_join_refines_the_tiers_ambiguous_pairs():
    """A corner the random draw reaches at few seeds, pinned: polygons,
    the tier on a coarse grid and an explicit ``partition`` join.  Each
    pair of diamonds shares only PARTIAL cells, so the tier must call it
    ambiguous and leave it to exact refinement: the first pair's boxes
    overlap while the diamonds do not, the second pair's diamonds nest."""
    lattice = Lattice(
        Config(geometry="polygon", interval=IntervalSpec(UNIVERSE, 3)),
        ([diamond(Rect(0, 0, 10, 10)), diamond(Rect(40, 40, 60, 60))],
         [diamond(Rect(8, 8, 18, 18)), diamond(Rect(45, 45, 55, 55))]),
    )
    try:
        assert len(lattice.join("r", "s", Overlaps(), "partition").pairs) == 1
        meter = CostMeter()
        lattice.executor.join(lattice.rels["r"], "shape", lattice.rels["s"], "shape",
                              Overlaps(), strategy="partition", meter=meter)
        assert meter.interval_probes == meter.theta_exact_evals == 2
    finally:
        lattice.close()
