"""The one epoch mechanism: ``EpochPin`` and the relation's derived-state memo.

"State derived from a relation's contents is good until the contents
move" is stated once, in ``repro.relational.relation``; the join-index
registry, the interval tables, the retained column snapshots, the query
cache and the server's snapshot reads all sit on it.  The defect tests
here each fail on the tree where the first four kept their own copy of
the rule.
"""

from __future__ import annotations

import gc
import itertools
import threading
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

import repro.relational.columns as columns_mod
from repro.cache import QueryCache
from repro.core.executor import SpatialQueryExecutor
from repro.core.optimizer import plan_join
from repro.costmodel.estimation import (
    estimate_interval_resolution,
    estimate_join_selectivity,
)
from repro.errors import RelationError
from repro.faults import FaultPlan, FaultyDisk
from repro.geometry.rect import Rect
from repro.intermediate import IntervalSpec
from repro.predicates.theta import Overlaps
from repro.relational.columns import column_snapshot
from repro.relational.relation import EpochPin, Relation
from repro.storage.buffer import BufferPool
from repro.storage.costs import CostMeter
from repro.storage.disk import SimulatedDisk
from repro.wal import WriteAheadLog, recover
from repro.workloads.assembly import build_indexed_relation

from tests import oracle
from tests.join.conftest import RECT_SCHEMA, kept_values, make_rect_relation

SPEC = IntervalSpec(universe=Rect(0.0, 0.0, 120.0, 120.0), level=4)


# ----------------------------------------------------------------------
# EpochPin
# ----------------------------------------------------------------------

class TestEpochPin:
    def test_pins_now_by_default_and_moves_with_any_mutation(self):
        rel = make_rect_relation("r", 4, seed=1)
        pin = EpochPin.of(rel)
        assert pin.fresh() and pin.epoch_of(rel) == rel.modification_count
        rel.bump_epoch()
        assert not pin.fresh()

    @given(offset=st.integers(min_value=-3, max_value=3))
    def test_explicit_epochs_are_honoured(self, offset):
        rel = make_rect_relation("r", 4, seed=1)
        pin = EpochPin.of(rel, epochs=[rel.modification_count + offset])
        assert pin.epoch_of(rel) == rel.modification_count + offset
        assert pin.fresh() == (offset == 0)

    def test_every_operand_must_hold_still(self):
        rel_r = make_rect_relation("r", 4, seed=1)
        rel_s = make_rect_relation("s", 4, seed=2)
        pin = EpochPin.of(rel_r, rel_s)
        assert pin.fresh()
        rel_s.insert([99, Rect(1, 1, 2, 2)])
        assert not pin.fresh()
        assert pin.epoch_of(rel_s) == rel_s.modification_count - 1

    def test_a_dead_referent_is_not_fresh_and_is_announced(self):
        rel = make_rect_relation("r", 4, seed=1)
        deaths = []
        pin = EpochPin.of(rel, on_death=deaths.append)
        del rel
        gc.collect()
        assert not pin.fresh()
        assert deaths == [pin.refs[0]]

    def test_epoch_of_a_stranger_raises(self):
        rel = make_rect_relation("r", 4, seed=1)
        stranger = make_rect_relation("r", 4, seed=1)
        with pytest.raises(RelationError, match="not in this pin"):
            EpochPin.of(rel).epoch_of(stranger)


# ----------------------------------------------------------------------
# The memo, against a model
# ----------------------------------------------------------------------

KEYS = st.sampled_from(["a", "b", ("intervals", "shape", SPEC)])


class DerivedStateMachine(RuleBasedStateMachine):
    """Every way an epoch moves x every memo operation.

    ``model`` is what the memo must hold: emptied by any move of
    ``modification_count``, filled by a store or a build at the current
    epoch.  A value handed out was therefore stored or built at the
    current epoch, and ``build`` ran at most once per ``(key, epoch)``.
    """

    def __init__(self):
        super().__init__()
        self.rel = make_rect_relation("m", 5, seed=1)
        self.model: dict = {}
        self.builds: Counter = Counter()
        self.tokens = itertools.count()

    def moved(self):
        self.model.clear()

    # -- what moves an epoch -------------------------------------------

    @precondition(lambda self: not self.rel.is_clustered)  # append-only file
    @rule()
    def insert(self):
        self.rel.insert([next(self.tokens) + 1000, Rect(1, 1, 2, 2)])
        self.moved()

    @rule()
    def delete(self):
        first = next(iter(self.rel.scan()), None)
        if first is not None:
            self.rel.delete(first.tid)
            self.moved()

    @rule()
    def recluster(self):
        self.rel.recluster([t.tid for t in self.rel.scan()][::-1])
        self.moved()

    @rule(count=st.integers(min_value=1, max_value=3))
    def bump_epoch(self, count):
        self.rel.bump_epoch(count)
        self.moved()

    # -- the three operations ------------------------------------------

    @rule(key=KEYS)
    def store(self, key):
        value = ("stored", next(self.tokens))
        self.rel.keep_derived(key, value, self.rel.modification_count)
        self.model[key] = value

    @rule(key=KEYS, age=st.integers(min_value=1, max_value=3))
    def store_late(self, key, age):
        """A value derived from an epoch that has since moved is not kept."""
        self.rel.keep_derived(
            key, ("late", next(self.tokens)), self.rel.modification_count - age
        )

    @rule(key=KEYS)
    def lookup(self, key):
        assert self.rel.derived(key) == self.model.get(key)

    @rule(key=KEYS)
    def build_once(self, key):
        epoch = self.rel.modification_count

        def build():
            self.builds[key, epoch] += 1
            return ("built", next(self.tokens))

        value = self.rel.derive(key, build)
        assert value == self.model.setdefault(key, value)
        assert self.builds[key, epoch] <= 1

    @rule(key=KEYS)
    def build_under_a_writer(self, key):
        """The caller gets its value; the memo does not keep it."""

        def build():
            self.rel.bump_epoch()
            self.moved()
            return ("torn", next(self.tokens))

        value = self.rel.derive(key, build)
        if key in self.model:  # kept at this epoch: nothing built or moved
            assert value == self.model[key]
        else:
            assert value[0] == "torn" and self.rel.derived(key) is None

    @invariant()
    def the_memo_is_the_model(self):
        assert kept_values(self.rel) == self.model


DerivedStateTest = DerivedStateMachine.TestCase
DerivedStateTest.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)


def test_a_move_releases_every_value_at_the_next_lookup():
    class Table:
        pass

    rel = make_rect_relation("r", 4, seed=1)
    rel.keep_derived("a", Table(), rel.modification_count)
    rel.keep_derived("b", Table(), rel.modification_count)
    refs = [weakref.ref(rel.derived(key)) for key in "ab"]
    rel.insert([99, Rect(1, 1, 2, 2)])
    assert rel.derived("anything") is None
    assert [ref() for ref in refs] == [None, None]  # released, not just refused


def test_a_value_derived_with_a_partner_is_good_until_either_moves():
    rel = make_rect_relation("r", 4, seed=1)
    partner = make_rect_relation("s", 4, seed=2)
    builds = itertools.count()

    def derive():
        return rel.derive_with("k", partner, lambda: next(builds))

    assert derive() == derive() == 0
    partner.insert([99, Rect(1, 1, 2, 2)])
    assert derive() == derive() == 1
    rel.insert([99, Rect(1, 1, 2, 2)])
    assert derive() == derive() == 2

    def moving_build():
        rel.insert([100, Rect(3, 3, 4, 4)])  # a writer inside the build
        return "stale"

    assert rel.derive_with("moved", partner, moving_build) == "stale"
    assert rel.derived("moved") is None  # returned, never kept


# ----------------------------------------------------------------------
# The memo under threads
# ----------------------------------------------------------------------

class TestConcurrency:
    def test_two_threads_asking_for_a_missing_key_build_once(self):
        rel = make_rect_relation("r", 4, seed=1)
        building, asking = threading.Event(), threading.Event()
        calls = []

        def build():
            calls.append(threading.current_thread().name)
            building.set()
            assert asking.wait(30)  # the other thread is at the door
            return object()

        got = {}

        def first():
            got["first"] = rel.derive("k", build)

        def second():
            asking.set()
            got["second"] = rel.derive("k", build)

        threads = [threading.Thread(target=first, name="first")]
        threads[0].start()
        assert building.wait(30)  # `first` is inside build
        threads.append(threading.Thread(target=second, name="second"))
        threads[1].start()
        for t in threads:
            t.join(30)
        assert calls == ["first"]
        assert got["first"] is got["second"] is rel.derived("k")

    def test_a_build_may_consult_its_own_relations_memo(self):
        rel = make_rect_relation("r", 4, seed=1)
        rel.keep_derived("columns", [1, 2, 3], rel.modification_count)
        table = rel.derive("table", lambda: sum(rel.derive("columns", list)))
        assert table == 6

    def test_a_writer_inside_build_gets_its_value_and_leaves_nothing(self):
        rel = make_rect_relation("r", 4, seed=1)

        def build():
            rel.insert([99, Rect(1, 1, 2, 2)])  # the relation moves mid-build
            return "torn"

        assert rel.derive("k", build) == "torn"
        assert rel.derived("k") is None and kept_values(rel) == {}

    def test_one_rasterisation_does_not_stall_an_unrelated_interval_join(
        self, monkeypatch
    ):
        """One executor, two sessions, disjoint operands: the first is
        parked inside ``rasterize``; the second must finish regardless."""
        import repro.intermediate.store as store

        a = [make_rect_relation(n, 12, seed=s) for n, s in (("a1", 1), ("a2", 2))]
        b = [make_rect_relation(n, 12, seed=s) for n, s in (("b1", 3), ("b2", 4))]
        parked_on = {t["shape"] for rel in a for t in rel.scan()}
        entered, release = threading.Event(), threading.Event()
        real = store.rasterize

        def rasterize(geom, universe, level):
            if geom in parked_on:
                entered.set()
                assert release.wait(60)
            return real(geom, universe, level)

        monkeypatch.setattr(store, "rasterize", rasterize)
        executor = SpatialQueryExecutor()
        done = {}

        def session(name, rel_r, rel_s):
            done[name] = executor.join(
                rel_r, "shape", rel_s, "shape", Overlaps(),
                strategy="partition", interval=SPEC,
            )

        slow = threading.Thread(target=session, args=("a", *a))
        fast = threading.Thread(target=session, args=("b", *b))
        slow.start()
        assert entered.wait(30)
        fast.start()
        fast.join(20)
        try:
            assert "b" in done and "a" not in done
        finally:
            release.set()
            slow.join(30)
            fast.join(30)
        assert set(done) == {"a", "b"}


# ----------------------------------------------------------------------
# What the consumers no longer leak
# ----------------------------------------------------------------------

def test_interval_joins_across_epochs_leave_only_current_tables():
    """Five epochs used to leave five per-universe stores, holding ten
    whole rasterised tables, on the executor for its lifetime."""
    rel_r = make_rect_relation("r", 15, seed=1)
    rel_s = make_rect_relation("s", 15, seed=2)
    executor = SpatialQueryExecutor()
    for epoch in range(5):
        executor.join(
            rel_r, "shape", rel_s, "shape", Overlaps(),
            strategy="partition", interval=True,
        )
        # Each insert widens the data-fitted universe: a new grid.
        reach = 200.0 + 50.0 * epoch
        rel_r.insert([100 + epoch, Rect(reach, reach, reach + 5, reach + 5)])
        rel_s.insert([100 + epoch, Rect(-reach, -reach, 5 - reach, 5 - reach)])
    executor.join(
        rel_r, "shape", rel_s, "shape", Overlaps(),
        strategy="partition", interval=True,
    )
    assert not any(isinstance(v, dict) for v in vars(executor).values())
    for rel in (rel_r, rel_s):
        kept = kept_values(rel)
        # One table, at the current epoch, beside the column it was built off.
        (key,) = kept.keys() - {("columns", "shape")}
        assert key[0] == "intervals"
        assert len(kept[key]) == len(kept["columns", "shape"]) == len(rel)


# ----------------------------------------------------------------------
# The retained column snapshot
# ----------------------------------------------------------------------

SNAPSHOT = ("columns", "shape")


def partition(rel_r, rel_s, **options):
    """A partition join, held to the model; returns its meter."""
    meter = CostMeter()
    result = SpatialQueryExecutor().join(
        rel_r, "shape", rel_s, "shape", Overlaps(),
        strategy="partition", meter=meter, **options,
    )
    assert result.pairs == oracle.pairs(rel_r, "shape", rel_s, "shape", Overlaps())
    return meter


def io(meter):
    return meter.page_reads, meter.buffer_hits


MOVES = {
    "insert": lambda rel: rel.insert([999, Rect(5.0, 5.0, 60.0, 60.0)]),
    "delete": lambda rel: rel.delete(next(iter(rel.scan())).tid),
    "recluster": lambda rel: rel.recluster([t.tid for t in rel.scan()][::-1]),
    "bump_epoch": lambda rel: rel.bump_epoch(),
}


@pytest.mark.parametrize("move", sorted(MOVES))
def test_a_moved_operand_is_read_again_and_an_unmoved_one_is_not(move):
    rel_r = make_rect_relation("r", 60, seed=1)
    rel_s = make_rect_relation("s", 50, seed=2)
    pages = rel_r.num_pages + rel_s.num_pages
    assert io(partition(rel_r, rel_s)) == (pages, 0)
    stale = rel_r.derived(SNAPSHOT)
    assert io(partition(rel_r, rel_s)) == (0, pages)
    MOVES[move](rel_r)
    meter = partition(rel_r, rel_s)
    assert io(meter) == (rel_r.num_pages, rel_s.num_pages)
    assert rel_r.derived(SNAPSHOT) is not stale
    assert len(rel_r.derived(SNAPSHOT)) == len(rel_r)


def test_recovered_relations_are_read_again():
    """Recovery rebuilds relations as new objects on a new disk: nothing
    retained before the crash is reachable from them."""
    disk = SimulatedDisk()
    meter = CostMeter()
    pool = BufferPool(disk, 4000, meter)
    pool.wal = wal = WriteAheadLog(disk, meter)
    before = {}
    for name, seed in (("r", 1), ("s", 2)):
        before[name] = Relation(name, RECT_SCHEMA, pool, wal=wal)
        donor = make_rect_relation(name, 40, seed=seed)
        before[name].insert_all(t.values for t in donor.scan())
    partition(before["r"], before["s"])
    assert before["r"].derived(SNAPSHOT) is not None
    before["r"].insert([999, Rect(5.0, 5.0, 60.0, 60.0)])  # logged, then the crash
    after, _report = recover(disk)
    assert after["r"].derived(SNAPSHOT) is None
    cold = partition(after["r"], after["s"])
    assert len(after["r"].derived(SNAPSHOT)) == 41
    assert io(cold) == (after["r"].num_pages + after["s"].num_pages, 0)


def test_a_writer_inside_the_snapshot_build_gets_its_rows_and_leaves_nothing(
    monkeypatch,
):
    rel = make_rect_relation("r", 30, seed=1)
    real = columns_mod.extract_columns

    def torn(relation, column, pool):
        columns = real(relation, column, pool)
        relation.insert([999, Rect(1, 1, 2, 2)])  # the relation moves mid-build
        return columns

    monkeypatch.setattr(columns_mod, "extract_columns", torn)
    assert len(column_snapshot(rel, "shape")) == 30
    assert rel.derived(SNAPSHOT) is None and kept_values(rel) == {}


def test_planning_and_joining_one_pair_from_two_threads_builds_once(monkeypatch):
    rel_r = make_rect_relation("r", 40, seed=1)
    rel_s = make_rect_relation("s", 40, seed=2)
    building, asking = threading.Event(), threading.Event()
    real = columns_mod.extract_columns
    built = []

    def extract(relation, column, pool):
        built.append(relation.name)
        building.set()
        assert asking.wait(30)  # the joiner is at the door
        return real(relation, column, pool)

    monkeypatch.setattr(columns_mod, "extract_columns", extract)
    got = {}

    def planner():
        got["plan"] = plan_join(rel_r, "shape", rel_s, "shape", Overlaps())

    def joiner():
        asking.set()
        got["join"] = partition(rel_r, rel_s)

    threads = [threading.Thread(target=planner)]
    threads[0].start()
    assert building.wait(30)  # the planner is inside r's build
    threads.append(threading.Thread(target=joiner))
    threads[1].start()
    for t in threads:
        t.join(30)
        assert not t.is_alive()
    assert sorted(built) == ["r", "s"]
    meter = got["join"]
    # The join read, at most, the operand the planner had not reached.
    assert meter.page_reads + meter.buffer_hits == rel_r.num_pages + rel_s.num_pages
    assert meter.buffer_hits >= rel_r.num_pages


def test_a_build_that_dies_on_storage_keeps_nothing_and_the_chain_falls_back():
    # An 8-access outage on r's first page outlasts the pool's retry
    # budget: the partition attempt dies inside the snapshot build.
    plan = FaultPlan(seed=1, read_outages={})
    disk = FaultyDisk(plan)
    rel_r = build_indexed_relation(60, seed=1, disk=disk, name="r").relation
    rel_s = build_indexed_relation(60, seed=2, disk=disk, name="s").relation
    plan.read_outages[rel_r.page_ids[0]] = 8
    result, report = SpatialQueryExecutor().execute_join(
        rel_r, "shape", rel_s, "shape", Overlaps(), strategy="partition"
    )
    assert [(a.strategy, a.ok) for a in report.attempts] == [
        ("partition", False), ("tree", True),
    ]
    assert report.attempts[0].error_type == "TransientStorageError"
    assert kept_values(rel_r) == {} and kept_values(rel_s) == {}
    assert sorted(result.pairs) == oracle.pairs(
        rel_r, "shape", rel_s, "shape", Overlaps()
    )
    # The outage is spent: the next partition join builds, and reads.
    assert io(partition(rel_r, rel_s)) == (rel_r.num_pages + rel_s.num_pages, 0)


def test_consumers_leave_a_retained_snapshot_byte_identical():
    """The snapshot is shared, so it is read-only: nothing that joins,
    plans or estimates off it -- and no shard worker, whose own tables
    are the only ``Columns`` ever appended to -- may write to it."""
    from repro.shard import ShardRuntime

    rel_r = make_rect_relation("r", 80, seed=1)
    rel_s = make_rect_relation("s", 70, seed=2)
    partition(rel_r, rel_s)
    kept = {rel.name: rel.derived(SNAPSHOT) for rel in (rel_r, rel_s)}
    image = {
        name: (bytes(c.boxes), bytes(c.ids), list(c.geoms), c.bounds)
        for name, c in kept.items()
    }
    executor = SpatialQueryExecutor()
    join = (rel_r, "shape", rel_s, "shape", Overlaps())
    for interval in (False, True, SPEC):
        partition(rel_r, rel_s, interval=interval, workers=2)
        executor.join(*join, strategy="zorder", interval=interval)
        executor.plan_and_execute_join(*join, interval=interval)
    estimate_join_selectivity(*join, sample_pairs=50)
    estimate_interval_resolution(*join[:4], SPEC, sample_pairs=50)
    with ShardRuntime(Rect(0.0, 0.0, 120.0, 120.0), 2) as fleet:
        fleet.load_relation(rel_r, "shape")
        fleet.load_relation(rel_s, "shape")
        fleet.delete("r", fleet.insert("r", [999, Rect(1, 1, 2, 2)]))
        fleet.insert("s", [999, Rect(1, 1, 2, 2)])
        fleet.router.join("r", "s", Overlaps())
    for rel in (rel_r, rel_s):
        columns = rel.derived(SNAPSHOT)
        assert columns is kept[rel.name]
        assert (
            bytes(columns.boxes), bytes(columns.ids), columns.geoms, columns.bounds
        ) == image[rel.name]


def test_dead_relations_leave_no_empty_groups_behind():
    cache = QueryCache(admission_threshold=0.0)
    executor = SpatialQueryExecutor(cache=cache)
    relations = [make_rect_relation("r", 10, seed=seed) for seed in range(20)]
    for rel in relations:
        executor.select(rel, "shape", Rect(0, 0, 120, 120), Overlaps())
    assert len(cache) == 20
    del relations, rel
    gc.collect()
    assert cache.purge_stale() == 20
    assert len(cache) == 0 and cache._groups == {}
