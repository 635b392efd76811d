"""The one epoch mechanism: ``EpochPin`` and the relation's derived-state memo.

"State derived from a relation's contents is good until the contents
move" is stated once, in ``repro.relational.relation``; the join-index
registry, the interval tables, the query cache and the server's snapshot
reads all sit on it.  The defect tests here each fail on the tree where
those four kept their own copy of the rule.
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

from repro.cache import QueryCache
from repro.core.executor import SpatialQueryExecutor
from repro.errors import RelationError
from repro.geometry.rect import Rect
from repro.intermediate import IntervalSpec
from repro.predicates.theta import Overlaps
from repro.relational.relation import EpochPin

from tests.join.conftest import kept_values, make_rect_relation

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
                strategy="zorder", interval=SPEC,
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
            strategy="zorder", interval=True,
        )
        # Each insert widens the data-fitted universe: a new grid.
        reach = 200.0 + 50.0 * epoch
        rel_r.insert([100 + epoch, Rect(reach, reach, reach + 5, reach + 5)])
        rel_s.insert([100 + epoch, Rect(-reach, -reach, 5 - reach, 5 - reach)])
    executor.join(
        rel_r, "shape", rel_s, "shape", Overlaps(),
        strategy="zorder", interval=True,
    )
    assert not any(isinstance(v, dict) for v in vars(executor).values())
    for rel in (rel_r, rel_s):
        (key,) = kept_values(rel)  # one table, at the current epoch
        assert key[0] == "intervals"
        assert len(kept_values(rel)[key]) == len(rel)


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
