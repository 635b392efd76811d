"""Regression tests for the join-index registry.

The registry used to key entries by ``Relation.name`` alone, so two
distinct relations sharing a name collided, and a mutated base relation
kept serving its stale precomputed index.  An index now lives in its
first operand's epoch-scoped memo, keyed by the second operand's
identity and carrying an ``EpochPin`` on it.
"""

import gc
import weakref

import pytest

from repro.core.executor import SpatialQueryExecutor
from repro.geometry.rect import Rect
from repro.predicates.theta import Overlaps

from tests import oracle
from tests.join.conftest import (
    kept_values,
    make_rect_relation,
)


@pytest.fixture
def executor():
    return SpatialQueryExecutor(memory_pages=200)


class TestIdentityKeys:
    def test_same_name_distinct_relations_do_not_collide(self, executor):
        """A registered index must never answer for a *different* relation
        that merely shares the name."""
        rel_r = make_rect_relation("r", 40, seed=1)
        rel_s = make_rect_relation("s", 40, seed=2)
        impostor_r = make_rect_relation("r", 40, seed=3)  # same name, other data
        theta = Overlaps()

        executor.precompute_join_index(rel_r, rel_s, "shape", "shape", theta)
        assert executor.join_index_for(rel_r, rel_s, "shape", "shape", theta) is not None
        assert (
            executor.join_index_for(impostor_r, rel_s, "shape", "shape", theta)
            is None
        )
        # Auto-pick for the impostor must not route through rel_r's index.
        res = executor.join(impostor_r, "shape", rel_s, "shape", theta)
        assert res.strategy != "join-index"
        assert sorted(res.pair_set()) == oracle.pairs(
            impostor_r, "shape", rel_s, "shape", theta
        )

    def test_both_relations_can_register_under_one_name(self, executor):
        rel_a = make_rect_relation("twin", 30, seed=4)
        rel_b = make_rect_relation("twin", 30, seed=5)
        rel_s = make_rect_relation("s", 30, seed=6)
        theta = Overlaps()
        executor.precompute_join_index(rel_a, rel_s, "shape", "shape", theta)
        executor.precompute_join_index(rel_b, rel_s, "shape", "shape", theta)
        ji_a = executor.join_index_for(rel_a, rel_s, "shape", "shape", theta)
        ji_b = executor.join_index_for(rel_b, rel_s, "shape", "shape", theta)
        assert ji_a is not None and ji_b is not None and ji_a is not ji_b


class TestStaleness:
    @pytest.mark.parametrize("mutate", ["insert", "delete", "recluster"])
    def test_mutation_invalidates_entry(self, executor, mutate):
        rel_r = make_rect_relation("r", 40, seed=7)
        rel_s = make_rect_relation("s", 40, seed=8)
        theta = Overlaps()
        executor.precompute_join_index(rel_r, rel_s, "shape", "shape", theta)

        if mutate == "insert":
            rel_r.insert([999, Rect(1, 1, 2, 2)])
        elif mutate == "delete":
            victim = next(iter(rel_s.scan())).tid
            rel_s.delete(victim)
        else:
            rel_r.recluster([t.tid for t in rel_r.scan()])

        assert executor.join_index_for(rel_r, rel_s, "shape", "shape", theta) is None
        # No derived value is reachable: the executor holds nothing, and
        # whatever rel_r still keeps is pinned to an operand that moved.
        assert not any(isinstance(v, dict) for v in vars(executor).values())
        assert not any(pin.fresh() for _ji, pin in kept_values(rel_r).values())

    def test_stale_entry_not_used_by_auto(self, executor):
        rel_r = make_rect_relation("r", 40, seed=9)
        rel_s = make_rect_relation("s", 40, seed=10)
        theta = Overlaps()
        executor.precompute_join_index(rel_r, rel_s, "shape", "shape", theta)
        rel_r.insert([999, Rect(0, 0, 100, 100)])  # overlaps everything

        res = executor.join(rel_r, "shape", rel_s, "shape", theta)
        assert res.strategy != "join-index"
        assert sorted(res.pair_set()) == oracle.pairs(
            rel_r, "shape", rel_s, "shape", theta
        )

    def test_reregistration_after_mutation(self, executor):
        rel_r = make_rect_relation("r", 40, seed=11)
        rel_s = make_rect_relation("s", 40, seed=12)
        theta = Overlaps()
        executor.precompute_join_index(rel_r, rel_s, "shape", "shape", theta)
        rel_r.insert([999, Rect(5, 5, 15, 15)])
        assert executor.join_index_for(rel_r, rel_s, "shape", "shape", theta) is None

        executor.precompute_join_index(rel_r, rel_s, "shape", "shape", theta)
        res = executor.join(
            rel_r, "shape", rel_s, "shape", theta, strategy="join-index"
        )
        assert sorted(res.pair_set()) == oracle.pairs(
            rel_r, "shape", rel_s, "shape", theta
        )


class TestLifetime:
    def test_a_registered_index_is_released_with_its_relations(self, executor):
        """The registry used to hold both operands strongly for the
        executor's lifetime."""
        rel_r = make_rect_relation("r", 20, seed=13)
        rel_s = make_rect_relation("s", 20, seed=14)
        executor.precompute_join_index(rel_r, rel_s, "shape", "shape", Overlaps())
        refs = weakref.ref(rel_r), weakref.ref(rel_s)
        del rel_r, rel_s
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_every_executor_finds_the_index(self, executor):
        """It is part of the data, as an attached R-tree is."""
        rel_r = make_rect_relation("r", 20, seed=15)
        rel_s = make_rect_relation("s", 20, seed=16)
        theta = Overlaps()
        ji = executor.precompute_join_index(rel_r, rel_s, "shape", "shape", theta)
        other = SpatialQueryExecutor(memory_pages=200)
        assert other.join_index_for(rel_r, rel_s, "shape", "shape", theta) is ji
