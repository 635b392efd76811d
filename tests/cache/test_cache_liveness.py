"""Regression: cache entries must not pin relations, nor trust ``id()``.

The original cache stored a *strong* ``Relation`` reference in every
entry and keyed entries on ``id(relation)``.  Two failure modes:

* a dropped relation stayed alive forever, pinned by its own cached
  answers (and their geometry payloads);
* after collection, ``id()`` can be recycled -- a new relation could
  alias a dead one's key and be served its stale results as "fresh".

Entries now hold relations by weak reference, key on the never-recycled
:attr:`Relation.uid`, and are purged when their referent dies.
"""

import gc
import weakref

from repro.cache import QueryCache
from repro.core.executor import SpatialQueryExecutor
from repro.geometry.rect import Rect
from repro.predicates.theta import Overlaps
from repro.workloads.assembly import build_indexed_relation


def cached_executor(budget: int = 1 << 20):
    cache = QueryCache(byte_budget=budget)
    return SpatialQueryExecutor(cache=cache), cache


def warm_select(executor, relation, window=Rect(0, 0, 400, 400)):
    return executor.select(relation, "shape", window, Overlaps(),
                           strategy="tree")


class TestRelationRelease:
    def test_cache_does_not_pin_a_dropped_relation(self):
        executor, cache = cached_executor()
        ir = build_indexed_relation(60, seed=3)
        relation = ir.relation
        warm_select(executor, relation)
        assert len(cache) == 1

        ref = weakref.ref(relation)
        del ir, relation
        gc.collect()
        # The regression: with a strong entry reference this stays alive.
        assert ref() is None

    def test_dead_entries_release_cached_geometry_bytes(self):
        executor, cache = cached_executor()
        ir = build_indexed_relation(60, seed=3)
        warm_select(executor, ir.relation)
        assert cache.total_bytes > 0

        del ir
        gc.collect()
        dropped = cache.purge_stale()
        assert dropped == 1
        assert len(cache) == 0
        assert cache.total_bytes == 0
        assert cache.stats.invalidations >= 1

    def test_dead_entries_purged_lazily_on_next_probe(self):
        cache = QueryCache(admission_threshold=0.0)
        executor = SpatialQueryExecutor(cache=cache)
        ir = build_indexed_relation(60, seed=3)
        other = build_indexed_relation(30, seed=4)
        window = Rect(0, 0, 50, 50)
        warm_select(executor, ir.relation)
        warm_select(executor, other.relation, window)
        assert len(cache) == 2
        del ir
        gc.collect()
        # No sweep and no admission: an exact hit is the next probe, and
        # the probe alone purges.
        assert warm_select(executor, other.relation, window).strategy == "cached-exact"
        live = other.relation.uid
        assert [shape[1] for shape in cache._groups] == [live]
        assert [key[1] for key in cache._entries] == [live]

    def test_join_entries_die_with_either_operand(self):
        executor, cache = cached_executor()
        ir_r = build_indexed_relation(40, seed=5)
        ir_s = build_indexed_relation(40, seed=6)
        executor.join(
            ir_r.relation, "shape", ir_s.relation, "shape", Overlaps(),
            strategy="tree",
        )
        assert len(cache) == 1
        del ir_s
        gc.collect()
        assert cache.purge_stale() == 1
        assert len(cache) == 0


class TestStableIdentity:
    def test_uid_is_never_recycled_across_instances(self):
        ir_a = build_indexed_relation(10, seed=1)
        uid_a = ir_a.relation.uid
        del ir_a
        gc.collect()
        ir_b = build_indexed_relation(10, seed=1)
        assert ir_b.relation.uid != uid_a

    def test_same_named_reload_is_never_served_the_old_answers(self):
        executor, cache = cached_executor()
        window = Rect(0, 0, 400, 400)

        ir_a = build_indexed_relation(60, seed=3)
        cold = warm_select(executor, ir_a.relation, window)
        del ir_a
        gc.collect()

        # A fresh relation -- same name, same construction -- must miss:
        # its uid differs, so the dead entry can never alias it.
        ir_b = build_indexed_relation(60, seed=7)
        result = warm_select(executor, ir_b.relation, window)
        assert not result.strategy.startswith("cached-")
        assert cold is not result

    def test_entries_keyed_on_uid_not_id(self):
        executor, cache = cached_executor()
        ir = build_indexed_relation(30, seed=2)
        warm_select(executor, ir.relation, Rect(0, 0, 100, 100))
        (key,) = [k for k in cache._entries]
        assert ir.relation.uid in key
        assert id(ir.relation) not in key
