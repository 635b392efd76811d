"""Tests for strategy III: the Valduriez join index."""

import pytest

from repro.errors import JoinError
from repro.join.join_index import JoinIndex
from repro.predicates.theta import Overlaps, WithinDistance
from repro.storage.costs import CostMeter

from tests import oracle
from tests.join.conftest import make_rect_relation


@pytest.fixture
def setup():
    rel_r = make_rect_relation("r", 60, seed=71)
    rel_s = make_rect_relation("s", 70, seed=72)
    theta = Overlaps()
    ji = JoinIndex.precompute(rel_r, rel_s, "shape", "shape", theta)
    return rel_r, rel_s, theta, ji


class TestPrecompute:
    def test_join_matches_brute_force(self, setup):
        rel_r, rel_s, theta, ji = setup
        res = ji.join()
        assert sorted(res.pair_set()) == oracle.pairs(rel_r, "shape", rel_s, "shape", theta)

    def test_forward_reverse_consistent(self, setup):
        *_, ji = setup
        ji.check_consistency()

    def test_build_charges_updates(self):
        rel_r = make_rect_relation("r", 10, seed=73)
        rel_s = make_rect_relation("s", 12, seed=74)
        meter = CostMeter()
        JoinIndex.precompute(rel_r, rel_s, "shape", "shape", Overlaps(), meter=meter)
        assert meter.update_computations == 10 * 12

    def test_double_load_rejected(self, setup):
        *_, ji = setup
        with pytest.raises(JoinError):
            ji.load_pairs([])


class TestLookup:
    def test_partners_of_r(self, setup):
        rel_r, rel_s, theta, ji = setup
        for r in rel_r.scan():
            want = oracle.tids(rel_s, "shape", r["shape"], theta)
            assert sorted(ji.partners_of_r(r.tid)) == want

    def test_select_fetches_matching_tuples(self, setup):
        rel_r, rel_s, theta, ji = setup
        some_r = next(rel_r.scan())
        res = ji.select(some_r.tid)
        assert sorted(res.tids) == oracle.tids(rel_s, "shape", some_r["shape"], theta)

    def test_select_charges_index_io(self, setup):
        rel_r, *_ , ji = setup
        meter = CostMeter()
        ji.select(next(rel_r.scan()).tid, meter=meter)
        assert meter.page_reads >= ji.height - 1


class TestMaintenance:
    def test_insert_r_discovers_new_pairs(self, setup):
        rel_r, rel_s, theta, ji = setup
        before = len(ji)
        # A rectangle overlapping everything: one new pair per S tuple.
        new = rel_r.insert([999, __import__("repro.geometry", fromlist=["Rect"]).Rect(0, 0, 110, 110)])
        added = ji.insert_r(new)
        assert added == len(rel_s)
        assert len(ji) == before + added
        ji.check_consistency()

    def test_insert_r_charges_full_scan(self, setup):
        rel_r, rel_s, theta, ji = setup
        from repro.geometry import Rect

        new = rel_r.insert([1000, Rect(0, 0, 1, 1)])
        meter = CostMeter()
        ji.insert_r(new, meter=meter)
        # |S| update computations + a full page scan of S (the U_III terms).
        assert meter.update_computations == len(rel_s)
        assert meter.page_reads == rel_s.num_pages

    def test_insert_s_symmetric(self, setup):
        rel_r, rel_s, theta, ji = setup
        from repro.geometry import Rect

        new = rel_s.insert([999, Rect(0, 0, 110, 110)])
        added = ji.insert_s(new)
        assert added == len(rel_r) - 0  # every R tuple overlaps
        ji.check_consistency()

    def test_remove_r_drops_pairs(self, setup):
        rel_r, rel_s, theta, ji = setup
        victim = next(rel_r.scan())
        partners = len(ji.partners_of_r(victim.tid))
        removed = ji.remove_r(victim.tid)
        assert removed == partners
        assert ji.partners_of_r(victim.tid) == []
        ji.check_consistency()

    def test_unstored_tuple_rejected(self, setup):
        rel_r, *_ , ji = setup
        from repro.geometry import Rect
        from repro.relational.tuples import RelTuple

        floating = RelTuple(rel_r.schema, [1, Rect(0, 0, 1, 1)])
        with pytest.raises(JoinError):
            ji.insert_r(floating)


class TestStructure:
    def test_height_reasonable(self, setup):
        *_, ji = setup
        assert 1 <= ji.height <= 3

    def test_within_distance_index(self):
        rel_r = make_rect_relation("r", 30, seed=75)
        rel_s = make_rect_relation("s", 30, seed=76)
        theta = WithinDistance(20.0)
        ji = JoinIndex.precompute(rel_r, rel_s, "shape", "shape", theta)
        assert sorted(ji.join().pair_set()) == oracle.pairs(
            rel_r, "shape", rel_s, "shape", theta
        )
