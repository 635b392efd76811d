"""``plan_join`` is pinned field by field against the parent commit.

The planner reads each relation once (one columnar extraction) instead
of three ``list(rel.scan())`` passes.  Its sampling must not move: the
same ``random.Random(seed)`` draws in the same order (``r`` then ``s``
per pair, over rows in file order), the same data universe, hence the
same estimate, predicted costs, interval resolution and spec.  The
expected values below were produced by the three-scan planner; a change
in draw order or universe derivation shows up as a diff here.

``D_PAR`` and ``D_PAR+INT`` were re-pinned when ``D_PAR`` came to price
what runs: the operands' actual ``|R|`` and ``|S|`` instead of the
fitted tree's ``N``, and no page reads, because the sampler has just read
both column snapshots.  Every other pin is the three-scan planner's.
"""

import random

import pytest

from repro.core.optimizer import plan_join
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.intermediate import IntervalSpec
from repro.predicates.theta import Overlaps
from repro.relational.relation import Relation
from repro.relational.schema import Column, ColumnType, Schema
from repro.storage.buffer import BufferPool
from repro.storage.costs import CostMeter
from repro.storage.disk import SimulatedDisk

from tests.join.conftest import make_rect_relation

POLY_SCHEMA = Schema([Column("oid", ColumnType.INT), Column("shape", ColumnType.POLYGON)])


def make_polygon_relation(name: str, count: int, seed: int) -> Relation:
    pool = BufferPool(SimulatedDisk(), capacity=4000, meter=CostMeter())
    rel = Relation(name, POLY_SCHEMA, pool)
    rng = random.Random(seed)
    for i in range(count):
        center = Point(rng.uniform(20, 180), rng.uniform(20, 180))
        rel.insert([i, Polygon.regular(center, rng.uniform(4, 18), rng.randint(3, 9))])
    return rel


def relations(kind: str, seed: int):
    make = make_rect_relation if kind == "rect" else make_polygon_relation
    return make("r", 150, seed), make("s", 130, seed + 100)


def planned(kind: str, seed: int) -> dict:
    rel_r, rel_s = relations(kind, seed)
    plan = plan_join(
        rel_r, "shape", rel_s, "shape", Overlaps(), seed=seed, interval=True
    )
    res = plan.interval_resolution
    return {
        "strategy": plan.strategy,
        "estimate": (plan.estimate.p, plan.estimate.sample_pairs, plan.estimate.matches),
        "predicted_costs": plan.predicted_costs,
        "use_interval": plan.use_interval,
        "interval_resolution": (
            res.mbr_fraction, res.resolve_fraction, res.sample_pairs,
            res.candidates, res.resolved,
        ),
        "interval_spec": plan.interval_spec,
    }


EXPECTED = {
    ("rect", 1): {
        "strategy": "D_PAR",
        "estimate": (0.0075, 400, 3),
        "predicted_costs": {
            "D_I": 1680321.0,
            "D_PAR": 2423.8893696618593,
            "D_PAR+INT": 3397.6393696618593,
        },
        "use_interval": False,
        "interval_resolution": (0.01, 1.0, 200, 2, 2),
        "interval_spec": IntervalSpec(
            universe=Rect(
                xmin=0.4008955954045934,
                ymin=0.21060533511106927,
                xmax=109.27529032585423,
                ymax=107.78284182018231,
            ),
            level=6,
        ),
    },
    ("rect", 7): {
        "strategy": "D_PAR",
        "estimate": (0.005, 400, 2),
        "predicted_costs": {
            "D_I": 1680321.0,
            "D_PAR": 2375.1393696618593,
            "D_PAR+INT": 3446.3893696618593,
        },
        "use_interval": False,
        "interval_resolution": (0.01, 0.5, 200, 2, 1),
        "interval_spec": IntervalSpec(
            universe=Rect(
                xmin=0.1250769062041024,
                ymin=1.2727225943732545,
                xmax=107.50088879418072,
                ymax=106.28726766301862,
            ),
            level=6,
        ),
    },
    ("rect", 42): {
        "strategy": "D_PAR",
        "estimate": (0.0125, 400, 5),
        "predicted_costs": {
            "D_I": 1680321.0,
            "D_PAR": 2521.3893696618593,
            "D_PAR+INT": 3592.6393696618593,
        },
        "use_interval": False,
        "interval_resolution": (0.01, 0.5, 200, 2, 1),
        "interval_spec": IntervalSpec(
            universe=Rect(
                xmin=0.05718961279435053,
                ymin=0.5896083583993073,
                xmax=109.32292180014586,
                ymax=108.28964139107636,
            ),
            level=6,
        ),
    },
    ("polygon", 1): {
        "strategy": "D_PAR",
        "estimate": (0.0425, 400, 17),
        "predicted_costs": {
            "D_I": 1680321.0,
            "D_PAR": 3106.3893696618593,
            "D_PAR+INT": 3933.8893696618593,
        },
        "use_interval": False,
        "interval_resolution": (0.04, 0.625, 200, 8, 5),
        "interval_spec": IntervalSpec(
            universe=Rect(
                xmin=3.6818884241381227,
                ymin=7.306062295477595,
                xmax=192.90544645889693,
                ymax=191.29075981576923,
            ),
            level=6,
        ),
    },
    ("polygon", 7): {
        "strategy": "D_PAR",
        "estimate": (0.04, 400, 16),
        "predicted_costs": {
            "D_I": 1680321.0,
            "D_PAR": 3057.6393696618593,
            "D_PAR+INT": 3300.1393696618593,
        },
        "use_interval": False,
        "interval_resolution": (0.06, 1.0, 200, 12, 12),
        "interval_spec": IntervalSpec(
            universe=Rect(
                xmin=8.796844741634867,
                ymin=5.362526611463737,
                xmax=194.08260332370892,
                ymax=194.44954588501574,
            ),
            level=6,
        ),
    },
    ("polygon", 42): {
        "strategy": "D_PAR",
        "estimate": (0.0325, 400, 13),
        "predicted_costs": {
            "D_I": 1680321.0,
            "D_PAR": 2911.3893696618593,
            "D_PAR+INT": 3714.5143696618593,
        },
        "use_interval": False,
        "interval_resolution": (0.035, 0.7142857142857143, 200, 7, 5),
        "interval_spec": IntervalSpec(
            universe=Rect(
                xmin=7.272112680798637,
                ymin=7.7468580398084175,
                xmax=197.45114254802277,
                ymax=193.36720363899238,
            ),
            level=6,
        ),
    },
}


@pytest.mark.parametrize("kind", ["rect", "polygon"])
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_plan_matches_the_three_scan_planner(kind, seed):
    assert planned(kind, seed) == EXPECTED[kind, seed]


def test_planner_reads_each_relation_once():
    """One pass per relation: page fetches on the relations' own pool
    equal the page counts, not three times them."""
    rel_r, rel_s = relations("rect", 1)
    pools = {id(rel.buffer_pool): rel.buffer_pool for rel in (rel_r, rel_s)}
    before = sum(p.meter.page_reads + p.meter.buffer_hits for p in pools.values())
    plan_join(rel_r, "shape", rel_s, "shape", Overlaps(), interval=True)
    after = sum(p.meter.page_reads + p.meter.buffer_hits for p in pools.values())
    assert after - before == rel_r.num_pages + rel_s.num_pages


if __name__ == "__main__":  # regenerate EXPECTED: python -m tests.core.test_planner_parity
    for kind in ("rect", "polygon"):
        for seed in (1, 7, 42):
            print(f"    ({kind!r}, {seed}): {planned(kind, seed)!r},")
