"""The interval tier must not perturb anything but what it promises.

On a workload engineered to classify with *zero ambiguous pairs* --
cell-aligned 16x16 rects on an 8x8 grid of 8-unit cells, every candidate
pair either sharing a FULL cell (sure hit) or separated by at least two
cells (sure miss) -- enabling the filter must:

1. leave the answer byte-identical,
2. drive ``theta_exact_evals`` to exactly zero (every probe resolves),
3. leave every other meter counter byte-identical to the filter-off run
   -- the tier exchanges exact evaluations for probes and touches
   nothing else.

The partition sweep is the one strategy that runs the tier; a ``tree``
or ``zorder`` join under an interval setting must charge exactly what
its filter-off run charges.

The filter-off signatures are pinned as exact tuples like the
instrumentation pins in ``test_instrumentation_pinned.py``: if a
legitimate engine change shifts them, re-pin in the same commit and say
why in the message.
"""

import pytest

from repro.core.executor import SpatialQueryExecutor
from repro.geometry.rect import Rect
from repro.intermediate import IntervalSpec
from repro.predicates.theta import Overlaps
from repro.relational.relation import Relation
from repro.relational.schema import Column, ColumnType, Schema
from repro.storage.buffer import BufferPool
from repro.storage.costs import CostMeter
from repro.storage.disk import SimulatedDisk
from repro.trees.rtree import RTree

UNIVERSE = Rect(0.0, 0.0, 64.0, 64.0)
SPEC = IntervalSpec(universe=UNIVERSE, level=3)  # 8-unit cells

#: Lower-left corners of the 16x16 rects.  The cluster's pairwise
#: offsets are at most 16 (MBRs intersect, and aligned 16x16 rects that
#: intersect always share a FULL cell => sure hit); the three outliers
#: sit at least 32 away from everything in x or y (covers disjoint
#: => sure miss).  No pair can classify AMBIGUOUS.
POSITIONS = [
    (0, 0), (8, 0), (0, 8), (8, 8), (16, 0),
    (0, 16), (16, 8), (8, 16), (16, 16),
    (48, 0), (0, 48), (48, 48),
]

SCHEMA = Schema([Column("oid", ColumnType.INT), Column("shape", ColumnType.RECT)])

#: Filter-off baselines: label -> (pairs, page_reads, page_writes,
#: filter_evals, exact_evals).
PINNED = {
    "tree": (84, 6, 0, 181, 84),
    "zorder": (84, 6, 0, 23071, 84),
    "partition": (84, 6, 0, 109, 84),
}
#: The strategy that threads the tier; the others refine exactly under
#: any interval setting.
TIER = "partition"


def build_aligned_relation(name: str) -> Relation:
    pool = BufferPool(SimulatedDisk(), capacity=4000, meter=CostMeter())
    rel = Relation(name, SCHEMA, pool)
    for i, (x, y) in enumerate(POSITIONS):
        rel.insert([i, Rect(float(x), float(y), float(x + 16), float(y + 16))])
    rel.attach_index("shape", RTree(max_entries=4))
    return rel


@pytest.fixture(scope="module")
def workload():
    return build_aligned_relation("r"), build_aligned_relation("s")


def _join(executor, workload, strategy, **kwargs):
    rel_r, rel_s = workload
    meter = CostMeter()
    result = executor.join(
        rel_r, "shape", rel_s, "shape", Overlaps(),
        strategy=strategy, meter=meter, **kwargs,
    )
    return result, meter


@pytest.mark.parametrize("strategy", sorted(PINNED))
def test_filter_off_baseline_is_pinned(strategy, workload):
    result, meter = _join(SpatialQueryExecutor(memory_pages=4000), workload, strategy)
    signature = (
        len(result.pairs),
        meter.page_reads,
        meter.page_writes,
        meter.theta_filter_evals,
        meter.theta_exact_evals,
    )
    assert signature == PINNED[strategy], strategy
    assert meter.interval_probes == 0, strategy


@pytest.mark.parametrize("strategy", sorted(set(PINNED) - {TIER}))
def test_a_strategy_without_the_tier_ignores_it(strategy, workload):
    """A ``tree`` or ``zorder`` join under an interval setting runs, and
    charges, exactly what it runs with the tier off."""
    plain_result, plain_meter = _join(
        SpatialQueryExecutor(memory_pages=4000), workload, strategy
    )
    for setting in (True, SPEC):
        result, meter = _join(
            SpatialQueryExecutor(memory_pages=4000), workload, strategy,
            interval=setting,
        )
        assert meter.interval_probes == 0, (strategy, setting)
        assert sorted(result.pairs) == sorted(plain_result.pairs), (strategy, setting)
        assert meter.snapshot() == plain_meter.snapshot(), (strategy, setting)


@pytest.mark.parametrize("strategy", [TIER])
def test_zero_ambiguity_filter_run_is_neutral(strategy, workload):
    plain_result, plain_meter = _join(
        SpatialQueryExecutor(memory_pages=4000), workload, strategy
    )
    flt_result, flt_meter = _join(
        SpatialQueryExecutor(memory_pages=4000), workload, strategy,
        interval=SPEC,
    )

    # 1. Byte-identical answer.
    assert sorted(flt_result.pairs) == sorted(plain_result.pairs), strategy

    # 2. Every probe resolves: zero ambiguous pairs, zero exact evals.
    assert flt_meter.interval_probes > 0, strategy
    assert flt_meter.interval_evals_saved == flt_meter.interval_probes, strategy
    assert flt_meter.theta_exact_evals == 0, strategy
    # Every probe that resolved as a hit is a pair of the answer.
    assert flt_meter.interval_sure_hits <= flt_meter.interval_probes

    # 3. Everything the filter does not promise to change is identical.
    exchanged = {
        "theta_exact_evals", "interval_probes", "interval_sure_hits",
        "interval_evals_saved", "total",
    }
    plain_snap = plain_meter.snapshot()
    flt_snap = flt_meter.snapshot()
    for key, value in plain_snap.items():
        if key in exchanged:
            continue
        assert flt_snap[key] == value, (strategy, key)
    # The exchange itself balances: probes replace exactly the exact
    # evaluations the unfiltered run performed at the refine sites.
    assert (
        flt_meter.interval_probes
        >= plain_meter.theta_exact_evals
    ), strategy
