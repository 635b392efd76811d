"""The join-strategy registry is the one place a strategy is declared.

Three groups: the *one-file property* (a descriptor dropped into
``JOIN_STRATEGIES`` reaches every consumer with no other module
touched), the *table invariants* (fallback order and refusal texts are
the ones the engine had before the registry existed, and every strategy
the planner may pick is priced), and the structural pins that keep the
strategy tables from growing back in the consumers, and Table 3's units
out of the runtime.
"""

import ast
import re
from pathlib import Path

import pytest

import repro.core.executor as executor_module
from repro.cli import build_parser
from repro.core import SpatialQueryExecutor, StrategyComparison, plan_join
from repro.core.strategies import (
    JOIN_STRATEGIES,
    JoinOperands,
    JoinStrategy,
    applicable,
)
from repro.costmodel.profile import WORK_KINDS, seconds
from repro.errors import ExecutionError, JoinError
from repro.faults import FaultPlan, FaultyDisk
from repro.geometry.rect import Rect
from repro.join.nested_loop import nested_loop_join
from repro.predicates.theta import Overlaps, WithinDistance
from repro.workloads.assembly import build_indexed_relation

from tests import oracle
from tests.join.conftest import (
    kept_values,
    make_rect_relation,
    rtree_over,
)

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The Section 4 model names the planner once priced in Table 3's units.
TABLE_3_MODELS = {"D_I", "D_IIa", "D_IIb", "D_III", "D_PAR", "D_INL", "D_INL'"}


@pytest.fixture
def indexed_pair():
    rel_r = make_rect_relation("r", 100, seed=111)
    rel_s = make_rect_relation("s", 90, seed=112)
    rtree_over(rel_r, "shape")
    rtree_over(rel_s, "shape")
    return rel_r, rel_s


# ----------------------------------------------------------------------
# (i) the one-file property
# ----------------------------------------------------------------------

def _probe_run(ctx, ops):
    return nested_loop_join(
        ops.rel_r, ops.rel_s, ops.column_r, ops.column_s, ops.theta,
        memory_pages=ctx.memory_pages, meter=ctx.meter,
    )


PROBE = JoinStrategy("probe", _probe_run, price=lambda ops, p, memory_pages: {"io": 1e12})


def test_a_registered_descriptor_reaches_every_consumer(monkeypatch, indexed_pair):
    monkeypatch.setitem(JOIN_STRATEGIES, "probe", PROBE)
    rel_r, rel_s = indexed_pair
    theta = Overlaps()
    args = (rel_r, "shape", rel_s, "shape", theta)
    expected = oracle.pairs(*args)
    executor = SpatialQueryExecutor()

    assert executor.join(*args, strategy="probe").pair_set() == set(expected)

    plan = plan_join(*args)
    assert plan.predicted_seconds["probe"] == seconds({"io": 1e12})
    result, report = executor.execute_join(*args, strategy="probe", plan=plan)
    assert result.pair_set() == set(expected)
    assert report.strategy == "probe"
    assert report.drift.row("probe").priced == "probe"

    comparison = StrategyComparison().compare_join(*args, check_drift=True)
    assert comparison.row("probe").matches == len(expected)
    assert comparison.drift.row("probe").predicted == seconds({"io": 1e12})

    parsed = build_parser().parse_args(["trace", "--strategy", "probe"])
    assert parsed.strategy == "probe"


def test_without_the_descriptor_the_name_is_unknown_everywhere(indexed_pair):
    rel_r, rel_s = indexed_pair
    with pytest.raises(JoinError, match="unknown join strategy 'probe'"):
        SpatialQueryExecutor().join(
            rel_r, "shape", rel_s, "shape", Overlaps(), strategy="probe"
        )
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace", "--strategy", "probe"])


# ----------------------------------------------------------------------
# (ii) table invariants
# ----------------------------------------------------------------------

def test_fallback_links_in_table_order():
    """The chain the executor walks is the registry's fallback links in
    table order: with every link failing on a lost page, the report
    lists them all, whichever link was requested first."""
    links = [s.name for s in JOIN_STRATEGIES.values() if s.fallback]
    assert links == ["partition", "tree", "zorder", "scan"]
    # A z-order attempt takes the data universe through the relation's
    # own pool, which still holds the lost page, and leaves a column
    # snapshot the partition link then joins from: start elsewhere.
    for first in ("partition", "tree", "scan"):
        # Fresh operands per walk, for the same reason.
        disk = FaultyDisk(FaultPlan(seed=5))
        rel_r, rel_s = (
            build_indexed_relation(120, seed=seed, disk=disk).relation for seed in (1, 2)
        )
        disk.lose_page(rel_r.page_ids[0])
        with pytest.raises(ExecutionError) as excinfo:
            SpatialQueryExecutor().execute_join(
                rel_r, "shape", rel_s, "shape", Overlaps(), strategy=first
            )
        walked = [a.strategy for a in excinfo.value.report.attempts]
        assert walked == [first] + [name for name in links if name != first]


def test_refusal_texts_are_the_errors_the_dispatch_chain_raised():
    bare_r = make_rect_relation("r", 5, seed=1)
    bare_s = make_rect_relation("s", 5, seed=2)
    near = JoinOperands(bare_r, "shape", bare_s, "shape", WithinDistance(3.0))
    refusals = {s.name: s.refusal(near) for s in JOIN_STRATEGIES.values()}
    assert refusals == {
        "partition": (
            "the partition-parallel strategy applies to the 'overlaps' "
            "operator only (its plane-sweep filter is MBR intersection)"
        ),
        "tree": "r has no index on column 'shape'",
        "zorder": (
            "the z-order sort-merge strategy applies to the 'overlaps' "
            "operator only (Section 2.2)"
        ),
        "scan": None,
        "index-nl": "r has no index on column 'shape'",
        "index-nl-swapped": "s has no index on column 'shape'",
        "join-index": (
            "no join index registered for this join; call "
            "precompute_join_index first"
        ),
    }
    assert [s.name for s in applicable(near)] == ["scan"]
    # A refused strategy surfaces its text as the typed error.
    with pytest.raises(JoinError, match=re.escape(refusals["zorder"])):
        SpatialQueryExecutor().join(*near.positional, strategy="zorder")


def test_every_strategy_applies_to_indexed_overlap_operands(indexed_pair):
    rel_r, rel_s = indexed_pair
    ops = JoinOperands(rel_r, "shape", rel_s, "shape", Overlaps(), join_index=object())
    assert applicable(ops) == list(JOIN_STRATEGIES.values())


def test_priced_models_are_declared_and_are_the_parents(indexed_pair):
    """The strategies priced are the ones priced before the plan came to
    price in seconds only -- all but the z-order merge, which is never
    picked -- and each price is work of the profile's declared kinds."""
    rel_r, rel_s = indexed_pair
    args = (rel_r, "shape", rel_s, "shape", Overlaps())
    ops = JoinOperands(
        *args, join_index=SpatialQueryExecutor().precompute_join_index(
            rel_r, rel_s, "shape", "shape", Overlaps()
        ),
    )
    priced = {
        s.name: s.price(ops, 0.01, 4000)
        for s in JOIN_STRATEGIES.values() if s.price is not None
    }
    assert set(priced) == set(JOIN_STRATEGIES) - {"zorder"}
    for work in priced.values():
        assert work and set(work) <= set(WORK_KINDS)


def test_interval_capable_strategies_are_the_three_with_a_refine_site():
    capable = {s.name for s in JOIN_STRATEGIES.values() if s.interval}
    assert capable == {"tree", "zorder", "partition"}
    tree = JOIN_STRATEGIES["tree"]
    assert tree.filters(True, Overlaps())
    assert not tree.filters(False, Overlaps())
    assert not tree.filters(True, WithinDistance(1.0))
    assert not JOIN_STRATEGIES["scan"].filters(True, Overlaps())


# ----------------------------------------------------------------------
# One context per public call
# ----------------------------------------------------------------------

def test_plan_and_execute_prices_the_workers_it_runs_with(monkeypatch):
    """No price reads ``workers`` (the sweep runs in one process): the
    one plan made prices the run at any worker count."""
    planned = []

    def recording_plan_join(*args, **kwargs):
        planned.append(kwargs)
        return plan_join(*args, **kwargs)

    monkeypatch.setattr(executor_module, "plan_join", recording_plan_join)
    rel_r = make_rect_relation("r", 100, seed=111)
    rel_s = make_rect_relation("s", 90, seed=112)
    args = (rel_r, "shape", rel_s, "shape", Overlaps())
    _, report = SpatialQueryExecutor(workers=1).plan_and_execute_join(
        *args, workers=4
    )
    assert report.strategy == "partition"
    assert len(planned) == 1
    at_four = plan_join(*args, workers=4).predicted_seconds["partition"]
    assert report.drift.row("partition").predicted == at_four


def test_an_unknown_strategy_is_refused_before_the_cache_is_probed(indexed_pair):
    from repro.cache import QueryCache

    rel_r, rel_s = indexed_pair
    cache = QueryCache()
    executor = SpatialQueryExecutor(cache=cache, interval=True)
    for bad in ("nope", ["x"], None):
        with pytest.raises(JoinError, match="unknown join strategy"):
            executor.join(
                rel_r, "shape", rel_s, "shape", Overlaps(), strategy=bad
            )
        with pytest.raises(JoinError, match="unknown join strategy"):
            executor.execute_join(
                rel_r, "shape", rel_s, "shape", Overlaps(), strategy=bad
            )
        with pytest.raises(JoinError, match="unknown selection strategy"):
            executor.select(
                rel_r, "shape", Rect(10, 10, 40, 40), Overlaps(), strategy=bad
            )
    assert cache.stats.probes == 0
    # Nothing was rasterised either: no derived value is reachable.
    assert kept_values(rel_r) == {} and kept_values(rel_s) == {}


# ----------------------------------------------------------------------
# (iii) structural pins
# ----------------------------------------------------------------------

def _string_constants(path: Path) -> set[str]:
    return {
        node.value for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def test_table_3_stays_out_of_the_runtime():
    """Seconds are the one runtime unit: no module of ``core/``,
    ``cache/`` or ``obs/`` spells a Section 4 model name or imports a
    ``d_*`` formula (they draw the paper's figures, in ``costmodel/``),
    and ``core/`` plans from the operands it holds, never from Section
    4's fitted tree (its parameters, distributions and formulas)."""
    model = {
        "repro.costmodel.distributions", "repro.costmodel.parameters",
        "repro.costmodel.join_costs",
    }
    offenders = set()
    for package in ("core", "cache", "obs"):
        for path in (SRC / package).glob("*.py"):
            tree = ast.parse(path.read_text())
            imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
            imported = {alias.name for node in imports for alias in node.names}
            if _string_constants(path) & TABLE_3_MODELS or any(
                name.startswith("d_") for name in imported
            ) or (package == "core" and {node.module for node in imports} & model):
                offenders.add(path.relative_to(SRC).as_posix())
    assert offenders == set()


def test_handles_are_resolved_by_is_none_never_by_truthiness():
    """``x or self.x`` swaps an *empty* per-call cache (``QueryCache``
    defines ``__len__``) for the instance one."""
    offenders = [
        f"{path.name}:{number}"
        for path in (SRC / "core").glob("*.py")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\bor self\.(tracer|metrics|cache|interval|workers)\b", line)
    ]
    assert offenders == []
