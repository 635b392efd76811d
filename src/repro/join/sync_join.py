"""Synchronized tree join -- the canonical successor to Algorithm JOIN.

A single worklist of node pairs, each expanded exactly once into its
Theta-qualifying child pairs (the shape of Brinkhoff/Kriegel/Seeger's
R-tree join, published shortly after this paper).  Handles trees of
unequal heights by expanding only the deeper side when one node is a
leaf, and keeps interior *application objects* alive via pinned items so
their matches against the partner's descendants are found.

The comparison against the paper's Algorithm JOIN is more interesting
than "newer is cheaper": Algorithm JOIN filters each pair's children
*linearly* against the partner node (|Ca| + |Cb| tests) and crosses the
survivors, whereas the pairwise filter here spends up to |Ca| x |Cb|
tests for tighter deep pruning.  The ablation bench quantifies the trade;
both always return the identical match set.
"""

from __future__ import annotations

from typing import Any

from repro.join.accessor import DirectAccessor, NodeAccessor
from repro.join.result import JoinResult
from repro.obs.trace import coalesce
from repro.predicates.big_theta import BigThetaOperator
from repro.predicates.theta import ThetaOperator
from repro.storage.costs import CostMeter
from repro.trees.base import GeneralizationTree


def sync_tree_join(
    tree_r: GeneralizationTree,
    tree_s: GeneralizationTree,
    theta: ThetaOperator,
    *,
    accessor_r: NodeAccessor | None = None,
    accessor_s: NodeAccessor | None = None,
    meter: CostMeter | None = None,
    big_theta: BigThetaOperator | None = None,
    tracer=None,
) -> JoinResult:
    """Join two generalization trees by synchronized descent.

    Every node pair is Theta-filtered once; qualifying pairs of
    application objects are theta-refined and emitted, and the pair's
    children (cross product, or one-sided when a leaf meets an interior
    node) are pushed.  No region is ever scanned twice.

    The depth-first worklist interleaves tree levels, so a ``tracer``
    gets one enclosing ``sync-join`` span (pairs filtered, pruned,
    emitted) rather than the per-level spans of Algorithm JOIN.

    Qualifying application-object pairs are refined
    :data:`~repro.intermediate.filter.BATCH` at a time, in discovery
    order.
    """
    if accessor_r is None:
        accessor_r = DirectAccessor()
    if accessor_s is None:
        accessor_s = DirectAccessor()
    if meter is None:
        meter = CostMeter()
    if big_theta is None:
        big_theta = theta.filter_operator()
    from repro.intermediate.filter import BATCH, ExactRefiner

    refiner = ExactRefiner(theta)
    tracer = coalesce(tracer)

    result = JoinResult(strategy="sync-tree-join")
    if tree_r.is_empty() or tree_s.is_empty():
        result.stats = meter.snapshot()
        return result

    # Interior nodes may themselves be application objects (assumption S2
    # worlds).  A _Pinned wrapper carries such a node into deeper levels
    # so its matches against the partner's descendants are not lost; a
    # pinned item never expands its own children again.
    class _Pinned:
        __slots__ = ("node",)

        def __init__(self, node: Any) -> None:
            self.node = node

    def unwrap(item: Any) -> tuple[Any, bool]:
        if isinstance(item, _Pinned):
            return item.node, True
        return item, False

    stack: list[tuple[Any, Any]] = [(tree_r.root(), tree_s.root())]
    with tracer.span("sync-join", meter=meter) as span:
        filtered = 0
        pruned = 0
        # Qualifying pairs of application objects in discovery order,
        # refined a batch at a time -- after a failed visit too, charging
        # the pairs found before it as a pair-at-a-time loop did.
        geoms_r: list[Any] = []
        geoms_s: list[Any] = []
        candidates: list[tuple[Any, Any]] = []

        def refine() -> None:
            try:
                hits = refiner.resolve(geoms_r, geoms_s, meter)
                result.pairs += [pair for pair, hit in zip(candidates, hits) if hit]
            finally:
                for pending in (geoms_r, geoms_s, candidates):
                    pending.clear()

        try:
            while stack:
                item_a, item_b = stack.pop()
                a, pinned_a = unwrap(item_a)
                b, pinned_b = unwrap(item_b)
                region_a = tree_r.region(a)
                region_b = tree_s.region(b)
                tid_a = tree_r.tid(a)
                tid_b = tree_s.tid(b)
                accessor_r.visit(tid_a, a)
                accessor_s.visit(tid_b, b)

                meter.record_filter_eval()
                filtered += 1
                if not big_theta(region_a, region_b):
                    pruned += 1
                    continue

                if tid_a is not None and tid_b is not None:
                    geoms_r.append(region_a)
                    geoms_s.append(region_b)
                    candidates.append((tid_a, tid_b))
                    if len(candidates) >= BATCH:
                        refine()

                children_a = [] if pinned_a else tree_r.children(a)
                children_b = [] if pinned_b else tree_s.children(b)
                if children_a and children_b:
                    for ca in children_a:
                        for cb in children_b:
                            stack.append((ca, cb))
                    # Keep interior application objects alive one level down.
                    if tid_a is not None:
                        for cb in children_b:
                            stack.append((_Pinned(a), cb))
                    if tid_b is not None:
                        for ca in children_a:
                            stack.append((ca, _Pinned(b)))
                elif children_a:
                    for ca in children_a:
                        stack.append((ca, item_b))
                elif children_b:
                    for cb in children_b:
                        stack.append((item_a, cb))
        finally:
            refine()
        span.set_tag("filter_evals", filtered)
        span.set_tag("prunes", pruned)
        span.set_tag("pairs", len(result.pairs))

    result.stats = meter.snapshot()
    return result
