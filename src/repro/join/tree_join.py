"""Algorithm JOIN (Section 3.3): general spatial join over two trees.

The synchronized traversal keeps, per height ``j``, the list
``QualPairs[j]`` of node pairs that may still produce matches.  For a
pair ``(a, b)`` that passes the Theta-filter, three things happen:

* **JOIN3** -- the exact predicate decides whether the pair itself joins;
* **JOIN4 / pass 1** -- Algorithm SELECT relates ``a`` to the strict
  descendants of ``b`` (matches ``a theta b'``);
* **JOIN4 / pass 2** -- the reverse pass relates the strict descendants
  of ``a`` to ``b`` (matches ``a' theta b``);

and the Theta-qualifying *direct* children recorded during the two
passes seed ``QualPairs[j+1]`` as a cross product.  Same-level matches
thus flow through JOIN3 of later levels, asymmetric-depth matches
through the SELECT passes -- every matching pair is reported exactly
once (the cost model's double-counted root comparison is avoided by
skipping the pass roots).
"""

from __future__ import annotations

from typing import Any

from repro.join.accessor import DirectAccessor, NodeAccessor
from repro.join.result import JoinResult
from repro.join.select import qualifying_children_only, select_pass_candidates
from repro.obs.trace import coalesce
from repro.predicates.theta import ThetaOperator
from repro.storage.costs import CostMeter
from repro.storage.record import RecordId
from repro.trees.base import GeneralizationTree

# QualPairs lists grow multiplicatively level over level; powers of four
# (fanout^2 for the common fanout-2 synthetic trees) make even buckets.
_QUAL_PAIR_BUCKETS: tuple[float, ...] = (1, 4, 16, 64, 256, 1024, 4096)


def tree_join(
    tree_r: GeneralizationTree,
    tree_s: GeneralizationTree,
    theta: ThetaOperator,
    *,
    accessor_r: NodeAccessor | None = None,
    accessor_s: NodeAccessor | None = None,
    meter: CostMeter | None = None,
    order: str = "bfs",
    collect_tuples: bool = False,
    tracer=None,
    metrics=None,
    cancel=None,
) -> JoinResult:
    """Compute ``R join_theta S`` hierarchically over two generalization trees.

    Matches are ``(tid_r, tid_s)`` pairs of application objects (interior
    technical nodes never join).  Pass ``collect_tuples=True`` to also
    fetch and pair the actual payloads through the accessors.

    With a ``tracer``, every QualPairs level emits one ``join.level``
    span: the level's pair count, Theta-filter evaluations and prunes,
    exact refinements, emitted pairs, and the meter delta the level
    caused (the per-level decomposition of Figures 11-13).  A
    ``metrics`` registry additionally receives the QualPairs length
    histogram and per-level filter/prune counters.  The SELECT passes
    inside a level stay span-free by design -- one span per qualifying
    pair would swamp the trace; their cost lands in the level's delta.

    ``cancel`` (a :class:`~repro.core.cancel.CancellationToken`) is
    checked at every QualPairs level boundary -- the join's cooperative
    cancellation point.

    A level's candidates -- JOIN3's and both passes', in traversal
    order -- are refined a batch at a time (one
    :meth:`~repro.intermediate.filter.ExactRefiner.resolve` at the end
    of the level, or once :data:`~repro.intermediate.filter.BATCH` are
    pending), and a match inside a pass is then re-visited as SELECT
    re-visits it straight after the examine visit (one buffer hit on
    the page that visit made most recent).  Pairs, tuples and every charge come out as refining
    each candidate where it was found would leave them.  With
    ``collect_tuples`` a batch also ends where a match's payload is
    fetched: after JOIN3 and after each pass.
    """
    from repro.core.cancel import check_cancel
    if accessor_r is None:
        accessor_r = DirectAccessor()
    if accessor_s is None:
        accessor_s = DirectAccessor()
    if meter is None:
        meter = CostMeter()
    big_theta = theta.filter_operator()
    from repro.intermediate.filter import BATCH, ExactRefiner

    refiner = ExactRefiner(theta)
    tracer = coalesce(tracer)

    result = JoinResult(strategy="tree-join")
    if tree_r.is_empty() or tree_s.is_empty():
        result.stats = meter.snapshot()
        return result

    # Candidates awaiting refinement, in traversal order: the operands,
    # and what a match emits -- ``(pair, accessor, tid, node, payload)``,
    # where ``pair`` is ``None`` for a node without tid and ``accessor``
    # is ``None`` for JOIN3's own pair; a SELECT-pass match is re-visited
    # through it.
    geoms_r: list[Any] = []
    geoms_s: list[Any] = []
    follow: list[tuple] = []

    def defer(geom_r, geom_s, pair, accessor=None, tid=None, node=None, payload=None) -> None:
        geoms_r.append(geom_r)
        geoms_s.append(geom_s)
        follow.append((pair, accessor, tid, node, payload))

    def refine(tuple_of=None) -> None:
        """Refine the pending candidates in one ``refiner.resolve`` and
        emit the matches in order, ``tuple_of(payload)`` with each pair
        when given.  Every pass match is re-visited before any pair is
        emitted, as SELECT re-visits it during the pass."""
        try:
            hits = refiner.resolve(geoms_r, geoms_s, meter) if follow else []
            matched = []
            for hit, (pair, accessor, tid, node, payload) in zip(hits, follow):
                if hit:
                    if accessor is not None:
                        payload = accessor.revisit(tid, node, payload)
                    matched.append((pair, payload))
        finally:
            for pending in (geoms_r, geoms_s, follow):
                pending.clear()
        for pair, payload in matched:
            if pair is not None:
                result.pairs.append(pair)
                if tuple_of is not None:
                    result.tuples.append(tuple_of(payload))

    # JOIN1: initialize with the root pair.
    qual_pairs: list[tuple[Any, Any]] = [(tree_r.root(), tree_s.root())]
    max_level = min(tree_r.height(), tree_s.height())
    level = 0

    while qual_pairs and level <= max_level:
        check_cancel(cancel)
        next_pairs: list[tuple[Any, Any]] = []
        with tracer.span(
            "join.level", meter=meter, level=level, qual_pairs=len(qual_pairs)
        ) as span:
            filter_before = meter.theta_filter_evals
            exact_before = meter.theta_exact_evals
            pairs_before = len(result.pairs)
            prunes = 0
            try:
                for a, b in qual_pairs:
                    region_a = tree_r.region(a)
                    region_b = tree_s.region(b)
                    tid_a = tree_r.tid(a)
                    tid_b = tree_s.tid(b)
                    accessor_r.visit(tid_a, a)
                    accessor_s.visit(tid_b, b)

                    # JOIN2: the pair must pass the Theta-filter to be pursued.
                    meter.record_filter_eval()
                    if not big_theta(region_a, region_b):
                        prunes += 1
                        continue

                    # JOIN3: exact check on the pair itself.
                    if (tid_a is not None) and (tid_b is not None):
                        defer(region_a, region_b, (tid_a, tid_b))
                        if collect_tuples:
                            refine(lambda _: (
                                accessor_r.visit(tid_a, a), accessor_s.visit(tid_b, b)
                            ))

                    # JOIN4 / pass 1: a against strict descendants of b.  When a
                    # is a technical entity no match can involve it, so only the
                    # direct children of b are filtered (the deep descent would be
                    # pure overhead -- the paper's model never hits this case
                    # because assumption S2 makes every node an application object).
                    if tid_a is not None:
                        qual_b_children = select_pass_candidates(
                            tree_s,
                            region_a,
                            b,
                            accessor=accessor_s,
                            meter=meter,
                            reverse=False,
                            big_theta=big_theta,
                            order=order,
                            found=lambda tid, node, region, payload: defer(
                                region_a, region, None if tid is None else (tid_a, tid),
                                accessor_s, tid, node, payload,
                            ),
                        )
                        if collect_tuples:
                            refine(lambda payload: (accessor_r.visit(tid_a, a), payload))
                    else:
                        qual_b_children = qualifying_children_only(
                            tree_s,
                            region_a,
                            b,
                            accessor=accessor_s,
                            meter=meter,
                            reverse=False,
                            big_theta=big_theta,
                        )

                    # JOIN4 / pass 2: strict descendants of a against b.
                    if tid_b is not None:
                        qual_a_children = select_pass_candidates(
                            tree_r,
                            region_b,
                            a,
                            accessor=accessor_r,
                            meter=meter,
                            reverse=True,
                            big_theta=big_theta,
                            order=order,
                            found=lambda tid, node, region, payload: defer(
                                region, region_b, None if tid is None else (tid, tid_b),
                                accessor_r, tid, node, payload,
                            ),
                        )
                        if collect_tuples:
                            refine(lambda payload: (payload, accessor_s.visit(tid_b, b)))
                    else:
                        qual_a_children = qualifying_children_only(
                            tree_r,
                            region_b,
                            a,
                            accessor=accessor_r,
                            meter=meter,
                            reverse=True,
                            big_theta=big_theta,
                        )

                    # Seed the next level with the qualifying direct descendants.
                    for a2 in qual_a_children:
                        for b2 in qual_b_children:
                            next_pairs.append((a2, b2))
                    if len(follow) >= BATCH:
                        refine()
            finally:
                # After a failed visit too: the candidates met before it
                # are charged, as refining each where it was met did.
                refine()

            span.set_tag("filter_evals", meter.theta_filter_evals - filter_before)
            span.set_tag("prunes", prunes)
            span.set_tag("exact_evals", meter.theta_exact_evals - exact_before)
            span.set_tag("pairs", len(result.pairs) - pairs_before)

        if metrics is not None:
            metrics.histogram(
                "join.qual_pairs", buckets=_QUAL_PAIR_BUCKETS
            ).observe(len(qual_pairs))
            metrics.counter("join.filter_evals", level=level).inc(
                meter.theta_filter_evals - filter_before
            )
            metrics.counter("join.filter_prunes", level=level).inc(prunes)

        qual_pairs = next_pairs
        level += 1

    result.stats = meter.snapshot()
    return result
