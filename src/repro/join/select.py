"""Algorithm SELECT (Section 3.2): hierarchical spatial selection.

The algorithm is a Theta-guided traversal: a node is *examined* by
evaluating ``o Theta a`` on its region; on a pass its children are
scheduled for the next level and the exact predicate ``o theta a`` decides
whether the node's tuple joins the result.  The paper presents the
breadth-first variant (QualNodes lists per height) and notes a
depth-first variant whose relative efficiency "depends on the physical
clustering properties of the underlying generalization tree" -- both are
implemented here and benchmarked against each other.

Operand order: the paper computes selections ``o theta R.A`` with the
selector on the left.  ``reverse=True`` flips both predicates to
``R.A theta o``, which Algorithm JOIN's second SELECT pass needs for
asymmetric operators such as ``to the Northwest of``.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import JoinError
from repro.join.accessor import DirectAccessor, NodeAccessor
from repro.join.result import SelectResult
from repro.obs.trace import coalesce
from repro.predicates.big_theta import BigThetaOperator
from repro.predicates.dispatch import SpatialObject
from repro.predicates.theta import ThetaOperator
from repro.storage.costs import CostMeter
from repro.trees.base import GeneralizationTree


def spatial_select(
    tree: GeneralizationTree,
    query: SpatialObject,
    theta: ThetaOperator,
    *,
    accessor: NodeAccessor | None = None,
    meter: CostMeter | None = None,
    order: str = "bfs",
    start: Any = None,
    skip_start: bool = False,
    reverse: bool = False,
    big_theta: BigThetaOperator | None = None,
    limit: int | None = None,
    tracer=None,
    metrics=None,
    candidates_out: list | None = None,
    cancel=None,
) -> SelectResult:
    """Run Algorithm SELECT over a generalization tree.

    Parameters
    ----------
    tree:
        The generalization tree indexing relation ``R``'s spatial column.
    query:
        The selector object ``o``.
    theta:
        The exact predicate; its Table 1 filter is derived automatically
        (pass ``big_theta`` to override, e.g. for the filter-ablation
        benchmark).
    accessor:
        How node payloads are fetched; defaults to in-memory access.
        Every *examined* node is visited, charging its page I/O --
        matching the model's assumption that tree nodes contain the
        complete tuples.
    meter:
        Cost counters; filter and refinement evaluations are recorded
        separately (their sum is the paper's single ``C_Theta`` count).
    order:
        ``"bfs"`` (the paper's formulation) or ``"dfs"``.
    start, skip_start:
        Restrict the traversal to the subtree under ``start`` and
        optionally do not report ``start`` itself -- Algorithm JOIN's
        SELECT passes use both.
    reverse:
        Evaluate ``node theta query`` instead of ``query theta node``.
    limit:
        Stop after this many matches -- existence probes (semijoins) pass
        ``limit=1`` so a hit terminates the traversal immediately.
    tracer:
        A :class:`~repro.obs.trace.Tracer` (or ``None`` for the shared
        no-op).  BFS traversals emit one ``select.level`` span per tree
        height -- nodes examined, Theta prunes, exact refinements and
        the meter delta that height caused; DFS emits the enclosing
        ``select`` span only (its stack interleaves heights).
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry`; BFS publishes
        per-level ``select.filter_evals``/``select.filter_prunes``
        counters (the Theta-filter prune rate per height).
    candidates_out:
        When a list is passed, every payload-bearing node that survives
        the Theta-filter is appended as ``(tid, region, payload)`` --
        the Theta-candidate set the query cache stores for containment
        refinement.  The candidates are a byproduct of the traversal the
        meter already charges; collecting them costs no extra predicate
        evaluations or page reads (the payload fetch lands on the page
        the refinement just touched).
    cancel:
        A :class:`~repro.core.cancel.CancellationToken` (or ``None``).
        BFS checks it at every level boundary, DFS at every node pop --
        the cooperative cancellation points a deadline or drain relies
        on to stop a long traversal mid-flight.
    """
    from repro.core.cancel import check_cancel
    if order not in ("bfs", "dfs"):
        raise JoinError(f"order must be 'bfs' or 'dfs', got {order!r}")
    if limit is not None and limit < 1:
        raise JoinError(f"limit must be positive, got {limit}")
    if accessor is None:
        accessor = DirectAccessor()
    if meter is None:
        meter = CostMeter()
    if big_theta is None:
        big_theta = theta.filter_operator()
    from repro.intermediate.filter import ExactRefiner

    refiner = ExactRefiner(theta)
    tracer = coalesce(tracer)

    result = SelectResult(strategy=f"select-{order}{'-reversed' if reverse else ''}")
    if tree.is_empty():
        result.stats = meter.snapshot()
        return result
    root = start if start is not None else tree.root()

    def examine(node: Any) -> bool:
        """Theta-filter a node; on a pass, refine and maybe emit.

        Returns True when the node's children must be scheduled.
        """
        region = tree.region(node)
        tid = tree.tid(node)
        accessor.visit(tid, node)
        meter.record_filter_eval()
        passed = (
            big_theta(region, query) if reverse else big_theta(query, region)
        )
        if not passed:
            return False
        if tid is not None or getattr(node, "payload", None) is not None:
            payload = None
            if candidates_out is not None:
                # Collect the Theta-hit before refining: the containment
                # tier of the query cache needs every filter survivor,
                # not just the exact matches.  The payload is fetched
                # once and shared with the match list, so the charged
                # I/O pattern of the plain path is preserved.
                payload = accessor.visit(tid, node)
                candidates_out.append((tid, region, payload))
            if (
                refiner.matches(region, query, meter)
                if reverse
                else refiner.matches(query, region, meter)
            ):
                if candidates_out is None:
                    payload = accessor.visit(tid, node)
                result.matches.append((tid, payload))
        return True

    def reached_limit() -> bool:
        return limit is not None and len(result.matches) >= limit

    with tracer.span(
        "select", meter=meter, order=order, reverse=reverse
    ) as select_span:
        if order == "bfs":
            # SELECT1/SELECT2: QualNodes lists per height, processed in
            # order -- the explicit per-level batches are the paper's own
            # formulation and give the tracer its level boundaries.
            if skip_start:
                # The start node was already examined by the caller;
                # schedule its children directly.
                qual: list[Any] = list(tree.children(root))
            else:
                qual = [root]
            level = 0
            while qual and not reached_limit():
                check_cancel(cancel)
                next_qual: list[Any] = []
                with tracer.span("select.level", meter=meter, level=level) as span:
                    examined = 0
                    passes = 0
                    exact_before = meter.theta_exact_evals
                    matches_before = len(result.matches)
                    for node in qual:
                        if reached_limit():
                            break
                        examined += 1
                        if examine(node):
                            passes += 1
                            next_qual.extend(tree.children(node))
                    span.set_tag("nodes", examined)
                    span.set_tag("filter_evals", examined)
                    span.set_tag("prunes", examined - passes)
                    span.set_tag(
                        "exact_evals", meter.theta_exact_evals - exact_before
                    )
                    span.set_tag("matches", len(result.matches) - matches_before)
                if metrics is not None:
                    metrics.counter("select.filter_evals", level=level).inc(examined)
                    metrics.counter("select.filter_prunes", level=level).inc(
                        examined - passes
                    )
                qual = next_qual
                level += 1
        else:
            stack: list[Any] = []
            if skip_start:
                stack.extend(reversed(tree.children(root)))
            else:
                stack.append(root)
            while stack and not reached_limit():
                check_cancel(cancel)
                node = stack.pop()
                if examine(node):
                    stack.extend(reversed(tree.children(node)))
        select_span.set_tag("matches", len(result.matches))

    result.stats = meter.snapshot()
    return result


def select_pass_candidates(
    tree: GeneralizationTree,
    query: SpatialObject,
    start: Any,
    *,
    accessor: NodeAccessor,
    meter: CostMeter,
    reverse: bool,
    big_theta: BigThetaOperator,
    order: str = "bfs",
    found: Callable[[Any, Any, SpatialObject, Any], None],
) -> list[Any]:
    """One JOIN4 SELECT pass below ``start``, refinement left to the caller.

    Examines the strict descendants of ``start`` in Algorithm SELECT's
    order, charging the visits and Theta-filter evaluations
    ``spatial_select(..., start=start, skip_start=True)`` charges, and
    returns the qualifying direct children of ``start``.  Each
    payload-bearing node that passes the filter is handed to
    ``found(tid, node, region, payload)`` as it is met, with the payload
    its visit returned: the caller refines it (in a batch, with
    Algorithm JOIN's other candidates) and re-visits a match, as SELECT
    does straight after refining it
    (:meth:`~repro.join.accessor.NodeAccessor.revisit`).

    The paper notes that "in the course of these two spatial selections
    one also records" which direct descendants Theta-match -- they seed
    the next QualPairs level without re-evaluating the filter.
    """
    if order not in ("bfs", "dfs"):
        raise JoinError(f"order must be 'bfs' or 'dfs', got {order!r}")

    def examine(node: Any) -> bool:
        region = tree.region(node)
        tid = tree.tid(node)
        payload = accessor.visit(tid, node)
        meter.record_filter_eval()
        passed = big_theta(region, query) if reverse else big_theta(query, region)
        if passed and (tid is not None or getattr(node, "payload", None) is not None):
            found(tid, node, region, payload)
        return passed

    if order == "bfs":
        qual = list(tree.children(start))
        while qual:
            next_qual: list[Any] = []
            for node in qual:
                if examine(node):
                    next_qual.extend(tree.children(node))
            qual = next_qual
    else:
        stack = list(reversed(tree.children(start)))
        while stack:
            node = stack.pop()
            if examine(node):
                stack.extend(reversed(tree.children(node)))

    qualifying_children = []
    for child in tree.children(start):
        region = tree.region(child)
        # Recorded during the pass; evaluating again here would double
        # count, so this re-check is charge-free by construction.
        passed = big_theta(region, query) if reverse else big_theta(query, region)
        if passed:
            qualifying_children.append(child)
    return qualifying_children


def qualifying_children_only(
    tree: GeneralizationTree,
    query: SpatialObject,
    start: Any,
    *,
    accessor: NodeAccessor,
    meter: CostMeter,
    reverse: bool,
    big_theta: BigThetaOperator,
) -> list[Any]:
    """Theta-filter just the direct children of ``start``.

    Used by Algorithm JOIN when the fixed node of a SELECT pass is a
    technical entity (e.g. an R-tree interior node): no match can involve
    it, so the deep descent is skipped, but the next QualPairs level still
    needs the children's filter results -- each child is visited and its
    filter evaluation charged, exactly as the full pass would have.
    """
    out: list[Any] = []
    for child in tree.children(start):
        accessor.visit(tree.tid(child), child)
        meter.record_filter_eval()
        region = tree.region(child)
        passed = big_theta(region, query) if reverse else big_theta(query, region)
        if passed:
            out.append(child)
    return out
