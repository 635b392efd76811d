"""Join-selectivity estimation by sampling.

The cost model's one data-dependent input is the selectivity ``p`` --
"the probability that two given objects match" (Section 4.1).  For real
relations it can be estimated cheaply: draw a random sample of tuple
pairs, evaluate the predicate exactly, and take the match fraction.  The
estimator powers the cost-based strategy choice in
:mod:`repro.core.optimizer`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import CostModelError
from repro.predicates.theta import ThetaOperator
from repro.relational.columns import column_snapshot
from repro.relational.relation import Relation


@dataclass(frozen=True, slots=True)
class SelectivityEstimate:
    """A sampled selectivity with its sampling context.

    ``p`` is the match fraction; ``std_error`` the binomial standard
    error ``sqrt(p(1-p)/n)``.  With zero observed matches ``p`` falls
    back to the rule-of-three upper bound ``3/n`` so downstream cost
    formulas never see an impossible hard zero.
    """

    p: float
    sample_pairs: int
    matches: int

    @property
    def std_error(self) -> float:
        if self.sample_pairs == 0:
            return 0.0
        return math.sqrt(self.p * (1.0 - self.p) / self.sample_pairs)

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation CI, clamped to [0, 1]."""
        delta = z * self.std_error
        return (max(0.0, self.p - delta), min(1.0, self.p + delta))


def estimate_join_selectivity(
    rel_r: Relation,
    column_r: str,
    rel_s: Relation,
    column_s: str,
    theta: ThetaOperator,
    *,
    sample_pairs: int = 500,
    seed: int = 0,
) -> SelectivityEstimate:
    """Estimate ``p`` by evaluating theta on random tuple pairs.

    Sampling is with replacement over the cross product; the estimator is
    unbiased for the true match fraction.  Empty relations yield p = 0.
    """
    return sample_join_selectivity(
        column_snapshot(rel_r, column_r).geoms,
        column_snapshot(rel_s, column_s).geoms,
        theta, sample_pairs=sample_pairs, seed=seed,
    )


def sample_join_selectivity(
    geoms_r: Sequence, geoms_s: Sequence, theta: ThetaOperator,
    *, sample_pairs: int, seed: int,
) -> SelectivityEstimate:
    """:func:`estimate_join_selectivity` over two columns already read
    (in file order -- the draws index into them)."""
    if sample_pairs < 1:
        raise CostModelError(f"sample_pairs must be positive, got {sample_pairs}")
    if not geoms_r or not geoms_s:
        return SelectivityEstimate(p=0.0, sample_pairs=0, matches=0)

    rng = random.Random(seed)
    matches = 0
    for _ in range(sample_pairs):
        r = rng.choice(geoms_r)
        s = rng.choice(geoms_s)
        if theta(r, s):
            matches += 1
    if matches == 0:
        # Rule of three: a plausible upper bound instead of hard zero.
        p = min(1.0, 3.0 / sample_pairs)
    else:
        p = matches / sample_pairs
    return SelectivityEstimate(p=p, sample_pairs=sample_pairs, matches=matches)


#: Selections :func:`sample_select_evals` runs, and the seed drawing
#: their selectors: fixed, so a plan is the same on every run.
SELECT_SAMPLES = 16
SELECT_SEED = 0


def sample_select_evals(tree, selectors: Sequence, big_theta, *, reverse: bool) -> float:
    """Mean Theta-filter tests of one selection of ``tree``: Algorithm
    SELECT's examined nodes (``C_II^Theta``, Section 4.3), counted on the
    actual tree for :data:`SELECT_SAMPLES` selectors drawn from
    ``selectors`` instead of taken from a distribution.  ``reverse``
    tests ``big_theta(region, selector)``, as a probe for the left
    operand does."""
    if not selectors or tree.is_empty():
        return 1.0
    rng = random.Random(SELECT_SEED)
    examined = 0
    regions: dict[int, Any] = {}  # by node identity: an R-tree node recomputes its MBR
    for _ in range(SELECT_SAMPLES):
        selector = rng.choice(selectors)
        stack = [tree.root()]
        while stack:
            node = stack.pop()
            examined += 1
            region = regions.get(id(node))
            if region is None:
                region = regions[id(node)] = tree.region(node)
            if big_theta(region, selector) if reverse else big_theta(selector, region):
                stack.extend(tree.children(node))
    return examined / SELECT_SAMPLES


@dataclass(frozen=True, slots=True)
class IntervalResolutionEstimate:
    """Sampled effectiveness of the raster-interval second tier.

    ``mbr_fraction`` is the share of sampled pairs surviving the
    Theta-filter (MBR intersection) -- the candidates the interval tier
    would probe; ``resolve_fraction`` is the share of *those* the cell
    intervals decide outright (sure hit or sure miss), i.e. the exact
    evaluations the filter saves.  Pairs with an unapproximable operand
    (MBR outside the grid universe) count as unresolved.
    """

    mbr_fraction: float
    resolve_fraction: float
    sample_pairs: int
    candidates: int
    resolved: int


def estimate_interval_resolution(
    rel_r: Relation,
    column_r: str,
    rel_s: Relation,
    column_s: str,
    spec,
    *,
    sample_pairs: int = 200,
    seed: int = 0,
) -> IntervalResolutionEstimate:
    """Estimate how many candidate pairs the interval filter resolves.

    Draws random tuple pairs (with replacement, like the selectivity
    estimator), keeps the MBR-intersecting ones as Theta-candidates and
    classifies each on ``spec``'s grid
    (:func:`~repro.intermediate.approx.classify`).  The resolve fraction
    feeds :func:`~repro.costmodel.join_costs.interval_filter_delta`,
    letting ``plan_join`` decide per query whether the second tier pays.
    """
    return sample_interval_resolution(
        column_snapshot(rel_r, column_r).geoms,
        column_snapshot(rel_s, column_s).geoms,
        spec, sample_pairs=sample_pairs, seed=seed,
    )


def sample_interval_resolution(
    geoms_r: Sequence, geoms_s: Sequence, spec, *, sample_pairs: int, seed: int
) -> IntervalResolutionEstimate:
    """:func:`estimate_interval_resolution` over two columns already read."""
    from repro.intermediate.approx import AMBIGUOUS, classify
    from repro.intermediate.raster import rasterize

    if sample_pairs < 1:
        raise CostModelError(f"sample_pairs must be positive, got {sample_pairs}")
    if not geoms_r or not geoms_s:
        return IntervalResolutionEstimate(
            mbr_fraction=0.0, resolve_fraction=0.0,
            sample_pairs=0, candidates=0, resolved=0,
        )

    approx_cache: dict = {}

    def approx_of(geom):
        if geom not in approx_cache:
            approx_cache[geom] = rasterize(geom, spec.universe, spec.level)
        return approx_cache[geom]

    rng = random.Random(seed)
    candidates = 0
    resolved = 0
    for _ in range(sample_pairs):
        r_geom = rng.choice(geoms_r)
        s_geom = rng.choice(geoms_s)
        r_mbr, s_mbr = r_geom.mbr(), s_geom.mbr()
        if (r_mbr.xmin > s_mbr.xmax or s_mbr.xmin > r_mbr.xmax
                or r_mbr.ymin > s_mbr.ymax or s_mbr.ymin > r_mbr.ymax):
            continue
        candidates += 1
        apx_r = approx_of(r_geom)
        apx_s = approx_of(s_geom)
        if apx_r is None or apx_s is None:
            continue
        if classify(apx_r, apx_s) != AMBIGUOUS:
            resolved += 1
    return IntervalResolutionEstimate(
        mbr_fraction=candidates / sample_pairs,
        resolve_fraction=(resolved / candidates) if candidates else 0.0,
        sample_pairs=sample_pairs,
        candidates=candidates,
        resolved=resolved,
    )


def estimate_selection_selectivity(
    relation: Relation,
    column: str,
    query,
    theta: ThetaOperator,
    *,
    sample_size: int = 200,
    seed: int = 0,
) -> SelectivityEstimate:
    """Estimate the fraction of tuples matching a fixed selector object."""
    if sample_size < 1:
        raise CostModelError(f"sample_size must be positive, got {sample_size}")
    tuples = list(relation.scan())
    if not tuples:
        return SelectivityEstimate(p=0.0, sample_pairs=0, matches=0)
    rng = random.Random(seed)
    sample = (
        tuples if len(tuples) <= sample_size else rng.sample(tuples, sample_size)
    )
    matches = sum(1 for t in sample if theta(query, t[column]))
    if matches == 0:
        p = min(1.0, 3.0 / len(sample))
    else:
        p = matches / len(sample)
    return SelectivityEstimate(p=p, sample_pairs=len(sample), matches=matches)
