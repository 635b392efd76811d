"""The second-tier refiner: ``Theta-filter -> interval filter -> exact``.

Join strategies refine candidate pairs through a *refiner* object.  Its
``resolve(geoms_a, geoms_b, meter)`` decides a whole batch of candidates
-- a sweep block, a QualPairs level, a z-order run -- and returns
exactly ``[matches(a, b, meter) for a, b in zip(geoms_a, geoms_b)]``,
charging the meter the same totals in bulk; ``matches`` is the one-pair
form that plain selections and the scalar references call.  Two
implementations:

* :class:`ExactRefiner` -- the historical path: charge one exact
  evaluation and run the predicate.  Every kernel constructs it itself;
  the partition sweep does so when no interval filter is passed.
* :class:`IntervalFilter` -- probes the raster-interval approximations
  first; only ambiguous pairs (PARTIAL/PARTIAL cell overlap) fall
  through to the exact predicate.  Sure hits and sure misses skip it,
  and the saved evaluations are metered (``interval_evals_saved``).
  The partition sweep is the one strategy that threads it.

The filter applies to the ``overlaps`` operator only -- the verdict
algebra (FULL cell met => intersection; disjoint covers => no
intersection) is an intersection argument and proves nothing about
other predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import IntermediateError
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.intermediate.approx import (
    AMBIGUOUS,
    SURE_HIT,
    SURE_MISS,
    IntervalApprox,
    classify,
)
from repro.intermediate.raster import rasterize
from repro.predicates.dispatch import SpatialObject, exact_overlaps
from repro.predicates.theta import Overlaps, ThetaOperator
from repro.storage.costs import CostMeter

#: Candidate pairs a tree traversal collects before it refines them in
#: one ``resolve``: enough to amortise the call, few enough that what
#: the pending pairs hold stays small beside the traversal's own lists.
BATCH = 1024

#: Default decomposition depth of executor-built filters: a 64 x 64 grid
#: -- fine enough to resolve the synthetic workloads' extents, coarse
#: enough that per-object interval lists stay a handful of entries.
DEFAULT_INTERVAL_LEVEL = 6


@dataclass(frozen=True, slots=True)
class IntervalSpec:
    """The grid a filter rasterizes on: data universe + quadtree depth.

    Hashable: it keys each relation's approximation tables.
    """

    universe: Rect
    level: int = DEFAULT_INTERVAL_LEVEL

    def __post_init__(self) -> None:
        if self.level < 0:
            raise IntermediateError(
                f"interval level must be non-negative, got {self.level}"
            )


class ExactRefiner:
    """The unfiltered exact-refinement path, as a refiner object.

    ``matches`` does exactly what every strategy's refine site did
    before the interval tier existed: one ``record_exact_eval`` and one
    predicate call.  ``theta`` may be a :class:`ThetaOperator` or any
    binary predicate callable (the z-order merge passes its hardwired
    ``exact_overlaps``).
    """

    __slots__ = ("theta",)

    def __init__(self, theta: Callable[[SpatialObject, SpatialObject], bool]):
        self.theta = theta

    def matches(
        self, a: SpatialObject, b: SpatialObject, meter: CostMeter
    ) -> bool:
        meter.record_exact_eval()
        return self.theta(a, b)

    def resolve(
        self, geoms_a: Sequence[SpatialObject], geoms_b: Sequence[SpatialObject],
        meter: CostMeter,
    ) -> list[bool]:
        """``[self.matches(a, b, meter) for a, b in zip(geoms_a, geoms_b)]``.

        An ``overlaps`` batch has its exact evaluations charged in one
        step and is decided by operand class: a rectangle pair by its
        MBR test (theta and Theta coincide on rectangles, Table 1), a
        polygon pair by the vectorised
        :func:`~repro.geometry.polygon_kernel.overlaps_pairs` -- the
        scalar test's arithmetic on arrays, so the same verdict -- and
        any other pair by the predicate itself.  Any other predicate
        runs ``matches`` pair by pair.
        """
        theta = self.theta
        if not (type(theta) is Overlaps or theta is exact_overlaps):
            return [self.matches(a, b, meter) for a, b in zip(geoms_a, geoms_b)]
        meter.record_exact_eval(len(geoms_a))
        mask: list[bool | None] = []
        polys_a: list[Polygon] = []
        polys_b: list[Polygon] = []
        for a, b in zip(geoms_a, geoms_b):
            if type(a) is Rect and type(b) is Rect:
                mask.append(a.intersects(b))
            elif type(a) is Polygon and type(b) is Polygon:
                mask.append(None)
                polys_a.append(a)
                polys_b.append(b)
            else:
                mask.append(theta(a, b))
        if polys_a:
            from repro.geometry.polygon_kernel import overlaps_pairs

            hits = iter(overlaps_pairs(polys_a, polys_b))
            mask = [next(hits) if hit is None else hit for hit in mask]
        return mask


class IntervalFilter:
    """Second-tier refiner backed by raster-interval approximations.

    ``tables`` optionally seeds the per-geometry approximation memo
    (e.g. from :func:`~repro.intermediate.store.approximation_table` so
    relation-resident objects are rasterized once per epoch, not once
    per query).  Unknown geometries are rasterized on demand and
    memoized by value (all geometry types hash by value).

    A geometry the rasterizer refuses (MBR outside the universe) maps to
    ``None`` in the memo; pairs involving it are refined exactly, so an
    out-of-universe object can never corrupt the result.
    """

    __slots__ = ("theta", "spec", "_approx")

    def __init__(
        self,
        theta: ThetaOperator,
        spec: IntervalSpec,
        tables: dict[SpatialObject, IntervalApprox | None] | None = None,
    ) -> None:
        if not isinstance(theta, Overlaps):
            raise IntermediateError(
                "the raster-interval filter applies to the 'overlaps' "
                f"operator only, got {getattr(theta, 'name', theta)!r}"
            )
        self.theta = theta
        self.spec = spec
        self._approx: dict[SpatialObject, IntervalApprox | None] = (
            dict(tables) if tables else {}
        )

    def approx_for(self, geom: SpatialObject) -> IntervalApprox | None:
        """The geometry's approximation, rasterizing and memoizing on miss."""
        try:
            return self._approx[geom]
        except KeyError:
            apx = rasterize(geom, self.spec.universe, self.spec.level)
            self._approx[geom] = apx
            return apx

    def matches(
        self, a: SpatialObject, b: SpatialObject, meter: CostMeter
    ) -> bool:
        apx_a = self.approx_for(a)
        apx_b = self.approx_for(b)
        if apx_a is None or apx_b is None:
            # Unapproximable operand: no probe charged, straight to exact.
            meter.record_exact_eval()
            return self.theta(a, b)
        meter.record_interval_probe()
        verdict = classify(apx_a, apx_b)
        if verdict == SURE_HIT:
            meter.record_interval_sure_hit()
            meter.record_interval_saved()
            return True
        if verdict == SURE_MISS:
            meter.record_interval_saved()
            return False
        meter.record_exact_eval()
        return self.theta(a, b)

    def resolve(
        self, geoms_a: Sequence[SpatialObject], geoms_b: Sequence[SpatialObject],
        meter: CostMeter,
    ) -> list[bool]:
        """``[self.matches(a, b, meter) for a, b in zip(geoms_a, geoms_b)]``:
        each pair classified as ``matches`` does, the interval counters
        charged in one step, and the pairs left undecided -- ambiguous or
        unapproximable -- refined in one :meth:`ExactRefiner.resolve`."""
        mask: list[bool] = []
        exact: list[int] = []
        probes = 0
        for k, (a, b) in enumerate(zip(geoms_a, geoms_b)):
            apx_a = self.approx_for(a)
            apx_b = self.approx_for(b)
            verdict = AMBIGUOUS  # an unapproximable operand: no probe
            if apx_a is not None and apx_b is not None:
                probes += 1
                verdict = classify(apx_a, apx_b)
            if verdict == AMBIGUOUS:
                exact.append(k)
            mask.append(verdict == SURE_HIT)
        meter.record_interval_probe(probes)
        meter.record_interval_sure_hit(sum(mask))
        # Every pair the exact predicate does not see is one it was spared.
        meter.record_interval_saved(len(mask) - len(exact))
        hits = ExactRefiner(self.theta).resolve(
            [geoms_a[k] for k in exact], [geoms_b[k] for k in exact], meter
        )
        for k, hit in zip(exact, hits):
            mask[k] = hit
        return mask
