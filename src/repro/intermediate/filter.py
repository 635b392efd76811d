"""The second-tier refiner: ``Theta-filter -> interval filter -> exact``.

Join strategies refine candidate pairs through a *refiner* object with a
single ``matches(a, b, meter)`` method.  Two implementations:

* :class:`ExactRefiner` -- the historical path: charge one exact
  evaluation and run the predicate.  Strategies construct it themselves
  when no interval filter is passed, so a filter-off run is
  instruction-for-instruction identical to the pre-filter code.
* :class:`IntervalFilter` -- probes the raster-interval approximations
  first; only ambiguous pairs (PARTIAL/PARTIAL cell overlap) fall
  through to the exact predicate.  Sure hits and sure misses skip it,
  and the saved evaluations are metered (``interval_evals_saved``).

Both are picklable: the partition join ships its refiner to worker
processes, and the shard router ships an :class:`IntervalSpec` in the
join payload for the worker to build its own filter from.

The filter applies to the ``overlaps`` operator only -- the verdict
algebra (FULL cell met => intersection; disjoint covers => no
intersection) is an intersection argument and proves nothing about
other predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import IntermediateError
from repro.geometry.rect import Rect
from repro.intermediate.approx import (
    AMBIGUOUS,
    SURE_HIT,
    SURE_MISS,
    IntervalApprox,
    classify,
)
from repro.intermediate.raster import rasterize
from repro.predicates.dispatch import SpatialObject
from repro.predicates.theta import Overlaps, ThetaOperator
from repro.storage.costs import CostMeter

#: Default decomposition depth of executor-built filters: a 64 x 64 grid
#: -- fine enough to resolve the synthetic workloads' extents, coarse
#: enough that per-object interval lists stay a handful of entries.
DEFAULT_INTERVAL_LEVEL = 6


@dataclass(frozen=True, slots=True)
class IntervalSpec:
    """The grid a filter rasterizes on: data universe + quadtree depth.

    Hashable (keys each relation's approximation tables) and picklable
    (travels in shard join payloads).
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

    #: No interval tier: lets callers ask "did a filter actually run?"
    active = False

    def __init__(self, theta: Callable[[SpatialObject, SpatialObject], bool]):
        self.theta = theta

    def matches(
        self, a: SpatialObject, b: SpatialObject, meter: CostMeter
    ) -> bool:
        meter.record_exact_eval()
        return self.theta(a, b)


class IntervalFilter:
    """Second-tier refiner backed by raster-interval approximations.

    ``tables`` optionally seeds the per-geometry approximation memo
    (e.g. from :func:`~repro.intermediate.store.approximation_table` so
    relation-resident objects are rasterized once per epoch, not once
    per query).  Unknown geometries -- tree node regions, ad-hoc query
    windows -- are rasterized on demand and memoized by value (all
    geometry types hash by value).

    A geometry the rasterizer refuses (MBR outside the universe) maps to
    ``None`` in the memo; pairs involving it are refined exactly, so an
    out-of-universe object can never corrupt the result.
    """

    __slots__ = ("theta", "spec", "_approx")

    active = True

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

    def classify_pair(self, a: SpatialObject, b: SpatialObject) -> int:
        """The kernel verdict for one pair; AMBIGUOUS when unapproximable."""
        apx_a = self.approx_for(a)
        apx_b = self.approx_for(b)
        if apx_a is None or apx_b is None:
            return AMBIGUOUS
        return classify(apx_a, apx_b)

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
