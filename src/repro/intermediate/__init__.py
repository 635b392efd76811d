"""Raster-interval second-tier filtering (``Theta -> interval -> exact``).

The package provides the intermediate approximation layer between the
Theta-filter (MBR tests) and exact geometric refinement: per-object
FULL/PARTIAL z-order cell intervals (:mod:`~repro.intermediate.raster`,
:mod:`~repro.intermediate.approx`), the merge-style pair classification
kernel (:func:`~repro.intermediate.approx.classify`), the refiner
objects the kernels refine through -- the interval filter on the
partition sweep only (:mod:`~repro.intermediate.filter`) -- and
epoch-scoped per-relation
approximation tables (:mod:`~repro.intermediate.store`).
"""

from repro.intermediate.approx import (
    AMBIGUOUS,
    SURE_HIT,
    SURE_MISS,
    IntervalApprox,
    classify,
)
from repro.intermediate.filter import (
    DEFAULT_INTERVAL_LEVEL,
    ExactRefiner,
    IntervalFilter,
    IntervalSpec,
)
from repro.intermediate.raster import rasterize
from repro.intermediate.store import approximation_table

__all__ = [
    "AMBIGUOUS",
    "SURE_HIT",
    "SURE_MISS",
    "IntervalApprox",
    "classify",
    "DEFAULT_INTERVAL_LEVEL",
    "ExactRefiner",
    "IntervalFilter",
    "IntervalSpec",
    "rasterize",
    "approximation_table",
]
