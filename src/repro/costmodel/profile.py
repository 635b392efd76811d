"""Seconds per unit of work: the measured constants the planner ranks by.

Table 3 prices the study in 1993 units (``C_IO = 1000 * C_Theta``); on
this engine a page read is a dictionary lookup and the predicate is a
Python call, so that ranking is not the engine's.  A *work vector* names
how much of each kind of work a strategy is predicted to do -- the
counters :class:`~repro.storage.costs.CostMeter` meters for it, plus the
few structural counts it does not (rows a partition sweep scatters,
probes an index nested loop issues) -- and a *profile* maps each kind to
its measured seconds:

``seconds = sum(profile[kind] * count for kind, count in work.items())``

The kinds:

* ``io`` -- one page read (``page_reads``, the model's C_IO);
* ``theta`` -- one Theta-filter evaluation of a tree traversal or an
  index probe (``theta_filter_evals``, C_Theta);
* ``exact.<family>.<class>`` -- one exact refinement of a candidate pair
  (``theta_exact_evals``), per predicate family (``overlaps``, whose
  polygon test is the vectorised kernel, or ``other``) and geometry
  class (``rect`` when both operands are rectangles, ``polygon``);
* ``pair.<family>.<class>`` -- one pair the nested loop tests (its
  ``theta_exact_evals``): an ``overlaps`` pair is mostly rejected on the
  MBRs, any other predicate runs in full;
* ``probe`` -- one index probe, the fixed cost of a selection;
* ``sweep_row`` / ``sweep_pair`` -- one row a partition join scatters
  and sorts, one candidate pair its sweep hands to refinement;
* ``interval_probe`` / ``interval_build`` -- one raster-interval
  classification (``interval_probes``), one object approximated.

:data:`MEASURED_PROFILE` is fitted by ``python -m repro calibrate`` (least
squares of each run's wall time on its metered work, see
:mod:`repro.core.calibration`) and committed; ``calibrate --write``
rewrites the block between the markers below.  Nothing is measured at
import or plan time, so a plan is the same on every run.
"""

from __future__ import annotations

from typing import Mapping

#: Predicate families and geometry classes of the ``exact.*``/``pair.*``
#: kinds.
FAMILIES = ("overlaps", "other")
CLASSES = ("rect", "polygon")

#: Every kind of work a profile prices, in the order it prints.
WORK_KINDS: tuple[str, ...] = (
    "io", "theta",
    *(f"{what}.{family}.{cls}" for what in ("exact", "pair")
      for family in FAMILIES for cls in CLASSES),
    "probe", "sweep_row", "sweep_pair", "interval_probe", "interval_build",
)

# BEGIN FITTED PROFILE (rewritten by `python -m repro calibrate --write`)
MEASURED_PROFILE: dict[str, float] = {
    "io": 2.020e-05,
    "theta": 4.628e-06,
    "exact.overlaps.rect": 0.000e+00,
    "exact.overlaps.polygon": 1.466e-05,
    "exact.other.rect": 1.675e-05,
    "exact.other.polygon": 9.292e-07,
    "pair.overlaps.rect": 6.293e-07,
    "pair.overlaps.polygon": 7.562e-07,
    "pair.other.rect": 2.469e-06,
    "pair.other.polygon": 7.307e-07,
    "probe": 8.065e-05,
    "sweep_row": 2.864e-06,
    "sweep_pair": 0.000e+00,
    "interval_probe": 8.642e-06,
    "interval_build": 3.508e-04,
}
# END FITTED PROFILE


def seconds(work: Mapping[str, float], profile: Mapping[str, float] = MEASURED_PROFILE) -> float:
    """Predicted wall seconds of ``work`` under ``profile``."""
    return sum(profile[kind] * count for kind, count in work.items())


def predicate_kinds(theta, *column_types) -> tuple[str, str]:
    """``(exact kind, pair kind)`` of ``theta`` over columns of these
    types: the rectangle constants when every operand is a rectangle,
    the polygon ones otherwise."""
    family = "overlaps" if theta.name == "overlaps" else "other"
    cls = "rect" if all(t.name == "RECT" for t in column_types) else "polygon"
    return f"exact.{family}.{cls}", f"pair.{family}.{cls}"
