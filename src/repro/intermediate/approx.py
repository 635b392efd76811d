"""Raster-interval object approximations on the z-order curve.

The second-tier filter between the Theta-filter and exact refinement
(Georgiadis / Tzirita Zacharatou / Mamoulis; Kipf et al.'s adaptive
geospatial joins): each geometry is decomposed into sorted, disjoint,
coalesced intervals of z-order cells, every interval flagged

* **FULL**    -- every cell of the interval lies entirely inside the
  geometry (closed containment), or
* **PARTIAL** -- every cell merely intersects the geometry (boundary
  cells).

Interval intersection then resolves candidate pairs without touching the
exact geometric kernel:

* a common cell where either side is FULL is a **sure hit** -- the FULL
  side covers the whole cell and the other side meets it;
* no common cell at all is a **sure miss** -- each geometry is contained
  in its cover, and the covers are disjoint;
* only PARTIAL/PARTIAL overlap is **ambiguous** and falls through to the
  exact predicate.

Soundness of the miss guarantee relies on *closed* cell semantics: a
cover cell is any cell whose closed extent intersects the geometry, so
two objects touching exactly on a grid seam still share a cover cell
(the same convention :func:`repro.geometry.zorder.decompose_rect` uses
with ``closed=True`` for the z-order merge join).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import IntermediateError

#: Classification verdicts of :func:`classify`.
SURE_MISS = -1
AMBIGUOUS = 0
SURE_HIT = 1

#: Finest supported grid.
MAX_LEVEL = 30


@dataclass(frozen=True, slots=True)
class IntervalApprox:
    """One object's interval set at resolution ``2^level x 2^level``.

    ``intervals`` holds ``(lo, hi, full)`` triples of closed z-value
    ranges at ``level``, sorted by ``lo``, pairwise disjoint, and
    coalesced (no two adjacent ranges share a flag).  ``universe`` is
    the grid's data universe as a plain tuple -- approximations built
    over different universes are incomparable and :func:`classify`
    refuses to relate them.
    """

    level: int
    universe: tuple[float, float, float, float]
    intervals: tuple[tuple[int, int, bool], ...]

    def __post_init__(self) -> None:
        if not 0 <= self.level <= MAX_LEVEL:
            raise IntermediateError(
                f"approximation level must be in [0, {MAX_LEVEL}], "
                f"got {self.level}"
            )
        if len(self.universe) != 4:
            raise IntermediateError(
                f"universe must be a 4-tuple, got {self.universe!r}"
            )
        top = (1 << (2 * self.level)) - 1
        prev_hi = None
        prev_full = None
        for lo, hi, full in self.intervals:
            if not 0 <= lo <= hi <= top:
                raise IntermediateError(
                    f"interval [{lo}, {hi}] out of range for level {self.level}"
                )
            if prev_hi is not None:
                if lo <= prev_hi:
                    raise IntermediateError(
                        f"intervals not sorted/disjoint at [{lo}, {hi}]"
                    )
                if lo == prev_hi + 1 and bool(full) == prev_full:
                    raise IntermediateError(
                        f"adjacent intervals with equal flag not coalesced "
                        f"at [{lo}, {hi}]"
                    )
            prev_hi = hi
            prev_full = bool(full)

    @property
    def cell_count(self) -> int:
        """Total finest-level cells covered by the interval set."""
        return sum(hi - lo + 1 for lo, hi, _ in self.intervals)

    @property
    def full_cell_count(self) -> int:
        """Finest-level cells flagged FULL (entirely inside the object)."""
        return sum(hi - lo + 1 for lo, hi, full in self.intervals if full)

    def __len__(self) -> int:
        return len(self.intervals)

    def scaled(self, level: int) -> tuple[tuple[int, int, bool], ...]:
        """The interval set re-expressed at a finer ``level``.

        Each closed range ``[lo, hi]`` at the native level covers
        ``[lo << s, ((hi + 1) << s) - 1]`` at resolution ``level``
        (``s = 2 * (level - self.level)``) -- the same arithmetic as
        :meth:`repro.geometry.zorder.ZCell.interval`.
        """
        if level < self.level:
            raise IntermediateError(
                f"cannot scale level-{self.level} approximation down to "
                f"level {level}"
            )
        if level == self.level:
            return self.intervals
        shift = 2 * (level - self.level)
        return tuple(
            (lo << shift, ((hi + 1) << shift) - 1, full)
            for lo, hi, full in self.intervals
        )

def classify(a: IntervalApprox, b: IntervalApprox) -> int:
    """Merge-style interval-join kernel for one candidate pair.

    Returns :data:`SURE_HIT`, :data:`SURE_MISS` or :data:`AMBIGUOUS`.
    One linear pass over both sorted interval lists (after rescaling to
    the finer of the two levels): the first overlapping range pair with
    a FULL flag on either side decides HIT immediately; overlap of two
    PARTIAL ranges is remembered and reported as AMBIGUOUS only if no
    deciding pair follows; no overlap anywhere is a MISS.
    """
    if a.universe != b.universe:
        raise IntermediateError(
            f"cannot classify approximations over different universes: "
            f"{a.universe} vs {b.universe}"
        )
    level = max(a.level, b.level)
    ia = a.scaled(level)
    ib = b.scaled(level)
    i = j = 0
    ambiguous = False
    while i < len(ia) and j < len(ib):
        alo, ahi, afull = ia[i]
        blo, bhi, bfull = ib[j]
        if ahi < blo:
            i += 1
            continue
        if bhi < alo:
            j += 1
            continue
        if afull or bfull:
            return SURE_HIT
        ambiguous = True
        if ahi <= bhi:
            i += 1
        else:
            j += 1
    return AMBIGUOUS if ambiguous else SURE_MISS
