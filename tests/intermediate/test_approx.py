"""IntervalApprox: structural invariants, serialization, classify kernel."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IntermediateError
from repro.intermediate import (
    AMBIGUOUS,
    SURE_HIT,
    SURE_MISS,
    IntervalApprox,
    classify,
)

UNIT = (0.0, 0.0, 1.0, 1.0)


@st.composite
def interval_sets(draw, level: int = 5) -> IntervalApprox:
    """A structurally valid approximation: sorted, disjoint, coalesced."""
    top = (1 << (2 * level)) - 1
    step = max(2, top // 16)
    intervals: list[tuple[int, int, bool]] = []
    pos = -1
    prev_full: bool | None = None
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        gap = draw(st.integers(min_value=1, max_value=step))
        length = draw(st.integers(min_value=1, max_value=step))
        full = draw(st.booleans())
        lo = pos + gap + 1
        if gap == 1 and prev_full is not None and full == prev_full:
            full = not full  # adjacency with equal flags must coalesce
        hi = min(lo + length - 1, top)
        if lo > top:
            break
        intervals.append((lo, hi, full))
        pos = hi
        prev_full = full
    return IntervalApprox(level=level, universe=UNIT, intervals=tuple(intervals))


# ----------------------------------------------------------------------
# Constructor validation
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "level,intervals",
    [
        (-1, ()),
        (31, ()),
        (2, ((0, 64, False),)),            # hi beyond level-2 top (63)
        (2, ((5, 3, False),)),             # lo > hi
        (2, ((4, 8, False), (2, 3, True))),   # unsorted
        (2, ((0, 5, False), (5, 9, True))),   # overlapping
        (2, ((0, 5, False), (6, 9, False))),  # adjacent, same flag
    ],
)
def test_constructor_rejects_invalid(level, intervals):
    with pytest.raises(IntermediateError):
        IntervalApprox(level=level, universe=UNIT, intervals=intervals)


def test_constructor_rejects_bad_universe():
    with pytest.raises(IntermediateError):
        IntervalApprox(level=2, universe=(0.0, 1.0), intervals=())


def test_adjacent_opposite_flags_are_legal():
    a = IntervalApprox(
        level=2, universe=UNIT, intervals=((0, 5, False), (6, 9, True))
    )
    assert a.cell_count == 10
    assert a.full_cell_count == 4
    assert len(a) == 2


# ----------------------------------------------------------------------
# Rescaling
# ----------------------------------------------------------------------

@given(approx=interval_sets(level=3), finer=st.integers(min_value=3, max_value=6))
@settings(max_examples=40, deadline=None)
def test_scaled_preserves_cell_fraction(approx, finer):
    scaled = approx.scaled(finer)
    factor = 4 ** (finer - approx.level)
    assert sum(hi - lo + 1 for lo, hi, _ in scaled) == approx.cell_count * factor
    # Flags and order survive rescaling.
    assert [f for _, _, f in scaled] == [f for _, _, f in approx.intervals]
    assert all(lo <= hi for lo, hi, _ in scaled)


def test_scaled_down_raises():
    a = IntervalApprox(level=4, universe=UNIT, intervals=((0, 3, True),))
    with pytest.raises(IntermediateError):
        a.scaled(3)
    assert a.scaled(4) is a.intervals


# ----------------------------------------------------------------------
# The classify kernel vs. brute-force cell semantics
# ----------------------------------------------------------------------

def brute_classify(a: IntervalApprox, b: IntervalApprox) -> int:
    """Reference semantics: expand both to cell sets and compare."""
    level = max(a.level, b.level)

    def cells(approx):
        return {
            z: full
            for lo, hi, full in approx.scaled(level)
            for z in range(lo, hi + 1)
        }

    ca, cb = cells(a), cells(b)
    common = ca.keys() & cb.keys()
    if not common:
        return SURE_MISS
    if any(ca[z] or cb[z] for z in common):
        return SURE_HIT
    return AMBIGUOUS


@given(a=interval_sets(level=3), b=interval_sets(level=3))
@settings(max_examples=80, deadline=None)
def test_classify_matches_brute_force_same_level(a, b):
    assert classify(a, b) == brute_classify(a, b)


@given(a=interval_sets(level=2), b=interval_sets(level=4))
@settings(max_examples=80, deadline=None)
def test_classify_matches_brute_force_mixed_levels(a, b):
    assert classify(a, b) == brute_classify(a, b)
    assert classify(b, a) == brute_classify(a, b)  # symmetric


def test_classify_rejects_universe_mismatch():
    a = IntervalApprox(level=2, universe=UNIT, intervals=((0, 1, True),))
    b = IntervalApprox(
        level=2, universe=(0.0, 0.0, 2.0, 2.0), intervals=((0, 1, True),)
    )
    with pytest.raises(IntermediateError):
        classify(a, b)


def test_classify_verdicts_pinned():
    """One hand-checked example per verdict."""
    full = IntervalApprox(level=2, universe=UNIT, intervals=((0, 3, True),))
    partial = IntervalApprox(level=2, universe=UNIT, intervals=((2, 5, False),))
    far = IntervalApprox(level=2, universe=UNIT, intervals=((12, 14, False),))
    assert classify(full, partial) == SURE_HIT
    assert classify(partial, far) == SURE_MISS
    assert classify(partial, partial) == AMBIGUOUS
