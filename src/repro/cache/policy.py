"""Admission and eviction policy for the query-result cache.

The cache is only worth its memory when the entries it holds would be
expensive to recompute.  An entry is therefore admitted only when its
re-execution cost -- the seconds the miss execution's metered work
takes under the measured profile
(:func:`~repro.core.strategies.metered_work`,
:data:`~repro.costmodel.profile.MEASURED_PROFILE`), the best
single-sample predictor of the next run -- reaches a threshold, by
default one page read.  Anything cheaper than a single page read is
recomputed faster than it is worth tracking.

Eviction is LRU-by-cost under a byte budget: when the cache overflows,
the victim is chosen among the least-recently-used entries as the one
whose re-execution would take the least time -- recency guards the hot
working set, cost breaks ties in favour of keeping expensive answers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.costmodel.profile import MEASURED_PROFILE
from repro.errors import JoinError

#: Default byte budget: generous for the simulated engine's workloads,
#: small enough that soak tests actually exercise eviction.
DEFAULT_BYTE_BUDGET = 8 * 1024 * 1024

#: Default admission threshold in seconds: one page read.
DEFAULT_ADMISSION_THRESHOLD = MEASURED_PROFILE["io"]

#: Fixed per-entry bookkeeping estimate (keys, epochs, dataclass).
ENTRY_OVERHEAD_BYTES = 512

#: Estimated bytes per cached (tid, tid) pair / per tid reference.
PAIR_BYTES = 48

#: How many least-recently-used entries compete for eviction; the one
#: with the lowest re-execution cost loses.
EVICTION_WINDOW = 8


@dataclass(frozen=True, slots=True)
class CachePolicy:
    """Admission threshold, byte budget and eviction window."""

    byte_budget: int = DEFAULT_BYTE_BUDGET
    admission_threshold: float = DEFAULT_ADMISSION_THRESHOLD
    eviction_window: int = EVICTION_WINDOW

    def __post_init__(self) -> None:
        if self.byte_budget <= 0:
            raise JoinError(
                f"cache byte budget must be positive, got {self.byte_budget}"
            )
        if self.admission_threshold < 0:
            raise JoinError(
                "cache admission threshold must be non-negative, "
                f"got {self.admission_threshold}"
            )
        if self.eviction_window < 1:
            raise JoinError(
                f"eviction window must be positive, got {self.eviction_window}"
            )

    def admits(self, cost: float, entry_bytes: int) -> bool:
        """Should an entry this costly to recompute, and this size, be cached?

        Entries larger than the whole budget are refused outright --
        admitting one would evict everything else for a single answer.
        """
        return (
            cost >= self.admission_threshold
            and entry_bytes <= self.byte_budget
        )


def estimate_select_bytes(
    match_count: int, candidate_count: int, record_size: int
) -> int:
    """Deterministic size estimate for a SELECT entry.

    Payload tuples are priced at the relation's declared record size
    (the model's ``v``) -- the same arithmetic the page layout uses, so
    the budget is consistent with the storage it shadows.
    """
    return (
        ENTRY_OVERHEAD_BYTES
        + match_count * (PAIR_BYTES + record_size)
        + candidate_count * (2 * PAIR_BYTES + record_size)
    )


def estimate_join_bytes(
    pair_count: int, tuple_count: int, record_size_r: int, record_size_s: int
) -> int:
    """Deterministic size estimate for a JOIN entry."""
    return (
        ENTRY_OVERHEAD_BYTES
        + pair_count * 2 * PAIR_BYTES
        + tuple_count * (record_size_r + record_size_s)
    )
