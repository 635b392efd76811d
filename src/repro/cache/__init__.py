"""Adaptive query-result cache with epoch invalidation.

Public surface:

* :class:`~repro.cache.cache.QueryCache` -- the three-tier cache
  (exact / containment / miss), wired into
  :class:`~repro.core.executor.SpatialQueryExecutor` via its ``cache=``
  parameter;
* :class:`~repro.cache.policy.CachePolicy` -- admission by the seconds
  of a miss's metered work, plus LRU-by-cost eviction under a byte
  budget;
* :func:`~repro.cache.keys.geometry_fingerprint` and the operator
  monotonicity predicates backing the containment tier.
"""

from repro.cache.cache import CacheStats, QueryCache
from repro.cache.keys import (
    exact_monotone,
    geometry_fingerprint,
    theta_cache_key,
    window_monotone,
)
from repro.cache.policy import (
    DEFAULT_ADMISSION_THRESHOLD,
    DEFAULT_BYTE_BUDGET,
    CachePolicy,
)

__all__ = [
    "CachePolicy",
    "CacheStats",
    "DEFAULT_ADMISSION_THRESHOLD",
    "DEFAULT_BYTE_BUDGET",
    "QueryCache",
    "exact_monotone",
    "geometry_fingerprint",
    "theta_cache_key",
    "window_monotone",
]
