"""Observability: query tracing, metrics, and model-drift detection.

Five pieces, all zero-dependency and all optional at every call site:

* :mod:`repro.obs.trace` -- nested spans with per-span CostMeter deltas,
  a no-op implementation for the disabled path, a JSONL exporter, a
  tree renderer, and cross-process grafting of remote span records;
* :mod:`repro.obs.context` -- the request-scoped :class:`TraceContext`
  that rides dispatch payloads so remote spans attribute to one request;
* :mod:`repro.obs.metrics` -- a registry of counters, gauges and
  fixed-bucket histograms that the buffer pool, WAL, parallel pool and
  join kernels publish into;
* :mod:`repro.obs.flight` -- the bounded flight recorder of structured
  incident events (restarts, failovers, sheds, deadline hits);
* :mod:`repro.obs.drift` -- predicted-vs-measured seconds comparison
  with the fitting module's log-space tolerance.
"""

from repro.obs.context import TraceContext
from repro.obs.drift import (
    DEFAULT_DRIFT_TOLERANCE,
    DriftReport,
    DriftRow,
    drift_from_measurements,
    drift_from_plan,
    log_error,
)
from repro.obs.flight import DEFAULT_CAPACITY, FlightEvent, FlightRecorder
from repro.obs.metrics import (
    DURATION_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    coalesce,
    render_records,
    sum_cost_self,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_DRIFT_TOLERANCE",
    "DURATION_BUCKETS",
    "SIZE_BUCKETS",
    "Counter",
    "DriftReport",
    "DriftRow",
    "FlightEvent",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceContext",
    "Tracer",
    "coalesce",
    "drift_from_measurements",
    "drift_from_plan",
    "log_error",
    "render_records",
    "sum_cost_self",
]
