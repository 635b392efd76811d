"""A zero-dependency metrics registry: counters, gauges, histograms.

The cost meters answer "how much did this one operation cost"; the
registry answers "how is the *system* behaving" -- buffer hit ratios,
Theta-filter prune rates per tree level, QualPairs list lengths, WAL
sync batch sizes, parallel chunk durations, retry counts.  Components
publish into a registry handed to them (``attach_metrics``-style); no
component creates or requires one, so the un-observed hot paths carry at
most a ``None`` check.

Metrics are keyed by ``(name, labels)`` -- labels are sorted key/value
pairs, so ``counter("join.filter_evals", level=2)`` names one series per
tree level.  Histograms use *fixed* upper-bound buckets declared at
first creation and accumulate over the registry's lifetime.

A series holds a fact no other store holds.  A count the cost meter
already keeps (a shard's ``C_IO`` and ``C_Theta`` charges live in its
``ShardHandle.meter``) or a field a handle already carries (a shard's
``restarts`` and ``generation``) is read there, not republished here.
``docs/observability.md`` lists each fact with its one store.

Label cardinality is capped per metric name
(:class:`MetricsRegistry`'s ``max_series_per_name``); blowing the cap
raises :class:`~repro.errors.ObservabilityError` instead of silently
eating memory, because an unbounded label (a session id, a tuple id)
is a bug in the publisher, not load to absorb.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterable, Mapping

from repro.errors import ObservabilityError
from repro.storage.costs import CostMeter

#: Default histogram buckets for wall-clock durations in seconds.
DURATION_BUCKETS: tuple[float, ...] = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)

#: Default histogram buckets for small cardinalities (list lengths, batch
#: sizes): powers of two up to 4096.
SIZE_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)

_LabelKey = tuple[tuple[str, Any], ...]


def _label_key(labels: Mapping[str, Any]) -> _LabelKey:
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count.

    Increments run under a per-metric lock: many sessions of the query
    service publish into one shared registry, and a lost update would
    make the soak tests' exact-count assertions flaky.
    """

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: _LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict[str, Any]:
        return {"type": "counter", "labels": dict(self.labels), "value": self.value}


class Gauge:
    """A point-in-time value that may move both ways."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: _LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> dict[str, Any]:
        return {"type": "gauge", "labels": dict(self.labels), "value": self.value}


class Histogram:
    """Fixed-bucket distribution with count, sum, min and max.

    Quantiles (:meth:`quantile`) interpolate linearly inside
    the fixed buckets -- a coarse but monotone estimator, exact at
    bucket boundaries, which is all an SLO table needs.
    """

    __slots__ = ("name", "labels", "buckets", "bucket_counts", "count",
                 "sum", "min", "max", "_lock")

    def __init__(self, name: str, labels: _LabelKey,
                 buckets: tuple[float, ...]) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ObservabilityError(
                f"histogram {name!r} needs sorted, non-empty buckets, "
                f"got {buckets!r}"
            )
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        # One interval per upper bound, plus the overflow interval.
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.bucket_counts[bisect_left(self.buckets, value)] += 1
            self.count += 1
            self.sum += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile of everything observed.

        Linear interpolation within the bucket containing the target
        rank, clamped to the observed ``min``/``max``.  Returns ``None``
        on an empty histogram.  The overflow bucket has no upper bound,
        so ranks landing there estimate as ``max``.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(
                f"quantile must be in [0, 1], got {q}"
            )
        with self._lock:
            if not self.count:
                return None
            rank = q * self.count
            seen = 0.0
            for i, n in enumerate(self.bucket_counts):
                if not n:
                    continue
                if seen + n >= rank:
                    if i >= len(self.buckets):
                        return self.max
                    hi = self.buckets[i]
                    lo = self.buckets[i - 1] if i > 0 else min(self.min or 0.0, hi)
                    frac = (rank - seen) / n
                    est = lo + (hi - lo) * frac
                    est = max(est, self.min if self.min is not None else est)
                    est = min(est, self.max if self.max is not None else est)
                    return est
                seen += n
            return self.max  # pragma: no cover - rank beyond all counts

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe view; ``buckets`` maps each upper bound to the
        observations at or below it and above the previous bound."""
        with self._lock:
            return {
                "type": "histogram",
                "labels": dict(self.labels),
                "count": self.count,
                "sum": self.sum,
                "mean": self.mean,
                "min": self.min,
                "max": self.max,
                "buckets": {
                    **{
                        f"le_{bound:g}": n
                        for bound, n in zip(self.buckets, self.bucket_counts)
                    },
                    "overflow": self.bucket_counts[-1],
                },
            }


#: Default per-name series cap: generous for legitimate label sets
#: (levels, shards, ops x outcomes) while catching unbounded labels.
DEFAULT_MAX_SERIES_PER_NAME = 64


class MetricsRegistry:
    """Get-or-create home for every published metric series.

    ``max_series_per_name`` bounds label cardinality per metric name:
    creating one series beyond the cap raises
    :class:`~repro.errors.ObservabilityError` naming the metric, which
    turns an unbounded label (session ids, tuple ids) into a loud bug
    instead of a slow leak.
    """

    def __init__(
        self, max_series_per_name: int = DEFAULT_MAX_SERIES_PER_NAME,
    ) -> None:
        if max_series_per_name < 1:
            raise ObservabilityError(
                f"max_series_per_name must be >= 1, got {max_series_per_name}"
            )
        self.max_series_per_name = max_series_per_name
        self._metrics: dict[tuple[str, _LabelKey], Counter | Gauge | Histogram] = {}
        self._series_per_name: dict[str, int] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, labels: Mapping[str, Any],
                       *args) -> Any:
        key = (name, _label_key(labels))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ObservabilityError(
                        f"metric {name!r} {dict(labels)!r} already registered "
                        f"as {type(existing).__name__}, not {cls.__name__}"
                    )
                return existing
            n_series = self._series_per_name.get(name, 0)
            if n_series >= self.max_series_per_name:
                raise ObservabilityError(
                    f"metric {name!r} exceeds the label-cardinality cap "
                    f"({self.max_series_per_name} series); refusing "
                    f"{dict(labels)!r} -- an unbounded label is a bug in "
                    "the publisher"
                )
            metric = cls(name, key[1], *args)
            self._metrics[key] = metric
            self._series_per_name[name] = n_series + 1
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, buckets: Iterable[float] | None = None,
                  **labels: Any) -> Histogram:
        chosen = tuple(buckets) if buckets is not None else SIZE_BUCKETS
        return self._get_or_create(Histogram, name, labels, chosen)

    def absorb_meter(self, meter: CostMeter, prefix: str = "cost",
                     **labels: Any) -> None:
        """Publish one meter's counters as ``<prefix>.<field>`` counters.

        This is how a finished operation's CostMeter flows into the
        registry next to the online metrics the components published
        while it ran.
        """
        for key, value in meter.snapshot().items():
            if key == "total":
                self.gauge(f"{prefix}.total", **labels).set(value)
            else:
                self.counter(f"{prefix}.{key}", **labels).inc(int(value))

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def series(self, name: str) -> list[Counter | Gauge | Histogram]:
        """Every labelled series registered under ``name``."""
        return [m for (n, _), m in sorted(self._metrics.items()) if n == name]

    def snapshot(self) -> dict[str, list[dict[str, Any]]]:
        """JSON-safe view: metric name -> list of labelled series."""
        out: dict[str, list[dict[str, Any]]] = {}
        for (name, _), metric in sorted(self._metrics.items()):
            out.setdefault(name, []).append(metric.snapshot())
        return out

    def render(self) -> str:
        """Terminal-friendly listing, one line per series."""
        lines: list[str] = []
        for (name, labels), metric in sorted(self._metrics.items()):
            label_text = (
                "{" + ", ".join(f"{k}={v}" for k, v in labels) + "}"
                if labels
                else ""
            )
            if isinstance(metric, Counter):
                lines.append(f"{name}{label_text} = {metric.value}")
            elif isinstance(metric, Gauge):
                lines.append(f"{name}{label_text} = {metric.value:.6g}")
            else:
                lines.append(
                    f"{name}{label_text} count={metric.count} "
                    f"mean={metric.mean:.6g} min={metric.min} max={metric.max}"
                )
        return "\n".join(lines)
