"""Zero-dependency query tracing: nested spans over the cost meters.

The paper's argument is an *accounting* argument -- the C/D formulas
predict page accesses and predicate evaluations -- so the tracer's unit
of duration is the same accounting: every span can capture the delta of
a :class:`~repro.storage.costs.CostMeter` between entry and exit (the
"virtual clock" of the simulated engine) alongside its wall-clock time.
A SELECT traversal then decomposes into one span per tree level, each
carrying exactly the page reads and Theta evaluations that level caused
-- Figures 8-13 become explainable per level instead of per run.

Two implementations share one surface:

* :class:`Tracer` records spans and can export them as JSONL or render
  them as an indented tree;
* :class:`NullTracer` (singleton :data:`NULL_TRACER`) is the disabled
  path: ``span()`` hands back one shared no-op context manager, so
  instrumented code costs a single attribute call per *span* (never per
  tuple or per predicate) when tracing is off.

Instrumented code follows one idiom::

    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.span("join.level", meter=meter, level=j) as span:
        ...
        span.set_tag("qual_pairs", len(qual_pairs))

Span cost deltas are *inclusive* (a parent contains its children).  The
exporter also derives the *exclusive* ``cost_self`` of every span --
inclusive minus the sum of the direct children's inclusive deltas -- so
summing ``cost_self`` over a trace reproduces the root totals exactly.

Distributed traces: spans recorded in another process (a shard worker)
are shipped home as exported records and **grafted** into the local
tree with :meth:`Tracer.graft`.  Every exported record carries a
*stable, process-qualified* ``uid`` (``"shard2g1:0"``) next to the
local integer ids, so parent links survive the graft and re-exporting
the merged tree yields the same identities the worker minted.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, TextIO

from repro.errors import ObservabilityError
from repro.storage.costs import COUNTER_FIELDS, CostMeter

#: Meter snapshot keys that participate in span cost deltas.  ``total``
#: doubles as the span's virtual-clock duration (paper cost units).
_DELTA_KEYS: tuple[str, ...] = COUNTER_FIELDS + ("total",)


@dataclass(slots=True)
class Span:
    """One traced operation: name, tags, wall time, meter deltas.

    ``process``/``remote_id`` are set only on *grafted* spans: they keep
    the identity the originating process minted (``process`` label plus
    the remote integer id), which is what makes exported uids stable
    across the graft.  Locally recorded spans leave both unset and are
    qualified with their own tracer's process label on export.
    """

    span_id: int
    parent_id: int | None
    depth: int
    name: str
    tags: dict[str, Any] = field(default_factory=dict)
    wall_start: float = 0.0
    wall_end: float | None = None
    cost_start: dict[str, float] | None = None
    cost_end: dict[str, float] | None = None
    process: str | None = None
    remote_id: int | None = None

    def set_tag(self, key: str, value: Any) -> None:
        """Attach or overwrite one tag (usable while the span is open)."""
        self.tags[key] = value

    @property
    def wall_seconds(self) -> float:
        """Wall-clock duration (0.0 while the span is still open)."""
        if self.wall_end is None:
            return 0.0
        return self.wall_end - self.wall_start

    @property
    def cost(self) -> dict[str, float]:
        """Inclusive meter delta over the span ({} when no meter given)."""
        if self.cost_start is None or self.cost_end is None:
            return {}
        return {
            k: self.cost_end.get(k, 0.0) - self.cost_start.get(k, 0.0)
            for k in _DELTA_KEYS
        }

    @property
    def virtual_duration(self) -> float:
        """The span's duration on the cost model's virtual clock."""
        return self.cost.get("total", 0.0)


class _SpanHandle:
    """Context manager opening/closing one span on its tracer."""

    __slots__ = ("_tracer", "_span", "_meter")

    def __init__(self, tracer: "Tracer", span: Span, meter: CostMeter | None) -> None:
        self._tracer = tracer
        self._span = span
        self._meter = meter

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._span)
        if self._meter is not None:
            self._span.cost_start = self._meter.snapshot()
        self._span.wall_start = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._span.wall_end = time.perf_counter()
        if self._meter is not None:
            self._span.cost_end = self._meter.snapshot()
        popped = self._tracer._stack.pop()
        if popped is not self._span:  # pragma: no cover - misuse guard
            raise ObservabilityError(
                f"span stack corrupted: closed {self._span.name!r} but "
                f"{popped.name!r} was on top"
            )


class Tracer:
    """Records nested spans; export as JSONL or render as a tree.

    ``process`` is this tracer's process label -- the qualifier its own
    spans export under (``"main:3"``).  Workers use their shard and
    generation (``"shard2g1"``), so a grafted tree never has two spans
    with the same uid even after restarts.  ``first_id`` seeds the
    span-id counter: a long-lived process serving many requests through
    throwaway tracers (a shard worker) threads the sequence across them,
    so one incarnation never mints the same uid twice.
    """

    def __init__(self, process: str = "main", *, first_id: int = 0) -> None:
        if not process or ":" in process:
            raise ObservabilityError(
                f"process label must be non-empty and ':'-free, "
                f"got {process!r}"
            )
        if first_id < 0:
            raise ObservabilityError(
                f"first_id must be >= 0, got {first_id}"
            )
        self.process = process
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = first_id

    @property
    def enabled(self) -> bool:
        return True

    def span(self, name: str, *, meter: CostMeter | None = None,
             **tags: Any) -> _SpanHandle:
        """Open a child span of the currently active span.

        ``meter`` is snapshotted at entry and exit; the difference is the
        span's inclusive cost delta.  Extra keyword arguments become
        tags; more can be added through :meth:`Span.set_tag` while the
        span is open.
        """
        parent = self._stack[-1] if self._stack else None
        span = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            depth=parent.depth + 1 if parent is not None else 0,
            name=name,
            tags=dict(tags),
        )
        self._next_id += 1
        self.spans.append(span)
        return _SpanHandle(self, span, meter)

    # ------------------------------------------------------------------
    # Remote spans
    # ------------------------------------------------------------------

    def active_span(self) -> Span | None:
        """The innermost currently open span, if any."""
        return self._stack[-1] if self._stack else None

    def graft(
        self, records: Iterable[dict[str, Any]], *,
        default_process: str | None = None,
    ) -> list[Span]:
        """Attach remote span records under the currently active span.

        ``records`` is the output of another tracer's :meth:`to_records`
        (shipped across a process boundary as plain dicts).  Remote
        spans keep the identity their process minted -- ``process`` and
        the remote integer id -- so exported uids and parent links are
        stable across the graft.  Remote roots become children of the
        active span (or trace roots when nothing is open); remote
        parent/child links are preserved via the remote ids.  Costs
        arrive as precomputed inclusive deltas, so the conservation law
        extends over the grafted subtree unchanged.
        """
        parent = self.active_span()
        id_map: dict[int, Span] = {}
        grafted: list[Span] = []
        for rec in records:
            remote_parent = rec.get("parent_id")
            if remote_parent is not None and remote_parent in id_map:
                attach_to: Span | None = id_map[remote_parent]
            else:
                attach_to = parent
            process = rec.get("process") or default_process
            if not process:
                raise ObservabilityError(
                    f"remote span record {rec.get('name')!r} has no "
                    "process label; pass default_process"
                )
            span = Span(
                span_id=self._next_id,
                parent_id=attach_to.span_id if attach_to is not None else None,
                depth=attach_to.depth + 1 if attach_to is not None else 0,
                name=str(rec["name"]),
                tags=dict(rec.get("tags", {})),
                wall_start=0.0,
                wall_end=float(rec.get("wall_seconds", 0.0)),
                process=process,
                remote_id=int(rec["span_id"]),
            )
            cost = rec.get("cost") or {}
            if cost:
                span.cost_start = dict.fromkeys(_DELTA_KEYS, 0.0)
                span.cost_end = {
                    k: float(cost.get(k, 0.0)) for k in _DELTA_KEYS
                }
            self._next_id += 1
            self.spans.append(span)
            id_map[int(rec["span_id"])] = span
            grafted.append(span)
        return grafted

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def uid_of(self, span: Span) -> str:
        """The span's stable, process-qualified identity.

        Locally recorded spans qualify with this tracer's process label;
        grafted spans keep the label and id their originating process
        minted, so the uid a worker exported is the uid the merged tree
        exports.
        """
        if span.process is not None:
            remote = span.remote_id if span.remote_id is not None \
                else span.span_id
            return f"{span.process}:{remote}"
        return f"{self.process}:{span.span_id}"

    def to_records(self) -> list[dict[str, Any]]:
        """JSON-safe span records, in span-start order.

        Each record carries the inclusive ``cost`` delta and the derived
        exclusive ``cost_self`` delta (inclusive minus the direct
        children's inclusive deltas).  Summing ``cost_self`` over every
        span of a trace therefore reproduces the root spans' inclusive
        totals -- the conservation law the trace tests pin.

        Identity comes in two forms: the local integer ``span_id`` /
        ``parent_id`` pair (compact, graft-input form) and the stable
        process-qualified ``uid`` / ``parent_uid`` strings, which
        survive grafting and re-export unchanged.
        """
        child_sums: dict[int, dict[str, float]] = {}
        for s in self.spans:
            if s.parent_id is not None and s.cost_start is not None:
                acc = child_sums.setdefault(s.parent_id, dict.fromkeys(_DELTA_KEYS, 0.0))
                for k, v in s.cost.items():
                    acc[k] += v
        uids = {s.span_id: self.uid_of(s) for s in self.spans}
        records = []
        for s in self.spans:
            cost = s.cost
            eaten = child_sums.get(s.span_id)
            if cost and eaten is not None:
                cost_self = {k: cost[k] - eaten[k] for k in _DELTA_KEYS}
            else:
                cost_self = dict(cost)
            records.append(
                {
                    "span_id": s.span_id,
                    "parent_id": s.parent_id,
                    "uid": uids[s.span_id],
                    "parent_uid": (
                        uids[s.parent_id] if s.parent_id is not None else None
                    ),
                    "process": s.process if s.process is not None else self.process,
                    "depth": s.depth,
                    "name": s.name,
                    "tags": dict(s.tags),
                    "wall_seconds": s.wall_seconds,
                    "cost": cost,
                    "cost_self": cost_self,
                }
            )
        return records

    def export_jsonl(self, out: TextIO) -> int:
        """Write one JSON object per span; returns the span count."""
        records = self.to_records()
        for record in records:
            out.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)

    def render_tree(self) -> str:
        """Indented per-span view: name, key tags, wall and cost deltas."""
        return render_records(self.to_records())


class _NullSpan:
    """The shared do-nothing span the disabled path hands out."""

    __slots__ = ()

    def set_tag(self, key: str, value: Any) -> None:
        pass


class _NullHandle:
    """Reusable no-op context manager: enter/exit do nothing."""

    __slots__ = ()
    _span = _NullSpan()

    def __enter__(self) -> _NullSpan:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


class NullTracer:
    """Disabled tracing: every ``span()`` call is the same no-op.

    Kept stateless and shared (:data:`NULL_TRACER`) so the instrumented
    hot paths pay one method call and one shared-object return per span
    site -- and span sites are per level / per phase, never per tuple.
    """

    _handle = _NullHandle()

    @property
    def enabled(self) -> bool:
        return False

    def span(self, name: str, *, meter: CostMeter | None = None,
             **tags: Any) -> _NullHandle:
        return self._handle

    def graft(
        self, records: Iterable[dict[str, Any]], *,
        default_process: str | None = None,
    ) -> list[Span]:
        """Disabled path: remote records are dropped, nothing is kept."""
        return []

    def roots(self) -> list[Span]:
        return []

    def to_records(self) -> list[dict[str, Any]]:
        return []

    def export_jsonl(self, out: TextIO) -> int:
        return 0

    def render_tree(self) -> str:
        return ""


#: The process-wide disabled tracer; instrumented code defaults to it.
NULL_TRACER = NullTracer()


def coalesce(tracer: "Tracer | NullTracer | None") -> "Tracer | NullTracer":
    """The given tracer, or the shared null tracer when ``None``."""
    return tracer if tracer is not None else NULL_TRACER


def sum_cost_self(records: Iterable[dict[str, Any]]) -> dict[str, float]:
    """Sum the exclusive deltas of exported records (trace conservation)."""
    totals = dict.fromkeys(_DELTA_KEYS, 0.0)
    for record in records:
        for k, v in record.get("cost_self", {}).items():
            totals[k] += v
    return totals


def render_records(records: Iterable[dict[str, Any]]) -> str:
    """Render exported span records as an indented tree.

    Works on the *wire form* (the dicts :meth:`Tracer.to_records`
    emits), so a trace can be rendered after a JSONL round trip or in a
    process that never saw the live spans -- :meth:`Tracer.render_tree`
    is this function over the tracer's own records.  Parent links
    resolve through the stable ``uid``/``parent_uid`` fields and
    children sort by local ``span_id``.
    """
    recs = list(records)
    by_uid = {r["uid"]: r for r in recs}
    kids: dict[str | None, list[dict[str, Any]]] = {}
    for r in recs:
        parent = r.get("parent_uid")
        if parent is not None and parent not in by_uid:
            parent = None
        kids.setdefault(parent, []).append(r)
    for bucket in kids.values():
        bucket.sort(key=lambda r: r["span_id"])

    def describe(rec: dict[str, Any]) -> str:
        parts = [rec["name"]]
        tags = rec.get("tags") or {}
        if tags:
            tag_text = " ".join(f"{k}={v}" for k, v in sorted(tags.items()))
            parts.append(f"[{tag_text}]")
        cost = rec.get("cost") or {}
        if cost:
            parts.append(
                "cost={:.0f} (reads={:.0f} writes={:.0f} "
                "filter={:.0f} exact={:.0f})".format(
                    cost.get("total", 0.0),
                    cost.get("page_reads", 0.0),
                    cost.get("page_writes", 0.0),
                    cost.get("theta_filter_evals", 0.0),
                    cost.get("theta_exact_evals", 0.0),
                )
            )
        parts.append(f"wall={rec.get('wall_seconds', 0.0) * 1e3:.2f}ms")
        return " ".join(parts)

    lines: list[str] = []

    def walk(rec: dict[str, Any], prefix: str, is_last: bool) -> None:
        glyph = "`-- " if is_last else "|-- "
        lines.append(prefix + glyph + describe(rec))
        children = kids.get(rec["uid"], [])
        ext = "    " if is_last else "|   "
        for i, kid in enumerate(children):
            walk(kid, prefix + ext, i == len(children) - 1)

    for root in kids.get(None, []):
        lines.append(describe(root))
        children = kids.get(root["uid"], [])
        for i, kid in enumerate(children):
            walk(kid, "", i == len(children) - 1)
    return "\n".join(lines)
