"""The adaptive query-result and Theta-filter cache.

Motivation (ROADMAP north star + Section 4): under HI-LOC workloads the
same hot windows and join pairs are queried over and over, yet every
``executor.select``/``executor.join`` re-traverses the generalization
tree from the root.  The cache short-circuits that repetition in three
tiers:

* **exact hit** -- the same query (relation identity, predicate,
  geometry fingerprint) at the same modification epoch: the stored
  result is served verbatim at zero page reads;
* **containment hit** -- a cached SELECT for window ``W`` answers any
  ``W' subset-of W`` by refining the stored Theta-filter candidate set
  (or, for exact-monotone operators, the stored matches) with the exact
  predicate -- justified by the Table 1 filter contract:
  ``Theta-hits(W)`` is a superset of ``Theta-hits(W')``;
* **miss** -- the query executes normally and is admitted under the
  policy of :mod:`repro.cache.policy`, by the seconds its metered work
  takes.

Invalidation is *epoch-based* (DESIGN.md, "Epochs and derived state"):
entries live in *groups* -- one query shape over the same operands at
the same epochs -- and each group carries one
:class:`~repro.relational.relation.EpochPin`.  Any insert, delete,
recluster or WAL-recovery replay makes the pin stale, and a stale group
is dropped whole the next time it is touched (and by
:meth:`QueryCache.purge_stale`), never served.  Keys embed
:attr:`~repro.relational.relation.Relation.uid` -- a stable,
never-recycled instance id -- and the pin holds its relations weakly:
dropping a relation releases its cached results (and their geometry
payloads) instead of pinning them forever, and a same-named reload gets
a fresh uid so it can never be served another relation's answers.

The cache is safe to share across threads: one re-entrant lock guards
every probe, admission, eviction and sweep, which is what lets the
multi-session query service of :mod:`repro.server` keep a single cache
hot for all concurrent clients.

Symmetric operators are orientation-normalized: ``R join S`` and
``S join R`` under a symmetric theta share one entry, with the pair
order swapped on the way out.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cache.keys import (
    exact_monotone,
    geometry_fingerprint,
    theta_cache_key,
    window_monotone,
)
from repro.cache.policy import (
    CachePolicy,
    estimate_join_bytes,
    estimate_select_bytes,
)
from repro.geometry.rect import Rect
from repro.join.result import JoinResult, SelectResult
from repro.predicates.theta import ThetaOperator
from repro.relational.relation import EpochPin, Relation
from repro.storage.costs import CostMeter


@dataclass(slots=True)
class CacheStats:
    """Lifetime event counters of one cache instance."""

    probes: int = 0
    exact_hits: int = 0
    containment_hits: int = 0
    misses: int = 0
    admissions: int = 0
    rejections: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hits(self) -> int:
        return self.exact_hits + self.containment_hits

    def snapshot(self) -> dict[str, int]:
        return {
            "probes": self.probes,
            "exact_hits": self.exact_hits,
            "containment_hits": self.containment_hits,
            "misses": self.misses,
            "admissions": self.admissions,
            "rejections": self.rejections,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


@dataclass(slots=True)
class _Group:
    """The entries of one query shape over the same operands at the same
    epochs: they go stale together, so they share one pin.

    The pin holds the operands weakly -- a group must never keep a
    relation alive (a dropped relation would otherwise be pinned by its
    own cached answers, forever).
    """

    pin: EpochPin
    keys: set[tuple] = field(default_factory=set)


@dataclass(slots=True)
class _Entry:
    """One cached selection, or one cached join in canonical orientation."""

    #: The owning group's ``pin.fresh``.
    fresh: Callable[[], bool]
    #: A selection's query geometry; ``None`` for a join.
    query: Any
    #: The answer: a selection's ``(tid, payload)`` matches, a join's
    #: ``(tid_r, tid_s)`` pairs.
    matches: list[tuple[Any, Any]]
    #: The by-product, when collected: a selection's Theta-candidates
    #: ``(tid, region, payload)``, a join's tuple pairs.
    extra: list | None
    #: Can an exact-monotone operator re-test the matches' payloads?
    refinable_matches: bool
    #: Seconds the answer's metered work takes (what eviction ranks by).
    cost: float
    nbytes: int
    tick: int = 0


class QueryCache:
    """Epoch-invalidated result cache for selections and joins.

    ``policy`` bounds admission and memory (see
    :class:`~repro.cache.policy.CachePolicy`); the keyword shortcuts
    construct one.  :attr:`stats` is the one store of its hit, miss,
    admission, eviction and invalidation counts.

    All public methods are thread-safe; a single instance may be shared
    by every session of a concurrent query service.
    """

    def __init__(
        self,
        policy: CachePolicy | None = None,
        *,
        byte_budget: int | None = None,
        admission_threshold: float | None = None,
    ) -> None:
        if policy is None:
            kwargs: dict[str, Any] = {}
            if byte_budget is not None:
                kwargs["byte_budget"] = byte_budget
            if admission_threshold is not None:
                kwargs["admission_threshold"] = admission_threshold
            policy = CachePolicy(**kwargs)
        self.policy = policy
        self.stats = CacheStats()
        #: entry key = the entry's group shape + one discriminator (a
        #: selection's query fingerprint, a join's strategy).
        self._entries: dict[tuple, _Entry] = {}
        self._groups: dict[tuple, _Group] = {}
        self._tick = 0
        self._lock = threading.RLock()
        #: Shapes of groups with a dead operand, purged at the next
        #: probe/admit/sweep.  A pin's death callback only appends
        #: (atomic), never touches cache structures -- it may fire
        #: inside garbage collection on any thread.
        self._dead: list[tuple] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self._entries.values())

    def entries(self) -> list[_Entry]:
        """Live entries (fresh or not-yet-purged stale), for tests."""
        with self._lock:
            return list(self._entries.values())

    def snapshot(self) -> dict[str, int]:
        """The :attr:`stats` counters, the entry count and the bytes held."""
        with self._lock:
            return {
                **self.stats.snapshot(),
                "entries": len(self._entries),
                "bytes": self.total_bytes,
            }

    def describe(self) -> str:
        """One-line terminal summary."""
        s = self.stats
        return (
            f"cache: {len(self._entries)} entries, {self.total_bytes} bytes "
            f"(budget {self.policy.byte_budget}); probes={s.probes} "
            f"exact={s.exact_hits} containment={s.containment_hits} "
            f"misses={s.misses} evictions={s.evictions} "
            f"invalidations={s.invalidations}"
        )

    # ------------------------------------------------------------------
    # The core: lookup, hit, miss, admit
    # ------------------------------------------------------------------

    def _lookup(
        self, shape: tuple, discriminator: Any, meter: CostMeter
    ) -> tuple[_Group | None, _Entry | None]:
        """Count one probe; the shape's fresh group and its exact entry."""
        self._purge_dead()
        self.stats.probes += 1
        meter.record_cache_probe()
        group = self._live_group(shape)
        if group is None:
            return None, None
        return group, self._entries.get(shape + (discriminator,))

    def _live_group(self, shape: tuple) -> _Group | None:
        """The shape's group if fresh; a stale one is dropped, never served."""
        group = self._groups.get(shape)
        if group is not None and not group.pin.fresh():
            self._invalidate(shape)
            return None
        return group

    def _hit(self, entry: _Entry, tier: str, meter: CostMeter) -> None:
        self._tick += 1
        entry.tick = self._tick
        if tier == "exact":
            self.stats.exact_hits += 1
        else:
            self.stats.containment_hits += 1
        meter.record_cache_hit()

    def _miss(self) -> tuple[None, None]:
        self.stats.misses += 1
        return None, None

    def _admit(
        self,
        shape: tuple,
        discriminator: Any,
        relations: tuple[Relation, ...],
        epochs: tuple[int | None, ...],
        cost: float,
        nbytes: int,
        *,
        query: Any,
        matches: list[tuple[Any, Any]],
        extra: list | None,
        swapped: bool = False,
    ) -> bool:
        """Store one entry unless an operand moved or the policy refuses.

        ``epochs`` are the operands' modification counts *pinned before
        execution* (``None`` = now): when a relation mutated while the
        query ran (a concurrent writer), the result may mix states,
        belongs to no single epoch and is refused rather than cached.
        """
        with self._lock:
            self._purge_dead()
            dead = self._dead
            pin = EpochPin.of(
                *relations,
                epochs=[
                    rel.modification_count if epoch is None else epoch
                    for rel, epoch in zip(relations, epochs)
                ],
                on_death=lambda _ref: dead.append(shape),
            )
            if not pin.fresh() or not self.policy.admits(cost, nbytes):
                self.stats.rejections += 1
                return False
            group = self._live_group(shape)
            if group is None:
                group = self._groups[shape] = _Group(pin)
            key = shape + (discriminator,)
            self._tick += 1
            self._entries[key] = _Entry(
                fresh=group.pin.fresh,
                query=query,
                matches=_oriented(matches, swapped),
                extra=None if extra is None else _oriented(extra, swapped),
                # Only a selection's matches are ever re-tested.
                refinable_matches=query is not None and all(
                    hasattr(payload, "__getitem__") for _tid, payload in matches
                ),
                cost=cost,
                nbytes=nbytes,
                tick=self._tick,
            )
            group.keys.add(key)
            self._evict_over_budget(protect=key)
            self.stats.admissions += 1
            return True

    # ------------------------------------------------------------------
    # Selections
    # ------------------------------------------------------------------

    def probe_select(
        self,
        relation: Relation,
        column: str,
        query: Any,
        theta: ThetaOperator,
        *,
        strategy: str,
        order: str,
        meter: CostMeter,
    ) -> tuple[str, SelectResult] | tuple[None, None]:
        """Look up a selection; serve exact or containment, else miss.

        Containment refinement charges one exact predicate evaluation
        per stored candidate to ``meter`` -- the same refinement work a
        real traversal would do at the leaves -- and zero page reads.
        """
        with self._lock:
            group, entry = self._lookup(
                self._select_shape(relation, column, theta, strategy, order),
                geometry_fingerprint(query), meter,
            )
            if entry is not None:
                self._hit(entry, "exact", meter)
                result = SelectResult(
                    strategy="cached-exact", matches=list(entry.matches)
                )
                result.stats = meter.snapshot()
                return "exact", result
            served = self._containment_lookup(group, column, query, theta, meter)
            if served is not None:
                return "containment", served
            return self._miss()

    def _containment_lookup(
        self,
        group: _Group | None,
        column: str,
        query: Any,
        theta: ThetaOperator,
        meter: CostMeter,
    ) -> SelectResult | None:
        """Serve ``query`` from a cached strictly-larger window, if any."""
        if group is None or not isinstance(query, Rect):
            return None
        if not (window_monotone(theta) or exact_monotone(theta)):
            return None
        usable = []
        for key in group.keys:
            # The group is fresh, so each of its entries is.
            entry = self._entries[key]
            window = entry.query
            if not isinstance(window, Rect) or not window.contains_rect(query):
                continue
            if (entry.extra is not None and window_monotone(theta)) or (
                entry.refinable_matches and exact_monotone(theta)
            ):
                usable.append((self._refine_work(entry, theta), key))
        if not usable:
            return None
        # The entry needing the least refinement work, then the least key.
        best = self._entries[min(usable)[1]]

        result = SelectResult(strategy="cached-containment")
        if best.extra is not None and window_monotone(theta):
            # Theta-filter contract: every filter-hit of the shrunken
            # window is among W's stored candidates; refine exactly.
            for tid, region, payload in best.extra:
                meter.record_exact_eval()
                if theta(query, region):
                    result.matches.append((tid, payload))
        else:
            # Exact-monotone operator: matches(W') is a subset of
            # matches(W); re-test each stored match against W'.
            for tid, payload in best.matches:
                meter.record_exact_eval()
                if theta(query, payload[column]):
                    result.matches.append((tid, payload))
        self._hit(best, "containment", meter)
        result.stats = meter.snapshot()
        return result

    @staticmethod
    def _refine_work(entry: _Entry, theta: ThetaOperator) -> int:
        if entry.extra is not None and window_monotone(theta):
            return len(entry.extra)
        return len(entry.matches)

    def admit_select(
        self,
        relation: Relation,
        column: str,
        query: Any,
        theta: ThetaOperator,
        *,
        strategy: str,
        order: str,
        result: SelectResult,
        candidates: list[tuple[Any, Any, Any]] | None,
        measured_cost: float,
        epoch: int | None = None,
    ) -> bool:
        """Consider caching a freshly executed selection.

        ``measured_cost`` is the seconds this execution's metered work
        takes, the predictor of what a repeat would cost.  ``epoch`` is
        the relation's modification count pinned before execution (see
        :meth:`_admit`).  Returns True when admitted.
        """
        return self._admit(
            self._select_shape(relation, column, theta, strategy, order),
            geometry_fingerprint(query), (relation,), (epoch,),
            measured_cost,
            estimate_select_bytes(
                len(result.matches),
                len(candidates) if candidates is not None else 0,
                relation.record_size,
            ),
            query=query, matches=result.matches, extra=candidates,
        )

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------

    def probe_join(
        self,
        rel_r: Relation,
        column_r: str,
        rel_s: Relation,
        column_s: str,
        theta: ThetaOperator,
        *,
        strategy: str,
        collect_tuples: bool,
        meter: CostMeter,
    ) -> tuple[str, JoinResult] | tuple[None, None]:
        """Look up a join result; joins have the exact tier only."""
        with self._lock:
            shape, swapped = self._join_shape(
                rel_r, column_r, rel_s, column_s, theta
            )
            _, entry = self._lookup(shape, strategy, meter)
            if entry is None or (collect_tuples and entry.extra is None):
                return self._miss()
            self._hit(entry, "exact", meter)
            pairs, tuples = entry.matches, entry.extra if collect_tuples else []
            result = JoinResult(
                strategy="cached-exact",
                pairs=_oriented(pairs, swapped), tuples=_oriented(tuples, swapped),
            )
            result.stats = meter.snapshot()
            return "exact", result

    def admit_join(
        self,
        rel_r: Relation,
        column_r: str,
        rel_s: Relation,
        column_s: str,
        theta: ThetaOperator,
        *,
        strategy: str,
        result: JoinResult,
        collect_tuples: bool,
        measured_cost: float,
        epoch_r: int | None = None,
        epoch_s: int | None = None,
    ) -> bool:
        """Consider caching a freshly executed join.

        ``measured_cost`` is the seconds this execution's metered work
        takes.  ``epoch_r``/``epoch_s`` are the operands' modification counts
        pinned before execution; a result computed while either operand
        mutated is refused (see :meth:`_admit`).
        """
        shape, swapped = self._join_shape(rel_r, column_r, rel_s, column_s, theta)
        return self._admit(
            shape, strategy, (rel_r, rel_s), (epoch_r, epoch_s), measured_cost,
            estimate_join_bytes(
                len(result.pairs),
                len(result.tuples) if collect_tuples else 0,
                rel_r.record_size,
                rel_s.record_size,
            ),
            query=None, matches=result.pairs,
            extra=result.tuples if collect_tuples else None, swapped=swapped,
        )

    # ------------------------------------------------------------------
    # Invalidation, eviction, maintenance
    # ------------------------------------------------------------------

    def purge_stale(self) -> int:
        """Drop every entry whose relation epoch moved or died; returns count.

        Probes already invalidate lazily; this sweep exists for
        maintenance points (and for the stateful suite's invariant that
        no entry survives an epoch bump).
        """
        with self._lock:
            before = self.stats.invalidations
            self._purge_dead()
            for shape in [
                s for s, g in self._groups.items() if not g.pin.fresh()
            ]:
                self._invalidate(shape)
            return self.stats.invalidations - before

    def clear(self) -> int:
        """Drop everything (counts as evictions); returns entry count."""
        with self._lock:
            count = len(self._entries)
            for key in list(self._entries):
                self._drop(key)
                self.stats.evictions += 1
            return count

    def _purge_dead(self) -> None:
        """Drop the groups whose operand was garbage-collected.

        Runs under the lock at every probe/admit/sweep and touches
        exactly the groups that can never be served again.
        """
        while self._dead:
            self._invalidate(self._dead.pop())

    def _invalidate(self, shape: tuple) -> None:
        """Drop a whole group (an operand moved or died), if still there."""
        group = self._groups.pop(shape, None)
        if group is None:
            return
        for key in group.keys:
            del self._entries[key]
            self.stats.invalidations += 1

    def _evict_over_budget(self, protect: tuple) -> None:
        """LRU-by-cost eviction down to the byte budget."""
        while self.total_bytes > self.policy.byte_budget and len(self._entries) > 1:
            lru = sorted(
                (k for k in self._entries if k != protect),
                key=lambda k: self._entries[k].tick,
            )[: self.policy.eviction_window]
            if not lru:
                break
            victim = min(
                lru,
                key=lambda k: (self._entries[k].cost, self._entries[k].tick),
            )
            self._drop(victim)
            self.stats.evictions += 1

    def _drop(self, key: tuple) -> None:
        del self._entries[key]
        keys = self._groups[key[:-1]].keys
        keys.remove(key)
        if not keys:
            del self._groups[key[:-1]]

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------

    @staticmethod
    def _select_shape(
        relation: Relation,
        column: str,
        theta: ThetaOperator,
        strategy: str,
        order: str,
    ) -> tuple:
        return ("select", relation.uid, column, theta_cache_key(theta),
                strategy, order)

    @staticmethod
    def _join_shape(
        rel_r: Relation,
        column_r: str,
        rel_s: Relation,
        column_s: str,
        theta: ThetaOperator,
    ) -> tuple[tuple, bool]:
        """The join's group shape, and whether a symmetric join is stored
        S-first (``swapped``) so both operand orders share one entry."""
        swapped = theta.symmetric and (rel_s.uid, column_s) < (rel_r.uid, column_r)
        if swapped:
            rel_r, rel_s = rel_s, rel_r
            column_r, column_s = column_s, column_r
        shape = ("join", rel_r.uid, column_r, rel_s.uid, column_s,
                 theta_cache_key(theta))
        return shape, swapped


def _oriented(pairs: list[tuple[Any, Any]], swapped: bool) -> list[tuple[Any, Any]]:
    """A copy of ``pairs``, each flipped when the join is stored S-first."""
    return [(b, a) for a, b in pairs] if swapped else list(pairs)
