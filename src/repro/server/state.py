"""Shared-state manager: epoch-pinned snapshot reads over shared relations.

The concurrency protocol is an optimistic seqlock built entirely from
the one epoch mechanism of :mod:`repro.relational.relation`
(:attr:`~repro.relational.relation.Relation.modification_count`,
:meth:`~repro.relational.relation.Relation.bump_epoch` and
:class:`~repro.relational.relation.EpochPin`):

* **Writers** serialize per relation behind a write lock.  Inside the
  lock a write *pre-bumps* the epoch, applies the mutation (which bumps
  again when it completes -- every ``insert``/``delete``/``recluster``
  does), and only then records the new value as the relation's *stable
  epoch*.  While a write is in flight the live counter therefore never
  equals the stable epoch.
* **Readers** never block.  A read pins each operand's stable epoch,
  executes, and then asks the pin whether it is still fresh.  A pin
  taken while a write was mid-flight is not fresh at birth and --
  epochs being monotonic -- never becomes so; one that moved while the
  query ran means the answer may mix two states.  Either way the read
  retries from a new pin, a bounded number of times, before surfacing
  :class:`~repro.errors.SnapshotConflict`.

A read that validates is a *snapshot read*: its answer is exactly the
single-threaded answer at the pinned epoch.  The stress suite checks
that equivalence literally, by re-executing every concurrent answer
against a reconstruction of the relation at its pin.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Sequence

from repro.errors import QueryCancelled, SessionError, SnapshotConflict
from repro.relational.relation import EpochPin, Relation

#: Default number of fresh pins a read attempts after its first
#: invalidation before giving up with :class:`SnapshotConflict`.
DEFAULT_READ_RETRIES = 4


class StateManager:
    """Owns the shared relations and arbitrates reads against writes.

    One instance backs every session of a query service.  Relations are
    registered once (:meth:`register`); after that, **all mutations must
    go through** :meth:`write` -- a mutation that bypasses the write
    lock also bypasses the stable-epoch bookkeeping, and readers would
    have no way to notice it mid-query.
    """

    def __init__(self) -> None:
        self._relations: dict[str, Relation] = {}
        self._write_locks: dict[str, threading.Lock] = {}
        #: Last epoch at which each relation was quiescent; updated only
        #: under the relation's write lock, after the mutation finished.
        self._stable: dict[str, int] = {}
        self._registry_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Registration & lookup
    # ------------------------------------------------------------------

    def register(self, relation: Relation) -> None:
        """Adopt a relation into the shared namespace (by name)."""
        with self._registry_lock:
            if relation.name in self._relations:
                raise SessionError(
                    f"relation {relation.name!r} is already registered"
                )
            self._relations[relation.name] = relation
            self._write_locks[relation.name] = threading.Lock()
            self._stable[relation.name] = relation.modification_count

    def get(self, name: str) -> Relation:
        with self._registry_lock:
            try:
                return self._relations[name]
            except KeyError:
                raise SessionError(f"unknown relation {name!r}") from None

    def names(self) -> list[str]:
        with self._registry_lock:
            return sorted(self._relations)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def write(
        self,
        name: str,
        fn: Callable[[Relation], Any],
        *,
        on_commit: Callable[[int], None] | None = None,
    ) -> tuple[Any, int]:
        """Apply ``fn`` to the named relation under its write lock.

        The seqlock dance: pre-bump, mutate, then publish the new stable
        epoch.  ``fn`` is expected to advance the epoch itself (every
        ``Relation`` mutation does); the pre-bump guarantees in-flight
        visibility either way.  ``on_commit`` runs inside the lock with
        the committed epoch -- the hook differential tests use to keep
        an op log in true commit order.  Returns ``(fn result, epoch)``.
        """
        relation = self.get(name)
        lock = self._write_locks[name]
        with lock:
            relation.bump_epoch()
            try:
                result = fn(relation)
            finally:
                # Publish even after a failed mutation: the epoch moved,
                # so caches invalidate and readers re-pin -- a stuck
                # stable value would livelock every future read instead.
                self._stable[name] = relation.modification_count
            if on_commit is not None:
                on_commit(relation.modification_count)
            return result, relation.modification_count

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def pin(self, relations: Sequence[Relation]) -> EpochPin:
        """Pin every operand at its *stable* epoch: an operand with a
        write in flight makes the pin not fresh from birth."""
        epochs = []
        for rel in relations:
            stable = self._stable.get(rel.name)
            if stable is None:
                raise SessionError(f"relation {rel.name!r} is not registered")
            epochs.append(stable)
        return EpochPin.of(*relations, epochs=epochs)

    def read(
        self,
        relations: Iterable[Relation | str],
        fn: Callable[[EpochPin], Any],
        *,
        retries: int = DEFAULT_READ_RETRIES,
        on_conflict: Callable[[int], None] | None = None,
    ) -> tuple[Any, EpochPin]:
        """Run ``fn`` as an epoch-pinned snapshot read, with retries.

        ``fn`` receives the pin (so it can pass per-operand epochs to
        cache admission) and must not mutate shared state.  An exception
        raised while the pin moved is attributed to the conflict -- torn
        intermediate state can break a traversal in arbitrary ways --
        and retried; an exception under a still-valid pin is the query's
        own and propagates.  :class:`~repro.errors.QueryCancelled` (and
        its :class:`~repro.errors.DeadlineExceeded` subclass) always
        propagates, pin moved or not -- re-pinning a cancelled query
        would re-run work the caller explicitly asked to stop.
        ``on_conflict`` observes each invalidated attempt (1-based).
        Returns ``(result, validated pin)``.
        """
        rels = tuple(
            self.get(r) if isinstance(r, str) else r for r in relations
        )
        attempts = 0
        while attempts <= retries:
            attempts += 1
            pin = self.pin(rels)
            if not pin.fresh():
                if on_conflict is not None:
                    on_conflict(attempts)
                continue
            try:
                result = fn(pin)
            except QueryCancelled:
                raise
            except Exception:
                if pin.fresh():
                    raise
                if on_conflict is not None:
                    on_conflict(attempts)
                continue
            if pin.fresh():
                return result, pin
            if on_conflict is not None:
                on_conflict(attempts)
        raise SnapshotConflict(
            f"snapshot read over {[r.name for r in rels]} invalidated "
            f"{attempts} times by concurrent writers",
            attempts=attempts,
        )
