"""Relations: schema-checked tuple collections over simulated files.

A relation owns a backing file (heap by default, clustered after
:meth:`Relation.recluster`), hands out tuple ids, and hosts secondary
spatial indices -- one generalization tree per indexed spatial column,
as the paper assumes ("each generalization tree serves as a secondary
index on a spatial column of exactly one relation", Section 3.1).
"""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import RelationError, SchemaError
from repro.relational.schema import Schema
from repro.relational.tuples import RelTuple
from repro.storage.buffer import BufferPool
from repro.storage.clustered import ClusteredFile
from repro.storage.heapfile import HeapFile
from repro.storage.record import RecordId

#: Default tuple size in bytes (the paper's ``v`` from Table 3).
DEFAULT_TUPLE_SIZE = 300


@dataclass(frozen=True, slots=True)
class EpochPin:
    """Relations held weakly, plus the epoch each was pinned at.

    "Derived from these contents, good until they move" (DESIGN.md,
    "Epochs and derived state"), seen from outside the relation: cached
    answers, a join index's second operand and served snapshot reads
    carry one and ask :meth:`fresh`.  Build with :meth:`of`.
    """

    refs: tuple[weakref.ref, ...]
    epochs: tuple[int, ...]

    @classmethod
    def of(
        cls,
        *relations: Any,
        epochs: Sequence[int] | None = None,
        on_death: Callable[[weakref.ref], None] | None = None,
    ) -> "EpochPin":
        """Pin ``relations`` at ``epochs`` (default: their epochs now).
        ``on_death`` goes to each weak reference, for an owner that must
        purge promptly; it may fire inside garbage collection on any
        thread, so it should do no more than an atomic append."""
        if epochs is None:
            epochs = [r.modification_count for r in relations]
        return cls(
            tuple(weakref.ref(r, on_death) for r in relations), tuple(epochs)
        )

    def fresh(self) -> bool:
        """True while every pinned relation is alive and unmoved."""
        for ref, epoch in zip(self.refs, self.epochs):
            relation = ref()
            if relation is None or relation.modification_count != epoch:
                return False
        return True

    def epoch_of(self, relation: Any) -> int:
        """The epoch this pin captured for ``relation``."""
        for ref, epoch in zip(self.refs, self.epochs):
            if ref() is relation:
                return epoch
        raise RelationError(f"relation {relation.name!r} is not in this pin")


class Relation:
    """A named relation backed by a simulated file.

    ``record_size`` and ``utilization`` feed the ``m = floor(s*l / v)``
    arithmetic of the cost model; with the Table 3 values each page holds
    five tuples.
    """

    #: Process-wide allocator for :attr:`uid` -- never reset, never
    #: recycled, so a uid identifies one relation *instance* forever
    #: (unlike ``id()``, which the allocator reuses after collection).
    _uid_counter = itertools.count(1)

    def __init__(
        self,
        name: str,
        schema: Schema,
        buffer_pool: BufferPool,
        record_size: int = DEFAULT_TUPLE_SIZE,
        utilization: float = 0.75,
        *,
        wal: Any = None,
    ) -> None:
        if not name:
            raise RelationError("relation name must be non-empty")
        #: Stable identity for keys that name this relation from outside
        #: (cache keys, a join index homed on its other operand): unique
        #: per instance for the process lifetime, even once collected.
        self.uid = next(Relation._uid_counter)
        self.name = name
        self.schema = schema
        self.buffer_pool = buffer_pool
        self.record_size = record_size
        self.utilization = utilization
        self._file: HeapFile = HeapFile(buffer_pool, record_size, utilization)
        self._indices: dict[str, Any] = {}
        self._clustered = False
        self._mod_count = 0
        #: The epoch-scoped memo ``(epoch, {key: value})``, replaced whole
        #: at a new epoch so a lock-free reader holds one consistent pair.
        self._derived: tuple[int, dict[Any, Any]] = (0, {})
        self._derive_lock = threading.RLock()
        #: Optional write-ahead log (duck-typed so this module never
        #: imports :mod:`repro.wal`).  When set, every mutation appends a
        #: log record and stamps the touched pages with its LSN; the
        #: buffer pool then enforces the WAL rule against those stamps.
        self.wal = wal
        if wal is not None:
            wal.register_relation(self)
            if getattr(buffer_pool, "wal", None) is None:
                buffer_pool.wal = wal

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> RelTuple:
        """Validate, store and return the tuple (with its id assigned).

        Secondary indices on this relation are maintained automatically.
        """
        t = RelTuple(self.schema, values)
        t.tid = self._file.append(t)
        if self.wal is not None:
            lsn = self.wal.log_insert(self.name, t.tid, self.schema, t.values)
            self._stamp(lsn, t.tid.page_id)
        for column, index in self._indices.items():
            index.insert(t[column], t.tid)
        self._mod_count += 1
        return t

    def insert_all(self, rows: Iterable[Sequence[Any]]) -> list[RelTuple]:
        """Insert many rows; returns the stored tuples in order."""
        return [self.insert(r) for r in rows]

    def delete(self, tid: RecordId) -> None:
        """Remove a tuple by id; index entries are removed as well."""
        t = self.get(tid)
        self._file.delete(tid)
        if self.wal is not None:
            lsn = self.wal.log_delete(self.name, tid)
            self._stamp(lsn, tid.page_id)
        for column, index in self._indices.items():
            remove = getattr(index, "delete", None) or getattr(index, "remove", None)
            if remove is not None:
                remove(t[column], tid)
        self._mod_count += 1

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def get(self, tid: RecordId) -> RelTuple:
        """Fetch one tuple by id (a page access through the buffer pool)."""
        record = self._file.get(tid)
        if not isinstance(record, RelTuple):
            raise RelationError(f"{tid} does not hold a tuple of {self.name}")
        return record

    def get_many(self, tids: Sequence[RecordId]) -> list[RelTuple]:
        """Fetch several tuples, sorting ids to batch same-page accesses."""
        return self._file.get_many(list(tids))

    def scan(self) -> Iterator[RelTuple]:
        """Sequential scan in file order."""
        for _rid, record in self._file.scan():
            yield record

    def select(self, predicate: Callable[[RelTuple], bool]) -> list[RelTuple]:
        """Materialized selection via full scan (no index use)."""
        return [t for t in self.scan() if predicate(t)]

    def project(self, names: Sequence[str]) -> list[RelTuple]:
        """Materialized projection onto the named columns."""
        return [t.project(names) for t in self.scan()]

    # ------------------------------------------------------------------
    # Indexing & clustering
    # ------------------------------------------------------------------

    def attach_index(self, column: str, index: Any, backfill: bool = True) -> None:
        """Register a secondary index (e.g. an R-tree) on a spatial column.

        The index must expose ``insert(key, tid)``; existing tuples are
        back-filled into it unless ``backfill=False`` (for indices built
        alongside the relation, like explicit cartographic hierarchies).
        """
        col = self.schema.column(column)
        if not col.type.is_spatial:
            raise SchemaError(
                f"column {column!r} of {self.name} is not spatial "
                f"({col.type.value}); generalization trees index spatial columns"
            )
        if column in self._indices:
            raise RelationError(f"{self.name} already has an index on {column!r}")
        if backfill:
            for t in self.scan():
                index.insert(t[column], t.tid)
        self._indices[column] = index
        if self.wal is not None:
            # The index content is derivable (recovery backfills from the
            # rebuilt relation); only the *fact* of the index is logged.
            self.wal.log_attach_index(self.name, column, type(index).__name__)

    def index_on(self, column: str) -> Any:
        """The secondary index on ``column``; raises if none is attached."""
        try:
            return self._indices[column]
        except KeyError:
            raise RelationError(
                f"{self.name} has no index on column {column!r}"
            ) from None

    def has_index_on(self, column: str) -> bool:
        return column in self._indices

    def recluster(self, order: Sequence[RecordId]) -> dict[RecordId, RecordId]:
        """Rebuild the backing file with tuples in the given RID order.

        This realizes strategy IIb's breadth-first clustering: pass the
        RIDs in BFS order of the generalization tree and the relation's
        pages become tree-clustered.  Returns the old-RID -> new-RID map;
        attached indices are rewritten to the new ids.
        """
        old_tuples = {rid: rec for rid, rec in self._file.scan()}
        missing = [rid for rid in order if rid not in old_tuples]
        if missing:
            raise RelationError(f"recluster order references unknown RIDs: {missing[:3]}")
        if len(order) != len(old_tuples):
            raise RelationError(
                f"recluster order has {len(order)} RIDs, relation has {len(old_tuples)} tuples"
            )
        new_file = ClusteredFile(self.buffer_pool, self.record_size, self.utilization)
        ordered_tuples = [old_tuples[rid] for rid in order]
        new_rids = new_file.bulk_load(ordered_tuples)
        rid_map = dict(zip(order, new_rids))
        if self.wal is not None:
            # One atomic commit record, logged after the new file is fully
            # built but before the swap: a crash earlier leaves orphan
            # pages and the old file intact (the recluster never
            # happened); from here on recovery replays it wholesale.
            lsn = self.wal.log_recluster(self.name, list(order), list(new_rids))
            self._stamp(lsn, *new_file.page_ids)
        for t, new_rid in zip(ordered_tuples, new_rids):
            t.tid = new_rid
        self._file = new_file
        self._clustered = True
        self._mod_count += 1
        for index in self._indices.values():
            remap = getattr(index, "remap_tids", None)
            if remap is not None:
                remap(rid_map)
        return rid_map

    # ------------------------------------------------------------------
    # Derived state: the epoch-scoped memo
    # ------------------------------------------------------------------

    def derived(self, key: Any) -> Any:
        """The value kept under ``key`` at the current epoch, else ``None``.

        Any move of :attr:`modification_count` drops every value --
        lazily, at the first lookup after it, so mutation paths do no
        extra work.  Takes no lock: a running :meth:`derive` delays no
        lookup, on this relation or another.
        """
        epoch, values = self._derived
        if epoch == self._mod_count:
            return values.get(key)
        values.clear()  # stale for good (epochs are monotonic): release
        return None

    def keep_derived(self, key: Any, value: Any, epoch: int) -> None:
        """Keep ``value`` (never ``None``), derived from the contents at
        ``epoch`` -- unless the epoch has moved since: a value built
        under a writer is not kept.  Values die with the relation.
        """
        with self._derive_lock:
            now = self._mod_count
            if epoch == now:
                if self._derived[0] != now:
                    self._derived = (now, {})
                self._derived[1][key] = value

    def derive(self, key: Any, build: Callable[[], Any]) -> Any:
        """The value under ``key``, from ``build()`` when absent.

        ``build`` runs at most once per ``(key, epoch)`` however many
        threads ask first, and may consult this relation's memo itself.
        Its result always reaches the caller (whose snapshot read the
        server retries if a writer moved the relation meanwhile).
        """
        value = self.derived(key)
        if value is None:
            with self._derive_lock:
                value = self.derived(key)
                if value is None:
                    epoch = self._mod_count
                    value = build()
                    self.keep_derived(key, value, epoch)
        return value

    def derive_with(self, key: Any, partner: "Relation", build: Callable[[], Any]) -> Any:
        """The value under ``key`` while neither this relation nor
        ``partner`` has moved since it was built, else ``build()``, kept
        with an :class:`EpochPin` on ``partner``.

        ``build`` runs outside the memo's lock: it may read ``partner``,
        whose memo another thread may hold while reading this one.  Two
        first callers may both build; either value is kept.
        """
        kept = self.derived(key)
        if kept is not None and kept[1].fresh():
            return kept[0]
        epoch, pin = self._mod_count, EpochPin.of(partner)
        value = build()
        self.keep_derived(key, (value, pin), epoch)
        return value

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _stamp(self, lsn: int, *page_ids: int) -> None:
        """Stamp resident pages with the LSN of the record covering them.

        The stamp is what the buffer pool's WAL rule checks: the page may
        not be physically written until the log is durable past ``lsn``.
        """
        for page_id in page_ids:
            page = self.buffer_pool.peek(page_id)
            if page is not None:
                page.page_lsn = lsn

    @property
    def is_clustered(self) -> bool:
        return self._clustered

    @property
    def modification_count(self) -> int:
        """Monotonic counter bumped by every tuple mutation: the epoch.

        State derived from the contents is good until this moves --
        :meth:`derive` keeps it on the relation, an :class:`EpochPin`
        tests it from outside.
        """
        return self._mod_count

    def bump_epoch(self, count: int = 1) -> int:
        """Advance the modification counter without a tuple mutation.

        Maintenance paths whose effects bypass :meth:`insert`/
        :meth:`delete` -- WAL recovery rebuilding the relation in place,
        external reorganization -- call this so every :class:`EpochPin`
        and every derived value goes stale.  Returns the new count.
        """
        if count < 1:
            raise RelationError(f"epoch bump must be positive, got {count}")
        self._mod_count += count
        return self._mod_count

    @property
    def num_pages(self) -> int:
        """Pages occupied by the relation (the model's ``ceil(N/m)``)."""
        return self._file.num_pages

    @property
    def records_per_page(self) -> int:
        """The model's ``m``."""
        return self._file.records_per_page

    @property
    def page_ids(self) -> tuple[int, ...]:
        """Ids of the pages backing this relation, in file order."""
        return self._file.page_ids

    def __len__(self) -> int:
        return len(self._file)

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {len(self)} tuples, {self.num_pages} pages)"
