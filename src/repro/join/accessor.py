"""Node accessors: how a traversal touches storage when visiting nodes.

Section 4.1 distinguishes strategies IIa and IIb purely by *where the
tuples live* (random heap pages vs breadth-first clustered pages); the
traversal logic is identical.  An accessor decouples the two: algorithms
call :meth:`NodeAccessor.visit` for every node whose tuple they need, and
the accessor decides what that costs.

* :class:`DirectAccessor` -- no storage behind the tree; payloads come
  from the nodes themselves.  Used for pure in-memory joins and tests.
* :class:`RelationAccessor` -- nodes reference tuples by id in a backing
  relation; visiting fetches the tuple's page through the buffer pool, so
  the meter observes exactly the model's I/O pattern (random for heap
  files, run-clustered for BFS-clustered files).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from repro.relational.relation import Relation
from repro.storage.record import RecordId


class NodeAccessor(ABC):
    """Fetches the application payload behind a tree node, if any."""

    @abstractmethod
    def visit(self, tid: RecordId | None, node: Any) -> Any:
        """Return the payload for a node (None for technical nodes)."""

    def revisit(self, tid: RecordId | None, node: Any, payload: Any) -> Any:
        """A second :meth:`visit` of ``node``, charged as it would have
        been straight after the first one, which returned ``payload``.

        For a traversal that refines its candidates in a batch and so
        learns only afterwards which nodes it must visit again.  The
        default visits again.
        """
        return self.visit(tid, node)


class DirectAccessor(NodeAccessor):
    """In-memory access: the node's own payload, no I/O charged."""

    def visit(self, tid: RecordId | None, node: Any) -> Any:
        payload = getattr(node, "payload", None)
        if payload is not None:
            return payload
        return tid


class RelationAccessor(NodeAccessor):
    """Fetch tuples from a backing relation (charges page I/O on misses).

    By default pages flow through the relation's own buffer pool; pass a
    dedicated ``pool`` (over the same disk) to run cold and attribute the
    I/O to a specific meter -- the strategy comparison does this so every
    measured run starts with an empty cache.
    """

    def __init__(self, relation: Relation, pool: Any = None) -> None:
        self.relation = relation
        self.pool = pool if pool is not None else relation.buffer_pool

    def visit(self, tid: RecordId | None, node: Any) -> Any:
        if tid is None:
            return None
        page = self.pool.fetch(tid.page_id)
        return page.get(tid.slot)

    def revisit(self, tid: RecordId | None, node: Any, payload: Any) -> Any:
        # Straight after the first visit its page is the pool's most
        # recent: a second fetch would be one hit and move nothing.
        if tid is None:
            return None
        self.pool.charge_hit()
        return payload
