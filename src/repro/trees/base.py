"""The traversal protocol all generalization trees implement.

Algorithms SELECT and JOIN (Sections 3.2-3.3) only need four things from
a tree: the root handle, each node's children, each node's spatial
region (for Theta tests) and each node's application payload (tuple id),
if any.  Keeping the protocol this small lets one traversal implementation
serve R-trees, cartographic hierarchies and the balanced model trees.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Any, Iterator

from repro.predicates.dispatch import SpatialObject
from repro.storage.record import RecordId


class GeneralizationTree(ABC):
    """Protocol for hierarchical spatial structures.

    Node handles are opaque to callers; only the methods below interpret
    them.  Concrete trees may use :class:`~repro.trees.node.GTNode`
    (cartographic / balanced trees) or their own node layout (R-tree).
    """

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------

    @abstractmethod
    def root(self) -> Any:
        """The root node handle (raises for an empty tree)."""

    @abstractmethod
    def children(self, node: Any) -> list[Any]:
        """Child handles of ``node`` (empty for leaves)."""

    @abstractmethod
    def region(self, node: Any) -> SpatialObject:
        """The node's spatial object, fed to Theta and theta tests."""

    @abstractmethod
    def tid(self, node: Any) -> RecordId | None:
        """Tuple id of the node's application object, or None if technical."""

    @abstractmethod
    def insert(self, obj: SpatialObject, tid: RecordId) -> None:
        """Add an application object; used for index maintenance costs."""

    # ------------------------------------------------------------------
    # Derived helpers
    # ------------------------------------------------------------------

    def is_empty(self) -> bool:
        """True if the tree holds no nodes at all."""
        try:
            self.root()
        except Exception:
            return True
        return False

    def height(self) -> int:
        """Length of the longest root-to-leaf path (root at height 0).

        Matches the paper's convention: "the root of a tree is considered
        at height 0" and ``height(GT)`` is the deepest level index.
        """
        if self.is_empty():
            return 0
        depth = 0
        level = [self.root()]
        while True:
            nxt = [c for n in level for c in self.children(n)]
            if not nxt:
                return depth
            level = nxt
            depth += 1

    def bfs_nodes(self) -> Iterator[Any]:
        """All node handles in breadth-first order.

        This is the clustering order of strategy IIb ("clustered on their
        relevant spatial attribute in breadth-first order").
        """
        if self.is_empty():
            return
        queue = deque([self.root()])
        while queue:
            node = queue.popleft()
            yield node
            queue.extend(self.children(node))

    def bfs_tids(self) -> list[RecordId]:
        """Tuple ids of application objects in BFS order (for reclustering)."""
        return [t for t in (self.tid(n) for n in self.bfs_nodes()) if t is not None]

    def node_count(self) -> int:
        """Total number of nodes."""
        return sum(1 for _ in self.bfs_nodes())

    def leaf_count(self) -> int:
        """Number of leaves."""
        return sum(1 for n in self.bfs_nodes() if not self.children(n))

    def validate(self) -> None:
        """Check the containment invariant over the whole tree.

        Children's MBRs must lie within their parent's MBR -- the defining
        property of a generalization tree.  Raises
        :class:`~repro.errors.TreeError` on violation.
        """
        from repro.errors import TreeError

        if self.is_empty():
            return
        for node in self.bfs_nodes():
            parent_mbr = self.region(node).mbr()
            for child in self.children(node):
                if not parent_mbr.contains_rect(self.region(child).mbr()):
                    raise TreeError(
                        f"containment violation under node with MBR {parent_mbr}: "
                        f"child MBR {self.region(child).mbr()}"
                    )
