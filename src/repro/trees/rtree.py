"""Guttman's R-tree [Gutt84] -- the canonical abstract generalization tree.

Figure 2 of the paper shows an R-tree as the prime example of a
generalization tree whose interior nodes are "just technical entities
that are of no interest to the user".  This is a from-scratch
implementation with:

* ChooseLeaf by least MBR enlargement (ties by smaller area);
* node splitting via Guttman's **quadratic** algorithm;
* AdjustTree with split propagation and root growth;
* deletion with CondenseTree (orphan re-insertion) and root shrinkage;
* rectangle search and the :class:`GeneralizationTree` traversal protocol
  (leaf data entries appear as childless application-object nodes; their
  ``region`` is the *actual* stored geometry so exact theta refinement
  does not lose precision).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import TreeError
from repro.geometry.rect import Rect
from repro.predicates.dispatch import SpatialObject
from repro.storage.record import RecordId
from repro.trees.base import GeneralizationTree


@dataclass(slots=True)
class RTreeEntry:
    """One slot of an R-tree node.

    Interior entries point at a child node; leaf entries carry the stored
    object and its tuple id.  ``mbr`` is maintained incrementally.
    """

    mbr: Rect
    child: "RTreeNode | None" = None
    obj: SpatialObject | None = None
    tid: RecordId | None = None

    @property
    def is_data(self) -> bool:
        return self.child is None


@dataclass(slots=True)
class RTreeNode:
    """An R-tree node: a leaf holds data entries, an interior node children."""

    is_leaf: bool
    entries: list[RTreeEntry] = field(default_factory=list)
    parent: "RTreeNode | None" = None

    def mbr(self) -> Rect:
        """Union of the entries' rectangles."""
        if not self.entries:
            raise TreeError("empty R-tree node has no MBR")
        return Rect.union_of(e.mbr for e in self.entries)

    def centerpoint(self):
        return self.mbr().centerpoint()


class RTree(GeneralizationTree):
    """R-tree with configurable fan-out and Guttman's quadratic split.

    ``max_entries`` is Guttman's ``M`` (the paper's branching factor k for
    a full node); ``min_entries`` defaults to ``max_entries // 2``.
    """

    def __init__(
        self,
        max_entries: int = 10,
        min_entries: int | None = None,
    ) -> None:
        if max_entries < 2:
            raise TreeError(f"max_entries must be at least 2, got {max_entries}")
        if min_entries is None:
            min_entries = max(1, max_entries // 2)
        if not 1 <= min_entries <= max_entries // 2:
            raise TreeError(
                f"min_entries must be in [1, max_entries//2], got {min_entries}"
            )
        self.max_entries = max_entries
        self.min_entries = min_entries
        self._root = RTreeNode(is_leaf=True)
        self._size = 0

    # ------------------------------------------------------------------
    # GeneralizationTree protocol
    # ------------------------------------------------------------------

    def root(self) -> Any:
        return self._root

    def children(self, node: Any) -> list[Any]:
        if isinstance(node, RTreeEntry):
            return []  # data entries are the tree's leaves for traversal
        if node.is_leaf:
            return list(node.entries)
        return [e.child for e in node.entries]

    def region(self, node: Any) -> SpatialObject:
        if isinstance(node, RTreeEntry):
            # Hand back the exact stored geometry, not just its MBR.
            return node.obj if node.obj is not None else node.mbr
        return node.mbr()

    def tid(self, node: Any) -> RecordId | None:
        if isinstance(node, RTreeEntry):
            return node.tid
        return None  # interior/leaf nodes are technical entities

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert(self, obj: SpatialObject, tid: RecordId) -> None:
        """Insert an object with its tuple id (Guttman's Insert)."""
        entry = RTreeEntry(mbr=obj.mbr(), obj=obj, tid=tid)
        leaf = self._choose_leaf(self._root, entry.mbr)
        leaf.entries.append(entry)
        self._size += 1
        if len(leaf.entries) > self.max_entries:
            self._split_and_adjust(leaf)
        else:
            self._adjust_mbrs_upward(leaf)

    def _choose_leaf(self, node: RTreeNode, rect: Rect) -> RTreeNode:
        while not node.is_leaf:
            best = min(
                node.entries,
                key=lambda e: (e.mbr.enlargement(rect), e.mbr.area()),
            )
            assert best.child is not None
            node = best.child
        return node

    def _split_and_adjust(self, node: RTreeNode) -> None:
        sibling = self._split_node(node)
        parent = node.parent
        if parent is None:
            new_root = RTreeNode(is_leaf=False)
            for child in (node, sibling):
                child.parent = new_root
                new_root.entries.append(RTreeEntry(mbr=child.mbr(), child=child))
            self._root = new_root
            return
        # Refresh the parent's entry for the split node and add the sibling.
        for e in parent.entries:
            if e.child is node:
                e.mbr = node.mbr()
                break
        sibling.parent = parent
        parent.entries.append(RTreeEntry(mbr=sibling.mbr(), child=sibling))
        if len(parent.entries) > self.max_entries:
            self._split_and_adjust(parent)
        else:
            self._adjust_mbrs_upward(parent)

    def _adjust_mbrs_upward(self, node: RTreeNode) -> None:
        child = node
        parent = node.parent
        while parent is not None:
            for e in parent.entries:
                if e.child is child:
                    e.mbr = child.mbr()
                    break
            child = parent
            parent = parent.parent

    # -- splitting -----------------------------------------------------

    def _split_node(self, node: RTreeNode) -> RTreeNode:
        """Distribute ``node``'s entries over it and a new sibling."""
        group_a, group_b = self._quadratic_split(node.entries)
        sibling = RTreeNode(is_leaf=node.is_leaf)
        node.entries = group_a
        sibling.entries = group_b
        if not node.is_leaf:
            for e in sibling.entries:
                assert e.child is not None
                e.child.parent = sibling
        return sibling

    def _quadratic_split(
        self, entries: list[RTreeEntry]
    ) -> tuple[list[RTreeEntry], list[RTreeEntry]]:
        """Guttman's quadratic split: worst seed pair, then greedy PickNext."""
        seed_a, seed_b = self._pick_seeds_quadratic(entries)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        mbr_a = entries[seed_a].mbr
        mbr_b = entries[seed_b].mbr
        rest = [e for i, e in enumerate(entries) if i not in (seed_a, seed_b)]

        while rest:
            # If one group must take everything to reach min_entries, do it.
            if len(group_a) + len(rest) == self.min_entries:
                group_a.extend(rest)
                break
            if len(group_b) + len(rest) == self.min_entries:
                group_b.extend(rest)
                break
            # PickNext: entry with the greatest preference difference.
            best_idx = max(
                range(len(rest)),
                key=lambda i: abs(
                    mbr_a.enlargement(rest[i].mbr) - mbr_b.enlargement(rest[i].mbr)
                ),
            )
            e = rest.pop(best_idx)
            da = mbr_a.enlargement(e.mbr)
            db = mbr_b.enlargement(e.mbr)
            if da < db or (da == db and mbr_a.area() <= mbr_b.area()):
                group_a.append(e)
                mbr_a = mbr_a.union(e.mbr)
            else:
                group_b.append(e)
                mbr_b = mbr_b.union(e.mbr)
        return group_a, group_b

    @staticmethod
    def _pick_seeds_quadratic(entries: list[RTreeEntry]) -> tuple[int, int]:
        """The pair wasting the most area when grouped together."""
        best = (0, 1)
        best_waste = float("-inf")
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                union = entries[i].mbr.union(entries[j].mbr)
                waste = union.area() - entries[i].mbr.area() - entries[j].mbr.area()
                if waste > best_waste:
                    best_waste = waste
                    best = (i, j)
        return best

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------

    def delete(self, obj: SpatialObject, tid: RecordId) -> bool:
        """Remove the entry with the given tuple id; True if found.

        Implements Guttman's Delete: FindLeaf, remove, CondenseTree with
        orphan re-insertion, root shrink.
        """
        leaf = self._find_leaf(self._root, obj.mbr(), tid)
        if leaf is None:
            return False
        leaf.entries = [e for e in leaf.entries if e.tid != tid]
        self._size -= 1
        self._condense_tree(leaf)
        # Shrink the root if it is an interior node with a single child.
        while not self._root.is_leaf and len(self._root.entries) == 1:
            child = self._root.entries[0].child
            assert child is not None
            child.parent = None
            self._root = child
        return True

    def _find_leaf(self, node: RTreeNode, rect: Rect, tid: RecordId) -> RTreeNode | None:
        if node.is_leaf:
            if any(e.tid == tid for e in node.entries):
                return node
            return None
        for e in node.entries:
            if e.mbr.intersects(rect):
                assert e.child is not None
                found = self._find_leaf(e.child, rect, tid)
                if found is not None:
                    return found
        return None

    def _condense_tree(self, node: RTreeNode) -> None:
        orphans: list[RTreeEntry] = []
        current = node
        while current.parent is not None:
            parent = current.parent
            if len(current.entries) < self.min_entries:
                parent.entries = [e for e in parent.entries if e.child is not current]
                orphans.extend(self._collect_data_entries(current))
            else:
                for e in parent.entries:
                    if e.child is current:
                        e.mbr = current.mbr()
                        break
            current = parent
        for orphan in orphans:
            assert orphan.obj is not None and orphan.tid is not None
            self._size -= 1  # insert() will count it again
            self.insert(orphan.obj, orphan.tid)

    def _collect_data_entries(self, node: RTreeNode) -> list[RTreeEntry]:
        if node.is_leaf:
            return list(node.entries)
        out: list[RTreeEntry] = []
        for e in node.entries:
            assert e.child is not None
            out.extend(self._collect_data_entries(e.child))
        return out

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def search(self, rect: Rect) -> list[RTreeEntry]:
        """All data entries whose MBR intersects ``rect``."""
        out: list[RTreeEntry] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            for e in node.entries:
                if e.mbr.intersects(rect):
                    if node.is_leaf:
                        out.append(e)
                    else:
                        assert e.child is not None
                        stack.append(e.child)
        return out

    def search_tids(self, rect: Rect) -> list[RecordId]:
        """Tuple ids of all entries intersecting ``rect``."""
        return [e.tid for e in self.search(rect) if e.tid is not None]

    def data_entries(self) -> Iterator[RTreeEntry]:
        """All stored data entries (arbitrary order)."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(e.child for e in node.entries if e.child is not None)

    # ------------------------------------------------------------------
    # Maintenance / introspection
    # ------------------------------------------------------------------

    def remap_tids(self, rid_map: dict) -> None:
        """Rewrite tuple ids after the backing relation was reclustered."""
        for e in self.data_entries():
            if e.tid in rid_map:
                e.tid = rid_map[e.tid]

    def __len__(self) -> int:
        return self._size

    def is_empty(self) -> bool:
        return self._size == 0

    def check_invariants(self) -> None:
        """Validate R-tree structural invariants (for tests).

        Checks entry counts, MBR consistency (parent entry rectangle equals
        the child's actual MBR), parent pointers and uniform leaf depth.
        """
        depths: set[int] = set()
        self._check_node(self._root, 0, depths, is_root=True)
        if len(depths) > 1:
            raise TreeError(f"leaves at multiple depths: {sorted(depths)}")

    def _check_node(self, node: RTreeNode, depth: int, depths: set[int], is_root: bool = False) -> None:
        if not is_root and not self.min_entries <= len(node.entries) <= self.max_entries:
            raise TreeError(
                f"node entry count {len(node.entries)} outside "
                f"[{self.min_entries}, {self.max_entries}]"
            )
        if is_root and len(node.entries) > self.max_entries:
            raise TreeError(f"root overfull: {len(node.entries)} entries")
        if node.is_leaf:
            depths.add(depth)
            for e in node.entries:
                if not e.is_data:
                    raise TreeError("leaf node contains a non-data entry")
                if e.obj is not None and not e.mbr.contains_rect(e.obj.mbr()):
                    raise TreeError("data entry MBR does not cover its object")
            return
        for e in node.entries:
            if e.child is None:
                raise TreeError("interior node contains a data entry")
            if e.child.parent is not node:
                raise TreeError("broken parent pointer")
            actual = e.child.mbr()
            if e.mbr != actual:
                raise TreeError(f"stale entry MBR: stored {e.mbr}, actual {actual}")
            self._check_node(e.child, depth + 1, depths)
