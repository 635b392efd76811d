"""The node type shared by explicit generalization trees.

R-trees keep their own internal node layout (entries with child
pointers); the cartographic and balanced trees use :class:`GTNode`
directly.  Either way the traversal algorithms only ever see the
:class:`~repro.trees.base.GeneralizationTree` protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.predicates.dispatch import SpatialObject
from repro.storage.record import RecordId


@dataclass(slots=True)
class GTNode:
    """A generalization-tree node.

    ``region`` is the node's spatial object -- for application-object
    nodes it *is* the object (a country polygon, say); for technical
    nodes it is the bounding aggregate.  ``tid`` links to the node's
    tuple in the backing relation (None for purely technical nodes);
    visiting such a node in an I/O-charged traversal fetches that tuple.
    ``payload`` carries the application object when no relation backs the
    tree (stand-alone usage).
    """

    region: SpatialObject
    tid: RecordId | None = None
    payload: Any = None
    children: list["GTNode"] = field(default_factory=list)

    def add_child(self, child: "GTNode") -> None:
        self.children.append(child)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def subtree_size(self) -> int:
        """Number of nodes in the subtree including this node."""
        return 1 + sum(c.subtree_size() for c in self.children)
