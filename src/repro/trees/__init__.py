"""Generalization trees (Section 3): containment hierarchies for joins.

A generalization tree is "a tree structure where each node corresponds to
a spatial object; except for the root object, each object is completely
contained in the object corresponding to its parent node" -- siblings may
overlap and dead space is allowed.  The class includes:

* :class:`~repro.trees.rtree.RTree` -- Guttman's R-tree (Figure 2), with
  quadratic node splitting; interior nodes are technical entities (no
  application payload);
* :class:`~repro.trees.cartotree.CartoTree` -- an application-specific
  hierarchy of detail (Figure 3), every node an application object;
* :class:`~repro.trees.balanced.BalancedKTree` -- the balanced k-ary tree
  of modelling assumption S1, used by the empirical twins of the paper's
  comparative study.

All trees implement the :class:`~repro.trees.base.GeneralizationTree`
protocol the SELECT / JOIN algorithms in :mod:`repro.join` traverse.
"""

from repro.trees.node import GTNode
from repro.trees.base import GeneralizationTree
from repro.trees.balanced import BalancedKTree
from repro.trees.cartotree import CartoTree
from repro.trees.rtree import RTree
from repro.trees.packing import str_pack, packing_quality
from repro.trees.knn import nearest_neighbor, nearest_neighbors

__all__ = [
    "GTNode",
    "GeneralizationTree",
    "BalancedKTree",
    "CartoTree",
    "RTree",
    "str_pack",
    "packing_quality",
    "nearest_neighbor",
    "nearest_neighbors",
]
