"""Spatial join strategies (Sections 2-3 of the paper).

The strategies compared in the paper's study, plus the index-supported
and sort-merge strategies it discusses qualitatively:

* **Strategy I** -- :func:`~repro.join.nested_loop.nested_loop_join`, the
  block nested loop with the (M-10)-page memory utilization technique;
* **Strategy II** -- :func:`~repro.join.select.spatial_select` (Algorithm
  SELECT) and :func:`~repro.join.tree_join.tree_join` (Algorithm JOIN)
  over generalization trees, in unclustered (IIa) or clustered (IIb)
  layout;
* **Strategy III** -- :class:`~repro.join.join_index.JoinIndex`, the
  precomputed Valduriez join index over a B+-tree;
* **index-supported join** -- :func:`~repro.join.index_join.index_nested_loop_join`
  (scan one relation, probe the other's tree, as in [Rote91] for grid files);
* **z-order sort-merge** -- :func:`~repro.join.zorder_merge.zorder_merge_join`,
  Orenstein's strategy, applicable to ``overlaps`` only;
* **local join indices** -- :class:`~repro.join.local_join_index.LocalJoinIndex`,
  the paper's Section 5 future-work hybrid of strategies II and III.
"""

from repro.join.accessor import NodeAccessor, RelationAccessor, DirectAccessor
from repro.join.result import JoinResult, SelectResult
from repro.join.select import spatial_select
from repro.join.tree_join import tree_join
from repro.join.nested_loop import nested_loop_join, nested_loop_select
from repro.join.index_join import (
    index_nested_loop_join,
    index_nested_loop_join_swapped,
)
from repro.join.join_index import JoinIndex
from repro.join.zorder_merge import zorder_merge_join
from repro.join.naive_sortmerge import naive_sortmerge_join
from repro.join.derived import spatial_antijoin, spatial_semijoin
from repro.join.local_join_index import LocalJoinIndex

__all__ = [
    "NodeAccessor",
    "RelationAccessor",
    "DirectAccessor",
    "JoinResult",
    "SelectResult",
    "spatial_select",
    "tree_join",
    "nested_loop_join",
    "nested_loop_select",
    "index_nested_loop_join",
    "index_nested_loop_join_swapped",
    "JoinIndex",
    "zorder_merge_join",
    "naive_sortmerge_join",
    "spatial_semijoin",
    "spatial_antijoin",
    "LocalJoinIndex",
]
