"""Relation + index assemblies for the empirical strategy comparison.

The empirical twins of Figures 8-13 need relations of controllable size
whose spatial column is indexed by a generalization tree, in both the
unclustered (IIa) and BFS-clustered (IIb) physical layouts.  This module
assembles them in one call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.geometry.rect import Rect
from repro.relational.relation import Relation
from repro.relational.schema import Column, ColumnType, Schema
from repro.storage.buffer import BufferPool
from repro.storage.costs import CostMeter
from repro.storage.disk import SimulatedDisk
from repro.trees.balanced import BalancedKTree
from repro.trees.rtree import RTree
from repro.workloads.generators import uniform_rects

OBJECT_SCHEMA = Schema(
    [
        Column("oid", ColumnType.INT),
        Column("shape", ColumnType.RECT),
    ]
)


@dataclass(slots=True)
class IndexedRelation:
    """A relation with a generalization-tree secondary index."""

    relation: Relation
    tree: RTree | BalancedKTree
    universe: Rect
    meter: CostMeter


def build_indexed_relation(
    count: int,
    *,
    universe: Rect = Rect(0.0, 0.0, 1000.0, 1000.0),
    max_extent: float = 20.0,
    seed: int = 42,
    memory_pages: int = 4000,
    clustered: bool = False,
    fanout: int = 10,
    disk: SimulatedDisk | None = None,
    meter: CostMeter | None = None,
    name: str = "objects",
) -> IndexedRelation:
    """An R-tree-indexed relation ``name`` of ``count`` random rectangles.

    With ``clustered=True`` the relation is rebuilt in the tree's BFS
    order after loading (strategy IIb's layout); otherwise insertion
    order -- uncorrelated with tree order -- is kept (strategy IIa).
    Pass a shared ``disk``/``meter`` to co-locate several relations.
    """
    if count < 1:
        raise WorkloadError(f"count must be positive, got {count}")
    if meter is None:
        meter = CostMeter()
    if disk is None:
        disk = SimulatedDisk()
    pool = BufferPool(disk, memory_pages, meter)
    relation = Relation(name, OBJECT_SCHEMA, pool)

    rng = random.Random(seed)
    rects = uniform_rects(count, universe, max_extent, max_extent, rng)
    # Shuffle so heap order is uncorrelated with spatial order.
    order = list(range(count))
    rng.shuffle(order)
    for i in order:
        relation.insert([i, rects[i]])

    tree = RTree(max_entries=fanout)
    relation.attach_index("shape", tree)

    if clustered:
        relation.recluster(tree.bfs_tids())

    return IndexedRelation(relation=relation, tree=tree, universe=universe, meter=meter)


def build_balanced_assembly(
    k: int,
    n: int,
    *,
    universe: Rect = Rect(0.0, 0.0, 1000.0, 1000.0),
    memory_pages: int = 4000,
    clustered: bool = False,
    disk: SimulatedDisk | None = None,
    meter: CostMeter | None = None,
) -> IndexedRelation:
    """A relation whose tuples are *all* nodes of a balanced k-ary tree.

    This realizes modeling assumptions S1 + S2 exactly: one tuple per
    tree node, the node's region as its spatial attribute.  Tuples are
    stored in random order (IIa) or BFS order (IIb).
    """
    if meter is None:
        meter = CostMeter()
    if disk is None:
        disk = SimulatedDisk()
    pool = BufferPool(disk, memory_pages, meter)
    relation = Relation("nodes", OBJECT_SCHEMA, pool)

    tree = BalancedKTree(k, n, universe)
    nodes = tree.bfs_list()
    order = list(range(len(nodes)))
    if not clustered:
        random.Random(k * 1000 + n).shuffle(order)
    tids = [None] * len(nodes)
    for idx in order:
        t = relation.insert([idx, nodes[idx].region.mbr()])
        tids[idx] = t.tid
    tree.assign_tids(tids)  # type: ignore[arg-type]
    return IndexedRelation(relation=relation, tree=tree, universe=universe, meter=meter)
