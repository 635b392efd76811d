"""Per-relation approximation tables, epoch-scoped.

:func:`approximation_table` is, per ``(relation, column, spec)``, the
mapping ``geometry -> IntervalApprox`` of every object stored in that
column, rasterized on one fixed :class:`~repro.intermediate.filter.IntervalSpec`
grid.  It lives in the relation's epoch-scoped memo
(:meth:`~repro.relational.relation.Relation.derive`): built once per
epoch, gone when the relation mutates or dies -- a mutated relation can
never be filtered through stale approximations.
"""

from __future__ import annotations

from repro.intermediate.approx import IntervalApprox
from repro.intermediate.filter import IntervalSpec
from repro.intermediate.raster import rasterize
from repro.predicates.dispatch import SpatialObject
from repro.relational.columns import column_snapshot
from repro.relational.relation import Relation

Table = dict[SpatialObject, IntervalApprox | None]


def approximation_table(
    relation: Relation, column: str, spec: IntervalSpec
) -> Table:
    """The column's geometry->approximation map at the current epoch,
    built on first request; objects sharing a geometry value share one
    entry."""

    def build() -> Table:
        table: Table = {}
        for geom in column_snapshot(relation, column).geoms:
            if geom not in table:
                table[geom] = rasterize(geom, spec.universe, spec.level)
        return table

    return relation.derive(("intervals", column, spec), build)
