"""Per-relation approximation tables: epoch-scoped, persistable.

:func:`approximation_table` is, per ``(relation, column, spec)``, the
mapping ``geometry -> IntervalApprox`` of every object stored in that
column, rasterized on one fixed :class:`~repro.intermediate.filter.IntervalSpec`
grid.  It lives in the relation's epoch-scoped memo
(:meth:`~repro.relational.relation.Relation.derive`): built once per
epoch, gone when the relation mutates or dies -- a mutated relation can
never be filtered through stale approximations.

Tables can be persisted *beside the relation* as a JSON sidecar
(``<snapshot>.intervals.json``) carrying the spec, the pinned epoch and
each geometry's compact serialized approximation (base64 of
:meth:`~repro.intermediate.approx.IntervalApprox.to_bytes`).  Loading
verifies format, spec and epoch; a stale or mismatched sidecar is
reported as such and ignored rather than trusted.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

from repro.errors import IntermediateError
from repro.intermediate.approx import IntervalApprox
from repro.intermediate.filter import IntervalSpec
from repro.intermediate.raster import rasterize
from repro.persistence import geometry_from_dict, geometry_to_dict
from repro.predicates.dispatch import SpatialObject
from repro.relational.columns import column_snapshot
from repro.relational.relation import Relation

_SIDECAR_FORMAT = "repro-intervals"
_SIDECAR_SUFFIX = ".intervals.json"

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


def save_sidecar(
    path: str | Path, relation: Relation, column: str, spec: IntervalSpec
) -> Path:
    """Write the column's table as ``<path>.intervals.json``.

    ``path`` is the relation's snapshot path (or any stem); the
    sidecar records the spec and the relation epoch the table was
    built under so a later load can refuse stale data.
    """
    table = approximation_table(relation, column, spec)
    sidecar = sidecar_path(path)
    payload = {
        "format": _SIDECAR_FORMAT,
        "relation": relation.name,
        "column": column,
        "epoch": relation.modification_count,
        "spec": {
            "universe": list(spec.universe.as_tuple()),
            "level": spec.level,
        },
        "items": [
            {
                "geometry": geometry_to_dict(geom),
                "approx": (
                    None if apx is None
                    else base64.b64encode(apx.to_bytes()).decode("ascii")
                ),
            }
            for geom, apx in table.items()
        ],
    }
    sidecar.write_text(json.dumps(payload))
    return sidecar


def load_sidecar(
    path: str | Path, relation: Relation, column: str, spec: IntervalSpec
) -> bool:
    """Adopt a sidecar's table if it matches spec, column and epoch.

    Returns ``True`` when the table was adopted into the relation's
    memo.  A missing sidecar, a different grid spec, or a pinned epoch
    that no longer matches the relation's ``modification_count`` returns
    ``False`` -- the caller rebuilds from the live data instead.  A
    sidecar that *claims* the right epoch but is structurally corrupt
    raises :class:`~repro.errors.IntermediateError`.
    """
    sidecar = sidecar_path(path)
    if not sidecar.exists():
        return False
    try:
        payload = json.loads(sidecar.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IntermediateError(
            f"unreadable interval sidecar {sidecar}: {exc}"
        ) from exc
    if payload.get("format") != _SIDECAR_FORMAT:
        raise IntermediateError(
            f"not an interval sidecar: {sidecar} "
            f"(format={payload.get('format')!r})"
        )
    saved = payload.get("spec", {})
    if (
        payload.get("column") != column
        or saved.get("level") != spec.level
        or tuple(saved.get("universe", ())) != spec.universe.as_tuple()
    ):
        return False
    # A direct compare, not an EpochPin: the epoch comes from a file, and
    # an absent or non-integer one is a refusal, never "now".
    epoch = payload.get("epoch")
    if epoch != relation.modification_count:
        return False  # stale: the relation mutated since the save
    try:
        table: Table = {}
        for item in payload["items"]:
            geom = geometry_from_dict(item["geometry"])
            raw = item["approx"]
            table[geom] = (
                None if raw is None
                else IntervalApprox.from_bytes(base64.b64decode(raw))
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise IntermediateError(
            f"corrupt interval sidecar {sidecar}: {exc}"
        ) from exc
    relation.keep_derived(("intervals", column, spec), table, epoch)
    return True


def sidecar_path(path: str | Path) -> Path:
    """The sidecar file that rides beside a relation snapshot path."""
    p = Path(path)
    return p.with_name(p.name + _SIDECAR_SUFFIX)
