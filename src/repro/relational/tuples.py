"""Relation tuples: immutable rows with a tuple identifier.

Tuple identifiers are the :class:`~repro.storage.record.RecordId` of the
row's record in the backing file; join indices store exactly these ids
(Section 2.1: "a join index is nothing but a two-column relation that
stores the tuple IDs of matching tuples").
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import SchemaError
from repro.relational.schema import Schema
from repro.storage.record import RecordId


class RelTuple:
    """One row of a relation: schema-bound values plus an optional id.

    Access columns by name (``t["hlocation"]``) or position (``t.values``).
    Instances are value-immutable; the tuple id is assigned by the relation
    when the row is stored.
    """

    __slots__ = ("_schema", "_values", "tid")

    def __init__(self, schema: Schema, values: Sequence[Any], tid: RecordId | None = None) -> None:
        self._schema = schema
        self._values = schema.validate(values)
        self.tid = tid

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def values(self) -> tuple[Any, ...]:
        return self._values

    def __getitem__(self, name: str) -> Any:
        return self._values[self._schema.index_of(name)]

    def project(self, names: Sequence[str]) -> "RelTuple":
        """A new (id-less) tuple with only the named columns."""
        sub = self._schema.project(names)
        return RelTuple(sub, [self[n] for n in names])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelTuple):
            return NotImplemented
        return self._schema == other._schema and self._values == other._values

    def __hash__(self) -> int:
        try:
            return hash((self._schema, self._values))
        except TypeError as exc:  # pragma: no cover - all our types hash
            raise SchemaError(f"tuple contains unhashable value: {exc}") from exc

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{n}={v!r}" for n, v in zip(self._schema.column_names, self._values)
        )
        return f"RelTuple({pairs})"
