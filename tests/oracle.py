"""The one reference answer model of the test suite.

Every answer the engine gives -- a selection, a join, a k-nearest list,
through any strategy, cache tier, filter tier, shard fleet or session --
is checked against a nested loop over the theta predicates themselves.
The loops live here, once:

* :func:`select`, :func:`join` and :func:`nearest` answer over plain
  ``{key: geometry}`` rows (a key is whatever identifies a row to the
  caller: an oid, a ``RecordId``, a logical shard tid);
* :func:`rows_of` reads a relation's rows (keyed by tid or a column), and
  :func:`pairs` / :func:`tids` answer straight off relations;
* :class:`Model` holds named relations as base rows plus a commit log
  stamped with epochs, so the rows at any pinned epoch can be rebuilt
  -- the reference for snapshot reads under concurrent writers.

Nothing here imports the engine's join, index, cache or filter code;
the exact predicate and the closest-point distance are the only program
code an answer depends on.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable, Mapping

from repro.predicates.dispatch import min_distance


def select(rows: Mapping[Hashable, Any], query: Any, theta) -> list:
    """Sorted keys of the rows with ``theta(query, geometry)``."""
    return sorted(key for key, geom in rows.items() if theta(query, geom))


def join(rows_r: Mapping[Hashable, Any], rows_s: Mapping[Hashable, Any],
         theta) -> list:
    """Sorted ``(key_r, key_s)`` pairs with ``theta(geom_r, geom_s)``."""
    return sorted(
        (a, b)
        for a, ga in rows_r.items()
        for b, gb in rows_s.items()
        if theta(ga, gb)
    )


def nearest(rows: Mapping[Hashable, Any], point: Any, k: int) -> list[float]:
    """The ``k`` smallest closest-point distances to ``point``, ascending
    (ties make the keys ambiguous; the distances are not)."""
    return sorted(min_distance(point, geom) for geom in rows.values())[:k]


def rows_of(relation, column: str = "shape", key: str | None = None) -> dict:
    """A relation's current contents as ``{tid: geometry}``, or keyed by
    the value of column ``key``."""
    return {t.tid if key is None else t[key]: t[column] for t in relation.scan()}


def pairs(rel_r, col_r: str, rel_s, col_s: str, theta) -> list:
    """Sorted tid pairs of ``rel_r.col_r theta rel_s.col_s``."""
    return join(rows_of(rel_r, col_r), rows_of(rel_s, col_s), theta)


def tids(relation, column: str, query: Any, theta) -> list:
    """Sorted tids of ``{t in relation : theta(query, t.column)}``."""
    return select(rows_of(relation, column), query, theta)


class Model:
    """Named relations, ``key -> geometry``, rebuilt at any epoch.

    Each relation is a base row set at a base epoch plus a log of
    ``(epoch, key, geometry or None for a delete)``.  The log may be
    appended in any order (writers over the wire report epochs in reply
    order); :meth:`rows` replays it sorted by epoch, which is commit
    order because committed epochs of one relation are unique and
    monotone.  Thread-safe: concurrent writers log, readers rebuild.
    """

    def __init__(self) -> None:
        self._base: dict[str, tuple[int, dict]] = {}
        self._log: dict[str, list[tuple[int, Hashable, Any]]] = {}
        self._lock = threading.Lock()

    def load(self, name: str, rows: Mapping[Hashable, Any], epoch: int = 0) -> None:
        """(Re)start ``name`` from ``rows`` at ``epoch``, forgetting its log."""
        with self._lock:
            self._base[name] = (epoch, dict(rows))
            self._log[name] = []

    def insert(self, name: str, key: Hashable, geom: Any, epoch: int) -> None:
        with self._lock:
            self._log[name].append((epoch, key, geom))

    def delete(self, name: str, key: Hashable, epoch: int) -> None:
        with self._lock:
            self._log[name].append((epoch, key, None))

    def rows(self, name: str, epoch: int | None = None) -> dict:
        """The rows of ``name`` at ``epoch`` (default: after every write)."""
        with self._lock:
            _, base = self._base[name]
            log = sorted(self._log[name], key=lambda entry: entry[0])
        rows = dict(base)
        for at, key, geom in log:
            if epoch is not None and at > epoch:
                break
            if geom is None:
                rows.pop(key, None)
            else:
                rows[key] = geom
        return rows

    def epochs(self, name: str) -> list[int]:
        """Every epoch ``name`` was committed at: its base, then its writes."""
        with self._lock:
            return [self._base[name][0]] + sorted(at for at, *_ in self._log[name])

    def select(self, name: str, query: Any, theta, epoch: int | None = None) -> list:
        return select(self.rows(name, epoch), query, theta)

    def join(self, name_r: str, name_s: str, theta,
             epochs: tuple[int | None, int | None] = (None, None)) -> list:
        return join(self.rows(name_r, epochs[0]), self.rows(name_s, epochs[1]), theta)
