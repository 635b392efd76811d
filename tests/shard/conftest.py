"""Shared fixtures for the shard-runtime tests."""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.geometry.rect import Rect
from repro.relational.relation import Relation
from repro.shard import ShardRuntime

from tests.join.conftest import make_rect_relation

#: Demo relations draw coordinates in [0, 100] with extents up to 10,
#: so this universe covers every MBR with margin.
UNIVERSE = Rect(0.0, 0.0, 120.0, 120.0)


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Every runtime must reap its worker processes before returning."""
    multiprocessing.active_children()
    yield
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


def build_relations(size: int = 60) -> tuple[Relation, Relation]:
    return (
        make_rect_relation("r", size, seed=11),
        make_rect_relation("s", size, seed=12),
    )


def loaded_runtime(
    n_shards: int = 3, *, size: int = 60, **kwargs
) -> tuple[ShardRuntime, Relation, Relation]:
    """A runtime with both demo relations loaded (caller closes it)."""
    rel_r, rel_s = build_relations(size)
    runtime = ShardRuntime(UNIVERSE, n_shards, **kwargs)
    try:
        runtime.load_relation(rel_r, "shape")
        runtime.load_relation(rel_s, "shape")
    except BaseException:
        runtime.close()
        raise
    return runtime, rel_r, rel_s
