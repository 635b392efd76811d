"""Property tests for the pool's greedy LPT load balancer."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.parallel.partitioner import PartitionTask
from repro.parallel.pool import balance_tasks


def make_task(ix: int, iy: int, nr: int, ns: int) -> PartitionTask:
    # Only row counts matter to the balancer; the columns stay unset.
    return PartitionTask(ix=ix, iy=iy, r=None, rows_r=[0] * nr, s=None, rows_s=[0] * ns)


task_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
    ),
    min_size=0, max_size=40,
)
worker_counts = st.integers(min_value=1, max_value=12)


@given(specs=task_specs, workers=worker_counts)
def test_every_tile_assigned_exactly_once(specs, workers):
    tasks = [make_task(i, 0, nr, ns) for i, (nr, ns) in enumerate(specs)]
    chunks = balance_tasks(tasks, workers)
    assigned = [task for chunk in chunks for task in chunk]
    # Identity-level check: the same task objects, each exactly once.
    assert sorted(t.ix for t in assigned) == sorted(t.ix for t in tasks)
    assert {id(t) for t in assigned} == {id(t) for t in tasks}


@given(specs=task_specs, workers=worker_counts)
def test_no_empty_chunks_and_worker_bound(specs, workers):
    tasks = [make_task(i, 0, nr, ns) for i, (nr, ns) in enumerate(specs)]
    chunks = balance_tasks(tasks, workers)
    assert len(chunks) <= workers
    assert all(chunks), "balancer must drop empty chunks, not emit them"


@given(specs=task_specs.filter(bool), workers=worker_counts)
def test_greedy_makespan_stays_within_list_scheduling_bound(specs, workers):
    """Graham's list-scheduling bound: assigning each task to the
    currently least-loaded worker keeps the longest chunk within
    ``total/m + (1 - 1/m) * heaviest`` — the load-ratio guarantee the
    pool's balancer relies on."""
    tasks = [make_task(i, 0, nr, ns) for i, (nr, ns) in enumerate(specs)]
    chunks = balance_tasks(tasks, workers)
    total = sum(t.load for t in tasks)
    heaviest = max(t.load for t in tasks)
    makespan = max(sum(t.load for t in chunk) for chunk in chunks)
    bound = total / workers + (1 - 1 / workers) * heaviest
    assert makespan <= bound + 1e-9


@given(
    count=st.integers(min_value=1, max_value=30),
    load=st.integers(min_value=1, max_value=20),
    workers=worker_counts,
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_equal_size_tiles_balance_identically_under_permutation(
    count, load, workers, seed
):
    """Shuffling equally-loaded tiles must not change the load shape:
    the multiset of chunk loads is permutation-invariant."""
    import random

    tasks = [make_task(i, 0, load, load) for i in range(count)]
    shuffled = list(tasks)
    random.Random(seed).shuffle(shuffled)
    loads_a = sorted(
        sum(t.load for t in c) for c in balance_tasks(tasks, workers)
    )
    loads_b = sorted(
        sum(t.load for t in c) for c in balance_tasks(shuffled, workers)
    )
    assert loads_a == loads_b
