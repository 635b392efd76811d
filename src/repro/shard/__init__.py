"""Supervised shard runtime: standing z-order shards that survive crashes.

The subsystem runs :mod:`repro.parallel`'s partitioned join on a
*standing* fleet -- the engine's only worker processes: each shard owns
a contiguous z-order key range with its own durable heap files,
write-ahead log, buffer pool and cost meter, and serves queries from a
long-lived worker.  A supervisor
health-checks the fleet and restarts crashed shards through
:func:`repro.wal.recover`; a router executes distributed selects and
joins with bounded failover.  See ``docs/sharding.md`` for the
architecture and the degraded-result policy.
"""

from repro.errors import ShardCrashed, ShardError, ShardUnavailable
from repro.shard.keyspace import ShardMap
from repro.shard.router import ShardRouter
from repro.shard.runtime import ShardHandle, ShardRuntime
from repro.shard.supervisor import ShardSupervisor

__all__ = [
    "ShardCrashed",
    "ShardError",
    "ShardHandle",
    "ShardMap",
    "ShardRouter",
    "ShardRuntime",
    "ShardSupervisor",
    "ShardUnavailable",
]
