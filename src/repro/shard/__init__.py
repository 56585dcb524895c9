"""Composite-aware sharding: placement, worker runner, router, 2PC.

The sharding subsystem lifts the paper's composite-locality argument
(§2.3, first-parent clustering) from pages to processes: a composite
hierarchy that clusters well on one page also partitions well onto one
shard, keeping the common-case transaction single-shard.

Layers
------
:mod:`repro.shard.placement`
    Maps every object to a shard.  Shard membership is a pure function
    of the UID (strided allocation); new free objects are placed by a
    pluggable policy, composite children land on their parent's shard.
    The layout is persisted as ``manifest.json`` and audited by fsck.
:mod:`repro.shard.worker`
    Spawns N ``ReproServer`` processes, each owning a disjoint UID
    stride with its own journal/data-dir.
:mod:`repro.shard.router`
    An asyncio front-end speaking the existing wire protocol: proxies
    single-shard transactions on a raw-frame fast path, coordinates
    cross-shard transactions with two-phase commit on the group-commit
    journal.
:mod:`repro.shard.twopc`
    The coordinator decision log and in-doubt resolution helpers.
:mod:`repro.shard.crashsim`
    Multi-process crash testing, the ``shard`` scenario of the drill
    engine (:mod:`repro.faults.drill`, ``repro-sweep shard``): seeded
    workloads with worker and coordinator kills at every 2PC state,
    checked against a committed-prefix oracle plus clean fsck on every
    shard.

See docs/SHARDING.md for placement rules, the 2PC state machine, and
the recovery matrix.
"""

from .crashsim import ShardCrashSim, ShardPlan, random_plan
from .placement import Manifest, shard_of_uid
from .router import ShardRouter
from .twopc import CoordinatorLog
from .worker import ShardCluster, WorkerSpec

__all__ = [
    "CoordinatorLog",
    "Manifest",
    "ShardCluster",
    "ShardCrashSim",
    "ShardPlan",
    "ShardRouter",
    "WorkerSpec",
    "random_plan",
    "shard_of_uid",
]
