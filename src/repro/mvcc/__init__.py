"""MVCC snapshot reads and journal-shipping read replicas.

The package converts the strict-2PL-only read path into the read-scaling
architecture of docs/REPLICATION.md:

* :mod:`repro.mvcc.manager` — bounded per-UID committed-version chains
  stamped with the journal's commit epochs; lock-free consistent
  snapshot reads at a chosen epoch.
* :mod:`repro.mvcc.replica` — journal-shipping followers replaying
  sealed group-commit batches and serving stale-bounded reads with an
  advertised replication lag (the ``repro-replica`` entry point).
* :mod:`repro.mvcc.crashsim` — replica failover drills (kill-replica /
  kill-primary-mid-ship), the ``replica`` scenario of the drill engine
  (:mod:`repro.faults.drill`, ``repro-sweep replica``).
"""

from .crashsim import ReplicaDrill
from .manager import SnapshotManager
from .replica import JournalFollower, ReadRouter, ReplicaServer, ReplicaThread

__all__ = [
    "JournalFollower",
    "ReadRouter",
    "ReplicaDrill",
    "ReplicaServer",
    "ReplicaThread",
    "SnapshotManager",
]
