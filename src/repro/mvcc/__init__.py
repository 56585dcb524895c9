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

Exports resolve on first use, so the server, which runs only the
:class:`SnapshotManager`, loads neither the replica nor its drills.
"""

__all__ = [
    "JournalFollower",
    "ReadRouter",
    "ReplicaDrill",
    "ReplicaServer",
    "ReplicaThread",
    "SnapshotManager",
]


#: Lazily exported name -> the submodule defining it.
_LAZY = {
    "ReplicaDrill": "crashsim", "SnapshotManager": "manager",
    "JournalFollower": "replica", "ReadRouter": "replica",
    "ReplicaServer": "replica", "ReplicaThread": "replica",
}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
