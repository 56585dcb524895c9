"""Experiment B22: MVCC snapshot reads and read-replica scaling.

Two claims from docs/REPLICATION.md, measured and recorded:

1. **Snapshot reads do not block behind writers.**  Under strict 2PL a
   reader conflicting with a writer's X-lock aborts and retries; under
   MVCC it reads the committed version chain lock-free.  We run the
   same contended B9 composite mix (read-heavy, shared lock table,
   genuinely interleaved) with locked readers and with snapshot
   readers: the snapshot run must finish with strictly fewer conflict
   aborts — plus a direct micro-proof that a snapshot read succeeds
   while a writer holds the X-lock that makes the locked read fail.
   Both transaction rates are recorded, not compared: since PR 20 a
   locked read is a handful of dict probes (medians of 7 runs: 4.6-5.3k
   -> 9.0-9.7k txn/s on this mix), while a snapshot read still decodes
   a serialized image per component (``SnapshotManager.instance_at``;
   5.5-5.6k -> 7.1-7.4k), so on an uncontended CPU the locked mix is
   now the faster one — what snapshot readers buy is the aborts they
   avoid (EXPERIMENTS.md "BENCH_20" names the decode as a follow-up).

2. **Journal-shipping replicas scale reads.**  The B9 read mix is
   served through a :class:`repro.mvcc.ReadRouter` over 0/1/2/4
   replicas following one primary; each configuration records read
   throughput, where reads landed, and the advertised replication lag
   after a write burst.  (Same-process replicas share the GIL, so the
   recorded numbers are about placement and lag bounds, not parallel
   speedup.)
"""

from __future__ import annotations

import time

import pytest

from repro import Database
from repro.bench import print_table
from repro.errors import LockConflictError
from repro.locking.table import LockTable
from repro.mvcc import ReadRouter, ReplicaThread, SnapshotManager
from repro.server import Client, ServerThread
from repro.storage.durable import DurableDatabase
from repro.txn.manager import TransactionManager
from repro.workloads.txmix import (
    STAMP_ATTRIBUTE,
    composite_mix,
    memory_fixture,
    run_tm_mix,
    tcp_fixture,
)

#: Transactions in the contended in-process mix.
MIX_TRANSACTIONS = 48
#: Snapshot reads per replica configuration.
ROUTED_READS = 240
REPLICA_COUNTS = (0, 1, 2, 4)


# ---------------------------------------------------------------------------
# Claim 1: lock-free snapshot reads under contention
# ---------------------------------------------------------------------------


def _contended_mix(snapshot_readers):
    db = Database()
    SnapshotManager(db)
    roots, components = memory_fixture(db, roots=4, parts_per_root=3)
    scripts = composite_mix(
        roots,
        transactions=MIX_TRANSACTIONS,
        steps_per_txn=3,
        read_ratio=0.75,
        components_by_root=components,
        seed=20260807,
    )
    started = time.perf_counter()
    stats = run_tm_mix(db, scripts, lock_table=LockTable(),
                       snapshot_readers=snapshot_readers)
    elapsed = time.perf_counter() - started
    return {
        "config": ("snapshot-readers" if snapshot_readers
                   else "locked-readers"),
        "transactions": stats["transactions"],
        "txn_per_sec": stats["transactions"] / elapsed,
        "conflict_retries": stats["conflict_retries"],
        "snapshot_txns": stats["snapshot_transactions"],
    }


def test_b22_snapshot_reads_do_not_block(benchmark):
    # Direct micro-proof: a writer holds the X-lock; the locked read
    # conflicts, the snapshot read answers from the version chain.
    db = Database()
    manager = SnapshotManager(db)
    roots, _components = memory_fixture(db, roots=1, parts_per_root=1)
    table = LockTable()
    writer_tm = TransactionManager(db, table)
    reader_tm = TransactionManager(db, table)
    writer = writer_tm.begin()
    writer_tm.write(writer, roots[0], STAMP_ATTRIBUTE, 99)
    locked = reader_tm.begin()
    with pytest.raises(LockConflictError):
        reader_tm.read(locked, roots[0], STAMP_ATTRIBUTE)
    reader_tm.abort(locked)
    snap = reader_tm.begin(snapshot=True)
    assert reader_tm.read(snap, roots[0], STAMP_ATTRIBUTE) == 0
    reader_tm.commit(snap)
    writer_tm.commit(writer)
    assert manager.snapshot_reads >= 1

    # The contended mix, both ways.
    locked_row = _contended_mix(snapshot_readers=False)
    snapshot_row = _contended_mix(snapshot_readers=True)
    rows = [locked_row, snapshot_row]

    assert snapshot_row["snapshot_txns"] > 0
    # The acceptance claim: relieving readers of locks strictly reduces
    # conflict aborts.  The two rates are recorded in the rows, not
    # ordered (see the module docstring).
    assert (snapshot_row["conflict_retries"]
            < locked_row["conflict_retries"])

    print_table(rows, title=f"B22a — contended B9 mix "
                            f"({MIX_TRANSACTIONS} txns, 75% reads)")

    def kernel():
        return _contended_mix(snapshot_readers=True)

    benchmark.pedantic(kernel, rounds=3, iterations=1)


# ---------------------------------------------------------------------------
# Claim 2: read routing across journal-shipping replicas
# ---------------------------------------------------------------------------


def _routed_reads(router, targets, count):
    started = time.perf_counter()
    for index in range(count):
        uid = targets[index % len(targets)]
        router.snapshot_read(uid, STAMP_ATTRIBUTE)
    return time.perf_counter() - started


def test_b22_replica_read_scaling(tmp_path, benchmark):
    rows = []
    for count in REPLICA_COUNTS:
        store = tmp_path / f"primary-{count}"
        database = DurableDatabase(str(store), sync_policy="commit")
        replicas = []
        clients = []
        try:
            with ServerThread(database=database) as primary_handle:
                primary = Client(port=primary_handle.port, timeout=20.0)
                clients.append(primary)
                roots, _components = tcp_fixture(
                    primary, roots=6, parts_per_root=2
                )
                for _ in range(count):
                    handle = ReplicaThread(store, poll_interval=0.01)
                    handle.start()
                    replicas.append(handle)
                    replica_client = Client(port=handle.port, timeout=20.0)
                    clients.append(replica_client)
                router = ReadRouter(primary, replicas=clients[1:])

                # A write burst, then let the replicas drain: the lag
                # the row records is the advertised bound, not a guess.
                for index, root in enumerate(roots):
                    primary.set_value(root, STAMP_ATTRIBUTE, index + 1)
                primary_epoch = router.read_epoch()["epoch"]
                deadline = time.monotonic() + 10.0
                while replicas and time.monotonic() < deadline:
                    if all(r.follower.applied_epoch >= primary_epoch
                           for r in replicas):
                        break
                    time.sleep(0.01)
                lag = max(
                    (primary_epoch - r.follower.applied_epoch
                     for r in replicas),
                    default=0,
                )

                elapsed = _routed_reads(router, roots, ROUTED_READS)
                stats = router.stats_row()
                rows.append({
                    "replicas": count,
                    "reads": ROUTED_READS,
                    "reads_per_sec": ROUTED_READS / elapsed,
                    "replica_reads": stats["replica_reads"],
                    "primary_reads": stats["primary_reads"],
                    "fallbacks": stats["fallbacks"],
                    "lag_epochs": lag,
                })
        finally:
            for client in clients:
                client.close()
            for handle in replicas:
                handle.stop()
            database.close()

    by_count = {row["replicas"]: row for row in rows}
    # With no replicas every read is a primary read; with replicas the
    # router keeps the primary out of the read path entirely (no lag
    # fallback was needed after the drain above).
    assert by_count[0]["primary_reads"] == ROUTED_READS
    for count in REPLICA_COUNTS[1:]:
        assert by_count[count]["replica_reads"] == ROUTED_READS
        assert by_count[count]["lag_epochs"] == 0

    print_table(rows, title=f"B22b — routed snapshot reads "
                            f"({ROUTED_READS} reads per configuration)")

    def kernel():
        db = DurableDatabase(str(tmp_path / "bench-kernel"),
                             sync_policy="commit")
        try:
            with ServerThread(database=db) as handle:
                with Client(port=handle.port, timeout=20.0) as client:
                    tcp_fixture(client, roots=2, parts_per_root=1)
        finally:
            db.close()
        return True

    benchmark.pedantic(kernel, rounds=1, iterations=1)
