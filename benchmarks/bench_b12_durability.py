"""Experiment B12 (extension): the price and payoff of durability.

The checkpoint+journal design (:mod:`repro.storage.journal`) supports
four sync policies, from one fsync per mutation (``always``) to
commit-scoped batching (``commit``), shared fsyncs (``group``), and
OS-paced writeback (``none``).  Measured here:

* the write-path overhead of journaling vs a purely in-memory database
  (under the seed's ``always`` policy);
* recovery time as a function of journal length, and how checkpointing
  flattens it (recovery replays only the post-checkpoint suffix);
* create throughput and records-per-fsync across all four sync policies
  (B12c — the group-commit payoff).
"""

import time

from repro import AttributeSpec, Database
from repro.bench import print_table
from repro.storage.durable import DurableDatabase
from repro.storage.journal import SYNC_POLICIES
from repro.txn import TransactionManager


def _schema(db):
    db.make_class("Item", attributes=[
        AttributeSpec("Payload", domain="string"),
    ])


def test_b12_journal_write_overhead(benchmark, tmp_path):
    n = 300
    memory_db = Database()
    _schema(memory_db)
    start = time.perf_counter()
    for i in range(n):
        memory_db.make("Item", values={"Payload": f"p{i}"})
    memory_time = time.perf_counter() - start

    durable_db = DurableDatabase(tmp_path / "d1")
    _schema(durable_db)
    start = time.perf_counter()
    for i in range(n):
        durable_db.make("Item", values={"Payload": f"p{i}"})
    durable_time = time.perf_counter() - start
    durable_db.close()

    rows = [{
        "creates": n,
        "in_memory_ms": memory_time * 1e3,
        "journaled_ms": durable_time * 1e3,
        "slowdown": durable_time / max(memory_time, 1e-9),
    }]
    # Durability costs something real (fsync per record) but stays within
    # a couple of orders of magnitude for this workload.
    assert rows[0]["slowdown"] > 1.0
    print_table(rows, title="B12a — create throughput: in-memory vs "
                            "journaled (fsync per record)")

    db = DurableDatabase(tmp_path / "bench")
    _schema(db)

    def kernel():
        db.make("Item", values={"Payload": "x"})

    benchmark.pedantic(kernel, rounds=20, iterations=1)
    db.close()


def test_b12_recovery_time_vs_journal_length(benchmark, tmp_path):
    rows = []
    for mutations, checkpointed in ((100, False), (400, False), (400, True)):
        directory = tmp_path / f"r{mutations}{checkpointed}"
        db = DurableDatabase(directory)
        _schema(db)
        for i in range(mutations):
            db.make("Item", values={"Payload": f"p{i}"})
        if checkpointed:
            db.checkpoint()
        journal_records = db.journal.records_since_checkpoint
        db.close()
        start = time.perf_counter()
        recovered = DurableDatabase.open(directory)
        recovery_time = time.perf_counter() - start
        assert len(recovered) == mutations
        recovered.close()
        rows.append({
            "mutations": mutations,
            "checkpointed": checkpointed,
            "journal_records_at_open": journal_records,
            "recovery_ms": recovery_time * 1e3,
        })
    # Shape: checkpointing empties the journal; replay work tracks the
    # journal suffix, not total history.
    assert rows[2]["journal_records_at_open"] == 0
    assert rows[1]["journal_records_at_open"] > rows[0]["journal_records_at_open"]
    print_table(rows, title="B12b — recovery cost vs journal length "
                            "(checkpoint flattens the suffix)")

    directory = tmp_path / "rbench"
    db = DurableDatabase(directory)
    _schema(db)
    for i in range(100):
        db.make("Item", values={"Payload": f"p{i}"})
    db.close()

    def kernel():
        recovered = DurableDatabase.open(directory)
        count = len(recovered)
        recovered.close()
        return count

    assert benchmark.pedantic(kernel, rounds=5, iterations=1) == 100


def test_b12c_sync_policy_throughput(benchmark, tmp_path):
    """B12c — the group-commit pipeline vs fsync-per-mutation.

    Runs the same workload (``n`` creates in transactions of ``txn_size``)
    under every sync policy and reports throughput and records-per-fsync.
    The acceptance assertion is on *fsync counts* — a deterministic
    measure of the batching — rather than wall-clock ratios, which
    collapse on filesystems where fsync is nearly free (tmpfs).
    """
    n, txn_size = 300, 10
    rows = []
    fsyncs = {}
    for policy in SYNC_POLICIES:
        directory = tmp_path / f"c-{policy}"
        db = DurableDatabase(directory, sync_policy=policy)
        _schema(db)
        tm = TransactionManager(db)
        start = time.perf_counter()
        for base in range(0, n, txn_size):
            txn = tm.begin()
            for i in range(base, base + txn_size):
                tm.make(txn, "Item", values={"Payload": f"p{i}"})
            tm.commit(txn)
        elapsed = time.perf_counter() - start
        stats = db.journal.stats_row()
        fsyncs[policy] = stats["fsyncs"]
        db.close()
        recovered = DurableDatabase.open(directory)
        assert len(recovered) == n
        assert recovered.fsck().clean
        recovered.close()
        rows.append({
            "policy": policy,
            "creates_per_s": n / max(elapsed, 1e-9),
            "records_written": stats["records_written"],
            "fsyncs": stats["fsyncs"],
            "records_per_fsync": stats["records_per_fsync"],
        })
    # The tentpole claim, stated deterministically: always pays one fsync
    # per mutation while commit/group batch them, so the fsync count —
    # hence the forced-write throughput ceiling — improves >= 5x.
    assert fsyncs["always"] >= 5 * max(fsyncs["commit"], 1)
    assert fsyncs["always"] >= 5 * max(fsyncs["group"], 1)
    print_table(rows, title="B12c — create throughput and records/fsync "
                            "by sync policy (group commit)")

    db = DurableDatabase(tmp_path / "cbench", sync_policy="commit")
    _schema(db)
    tm = TransactionManager(db)

    def kernel():
        txn = tm.begin()
        for _ in range(txn_size):
            tm.make(txn, "Item", values={"Payload": "x"})
        tm.commit(txn)

    benchmark.pedantic(kernel, rounds=20, iterations=1)
    db.close()
