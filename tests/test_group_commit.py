"""Tests for the group-commit durability pipeline.

Covers the journal's sync policies (``always`` | ``commit`` | ``group`` |
``none``), commit-scoped batching with abort-drop, write coalescing,
digest-based dedup bookkeeping, the closed-journal guard rails, the
asyncio server's group-commit window, and an exhaustive torn-final-batch
crash-consistency sweep.
"""

import struct
import threading
import time

import pytest

from repro import AttributeSpec, Database, SetOf
from repro.analysis.fsck import fsck_database
from repro.errors import StorageError
from repro.mvcc import SnapshotManager
from repro.storage.durable import DurableDatabase
from repro.storage.journal import (
    JOURNAL_HEADER_SIZE,
    JOURNAL_MAGIC,
    JOURNAL_NAME,
    SNAPSHOT_NAME,
    Journal,
)
from repro.storage.serializer import encode_instance
from repro.txn import TransactionManager

pytestmark = pytest.mark.usefixtures("owns_nothing")

_U32 = struct.Struct(">I")


def _schema(db):
    db.make_class("Paragraph", attributes=[
        AttributeSpec("Text", domain="string"),
    ])
    db.make_class("Section", attributes=[
        AttributeSpec("Content", domain=SetOf("Paragraph"), composite=True,
                      exclusive=False, dependent=True),
    ])


def _journal_size(db):
    return db.journal.journal_path.stat().st_size


def _frames(data, start=0):
    """Parse a journal byte string into complete (kind, start, end) frames."""
    frames = []
    position = start
    while position + 5 <= len(data):
        kind = data[position:position + 1]
        size = _U32.unpack(data[position + 1:position + 5])[0]
        end = position + 5 + size
        if end > len(data):
            break
        frames.append((kind, position, end))
        position = end
    return frames


def _recover(directory):
    """Offline recovery (read-only): (state map, fsck report)."""
    db = Database()
    Journal.recover_into(db, directory)
    state = {
        instance.uid: encode_instance(instance)
        for instance in db.live_instances()
    }
    return state, fsck_database(db)


class TestSyncPolicyConfig:
    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="sync policy"):
            DurableDatabase(tmp_path / "bad", sync_policy="sometimes")

    def test_policies_all_roundtrip(self, tmp_path):
        for policy in ("always", "commit", "group", "none"):
            db = DurableDatabase(tmp_path / policy, sync_policy=policy)
            _schema(db)
            p = db.make("Paragraph", values={"Text": policy})
            db.close()
            recovered = DurableDatabase.open(tmp_path / policy)
            assert recovered.value(p, "Text") == policy
            assert recovered.fsck().clean
            recovered.close()


class TestCommitBatching:
    def test_records_buffer_until_commit(self, tmp_path):
        db = DurableDatabase(tmp_path / "d", sync_policy="commit")
        _schema(db)
        tm = TransactionManager(db)
        size_before = _journal_size(db)
        fsyncs_before = db.journal.fsyncs
        txn = tm.begin()
        for i in range(5):
            tm.make(txn, "Paragraph", values={"Text": f"p{i}"})
        # Nothing reaches the file while the transaction is open.
        assert _journal_size(db) == size_before
        assert db.journal.fsyncs == fsyncs_before
        tm.commit(txn)
        # One seal, one fsync, all five records.
        assert _journal_size(db) > size_before
        assert db.journal.fsyncs == fsyncs_before + 1
        assert db.journal.records_written == 5
        db.close()
        recovered = DurableDatabase.open(tmp_path / "d")
        assert len(recovered.instances_of("Paragraph")) == 5
        recovered.close()

    def test_abort_drops_batch_without_trace(self, tmp_path):
        db = DurableDatabase(tmp_path / "d", sync_policy="commit")
        _schema(db)
        p = db.make("Paragraph", values={"Text": "keep"})
        tm = TransactionManager(db)
        size_before = _journal_size(db)
        txn = tm.begin()
        tm.write(txn, p, "Text", "dirty")
        ghost = tm.make(txn, "Paragraph", values={"Text": "ghost"})
        tm.abort(txn)
        # The batch — original and compensating records alike — never
        # touched the file.
        assert _journal_size(db) == size_before
        assert db.journal.batches_dropped == 1
        assert db.journal.records_dropped >= 1
        # The ghost was never sealed, so it has no dedup digest.
        assert ghost not in db.journal._last_image
        db.close()
        recovered = DurableDatabase.open(tmp_path / "d")
        assert recovered.value(p, "Text") == "keep"
        assert not recovered.exists(ghost)
        assert recovered.fsck().clean
        recovered.close()

    def test_abort_after_midtxn_checkpoint_stays_consistent(self, tmp_path):
        # A checkpoint inside an open transaction persists uncommitted
        # state; the abort must then *write* its compensating records
        # instead of dropping them.
        db = DurableDatabase(tmp_path / "d", sync_policy="commit")
        _schema(db)
        p = db.make("Paragraph", values={"Text": "orig"})
        tm = TransactionManager(db)
        txn = tm.begin()
        tm.write(txn, p, "Text", "dirty")
        db.checkpoint()  # snapshot now carries the uncommitted "dirty"
        tm.abort(txn)
        db.close()
        recovered = DurableDatabase.open(tmp_path / "d")
        assert recovered.value(p, "Text") == "orig"
        recovered.close()

    def test_deletion_cascade_coalesces_to_tombstones(self, tmp_path):
        db = DurableDatabase(tmp_path / "d", sync_policy="commit")
        _schema(db)
        paragraphs = [db.make("Paragraph") for _ in range(2)]
        section = db.make("Section", values={"Content": paragraphs})
        records_before = db.journal.records_written
        db.delete(section)  # cascades to both dependent paragraphs
        # One batch: the fix-up re-images of the paragraphs coalesced
        # into their tombstones — exactly one record per dead instance.
        assert db.journal.records_written - records_before == 3
        assert db.journal.records_coalesced > 0
        db.close()
        recovered = DurableDatabase.open(tmp_path / "d")
        assert len(recovered) == 0
        assert recovered.fsck().clean
        recovered.close()


class TestGroupPolicyEmbedded:
    def test_fsync_deferred_until_group_size(self, tmp_path):
        db = DurableDatabase(tmp_path / "d", sync_policy="group",
                             group_size=3)
        _schema(db)
        fsyncs_before = db.journal.fsyncs
        db.make("Paragraph", values={"Text": "a"})
        db.make("Paragraph", values={"Text": "b"})
        assert db.journal.fsyncs == fsyncs_before  # sealed, not synced
        assert db.journal.needs_sync
        db.make("Paragraph", values={"Text": "c"})  # third seal: auto-sync
        assert db.journal.fsyncs == fsyncs_before + 1
        assert not db.journal.needs_sync
        db.close()

    def test_explicit_sync_flushes(self, tmp_path):
        db = DurableDatabase(tmp_path / "d", sync_policy="group",
                             group_size=0)  # never auto-sync
        _schema(db)
        db.make("Paragraph", values={"Text": "a"})
        assert db.journal.needs_sync
        db.journal.sync()
        assert not db.journal.needs_sync
        db.close()

    def test_none_policy_never_syncs_while_running(self, tmp_path):
        db = DurableDatabase(tmp_path / "d", sync_policy="none")
        _schema(db)
        fsyncs_before = db.journal.fsyncs
        for i in range(10):
            db.make("Paragraph", values={"Text": f"p{i}"})
        assert db.journal.fsyncs == fsyncs_before
        db.close()  # clean shutdown still syncs
        recovered = DurableDatabase.open(tmp_path / "d")
        assert len(recovered.instances_of("Paragraph")) == 10
        recovered.close()


class TestClosePath:
    def test_mutation_after_close_degrades_to_memory(self, tmp_path):
        db = DurableDatabase(tmp_path / "d")
        _schema(db)
        db.make("Paragraph", values={"Text": "durable"})
        db.close()
        size_after_close = _journal_size(db)
        # No raw ValueError from a closed file: the hooks are gone, so
        # the mutation succeeds in-memory and journals nothing.
        volatile = db.make("Paragraph", values={"Text": "volatile"})
        db.set_value(volatile, "Text", "still volatile")
        db.delete(volatile)
        assert _journal_size(db) == size_after_close
        recovered = DurableDatabase.open(tmp_path / "d")
        texts = [i.get("Text") for i in recovered.instances_of("Paragraph")]
        assert texts == ["durable"]
        recovered.close()

    def test_ddl_after_close_skips_checkpoint(self, tmp_path):
        db = DurableDatabase(tmp_path / "d")
        _schema(db)
        db.close()
        db.make_class("Late")  # in-memory only; no crash, no snapshot
        recovered = DurableDatabase.open(tmp_path / "d")
        with pytest.raises(Exception):
            recovered.classdef("Late")
        recovered.close()

    def test_journal_methods_raise_after_close(self, tmp_path):
        db = DurableDatabase(tmp_path / "d")
        _schema(db)
        db.close()
        with pytest.raises(StorageError, match="closed"):
            db.journal.checkpoint()
        with pytest.raises(StorageError, match="closed"):
            db.journal.sync()
        with pytest.raises(StorageError, match="closed"):
            db.checkpoint()

    def test_close_is_idempotent(self, tmp_path):
        db = DurableDatabase(tmp_path / "d")
        _schema(db)
        db.close()
        db.close()

    def test_close_seals_open_transaction_batches(self, tmp_path):
        # Clean shutdown persists even a still-open transaction's writes
        # (matching the write-through semantics of the always policy).
        db = DurableDatabase(tmp_path / "d", sync_policy="commit")
        _schema(db)
        tm = TransactionManager(db)
        txn = tm.begin()
        p = tm.make(txn, "Paragraph", values={"Text": "inflight"})
        db.close()
        recovered = DurableDatabase.open(tmp_path / "d")
        assert recovered.value(p, "Text") == "inflight"
        recovered.close()


class TestDigestBookkeeping:
    def test_last_image_holds_digests_not_images(self, tmp_path):
        db = DurableDatabase(tmp_path / "d")
        _schema(db)
        big = "x" * 4096
        p = db.make("Paragraph", values={"Text": big})
        entry = db.journal._last_image[p]
        assert len(entry) == 16  # blake2b-128, not the multi-KB image
        assert entry != encode_instance(db.resolve(p))
        db.close()

    def test_identical_reimage_skipped(self, tmp_path):
        db = DurableDatabase(tmp_path / "d")
        _schema(db)
        p = db.make("Paragraph", values={"Text": "v"})
        records_before = db.journal.records_written
        db.set_value(p, "Text", "v")  # byte-identical image
        assert db.journal.records_written == records_before
        assert db.journal.records_skipped > 0
        db.close()


class TestServerGroupCommit:
    def _server(self, db, **kwargs):
        from repro.server.server import ServerThread

        return ServerThread(database=db, **kwargs)

    def test_stats_expose_durability_counters(self, tmp_path):
        from repro.server.client import Client

        db = DurableDatabase(tmp_path / "d", sync_policy="group",
                             group_size=0)
        with self._server(db, group_commit_window=0.005) as handle:
            with Client(port=handle.port) as client:
                client.make_class("Item")
                for _ in range(3):
                    client.make("Item")
                stats = client.stats()
        durability = stats["durability"]
        assert durability["policy"] == "group"
        assert durability["records_written"] >= 3
        assert durability["group_flushes"] >= 1
        assert durability["group_window_s"] == 0.005
        db.close()
        recovered = DurableDatabase.open(tmp_path / "d")
        assert len(recovered.instances_of("Item")) == 3
        recovered.close()

    def test_concurrent_commits_share_fsyncs(self, tmp_path):
        from repro.server.client import Client

        db = DurableDatabase(tmp_path / "d", sync_policy="group",
                             group_size=0)
        threads, per_thread = 4, 3
        with self._server(db, group_commit_window=0.05) as handle:
            with Client(port=handle.port) as client:
                client.make_class("Item")

            def worker():
                with Client(port=handle.port) as worker_client:
                    for _ in range(per_thread):
                        worker_client.make("Item")

            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
            flushes = handle.server.gate.flushes
        mutations = threads * per_thread
        # The whole point of the window: far fewer fsyncs than commits.
        assert 1 <= flushes < mutations
        db.close()
        recovered = DurableDatabase.open(tmp_path / "d")
        assert len(recovered.instances_of("Item")) == mutations
        assert recovered.fsck().clean
        recovered.close()

    def test_single_session_flush_is_one_fsync_without_window(
        self, tmp_path
    ):
        # The batch barrier is the only sync point: no group_size
        # auto-sync inside the flush (the default 8 used to fire once at
        # depth 15 and twice at 16), and with one session connected
        # nobody can join the round, so the barrier does not sleep out
        # the (here deliberately long) window.
        from repro.server.client import Client

        db = DurableDatabase(tmp_path / "d", sync_policy="group")
        values = iter(range(1, 1000))
        with self._server(db, group_commit_window=0.5) as handle:
            with Client(port=handle.port) as client:
                client.make_class("Item", attributes=[
                    AttributeSpec("N", domain="integer"),
                ])
                uid = client.make("Item", values={"N": 0})
                for depth in (15, 16):
                    before = db.journal.fsyncs
                    pipe = client.pipeline()
                    for _ in range(depth):
                        pipe.set_value(uid, "N", next(values))
                    started = time.perf_counter()
                    pipe.flush()
                    elapsed = time.perf_counter() - started
                    assert db.journal.fsyncs - before == 1, depth
                    assert elapsed < 0.25, (depth, elapsed)
        db.close()

    def test_seals_outside_server_commits_keep_the_count(self, tmp_path):
        # Only a server commit seals off the group_size count (its
        # barrier fsyncs before the ack): an embedded commit on the
        # served database still syncs every group_size seals.
        db = DurableDatabase(tmp_path / "d", sync_policy="group",
                             group_size=2)
        _schema(db)
        paragraph = db.make("Paragraph", values={"Text": "orig"})
        with self._server(db):
            db.journal.sync()
            before = db.journal.fsyncs
            db.set_value(paragraph, "Text", "a")
            db.set_value(paragraph, "Text", "b")
            assert db.journal.fsyncs == before + 1
            assert not db.journal.needs_sync
        db.close()

    @pytest.mark.parametrize("policy", ["group", "always"])
    def test_image_cache_never_serves_a_stale_snapshot(
        self, tmp_path, policy
    ):
        from repro.server.client import Client

        db = DurableDatabase(tmp_path / "d", sync_policy=policy)
        with self._server(db) as handle:
            with Client(port=handle.port) as client:
                client.make_class("Item", attributes=[
                    AttributeSpec("Tag", domain="string"),
                ])
                uid = client.make("Item", values={"Tag": "old"})
                client.begin()
                assert client.resolve(uid)["values"]["Tag"] == "old"
                client.set_value(uid, "Tag", "new")
                assert client.resolve(uid)["values"]["Tag"] == "new"
                client.abort()
                assert client.resolve(uid)["values"]["Tag"] == "old"
                assert client.stats()["image_cache"]["hits"] >= 1
        db.close()


class TestOverlappingTransactions:
    """Whole-object images: a component gains a reverse reference under
    its new parent's lock, not its own, so two open transactions can
    both have one object dirty.  Whichever seals first persists the
    other's uncommitted state; an abort of the other must then journal
    the restored image instead of dropping it.  Snapshot readers on the
    primary must never see the uncommitted value, at any epoch."""

    def _run(self, tmp_path, policy, writer_commits_first):
        directory = tmp_path / "d"
        db = DurableDatabase(directory, sync_policy=policy)
        _schema(db)
        paragraph = db.make("Paragraph", values={"Text": "orig"})
        section = db.make("Section")
        snapshots = SnapshotManager(db)
        tm = TransactionManager(db)
        writer = tm.begin()
        tm.write(writer, paragraph, "Text", "new")
        linker = tm.begin()
        tm.insert(linker, section, "Content", paragraph)
        first, second = (writer, linker) if writer_commits_first \
            else (linker, writer)
        tm.commit(first)
        committed = db.commit_epoch if writer_commits_first else None

        def check_snapshots():
            for epoch in range(snapshots.floor_epoch, db.commit_epoch + 1):
                expected = "new" if committed is not None \
                    and epoch >= committed else "orig"
                assert snapshots.read_at(paragraph, "Text", epoch) \
                    == expected, (epoch, expected)

        check_snapshots()
        tm.abort(second)
        check_snapshots()
        # The chain heads are the live, committed state.
        for uid, attribute in ((paragraph, "Text"), (section, "Content")):
            assert snapshots.read_at(uid, attribute, db.commit_epoch) \
                == db.value(uid, attribute)
        live = {
            instance.uid: encode_instance(instance)
            for instance in db.live_instances()
        }
        db.journal.abandon()
        recovered, report = _recover(directory)
        assert recovered == live
        assert report.ok

    @pytest.mark.parametrize("policy", ["commit", "group", "always"])
    def test_abort_after_other_commit_of_a_linked_component(
        self, tmp_path, policy
    ):
        self._run(tmp_path, policy, writer_commits_first=False)

    @pytest.mark.parametrize("policy", ["commit", "group", "always"])
    def test_abort_of_link_after_component_writer_commits(
        self, tmp_path, policy
    ):
        self._run(tmp_path, policy, writer_commits_first=True)


class TestCrashConsistency:
    """Torn-final-batch sweep: truncate at every byte of the final batch,
    recover, and require a consistent prefix state (satellite 5)."""

    def _build(self, directory, policy):
        db = DurableDatabase(directory, sync_policy=policy, group_size=0)
        _schema(db)
        tm = TransactionManager(db)
        # Committed transaction: instances plus composite links.
        txn = tm.begin()
        paragraphs = [
            tm.make(txn, "Paragraph", values={"Text": f"p{i}"})
            for i in range(3)
        ]
        section = tm.make(
            txn, "Section", values={"Content": paragraphs[:2]}
        )
        tm.commit(txn)
        # Plain (auto-batched) operations.
        db.set_value(paragraphs[2], "Text", "edited")
        extra = db.make("Paragraph", parents=[(section, "Content")])
        # Aborted transaction: must leave no trace under batching.
        txn = tm.begin()
        tm.write(txn, paragraphs[0], "Text", "dirty")
        tm.make(txn, "Paragraph", values={"Text": "ghost"})
        tm.abort(txn)
        # A deletion cascade.
        db.remove_from(section, "Content", paragraphs[1])
        db.delete(paragraphs[1])
        if db.journal.needs_sync:
            db.journal.sync()
        size_before_final = _journal_size(db)
        # The final batch: one committed transaction with two records.
        txn = tm.begin()
        tm.write(txn, paragraphs[2], "Text", "final")
        tm.make(txn, "Paragraph", values={"Text": "last"})
        tm.commit(txn)
        db.close()
        return size_before_final

    def _sweep(self, tmp_path, policy):
        store = tmp_path / f"store-{policy}"
        final_start = self._build(store, policy)
        data = (store / JOURNAL_NAME).read_bytes()
        snapshot = (store / SNAPSHOT_NAME).read_bytes()
        assert final_start < len(data)
        # Record frames start after the epoch header.
        assert data.startswith(JOURNAL_MAGIC)
        base = JOURNAL_HEADER_SIZE
        # Every committed batch boundary is a legal recovery target.
        marker_ends = [base] + [
            end for kind, _start, end in _frames(data, base) if kind == b"C"
        ]
        scratch = tmp_path / f"scratch-{policy}"
        scratch.mkdir()
        (scratch / SNAPSHOT_NAME).write_bytes(snapshot)

        def state_at(size):
            (scratch / JOURNAL_NAME).write_bytes(data[:size])
            return _recover(scratch)

        reference = {}
        for end in marker_ends:
            state, report = state_at(end)
            assert report.clean, (
                f"{policy}: batch-boundary state at {end} fails fsck: "
                f"{report.summary()}"
            )
            reference[end] = state
        ghost_free = policy != "always"
        for size in range(final_start, len(data)):
            state, report = state_at(size)
            boundary = max(end for end in marker_ends if end <= size)
            assert state == reference[boundary], (
                f"{policy}: truncation at byte {size} is not the batch-"
                f"boundary state at {boundary}"
            )
            assert report.clean
        if ghost_free:
            # An aborted transaction's records never reach the journal
            # under a batching policy — no state ever contains them.
            for state in reference.values():
                assert all(b"ghost" not in image for image in state.values())
        # The untruncated journal recovers the full final state.
        full_state, full_report = state_at(len(data))
        assert full_report.clean
        assert any(b"final" in image for image in full_state.values())
        assert any(b"last" in image for image in full_state.values())

    @pytest.mark.parametrize("policy", ["always", "commit", "group", "none"])
    def test_torn_final_batch_yields_prefix_state(self, tmp_path, policy):
        self._sweep(tmp_path, policy)
