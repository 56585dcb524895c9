"""MVCC snapshot reads (ROADMAP item 3), proven safe by the isolation
oracle.

Five layers:

1. **Version chains** — the :class:`SnapshotManager`'s epoch-stamped
   chains: visibility at pinned epochs, tombstones, the GC floor and
   pruning bound, live fallbacks, detach hygiene.
2. **Snapshot transactions** — lock-free reads that never block behind
   X-lock holders, read-your-writes, and first-updater-wins validation
   of snapshot-mode writers.
3. **Lost-update regression** — the seeded ISO-LOST-UPDATE interleaving
   from test_isocheck must NOT reproduce once the reads are snapshot
   reads and the writes stay locked: first-updater-wins aborts the
   loser and the recorded history checks clean.
4. **The oracle e2e** — the B9 composite mix with snapshot readers,
   recorded by :class:`HistoryRecorder` and fed to ``check_history``
   (no ISO-* errors) and to ``repro-check iso --strict`` (exit 0).
5. **Truncated-replay property** — for every epoch E, a snapshot read
   at E equals the state recovered from the journal truncated at E's
   commit marker (Hypothesis, random op streams).
6. **One image per commit** — every chain entry stamped at epoch E is
   the very record sealed under commit marker E, a journal-following
   replica holds each of those entries byte for byte and answers every
   snapshot read alike, and each object is encoded at most once per
   seal.
"""

from __future__ import annotations

import itertools
import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import AttributeSpec, Database, SetOf
from repro.analysis.history import HistoryRecorder
from repro.analysis.isocheck import check_history
from repro.errors import (
    LockConflictError,
    SnapshotConflictError,
    SnapshotTooOldError,
    TransactionStateError,
    UnknownObjectError,
)
from repro.locking.modes import LockMode
from repro.locking.table import LockObserver, LockTable
from repro.mvcc import JournalFollower, SnapshotManager
from repro.server import Client, ServerThread
from repro.storage.durable import DurableDatabase
from repro.storage import journal as journal_module
from repro.storage.journal import (
    JOURNAL_HEADER_SIZE,
    JOURNAL_MAGIC,
    JOURNAL_NAME,
    SNAPSHOT_NAME,
    Journal,
)
from repro.storage.serializer import decode_instance, encode_instance
from repro.txn.manager import TransactionManager
from repro.workloads.txmix import composite_mix, memory_fixture, run_tm_mix

pytestmark = pytest.mark.usefixtures("owns_nothing")


def _cell_db(max_versions=16):
    db = Database()
    db.make_class("Cell", attributes=[
        AttributeSpec("V", domain="integer"),
    ])
    manager = SnapshotManager(db, max_versions=max_versions)
    return db, manager


def _account_db():
    db = Database()
    db.make_class("Account", attributes=[
        AttributeSpec("Balance", domain="integer"),
    ])
    manager = SnapshotManager(db)
    x = db.make("Account", values={"Balance": 100})
    return db, manager, x


# ---------------------------------------------------------------------------
# 1. Version chains
# ---------------------------------------------------------------------------


class TestVersionChains:
    def test_pinned_epoch_sees_old_value_after_write(self):
        db, manager = _cell_db()
        uid = db.make("Cell", values={"V": 1})
        pinned = manager.current_epoch
        db.set_value(uid, "V", 2)
        assert manager.read_at(uid, "V", pinned) == 1
        assert manager.read_at(uid, "V", manager.current_epoch) == 2

    def test_each_commit_is_a_distinct_epoch(self):
        db, manager = _cell_db()
        uid = db.make("Cell", values={"V": 0})
        epochs = []
        for value in (1, 2, 3):
            db.set_value(uid, "V", value)
            epochs.append(manager.current_epoch)
        assert epochs == sorted(set(epochs))
        for epoch, value in zip(epochs, (1, 2, 3)):
            assert manager.read_at(uid, "V", epoch) == value

    def test_tombstone_hides_object_after_delete_epoch(self):
        db, manager = _cell_db()
        uid = db.make("Cell", values={"V": 7})
        alive = manager.current_epoch
        db.delete(uid)
        assert manager.read_at(uid, "V", alive) == 7
        assert manager.instance_at(uid, manager.current_epoch) is None
        with pytest.raises(UnknownObjectError):
            manager.read_at(uid, "V", manager.current_epoch)

    def test_creation_is_invisible_below_its_epoch(self):
        db, manager = _cell_db()
        before = manager.current_epoch
        uid = db.make("Cell", values={"V": 5})
        db.set_value(uid, "V", 6)  # force a chain (creation seeds _ABSENT)
        assert manager.instance_at(uid, before) is None

    def test_read_below_floor_raises(self):
        db = Database()
        db.make_class("Cell", attributes=[AttributeSpec("V")])
        db.commit_epoch = 10
        manager = SnapshotManager(db)
        assert manager.floor_epoch == 10
        with pytest.raises(SnapshotTooOldError) as exc:
            manager.instance_at("whatever", 9)
        assert exc.value.floor == 10

    def test_pruned_chain_raises_snapshot_too_old(self):
        db, manager = _cell_db(max_versions=3)
        uid = db.make("Cell", values={"V": 0})
        early = manager.current_epoch
        for value in range(1, 8):
            db.set_value(uid, "V", value)
        assert manager.versions_pruned > 0
        with pytest.raises(SnapshotTooOldError):
            manager.read_at(uid, "V", early)
        assert manager.read_at(uid, "V", manager.current_epoch) == 7

    def test_untouched_object_falls_through_to_live(self):
        # "Untouched" means never written since the manager attached:
        # the live object IS the committed state at every retained epoch.
        db = Database()
        db.make_class("Cell", attributes=[AttributeSpec("V")])
        uid = db.make("Cell", values={"V": 3})
        other = db.make("Cell", values={"V": 4})
        manager = SnapshotManager(db)
        db.set_value(uid, "V", 30)
        before = manager.live_fallbacks
        assert manager.read_at(other, "V", manager.floor_epoch) == 4
        assert manager.live_fallbacks == before + 1

    def test_aborted_transaction_installs_no_version(self):
        db, manager = _cell_db()
        tm = TransactionManager(db, LockTable())
        uid = db.make("Cell", values={"V": 1})
        stamped = manager.versions_stamped
        txn = tm.begin()
        tm.write(txn, uid, "V", 99)
        tm.abort(txn)
        assert manager.versions_stamped == stamped
        assert manager.read_at(uid, "V", manager.current_epoch) == 1

    def test_detach_restores_database(self):
        db, manager = _cell_db()
        manager.detach()
        assert db.snapshot_manager is None
        assert all(callback not in hooks
                   for hooks, callback in manager._hooks)
        manager.detach()  # idempotent

    def test_stats_row_shape(self):
        db, manager = _cell_db()
        uid = db.make("Cell", values={"V": 1})
        db.set_value(uid, "V", 2)
        manager.read_at(uid, "V", manager.current_epoch)
        row = manager.stats_row()
        assert row["chains"] == 1
        assert row["snapshot_reads"] == 1
        assert row["epoch"] == manager.current_epoch


# ---------------------------------------------------------------------------
# 2. Snapshot transactions through the manager
# ---------------------------------------------------------------------------


class TestSnapshotTransactions:
    def test_snapshot_read_does_not_block_behind_x_lock(self):
        db, manager, x = _account_db()
        table = LockTable()
        writer_tm = TransactionManager(db, table)
        reader_tm = TransactionManager(db, table)
        writer = writer_tm.begin()
        writer_tm.write(writer, x, "Balance", 150)  # X lock held
        locked = reader_tm.begin()
        with pytest.raises(LockConflictError):
            reader_tm.read(locked, x, "Balance")
        reader_tm.abort(locked)
        snap = reader_tm.begin(snapshot=True)
        assert reader_tm.read(snap, x, "Balance") == 100
        reader_tm.commit(snap)
        writer_tm.commit(writer)

    def test_read_your_writes(self):
        db, manager, x = _account_db()
        tm = TransactionManager(db, LockTable())
        txn = tm.begin(snapshot=True)
        tm.write(txn, x, "Balance", 175)
        assert tm.read(txn, x, "Balance") == 175
        tm.commit(txn)

    def test_first_updater_wins_aborts_second_writer(self):
        db, manager, x = _account_db()
        tm1 = TransactionManager(db, LockTable())
        tm2 = TransactionManager(db, LockTable())
        t1 = tm1.begin(snapshot=True)
        t2 = tm2.begin(snapshot=True)
        tm1.read(t1, x, "Balance")
        tm2.read(t2, x, "Balance")
        tm2.write(t2, x, "Balance", 125)
        tm2.commit(t2)
        with pytest.raises(SnapshotConflictError) as exc:
            tm1.write(t1, x, "Balance", 110)
        assert exc.value.committed_epoch > exc.value.snapshot_epoch
        tm1.abort(t1)
        assert db.value(x, "Balance") == 125
        assert manager.write_conflicts == 1

    def test_explicit_epoch_token_pins_the_read(self):
        db, manager, x = _account_db()
        tm = TransactionManager(db, LockTable())
        token = manager.current_epoch
        db.set_value(x, "Balance", 500)
        txn = tm.begin(snapshot=True, epoch=token)
        assert txn.snapshot_epoch == token
        assert tm.read(txn, x, "Balance") == 100
        tm.commit(txn)

    def test_snapshot_begin_without_manager_raises(self):
        db = Database()
        tm = TransactionManager(db, LockTable())
        with pytest.raises(TransactionStateError, match="SnapshotManager"):
            tm.begin(snapshot=True)

    def test_wire_snapshot_value_does_not_block_behind_x_lock(self):
        """Over the wire the server used to take IS+S for ``value`` before
        the manager could decide the read was lock-free: the snapshot
        reader queued behind the writer's X lock until the wait timed
        out.  One predicate (``TransactionManager.reads_snapshot``) now
        decides for both."""
        grants = []

        class Grants(LockObserver):
            def on_grant(self, txn, resource, mode):
                grants.append((txn.snapshot_epoch is not None, mode))

        db, _manager, x = _account_db()
        with ServerThread(database=db, lock_wait_timeout=0.5) as handle:
            handle.server.tm.table.observers.append(Grants())
            writer = Client(port=handle.port, timeout=20.0)
            reader = Client(port=handle.port, timeout=20.0)
            try:
                writer.begin()
                writer.set_value(x, "Balance", 150)  # X lock held
                reader.begin(snapshot=True)
                assert reader.value(x, "Balance") == 100  # committed value
                assert (True, LockMode.S) not in grants
                assert (True, LockMode.IS) not in grants
                # Live-state ops keep their locks in a snapshot transaction.
                with pytest.raises(LockConflictError, match="timed out"):
                    reader.resolve(x)
                writer.commit()
                # Its own write is read back from the live X-locked object.
                reader.abort()
                reader.begin(snapshot=True)
                reader.set_value(x, "Balance", 175)
                assert reader.value(x, "Balance") == 175
                assert (True, LockMode.X) in grants
                reader.commit()
            finally:
                writer.close()
                reader.close()


# ---------------------------------------------------------------------------
# 3. Lost-update regression (the seeded anomaly must not reproduce)
# ---------------------------------------------------------------------------


class TestLostUpdateRegression:
    """test_isocheck seeds ISO-LOST-UPDATE through two managers with
    *private* lock tables (no mutual lock visibility, so 2PL cannot
    save them).  The same interleaving under snapshot reads + locked,
    first-updater-validated writes must not lose the update."""

    def _run_interleaving(self, snapshot):
        db, manager, x = _account_db()
        tm1 = TransactionManager(db, LockTable())
        tm2 = TransactionManager(db, LockTable())
        with HistoryRecorder(db) as recorder:
            t1 = tm1.begin(snapshot=snapshot)
            t2 = tm2.begin(snapshot=snapshot)
            stale_1 = tm1.read(t1, x, "Balance")
            stale_2 = tm2.read(t2, x, "Balance")
            tm2.write(t2, x, "Balance", stale_2 + 25)
            tm2.commit(t2)
            try:
                tm1.write(t1, x, "Balance", stale_1 + 10)
                tm1.commit(t1)
            except SnapshotConflictError:
                tm1.abort(t1)
        return db, x, check_history(recorder.history)

    def test_plain_reads_still_lose_the_update(self):
        # Control: the anomaly is real without snapshot validation.
        db, x, report = self._run_interleaving(snapshot=False)
        assert report.by_rule("ISO-LOST-UPDATE")
        assert db.value(x, "Balance") == 110  # t2's +25 silently lost

    def test_snapshot_reads_prevent_the_lost_update(self):
        db, x, report = self._run_interleaving(snapshot=True)
        assert report.clean, [str(f) for f in report.findings]
        assert not report.by_rule("ISO-LOST-UPDATE")
        assert db.value(x, "Balance") == 125  # t2's update survived


# ---------------------------------------------------------------------------
# 4. The B9 mix under snapshot readers, checked by the oracle
# ---------------------------------------------------------------------------


def _record_b9_mix(tmp_path):
    db = Database()
    manager = SnapshotManager(db)
    roots, components = memory_fixture(db, roots=6, parts_per_root=3)
    scripts = composite_mix(
        roots,
        transactions=24,
        steps_per_txn=3,
        read_ratio=0.7,
        components_by_root=components,
        seed=20260807,
    )
    path = tmp_path / "mvcc-b9.jsonl"
    table = LockTable()
    with HistoryRecorder(db, path=str(path)) as recorder:
        stats = run_tm_mix(db, scripts, lock_table=table,
                           snapshot_readers=True)
        history = recorder.history
    return manager, stats, history, path


class TestB9MixOracle:
    def test_mix_checks_clean_under_snapshot_readers(self, tmp_path):
        manager, stats, history, _path = _record_b9_mix(tmp_path)
        assert stats["snapshot_transactions"] > 0
        assert manager.snapshot_reads > 0  # readers really went lock-free
        report = check_history(history)
        iso_errors = [f for f in report.errors
                      if f.rule.startswith("ISO-")]
        assert not iso_errors, [str(f) for f in iso_errors]

    def test_recorded_history_passes_strict_cli(self, tmp_path, capsys):
        from repro.analysis.cli import main

        _manager, _stats, _history, path = _record_b9_mix(tmp_path)
        code = main(["iso", str(path), "--strict"])
        out = capsys.readouterr().out
        assert code == 0, out


# ---------------------------------------------------------------------------
# 5. Snapshot at E == journal replay truncated at E (Hypothesis)
# ---------------------------------------------------------------------------

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


def _commit_offsets(journal_bytes):
    """Byte offset just past each commit marker, keyed by commit_seq."""
    offsets = {}
    position = JOURNAL_HEADER_SIZE if journal_bytes.startswith(
        JOURNAL_MAGIC) else 0
    seq = 0
    while position + 5 <= len(journal_bytes):
        kind = journal_bytes[position:position + 1]
        (length,) = _U32.unpack_from(journal_bytes, position + 1)
        end = position + 5 + length
        if end > len(journal_bytes):
            break
        if kind == b"C":
            seq = _U64.unpack_from(journal_bytes, position + 5)[0]
            offsets[seq] = end
        position = end
    return offsets


def _forward_state(db):
    """The same forward-value projection ``SnapshotManager.state_at``
    produces, computed from a plain database's live objects."""
    state = {}
    for instance in db.live_instances():
        state[instance.uid] = {
            name: (sorted(value, key=repr) if isinstance(value, list)
                   else value)
            for name, value in instance.values.items()
        }
    return state


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("make"), st.integers(0, 99)),
        st.tuples(st.just("set"), st.integers(0, 7), st.integers(0, 99)),
        st.tuples(st.just("delete"), st.integers(0, 7)),
    ),
    min_size=1,
    max_size=14,
)


class TestTruncatedReplayProperty:
    @given(ops=_OPS)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_snapshot_equals_replay_truncated_at_every_epoch(
        self, tmp_path_factory, ops
    ):
        root = tmp_path_factory.mktemp("mvcc-replay")
        db = DurableDatabase(root, sync_policy="commit")
        try:
            db.make_class("Cell", attributes=[
                AttributeSpec("V", domain="integer"),
            ])
            manager = SnapshotManager(db, max_versions=64)
            floor = manager.floor_epoch
            uids = []
            for op in ops:
                if op[0] == "make":
                    uids.append(db.make("Cell", values={"V": op[1]}))
                elif not uids:
                    continue
                elif op[0] == "set":
                    db.set_value(uids[op[1] % len(uids)], "V", op[2])
                else:
                    victim = uids.pop(op[1] % len(uids))
                    if db.exists(victim):
                        db.delete(victim)
            journal_bytes = (root / JOURNAL_NAME).read_bytes()
            offsets = _commit_offsets(journal_bytes)
            snapshot_path = root / SNAPSHOT_NAME
            for epoch in range(floor, manager.current_epoch + 1):
                expected = manager.state_at(epoch)
                replay_dir = root / f"replay-{epoch}"
                replay_dir.mkdir()
                if snapshot_path.exists():
                    (replay_dir / SNAPSHOT_NAME).write_bytes(
                        snapshot_path.read_bytes()
                    )
                cut = max((off for seq, off in offsets.items()
                           if seq <= epoch), default=JOURNAL_HEADER_SIZE)
                (replay_dir / JOURNAL_NAME).write_bytes(
                    journal_bytes[:cut]
                )
                replayed = Database()
                Journal.recover_into(replayed, replay_dir)
                assert _forward_state(replayed) == expected, (
                    f"divergence at epoch {epoch}"
                )
                assert replayed.commit_epoch == epoch
        finally:
            db.close()


def _sealed_batches(journal_bytes):
    """``{commit epoch: {uid: image bytes, None for a tombstone}}``."""
    batches, pending = {}, {}
    position = JOURNAL_HEADER_SIZE
    while position + 5 <= len(journal_bytes):
        kind = journal_bytes[position:position + 1]
        (length,) = _U32.unpack_from(journal_bytes, position + 1)
        payload = journal_bytes[position + 5:position + 5 + length]
        if kind == b"C":
            batches[_U64.unpack(payload)[0]] = pending
            pending = {}
        else:
            pending[decode_instance(payload).uid] = (
                payload if kind == b"I" else None
            )
        position += 5 + length
    return batches


def _seeded_mix(db, tm, seed, steps=80):
    """Makes under composite parents, writes, relinks, cascading
    deletes and multi-object transactions (some aborted).  Every write
    stores a fresh value, so every commit changes what it touches."""
    rng = random.Random(seed)
    fresh = (f"v{n}" for n in itertools.count())
    docs, pages = [], []
    for _ in range(steps):
        roll = rng.random()
        if len(docs) < 2 or roll < 0.15:
            docs.append(db.make("Doc", values={"Title": next(fresh)}))
        elif roll < 0.4:
            pages.append(db.make("Page", values={"Text": next(fresh)},
                                 parents=[(rng.choice(docs), "Pages")]))
        elif roll < 0.55 and pages:
            db.set_value(rng.choice(pages), "Text", next(fresh))
        elif roll < 0.7 and pages:
            txn = tm.begin()
            for page in rng.sample(pages, min(3, len(pages))):
                tm.write(txn, page, "Text", next(fresh))
            tm.write(txn, rng.choice(docs), "Title", next(fresh))
            (tm.abort if rng.random() < 0.3 else tm.commit)(txn)
        elif roll < 0.85 and pages:
            page = rng.choice(pages)
            doc = rng.choice(docs)
            if page not in db.value(doc, "Pages"):
                db.insert_into(doc, "Pages", page)
        elif len(docs) > 2:
            db.delete(docs.pop(rng.randrange(len(docs))))
            pages = [page for page in pages if db.exists(page)]


def _doc_schema(db):
    db.make_class("Page", attributes=[
        AttributeSpec("Text", domain="string"),
    ])
    db.make_class("Doc", attributes=[
        AttributeSpec("Title", domain="string"),
        AttributeSpec("Pages", domain=SetOf("Page"), composite=True,
                      exclusive=False, dependent=True),
    ])


def _sealed_uids(directory):
    """Every UID the journal in *directory* sealed an image or a
    tombstone of: a superset of the UIDs a snapshot manager versions."""
    batches = _sealed_batches((directory / JOURNAL_NAME).read_bytes())
    return {uid for batch in batches.values() for uid in batch}


def _assert_stamps_are_sealed_records(manager, directory):
    """Every chain entry above the floor is the record sealed under the
    commit marker of its epoch; returns how many entries were checked."""
    batches = _sealed_batches((directory / JOURNAL_NAME).read_bytes())
    stamped = 0
    for uid in _sealed_uids(directory):
        for epoch, image in manager.versions(uid):
            if epoch == manager.floor_epoch:
                continue
            assert batches[epoch][uid] == image, (uid, epoch)
            stamped += 1
    return stamped


class TestOneImagePerCommit:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chains_stamp_the_sealed_bytes(self, tmp_path, monkeypatch,
                                           seed):
        db = DurableDatabase(tmp_path, sync_policy="commit")
        try:
            _doc_schema(db)
            manager = SnapshotManager(db, max_versions=64)
            follower = JournalFollower(tmp_path, max_versions=64)
            seals = itertools.count()
            seal = [0]
            encodes = {}
            original_seal = journal_module.Journal._seal_batch

            def counted_seal(journal, batch):
                seal[0] = next(seals)
                return original_seal(journal, batch)

            def counted_encode(instance):
                key = (instance.uid, seal[0])
                encodes[key] = encodes.get(key, 0) + 1
                return encode_instance(instance)

            monkeypatch.setattr(journal_module.Journal, "_seal_batch",
                                counted_seal)
            monkeypatch.setattr(journal_module, "encode_instance",
                                counted_encode)
            monkeypatch.setattr("repro.mvcc.manager.encode_instance",
                                counted_encode)
            _seeded_mix(db, TransactionManager(db), seed)
            monkeypatch.undo()

            assert encodes and max(encodes.values()) == 1
            stamped = _assert_stamps_are_sealed_records(manager, tmp_path)
            assert stamped == manager.versions_stamped > 0
            # A replica holds every stamped entry byte for byte.  It
            # also versions reverse-reference-only seals, which the
            # primary deliberately does not (see mvcc/manager.py), so
            # it answers every snapshot read alike but may hold more.
            follower.poll()
            assert follower.applied_epoch == db.commit_epoch
            replica = follower.snapshots
            for uid in _sealed_uids(tmp_path):
                held = dict(replica.versions(uid))
                for epoch, image in manager.versions(uid):
                    if epoch != manager.floor_epoch:
                        assert held[epoch] == image, (uid, epoch)
            for epoch in range(manager.floor_epoch, db.commit_epoch + 1):
                assert replica.state_at(epoch) == manager.state_at(epoch)
        finally:
            db.close()

    @pytest.mark.parametrize("policy", ["commit", "group", "always"])
    def test_abort_that_seals_no_marker_stamps_nothing(self, tmp_path,
                                                       policy):
        # The writer's batch goes stale when the linker's commit seals
        # the page it also has dirty, but the undo pass restores exactly
        # that sealed image: the abort's seal dedups to nothing and
        # writes no marker, so no version may be stamped (the current
        # epoch belongs to another commit).
        db = DurableDatabase(tmp_path, sync_policy=policy)
        try:
            _doc_schema(db)
            page = db.make("Page", values={"Text": "same"})
            doc = db.make("Doc")
            other = db.make("Doc")
            manager = SnapshotManager(db)
            tm = TransactionManager(db)
            writer = tm.begin()
            tm.write(writer, page, "Text", "same")
            linker = tm.begin()
            tm.insert(linker, doc, "Pages", page)
            tm.commit(linker)
            db.set_value(other, "Title", "elsewhere")
            epoch = db.commit_epoch
            tm.abort(writer)
            assert db.commit_epoch == epoch
            assert manager.versions(page) == ()
            assert _assert_stamps_are_sealed_records(manager, tmp_path) \
                == manager.versions_stamped
        finally:
            db.close()
