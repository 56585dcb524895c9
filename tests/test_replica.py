"""Journal-shipping read replicas (docs/REPLICATION.md).

Five layers:

1. **JournalFollower** — incremental sealed-batch replay, epoch-pinned
   reads on the replica, the staleness bound, tombstones, torn tails,
   checkpoint-triggered rebuilds on a stable database identity; and
   one reader with recovery: batches sealed while the follower attaches
   are polled, and a follower attached at any journal prefix and polled
   at a later one equals recovery of the later one.
2. **ReplicaServer over TCP** — a live replica serves reads and
   ``snapshot_read``/``read_epoch``, advertises lag, and rejects
   writes with a typed error naming it a replica.
3. **Failover drills** — the kill-replica / kill-primary-mid-ship
   scripts of :mod:`repro.mvcc.crashsim` (the ``replica`` scenario of
   the drill engine) under seeded fault plans:
   committed-prefix and stale-bound oracles hold through both.
4. **ReadRouter** — replica-first routing with primary fallback on
   lag and on dead replicas.
5. **Entry point / cluster wiring** — ``repro-replica`` as a real
   subprocess (--port-file discovery), and the shard router's
   ``read_epoch`` scatter (min-merge across shards).
"""

from __future__ import annotations

import os
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.errors import ReadOnlyError, ReplicaLagError, StorageError
from repro.faults import FaultPlan
from repro.faults.drill import state_fingerprint
from repro.mvcc import JournalFollower, ReadRouter, ReplicaDrill, ReplicaThread
from repro.mvcc import replica as replica_module
from repro.server.client import Client
from repro.server.server import ServerThread
from repro.storage.durable import DurableDatabase
from repro.storage.journal import (
    JOURNAL_HEADER_SIZE,
    JOURNAL_NAME,
    SNAPSHOT_NAME,
    Journal,
)
from repro.storage.serializer import decode_instance, encode_instance
from repro.txn.manager import TransactionManager

pytestmark = pytest.mark.usefixtures("owns_nothing")

SMOKE_SEED = 20260807


def _primary(root, **kwargs):
    db = DurableDatabase(root, sync_policy="commit", **kwargs)
    db.make_class("Doc", attributes=[
        {"name": "Title", "domain": "string"},
    ])
    return db


def _wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ---------------------------------------------------------------------------
# 1. The follower
# ---------------------------------------------------------------------------


class TestJournalFollower:
    def test_initial_attach_adopts_current_state(self, tmp_path):
        db = _primary(tmp_path)
        uid = db.make("Doc", values={"Title": "a"})
        follower = JournalFollower(tmp_path)
        assert follower.database.value(uid, "Title") == "a"
        assert follower.applied_epoch == db.commit_epoch
        db.close()

    def test_incremental_replay_and_lag_bound(self, tmp_path):
        db = _primary(tmp_path)
        uid = db.make("Doc", values={"Title": "a"})
        follower = JournalFollower(tmp_path)
        db.set_value(uid, "Title", "b")
        assert follower.applied_epoch < db.commit_epoch  # not yet polled
        with pytest.raises(ReplicaLagError) as exc:
            follower.require_epoch(db.commit_epoch)
        assert exc.value.applied_epoch == follower.applied_epoch
        assert exc.value.min_epoch == db.commit_epoch
        assert follower.poll() >= 1
        assert follower.applied_epoch == db.commit_epoch
        assert follower.database.value(uid, "Title") == "b"
        follower.require_epoch(db.commit_epoch)  # satisfied now
        db.close()

    def test_epoch_pinned_read_on_replica(self, tmp_path):
        db = _primary(tmp_path)
        uid = db.make("Doc", values={"Title": "old"})
        follower = JournalFollower(tmp_path)
        pinned = follower.applied_epoch
        db.set_value(uid, "Title", "new")
        follower.poll()
        assert follower.read_at(uid, "Title") == "new"
        assert follower.read_at(uid, "Title", epoch=pinned) == "old"
        db.close()

    def test_tombstones_replicate(self, tmp_path):
        db = _primary(tmp_path)
        uid = db.make("Doc", values={"Title": "doomed"})
        follower = JournalFollower(tmp_path)
        db.delete(uid)
        follower.poll()
        assert not follower.database.exists(uid)
        db.close()

    def test_checkpoint_triggers_rebuild_on_same_database(self, tmp_path):
        db = _primary(tmp_path)
        uid = db.make("Doc", values={"Title": "a"})
        follower = JournalFollower(tmp_path)
        identity = follower.database
        assert follower.rebuilds == 1
        db.set_value(uid, "Title", "b")
        db.checkpoint()
        follower.poll()
        assert follower.rebuilds == 2
        # Stable identity: a server holding the reference never re-wires.
        assert follower.database is identity
        assert follower.database.value(uid, "Title") == "b"
        assert follower.database.snapshot_manager is follower.snapshots
        db.close()

    def test_torn_tail_waits_for_the_rest(self, tmp_path):
        db = _primary(tmp_path)
        uid = db.make("Doc", values={"Title": "a"})
        follower = JournalFollower(tmp_path)
        db.set_value(uid, "Title", "b")
        db.close()
        journal = tmp_path / JOURNAL_NAME
        whole = journal.read_bytes()
        # Cut the last batch's commit marker in half: the follower must
        # apply nothing new and keep its offset at the last boundary.
        journal.write_bytes(whole[:-7])
        assert follower.poll() == 0
        assert follower.database.value(uid, "Title") == "a"
        journal.write_bytes(whole)
        assert follower.poll() >= 1
        assert follower.database.value(uid, "Title") == "b"

    def test_lag_row_shape(self, tmp_path):
        db = _primary(tmp_path)
        db.make("Doc", values={"Title": "a"})
        follower = JournalFollower(tmp_path)
        follower.poll()
        row = follower.lag_row()
        assert row["applied_epoch"] == db.commit_epoch
        assert row["pending_bytes"] == 0
        assert row["rebuilds"] == 1
        db.close()


# ---------------------------------------------------------------------------
# 1b. One journal reader: recovery and the follower agree on every prefix
# ---------------------------------------------------------------------------


def _race_after_recovery(monkeypatch, primary_step):
    """Make the follower's first recovery return only after the primary
    ran *primary_step* -- the window between the reads a follower makes
    while attaching."""
    real = Journal.recover_into
    fired = []

    class RacingJournal:
        @staticmethod
        def recover_into(database, directory):
            result = real(database, directory)
            if not fired:
                fired.append(True)
                primary_step()
            return result

    monkeypatch.setattr(replica_module, "Journal", RacingJournal)


def _poll_honestly(follower, db):
    """Let the primary commit once more, then poll: the follower holds
    every object the primary holds at the epoch it claims -- or it
    refuses that epoch."""
    db.make("Doc", values={"Title": "next"})
    follower.poll()
    if state_fingerprint(follower.database) != state_fingerprint(db):
        with pytest.raises(ReplicaLagError):
            follower.require_epoch(db.commit_epoch)


class TestAttachRace:
    def test_commit_sealed_right_after_recovery_is_polled(
        self, tmp_path, monkeypatch
    ):
        db = _primary(tmp_path)
        db.make("Doc", values={"Title": "before"})
        late = []
        _race_after_recovery(monkeypatch, lambda: late.append(
            db.make("Doc", values={"Title": "late"})))
        follower = JournalFollower(tmp_path)
        _poll_honestly(follower, db)
        assert follower.database.exists(late[0])
        assert follower.applied_epoch == db.commit_epoch
        db.close()

    def test_checkpoint_right_after_recovery_is_polled(
        self, tmp_path, monkeypatch
    ):
        db = _primary(tmp_path)
        db.make("Doc", values={"Title": "before"})
        late = []

        def primary_step():
            late.append(db.make("Doc", values={"Title": "late-1"}))
            db.checkpoint()
            late.append(db.make("Doc", values={"Title": "late-2"}))

        _race_after_recovery(monkeypatch, primary_step)
        follower = JournalFollower(tmp_path)
        _poll_honestly(follower, db)
        assert all(follower.database.exists(uid) for uid in late)
        assert follower.applied_epoch == db.commit_epoch
        db.close()


_FRAME = struct.Struct(">cI")


def _frames(data, start):
    """``[(kind, end)]`` of every complete frame, *end* being the offset
    just past it -- a reference parser kept apart from the journal
    module's own."""
    frames, position = [], start
    while position + _FRAME.size <= len(data):
        kind, length = _FRAME.unpack_from(data, position)
        position += _FRAME.size + length
        if position > len(data):
            break
        frames.append((kind, position))
    return frames


def _seeded_journal(root):
    """A primary store whose journal holds plain commits, a tombstone, a
    2PC batch resolved commit, one resolved abort, one left in doubt,
    and a hand-written legacy batch (empty-payload commit marker)
    followed by newer batches.  Returns (snapshot bytes, journal
    bytes)."""
    db = _primary(root)
    tm = TransactionManager(db)
    docs = [db.make("Doc", values={"Title": f"d{i}"}) for i in range(4)]
    db.set_value(docs[0], "Title", "rewritten")
    db.delete(docs[1])
    for gtid, commit in (("g-commit", True), ("g-abort", False)):
        txn = tm.begin()
        tm.make(txn, "Doc", values={"Title": gtid})
        tm.write(txn, docs[2], "Title", gtid)
        db.journal.prepare_txn(txn, gtid)
        db.journal.resolve_prepared(gtid, commit)
        (tm.commit if commit else tm.abort)(txn)
    doubt = tm.begin()
    tm.make(doubt, "Doc", values={"Title": "in doubt"})
    db.journal.prepare_txn(doubt, "g-doubt")
    db.make("Doc", values={"Title": "after the prepare"})
    db.close()

    # A legacy writer sealed its batches with an empty commit payload.
    recovered = Database()
    Journal.recover_into(recovered, root)
    legacy = decode_instance(encode_instance(recovered.peek(docs[3])))
    legacy.set("Title", "legacy")
    image = encode_instance(legacy)
    with open(root / JOURNAL_NAME, "ab") as handle:
        handle.write(_FRAME.pack(b"I", len(image)) + image)
        handle.write(_FRAME.pack(b"C", 0))

    db = DurableDatabase(root, sync_policy="commit")
    db.set_value(docs[3], "Title", "after legacy")
    db.delete(docs[0])
    db.close()
    return ((root / SNAPSHOT_NAME).read_bytes(),
            (root / JOURNAL_NAME).read_bytes())


def _store(directory, snapshot, journal):
    directory.mkdir(exist_ok=True)
    (directory / SNAPSHOT_NAME).write_bytes(snapshot)
    (directory / JOURNAL_NAME).write_bytes(journal)
    return directory


def _recovered(directory):
    db = Database()
    Journal.recover_into(db, directory)
    return db


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    return _seeded_journal(tmp_path_factory.mktemp("seeded-primary"))


def _cuts(journal, upto):
    """Cut points up to *upto*: frame boundaries, or any byte (inside a
    frame or the header)."""
    ends = [0, JOURNAL_HEADER_SIZE] + [
        end for _kind, end in _frames(journal, JOURNAL_HEADER_SIZE)]
    return st.one_of(st.sampled_from([end for end in ends if end <= upto]),
                     st.integers(0, upto))


class TestOneReader:
    def test_seeded_journal_covers_every_record_rule(self, seeded, tmp_path):
        snapshot, journal = seeded
        kinds = {kind for kind, _end in _frames(journal, JOURNAL_HEADER_SIZE)}
        assert kinds == {b"I", b"D", b"C", b"P", b"R"}
        assert _FRAME.pack(b"C", 0) in journal  # the legacy marker
        db = _recovered(_store(tmp_path / "full", snapshot, journal))
        assert set(db.in_doubt) == {"g-doubt"}
        assert db.fsck().clean

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_follower_attached_early_equals_recovery(self, seeded, data):
        snapshot, journal = seeded
        c2 = data.draw(_cuts(journal, len(journal)), label="c2")
        c1 = data.draw(_cuts(journal, c2), label="c1")
        with tempfile.TemporaryDirectory() as scratch:
            directory = _store(Path(scratch), snapshot, journal[:c1])
            follower = JournalFollower(directory)
            (directory / JOURNAL_NAME).write_bytes(journal[:c2])
            follower.poll()
            expected = _recovered(directory)
        replica = follower.database
        assert state_fingerprint(replica) == state_fingerprint(expected)
        assert replica.commit_epoch == expected.commit_epoch
        assert follower.applied_epoch == expected.commit_epoch
        assert set(replica.in_doubt) == set(expected.in_doubt)

    def test_headerless_legacy_journal_replays(self, tmp_path):
        # A journal from before the header and the epoch payloads: no
        # snapshot, no header, every commit marker empty.
        db = DurableDatabase(tmp_path / "primary", sync_policy="commit")
        Database.make_class(db, "Doc", attributes=[  # no checkpoint
            {"name": "Title", "domain": "string"},
        ])
        docs = [db.make("Doc", values={"Title": f"d{i}"}) for i in range(3)]
        db.set_value(docs[0], "Title", "rewritten")
        db.delete(docs[1])
        db.close()
        data = (tmp_path / "primary" / JOURNAL_NAME).read_bytes()
        frames, start = [], JOURNAL_HEADER_SIZE
        for kind, end in _frames(data, start):
            frames.append(_FRAME.pack(b"C", 0) if kind == b"C"
                          else data[start:end])
            start = end
        legacy = b"".join(frames)
        store = tmp_path / "legacy"
        store.mkdir()
        (store / JOURNAL_NAME).write_bytes(legacy)
        expected = _recovered(store)
        assert expected.commit_epoch == 5  # counted, one per marker
        assert expected.peek(docs[0]).get("Title") == "rewritten"
        assert expected.peek(docs[1]) is None
        for cut in [0] + [end for _kind, end in _frames(legacy, 0)]:
            (store / JOURNAL_NAME).write_bytes(legacy[:cut])
            follower = JournalFollower(store)
            (store / JOURNAL_NAME).write_bytes(legacy)
            follower.poll()
            assert state_fingerprint(follower.database) == \
                state_fingerprint(expected)
            assert follower.applied_epoch == expected.commit_epoch

    def test_unknown_kind_stops_recovery_and_raises_in_the_follower(
        self, seeded, tmp_path
    ):
        snapshot, journal = seeded
        # Mid-journal, right after the third commit marker.
        cut = [end for kind, end in _frames(journal, JOURNAL_HEADER_SIZE)
               if kind == b"C"][2]
        corrupt = journal[:cut] + _FRAME.pack(b"X", 0) + journal[cut:]
        prefix = _recovered(_store(tmp_path / "prefix", snapshot,
                                   journal[:cut]))
        stopped = _recovered(_store(tmp_path / "corrupt", snapshot, corrupt))
        assert state_fingerprint(stopped) == state_fingerprint(prefix)
        assert stopped.commit_epoch == prefix.commit_epoch

        directory = _store(tmp_path / "follow", snapshot,
                           journal[:JOURNAL_HEADER_SIZE])
        follower = JournalFollower(directory)
        (directory / JOURNAL_NAME).write_bytes(corrupt)
        for _ in range(2):
            with pytest.raises(StorageError, match="corrupt journal record"):
                follower.poll()
            # The applied prefix stays intact and served.
            assert state_fingerprint(follower.database) == \
                state_fingerprint(prefix)
            assert follower.applied_epoch == prefix.commit_epoch
            follower.require_epoch(prefix.commit_epoch)


# ---------------------------------------------------------------------------
# 2. A live replica over TCP
# ---------------------------------------------------------------------------


class TestReplicaServerTCP:
    def test_replica_serves_and_catches_up(self, tmp_path):
        db = _primary(tmp_path)
        uid = db.make("Doc", values={"Title": "v1"})
        with ReplicaThread(tmp_path) as replica:
            with Client(port=replica.port, timeout=20.0) as client:
                assert client.value(uid, "Title") == "v1"
                info = client.read_epoch()
                assert info["mvcc"] is True
                assert info["replica"]["applied_epoch"] == db.commit_epoch

                pinned = info["epoch"]
                db.set_value(uid, "Title", "v2")
                assert _wait_for(
                    lambda: replica.follower.applied_epoch == db.commit_epoch
                )
                assert client.value(uid, "Title") == "v2"
                # The pre-write epoch still answers consistently.
                old = client.snapshot_read(uid, "Title", epoch=pinned)
                assert old == {"value": "v1", "epoch": pinned}

                with pytest.raises(ReplicaLagError):
                    client.snapshot_read(
                        uid, "Title", min_epoch=db.commit_epoch + 50
                    )
        db.close()

    def test_writes_rejected_with_replica_reason(self, tmp_path):
        db = _primary(tmp_path)
        uid = db.make("Doc", values={"Title": "a"})
        with ReplicaThread(tmp_path) as replica:
            with Client(port=replica.port, timeout=20.0) as client:
                with pytest.raises(ReadOnlyError, match="read replica"):
                    client.set_value(uid, "Title", "b")
                with pytest.raises(ReadOnlyError, match="read replica"):
                    client.make("Doc", values={"Title": "c"})
        db.close()

    def test_stats_carry_replica_and_mvcc_rows(self, tmp_path):
        db = _primary(tmp_path)
        db.make("Doc", values={"Title": "a"})
        with ReplicaThread(tmp_path) as replica:
            with Client(port=replica.port, timeout=20.0) as client:
                stats = client.stats()
                assert stats["replica"]["applied_epoch"] == db.commit_epoch
                assert stats["mvcc"]["epoch"] == db.commit_epoch
                assert stats["server"]["read_only"] is True
        db.close()

    def test_replica_follows_primary_checkpoint(self, tmp_path):
        db = _primary(tmp_path)
        uid = db.make("Doc", values={"Title": "a"})
        with ReplicaThread(tmp_path, poll_interval=0.01) as replica:
            db.set_value(uid, "Title", "b")
            db.checkpoint()
            db.set_value(uid, "Title", "c")
            assert _wait_for(
                lambda: replica.follower.applied_epoch == db.commit_epoch
            )
            assert replica.follower.rebuilds >= 2
            with Client(port=replica.port, timeout=20.0) as client:
                assert client.value(uid, "Title") == "c"
        db.close()


# ---------------------------------------------------------------------------
# 3. Failover drills (satellite: crash harness)
# ---------------------------------------------------------------------------


class TestFailoverDrills:
    @pytest.mark.parametrize("policy", ["commit", "group", "always"])
    def test_kill_replica_restart_converges(self, tmp_path, policy):
        plan = FaultPlan(seed=SMOKE_SEED, policy=policy, units=8)
        report = ReplicaDrill(plan, tmp_path, kind="kill-replica").run()
        assert report.ok, report.summary()
        assert report.facts["replica_rebuilds"] >= 1
        assert report.facts["applied_epoch"] <= report.facts["primary_epoch"]

    @pytest.mark.parametrize("policy", ["commit", "group", "always"])
    def test_kill_primary_mid_ship_promotes(self, tmp_path, policy):
        plan = FaultPlan(seed=SMOKE_SEED, policy=policy, units=8)
        report = ReplicaDrill(plan, tmp_path, kind="kill-primary").run()
        assert report.ok, report.summary()
        # landed on a captured commit point
        assert report.facts["matched_label"]

    @pytest.mark.parametrize("seed", [3, 11, 77])
    def test_drill_seed_sweep(self, tmp_path, seed):
        for kind in ("kill-replica", "kill-primary"):
            root = tmp_path / f"{kind}-{seed}"
            plan = FaultPlan(seed=seed, policy="commit", units=6)
            report = ReplicaDrill(plan, root, kind=kind).run()
            assert report.ok, report.summary()

    def test_sweep_runs_both_kinds_per_plan_under_fault_rules(self):
        # The replica scenario on the shared engine: seeded fault plans
        # (not only the rule-free ones above), both disasters per plan.
        from repro.faults.drill import run_sweep

        reports = run_sweep("replica", 20260808, 8)
        assert [r.facts["kind"] for r in reports] == \
            ["kill-replica", "kill-primary"] * 8
        assert any(r.fired for r in reports)
        failures = [r for r in reports if not r.ok]
        assert failures == [], [f.summary() for f in failures]

    def test_broken_prefix_oracle_fails_the_drill(self, tmp_path,
                                                  monkeypatch):
        from repro.mvcc import crashsim

        monkeypatch.setattr(crashsim, "last_match", lambda states, s: None)
        plan = FaultPlan(seed=SMOKE_SEED, policy="commit", units=4)
        report = ReplicaDrill(plan, tmp_path, kind="kill-primary").run()
        assert not report.ok
        assert report.problems[0] == (
            "replica state after poll 1 matches no captured commit point "
            "(not a committed prefix)"
        )
        assert report.problems[-1] == (
            "replica state after the primary crash matches no captured "
            "commit point"
        )

    def test_unknown_drill_kind_rejected(self, tmp_path):
        plan = FaultPlan(seed=1, policy="commit", units=2)
        with pytest.raises(ValueError, match="unknown drill kind"):
            ReplicaDrill(plan, tmp_path, kind="kill-network")


# ---------------------------------------------------------------------------
# 4. Read routing with primary fallback
# ---------------------------------------------------------------------------


class TestReadRouter:
    def test_replica_first_with_lag_fallback(self, tmp_path):
        db = _primary(tmp_path)
        uid = db.make("Doc", values={"Title": "a"})
        with ServerThread(database=db) as primary_handle:
            with ReplicaThread(tmp_path) as replica_handle:
                primary = Client(port=primary_handle.port, timeout=20.0)
                replica = Client(port=replica_handle.port, timeout=20.0)
                try:
                    router = ReadRouter(primary, replicas=[replica])
                    result = router.snapshot_read(uid, "Title")
                    assert result["value"] == "a"
                    assert router.replica_reads == 1

                    # A freshness floor the replica cannot meet falls
                    # back to the primary instead of failing the read.
                    floor = router.read_epoch()["epoch"] + 50
                    db.commit_epoch += 50  # primary moves ahead
                    try:
                        result = router.snapshot_read(
                            uid, "Title", min_epoch=floor
                        )
                        assert result["value"] == "a"
                        assert router.fallbacks == 1
                        assert router.primary_reads == 1
                    finally:
                        db.commit_epoch -= 50
                finally:
                    primary.close()
                    replica.close()
        db.close()

    def test_dead_replica_falls_back(self, tmp_path):
        db = _primary(tmp_path)
        uid = db.make("Doc", values={"Title": "a"})
        with ServerThread(database=db) as primary_handle:
            with ReplicaThread(tmp_path) as replica_handle:
                primary = Client(port=primary_handle.port, timeout=20.0)
                replica = Client(port=replica_handle.port, timeout=5.0,
                                 max_retries=0)
                replica.connect()
                try:
                    router = ReadRouter(primary, replicas=[replica])
                    replica_handle.stop()  # replica process dies
                    result = router.snapshot_read(uid, "Title")
                    assert result["value"] == "a"
                    assert router.fallbacks == 1
                    assert router.primary_reads == 1
                finally:
                    primary.close()
                    replica.close()
        db.close()


# ---------------------------------------------------------------------------
# 5. Entry point and cluster wiring
# ---------------------------------------------------------------------------


class TestReplicaEntryPoint:
    def test_port_file_discovery_and_reads(self, tmp_path):
        store = tmp_path / "store"
        db = _primary(store)
        uid = db.make("Doc", values={"Title": "shipped"})
        db.close()

        port_file = tmp_path / "port"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.mvcc", str(store),
             "--port", "0", "--port-file", str(port_file)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            deadline = time.monotonic() + 15.0
            while not port_file.exists() and time.monotonic() < deadline:
                assert proc.poll() is None, proc.stdout.read().decode()
                time.sleep(0.05)
            port = int(port_file.read_text().strip())
            with Client(port=port, timeout=10.0) as client:
                assert client.value(uid, "Title") == "shipped"
                info = client.read_epoch()
                assert info["replica"]["rebuilds"] >= 1
                with pytest.raises(ReadOnlyError, match="read replica"):
                    client.set_value(uid, "Title", "nope")
        finally:
            proc.terminate()
            proc.wait(timeout=10.0)
            proc.stdout.close()


class TestShardRouterReadEpoch:
    def test_read_epoch_scatters_with_min_merge(self, tmp_path):
        from repro.shard.worker import ShardCluster

        with ShardCluster(tmp_path, shards=2) as cluster:
            with Client(port=cluster.router_port, timeout=20.0) as client:
                client.make_class("Doc", attributes=[
                    {"name": "Title", "domain": "string"},
                ])
                for index in range(4):
                    client.make("Doc", values={"Title": f"d{index}"})
                info = client.read_epoch()
                assert set(info["shards"]) == {"shard-00", "shard-01"}
                per_shard = [row["epoch"] for row in info["shards"].values()]
                assert info["epoch"] == min(per_shard)
                assert info["mvcc"] is True
