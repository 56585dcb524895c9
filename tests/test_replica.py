"""Journal-shipping read replicas (docs/REPLICATION.md).

Five layers:

1. **JournalFollower** — incremental sealed-batch replay, epoch-pinned
   reads on the replica, the staleness bound, tombstones, torn tails,
   checkpoint-triggered rebuilds on a stable database identity.
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
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ReadOnlyError, ReplicaLagError
from repro.faults import FaultPlan
from repro.mvcc import JournalFollower, ReadRouter, ReplicaDrill, ReplicaThread
from repro.server.client import Client
from repro.server.server import ServerThread
from repro.storage.durable import DurableDatabase
from repro.storage.journal import JOURNAL_NAME

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
