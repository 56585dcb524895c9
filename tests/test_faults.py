"""The fault-injection layer: registry/plan units and journal hardening.

The first half exercises :mod:`repro.faults.registry` and
:mod:`repro.faults.plan` as plain data structures (rule matching,
arming, determinism).  The second half is the ISSUE's journal audit:
under injected fsync and write failures the journal must surface a
typed :class:`~repro.errors.StorageError` — never lose records
silently — go fail-stop, and still release every lock and close
cleanly.
"""

from __future__ import annotations

import pytest

from repro import AttributeSpec, Database
from repro.errors import LockConflictError, ReadOnlyError, StorageError, error_registry
from repro.faults import (
    ACTIONS,
    FAILPOINTS,
    FailpointRegistry,
    FaultPlan,
    FaultRule,
    InjectedFault,
    active,
    fault_scope,
    fire,
    random_plan,
)
from repro.faults.plan import CRASH_MODES
from repro.storage.durable import DurableDatabase
from repro.storage.journal import (
    JOURNAL_HEADER_SIZE,
    JOURNAL_MAGIC,
    JOURNAL_NAME,
    SYNC_POLICIES,
    Journal,
    _journal_body,
)
from repro.txn import TransactionManager


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestFaultRule:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown failpoint site"):
            FaultRule(site="journal.nope", action="error")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(site="journal.fsync", action="explode")

    def test_nth_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultRule(site="journal.fsync", action="error", nth=0)

    def test_count_must_be_positive_or_none(self):
        with pytest.raises(ValueError, match="count"):
            FaultRule(site="journal.fsync", action="error", count=0)
        FaultRule(site="journal.fsync", action="error", count=None)  # forever

    def test_matches_window(self):
        rule = FaultRule(site="journal.fsync", action="skip", nth=3, count=2)
        assert [hit for hit in range(1, 8) if rule.matches(hit)] == [3, 4]

    def test_matches_forever(self):
        rule = FaultRule(site="journal.fsync", action="skip", nth=2,
                         count=None)
        assert not rule.matches(1)
        assert all(rule.matches(hit) for hit in range(2, 50))

    def test_dict_round_trip(self):
        rule = FaultRule(site="journal.write_record", action="torn", nth=7,
                         count=3, torn_bytes=11, message="m")
        assert FaultRule.from_dict(rule.to_dict()) == rule


class TestRegistry:
    def test_disarmed_fire_is_a_no_op(self):
        assert active() is None
        assert fire("journal.fsync") is None

    def test_scope_arms_and_disarms(self):
        with fault_scope() as faults:
            assert active() is faults
            assert isinstance(faults, FailpointRegistry)
        assert active() is None

    def test_scope_disarms_on_error(self):
        with pytest.raises(RuntimeError, match="boom"), fault_scope():
            raise RuntimeError("boom")
        assert active() is None

    def test_scopes_do_not_nest(self):
        with fault_scope(), pytest.raises(RuntimeError, match="do not nest"):
            with fault_scope():
                pass

    def test_error_action_raises_injected_fault(self):
        with fault_scope() as faults:
            faults.add("journal.fsync", "error", nth=2)
            assert fire("journal.fsync") is None  # hit 1: below the window
            with pytest.raises(InjectedFault):
                fire("journal.fsync")
        assert isinstance(InjectedFault("x"), OSError)

    def test_hits_count_per_site(self):
        with fault_scope() as faults:
            fire("journal.fsync")
            fire("journal.fsync")
            fire("client.send")
            assert faults.hit_count("journal.fsync") == 2
            assert faults.hit_count("client.send") == 1
            assert faults.hit_count("client.recv") == 0

    def test_directive_actions_are_returned(self):
        with fault_scope() as faults:
            faults.add("journal.fsync", "skip")
            faults.add("server.send_frame", "drop")
            faults.add("server.recv_frame", "kill")
            faults.add("client.send", "delay", delay_s=0.25)
            assert fire("journal.fsync") == "skip"
            assert fire("server.send_frame") == "drop"
            assert fire("server.recv_frame") == "kill"
            assert fire("client.send") == ("delay", 0.25)

    def test_count_action_logs_but_changes_nothing(self):
        with fault_scope() as faults:
            faults.add("journal.fsync", "count", count=None)
            assert fire("journal.fsync") is None
            assert fire("journal.fsync") is None
            assert [t.action for t in faults.triggered] == ["count", "count"]

    def test_observers_see_every_hit(self):
        seen = []
        with fault_scope() as faults:
            faults.observe("journal.fsynced", seen.append)
            fire("journal.fsynced", journal="j1")
            fire("journal.fsynced", journal="j2")
        assert seen == [{"journal": "j1"}, {"journal": "j2"}]

    def test_observe_validates_site(self):
        with pytest.raises(ValueError, match="unknown failpoint"):
            FailpointRegistry().observe("no.such.site", print)

    def test_triggered_log_records_site_hit_action(self):
        with fault_scope() as faults:
            faults.add("journal.fsync", "skip", nth=2)
            fire("journal.fsync")
            fire("journal.fsync")
            (entry,) = faults.triggered
            assert (entry.site, entry.hit, entry.action) == \
                ("journal.fsync", 2, "skip")

    def test_catalog_covers_every_layer(self):
        sites = set(FAILPOINTS)
        assert {"journal.write_record", "journal.fsync", "store.write",
                "store.read", "server.send_frame", "server.recv_frame",
                "client.send", "client.recv"} <= sites
        assert set(ACTIONS) == {"error", "torn", "skip", "drop", "garble",
                                "delay", "kill", "count"}


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="sync policy"):
            FaultPlan(seed=1, policy="sometimes")
        with pytest.raises(ValueError, match="crash mode"):
            FaultPlan(seed=1, crash_mode="meteor")

    def test_random_plan_is_deterministic(self):
        for seed in (0, 7, 123456):
            assert random_plan(seed).to_dict() == random_plan(seed).to_dict()

    def test_random_plan_fields_in_range(self):
        for seed in range(60):
            plan = random_plan(seed)
            assert plan.policy in SYNC_POLICIES
            assert plan.crash_mode in CRASH_MODES
            assert 5 <= plan.units <= 12
            assert 1 <= plan.stop_at_unit <= plan.units
            assert plan.group_size in (2, 3, 4)
            assert len(plan.rules) <= 2
            for rule in plan.rules:
                assert rule.site in ("journal.write_record", "journal.fsync")

    def test_policy_override(self):
        assert random_plan(11, policy="none").policy == "none"

    def test_dict_round_trip(self):
        plan = random_plan(99)
        assert FaultPlan.from_dict(plan.to_dict()).to_dict() == plan.to_dict()

    def test_describe_names_the_experiment(self):
        plan = FaultPlan(seed=42, policy="group", crash_mode="power", rules=[
            FaultRule(site="journal.fsync", action="skip", count=None),
        ])
        text = plan.describe()
        assert "seed=42" in text
        assert "policy=group" in text
        assert "crash=power" in text
        assert "journal.fsync:skip@1+" in text

    def test_build_registry_arms_the_rules(self):
        plan = FaultPlan(seed=1, rules=[
            FaultRule(site="journal.fsync", action="error"),
        ])
        with fault_scope(plan.build_registry()), \
                pytest.raises(InjectedFault):
            fire("journal.fsync")


# ---------------------------------------------------------------------------
# Journal hardening under injected failures (the ISSUE's audit)
# ---------------------------------------------------------------------------


def _schema(db):
    db.make_class("Doc", attributes=[AttributeSpec("Text", domain="string")])


class TestJournalFailStop:
    def test_fsync_error_at_commit_surfaces_and_fail_stops(self, tmp_path):
        db = DurableDatabase(tmp_path, sync_policy="commit")
        _schema(db)
        tm = TransactionManager(db)
        txn = tm.begin()
        with fault_scope() as faults:
            faults.add("journal.fsync", "error")
            uid = tm.make(txn, "Doc", values={"Text": "x"})  # buffered only
            with pytest.raises(StorageError, match="journal IO failed"):
                tm.commit(txn)
        assert db.journal.failed
        assert db.journal.stats_row()["failed"] is True
        # Fail-stop: later mutations refuse instead of appending after
        # a hole...
        with pytest.raises(StorageError, match="fail-stop"):
            db.set_value(uid, "Text", "y")
        # ...and close is a quiet cleanup (the loss already surfaced).
        db.close()
        db.close()  # idempotent

    def test_locks_release_after_failed_commit(self, tmp_path):
        db = DurableDatabase(tmp_path, sync_policy="commit")
        _schema(db)
        tm = TransactionManager(db)
        txn = tm.begin()
        with fault_scope() as faults:
            faults.add("journal.fsync", "error")
            uid = tm.make(txn, "Doc", values={"Text": "x"})
            with pytest.raises(StorageError):
                tm.commit(txn)
        # The transaction could not become durable, but it must not
        # wedge the lock table: a new transaction gets the X lock.
        txn2 = tm.begin()
        tm.protocol.lock_instance(txn2, uid, "write", wait=False)
        db.journal.abandon()

    def test_locks_release_after_failed_abort(self, tmp_path):
        # A checkpoint mid-transaction persists uncommitted state, so the
        # abort MUST journal compensating records; when that write fails
        # the error surfaces (no silent loss) and locks still release.
        db = DurableDatabase(tmp_path, sync_policy="commit")
        _schema(db)
        uid = db.make("Doc", values={"Text": "committed"})
        tm = TransactionManager(db)
        txn = tm.begin()
        tm.write(txn, uid, "Text", "uncommitted")
        db.checkpoint()  # txn batch goes stale
        with fault_scope() as faults:
            faults.add("journal.write_record", "error", count=None)
            with pytest.raises(StorageError):
                tm.abort(txn)
        assert db.journal.failed
        txn2 = tm.begin()
        tm.protocol.lock_instance(txn2, uid, "write", wait=False)
        db.journal.abandon()

    def test_stale_batch_abort_on_failed_journal_refuses_silence(
        self, tmp_path
    ):
        # The defensive branch: a journal that failed *before* the abort
        # seals must raise for a stale batch's compensating records — a
        # quiet drop would leave checkpointed uncommitted state durable.
        db = DurableDatabase(tmp_path, sync_policy="commit")
        _schema(db)
        journal = db.journal

        class _Txn:
            pass

        txn = _Txn()
        batch = journal._txn_batches[txn] = type(journal._auto_batch)()
        batch.put("fake-uid", object())
        batch.stale = True
        journal.failed = True
        with pytest.raises(StorageError, match="compensating record"):
            journal._on_txn_abort(txn)
        journal.abandon()

    def test_non_stale_abort_drop_is_safe_even_after_failure(self, tmp_path):
        # Nothing of a non-stale batch reached disk, so dropping it on a
        # failed journal is correct and must NOT raise.
        db = DurableDatabase(tmp_path, sync_policy="commit")
        _schema(db)
        tm = TransactionManager(db)
        txn = tm.begin()
        tm.make(txn, "Doc", values={"Text": "x"})
        db.journal.failed = True
        with pytest.raises(StorageError):
            # The undo pass itself cannot journal on a failed journal;
            # the error is typed, and locks release below.
            tm.abort(txn)
        db.journal.abandon()

    def test_close_path_failure_raises_but_still_closes(self, tmp_path):
        db = DurableDatabase(tmp_path, sync_policy="group", group_size=100)
        _schema(db)
        tm = TransactionManager(db)
        txn = tm.begin()
        tm.make(txn, "Doc", values={"Text": "pending"})  # buffered in txn
        journal = db.journal
        with fault_scope() as faults:
            faults.add("journal.write_record", "error")
            with pytest.raises(StorageError, match="close"):
                db.close()
        # The caller learned the shutdown did not persist everything,
        # but the handle is closed and close stays idempotent.
        assert journal.closed
        assert journal._journal_file.closed
        db.close()

    def test_torn_write_discarded_on_recovery(self, tmp_path):
        db = DurableDatabase(tmp_path, sync_policy="always")
        _schema(db)
        survivor = db.make("Doc", values={"Text": "committed"})
        with fault_scope() as faults:
            faults.add("journal.write_record", "torn", torn_bytes=4)
            with pytest.raises(StorageError):
                db.make("Doc", values={"Text": "torn"})
        assert db.journal.failed
        db.journal.abandon()

        recovered = Database()
        Journal.recover_into(recovered, tmp_path)
        live = [inst.uid for inst in recovered.live_instances()]
        assert live == [survivor]
        assert recovered.value(survivor, "Text") == "committed"
        assert recovered.fsck().clean

    def test_read_only_error_is_wire_typed(self):
        assert error_registry()["READ_ONLY"] is ReadOnlyError
        assert issubclass(ReadOnlyError, StorageError)

    def test_lock_conflict_not_shadowed(self, tmp_path):
        # Sanity: the failure paths above rely on lock_instance raising
        # LockConflictError when a lock is genuinely still held.
        db = DurableDatabase(tmp_path, sync_policy="commit")
        _schema(db)
        uid = db.make("Doc", values={"Text": "x"})
        tm = TransactionManager(db)
        txn = tm.begin()
        tm.write(txn, uid, "Text", "mine")
        with pytest.raises(LockConflictError):
            tm.protocol.lock_instance(tm.begin(), uid, "write", wait=False)
        tm.abort(txn)
        db.close()


# ---------------------------------------------------------------------------
# Journal epochs (the stale-journal-after-checkpoint crash window)
# ---------------------------------------------------------------------------


class TestJournalEpochs:
    def test_stale_journal_not_replayed_over_newer_snapshot(self, tmp_path):
        db = DurableDatabase(tmp_path, sync_policy="always")
        _schema(db)
        uid = db.make("Doc", values={"Text": "old"})
        stale = (tmp_path / JOURNAL_NAME).read_bytes()
        db.set_value(uid, "Text", "new")
        db.checkpoint()
        db.close()
        # Crash window: the snapshot was replaced but the old journal
        # survived (the crash hit between os.replace and the unlink).
        (tmp_path / JOURNAL_NAME).write_bytes(stale)

        recovered = Database()
        Journal.recover_into(recovered, tmp_path)
        # Without the epoch header the stale journal would roll the
        # instance back to its pre-checkpoint image.
        assert recovered.value(uid, "Text") == "new"
        assert recovered.fsck().clean

    def test_epoch_advances_per_checkpoint_and_stamps_the_header(
        self, tmp_path
    ):
        db = DurableDatabase(tmp_path, sync_policy="commit")
        _schema(db)  # make_class checkpoints: epoch 1
        first = db.journal.epoch
        db.checkpoint()
        assert db.journal.epoch == first + 1
        header = (tmp_path / JOURNAL_NAME).read_bytes()[:JOURNAL_HEADER_SIZE]
        assert header[:len(JOURNAL_MAGIC)] == JOURNAL_MAGIC
        assert int.from_bytes(header[len(JOURNAL_MAGIC):], "big") == \
            db.journal.epoch
        db.close()

    def test_journal_body_validation(self):
        import struct

        # The rule answers the offset of the first record.
        body = JOURNAL_MAGIC + struct.pack(">I", 3) + b"records"
        assert body[_journal_body(body, 3):] == b"records"
        assert _journal_body(body, 2) is None          # stale epoch
        assert _journal_body(JOURNAL_MAGIC[:5], 0) is None   # torn header
        assert _journal_body(JOURNAL_MAGIC + b"\x00", 0) is None
        # Legacy headerless journals replay only against epoch 0.
        assert _journal_body(b"Irecords", 0) == 0
        assert _journal_body(b"Irecords", 1) is None
