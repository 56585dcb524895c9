"""Tests for durability: checkpointing, journaling, crash recovery."""

import pytest

from repro import AttributeSpec, SetOf
from repro.storage.durable import DurableDatabase
from repro.storage.journal import JOURNAL_NAME, SNAPSHOT_NAME, Journal


@pytest.fixture
def store_dir(tmp_path):
    return tmp_path / "db"


def _build(directory):
    db = DurableDatabase(directory)
    db.make_class("Paragraph", attributes=[AttributeSpec("Text", domain="string")])
    db.make_class("Section", attributes=[
        AttributeSpec("Content", domain=SetOf("Paragraph"), composite=True,
                      exclusive=False, dependent=True),
    ])
    return db


class TestRoundTrip:
    def test_empty_reopen(self, store_dir):
        db = DurableDatabase(store_dir)
        db.close()
        db2 = DurableDatabase.open(store_dir)
        assert len(db2) == 0

    def test_schema_survives(self, store_dir):
        db = _build(store_dir)
        db.close()
        db2 = DurableDatabase.open(store_dir)
        assert db2.compositep("Section", "Content")
        assert db2.classdef("Paragraph").attribute("Text").domain == "string"

    def test_instances_survive_without_checkpoint(self, store_dir):
        # Journal-only recovery: no checkpoint after the DDL one.
        db = _build(store_dir)
        p = db.make("Paragraph", values={"Text": "hello"})
        s = db.make("Section", values={"Content": [p]})
        db.close()
        db2 = DurableDatabase.open(store_dir)
        assert db2.value(p, "Text") == "hello"
        assert db2.parents_of(p) == [s]
        db2.validate()

    def test_updates_survive(self, store_dir):
        db = _build(store_dir)
        p = db.make("Paragraph", values={"Text": "v1"})
        db.set_value(p, "Text", "v2")
        db.close()
        db2 = DurableDatabase.open(store_dir)
        assert db2.value(p, "Text") == "v2"

    def test_deletions_survive(self, store_dir):
        db = _build(store_dir)
        p = db.make("Paragraph")
        s = db.make("Section", values={"Content": [p]})
        db.delete(s)  # cascades to p (last dependent parent)
        db.close()
        db2 = DurableDatabase.open(store_dir)
        assert not db2.exists(s) and not db2.exists(p)
        assert len(db2) == 0

    def test_uid_allocation_continues(self, store_dir):
        db = _build(store_dir)
        p1 = db.make("Paragraph")
        db.close()
        db2 = DurableDatabase.open(store_dir)
        p2 = db2.make("Paragraph")
        assert p2.number > p1.number  # no UID reuse

    def test_checkpoint_truncates_journal(self, store_dir):
        db = _build(store_dir)
        for _ in range(5):
            db.make("Paragraph")
        assert db.journal.records_since_checkpoint == 5
        db.checkpoint()
        assert db.journal.records_since_checkpoint == 0
        assert (store_dir / SNAPSHOT_NAME).exists()
        db.close()
        db2 = DurableDatabase.open(store_dir)
        assert len(db2) == 5


class TestCrashRecovery:
    def test_crash_without_close(self, store_dir):
        # No close(): journal entries were fsynced per record, so a crash
        # (simulated by simply abandoning the object) loses nothing.
        db = _build(store_dir)
        p = db.make("Paragraph", values={"Text": "survives"})
        del db  # crash
        db2 = DurableDatabase.open(store_dir)
        assert db2.value(p, "Text") == "survives"

    def test_torn_final_record_discarded(self, store_dir):
        db = _build(store_dir)
        p1 = db.make("Paragraph", values={"Text": "complete"})
        db.make("Paragraph", values={"Text": "torn"})
        db.close()
        journal = store_dir / JOURNAL_NAME
        data = journal.read_bytes()
        journal.write_bytes(data[:-3])  # tear the last record
        db2 = DurableDatabase.open(store_dir)
        assert db2.value(p1, "Text") == "complete"
        texts = [inst.get("Text") for inst in db2.instances_of("Paragraph")]
        assert "torn" not in texts

    def test_reverse_references_intact_after_recovery(self, store_dir):
        db = _build(store_dir)
        p = db.make("Paragraph")
        s1 = db.make("Section", values={"Content": [p]})
        s2 = db.make("Section", values={"Content": [p]})
        db.close()
        db2 = DurableDatabase.open(store_dir)
        assert set(db2.parents_of(p)) == {s1, s2}
        # The Deletion Rule still works on recovered state.
        db2.delete(s1)
        assert db2.exists(p)
        db2.delete(s2)
        assert not db2.exists(p)

    def test_repeated_reopen_stable(self, store_dir):
        db = _build(store_dir)
        uids = [db.make("Paragraph", values={"Text": f"p{i}"}) for i in range(3)]
        db.close()
        for _ in range(3):
            db = DurableDatabase.open(store_dir)
            assert [db.value(u, "Text") for u in uids] == ["p0", "p1", "p2"]
            db.close()

    def test_recovery_into_plain_database(self, store_dir):
        from repro import Database

        db = _build(store_dir)
        db.make("Paragraph", values={"Text": "x"})
        db.close()
        fresh = Database()
        restored, replayed = Journal.recover_into(fresh, store_dir)
        assert replayed >= 1
        assert len(fresh) == 1

    @pytest.mark.parametrize("policy", ["always", "commit"])
    def test_failed_make_leaves_no_object_to_recover(self, store_dir, policy):
        # The refused make journaled its half-built object's image
        # before the error; its rollback must journal the tombstone too.
        from repro import ReproError

        db = DurableDatabase(store_dir, sync_policy=policy)
        db.make_class("Leaf")
        db.make_class("Owner", attributes=[
            AttributeSpec("Name", domain="string"),
            AttributeSpec("Leaf", domain="Leaf", composite=True),
        ])
        leaf = db.make("Leaf")
        db.make("Owner", values={"Leaf": leaf})
        with pytest.raises(ReproError):
            db.make("Owner", values={"Name": "ghost", "Leaf": leaf})
        assert len(db) == 2
        db.close()
        assert len(DurableDatabase.open(store_dir)) == 2


class TestDurablePlusSubsystems:
    def test_schema_evolution_then_checkpoint(self, store_dir):
        from repro.schema.evolution import SchemaEvolutionManager

        db = _build(store_dir)
        manager = SchemaEvolutionManager(db)
        p = db.make("Paragraph")
        s = db.make("Section", values={"Content": [p]})
        manager.make_independent("Section", "Content")
        db.checkpoint()  # DDL via evolution requires an explicit checkpoint
        db.close()
        db2 = DurableDatabase.open(store_dir)
        assert not db2.dependent_compositep("Section", "Content")
        db2.delete(s)
        assert db2.exists(p)  # independence survived the round trip

    def test_transactions_on_durable_database(self, store_dir):
        from repro.txn import TransactionManager

        db = _build(store_dir)
        p = db.make("Paragraph", values={"Text": "orig"})
        manager = TransactionManager(db)
        txn = manager.begin()
        manager.write(txn, p, "Text", "dirty")
        manager.abort(txn)
        db.close()
        db2 = DurableDatabase.open(store_dir)
        # The abort's compensating write was journaled too.
        assert db2.value(p, "Text") == "orig"
