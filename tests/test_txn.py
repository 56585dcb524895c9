"""Tests for transactions: strict 2PL, undo, abort."""

import pytest

from repro import AttributeSpec, Database, LockConflictError, SetOf
from repro.errors import TransactionStateError, UnknownAttributeError
from repro.locking.modes import LockMode as M
from repro.txn import TransactionManager, TxnState


@pytest.fixture
def txn_env():
    database = Database()
    database.make_class("Leaf", attributes=[
        AttributeSpec("Tag", domain="string"),
    ])
    database.make_class("Box", attributes=[
        AttributeSpec("Name", domain="string"),
        AttributeSpec("L", domain=SetOf("Leaf"), composite=True,
                      exclusive=True, dependent=True),
    ])
    manager = TransactionManager(database)
    return database, manager


class TestCommitAbort:
    def test_commit_keeps_changes(self, txn_env):
        database, manager = txn_env
        box = database.make("Box", values={"Name": "a"})
        txn = manager.begin()
        manager.write(txn, box, "Name", "b")
        manager.commit(txn)
        assert database.value(box, "Name") == "b"
        assert txn.state is TxnState.COMMITTED
        assert manager.commits == 1

    def test_abort_restores_scalar(self, txn_env):
        database, manager = txn_env
        box = database.make("Box", values={"Name": "a"})
        txn = manager.begin()
        manager.write(txn, box, "Name", "b")
        manager.abort(txn)
        assert database.value(box, "Name") == "a"
        assert manager.aborts == 1

    def test_abort_restores_set_operations(self, txn_env):
        database, manager = txn_env
        box = database.make("Box")
        keep = database.make("Leaf", parents=[(box, "L")])
        txn = manager.begin()
        added = manager.make(txn, "Leaf")
        manager.insert(txn, box, "L", added)
        manager.remove(txn, box, "L", keep)
        manager.abort(txn)
        assert database.value(box, "L") == [keep]
        assert not database.exists(added)
        database.validate()

    def test_abort_resurrects_deletion_cascade(self, txn_env):
        database, manager = txn_env
        box = database.make("Box", values={"Name": "x"})
        leaves = [database.make("Leaf", parents=[(box, "L")]) for _ in range(3)]
        txn = manager.begin()
        manager.delete(txn, box)
        assert not database.exists(box)
        manager.abort(txn)
        assert database.exists(box)
        for leaf in leaves:
            assert database.exists(leaf)
        assert database.value(box, "L") == leaves
        database.validate()

    def test_committed_delete_stays(self, txn_env):
        database, manager = txn_env
        box = database.make("Box")
        leaf = database.make("Leaf", parents=[(box, "L")])
        txn = manager.begin()
        manager.delete(txn, box)
        manager.commit(txn)
        assert not database.exists(box) and not database.exists(leaf)

    def test_double_commit_rejected(self, txn_env):
        database, manager = txn_env
        txn = manager.begin()
        manager.commit(txn)
        with pytest.raises(TransactionStateError):
            manager.commit(txn)
        with pytest.raises(TransactionStateError):
            manager.abort(txn)

    def test_operation_after_commit_rejected(self, txn_env):
        database, manager = txn_env
        box = database.make("Box")
        txn = manager.begin()
        manager.commit(txn)
        with pytest.raises(TransactionStateError):
            manager.write(txn, box, "Name", "z")

    def test_undo_applied_in_reverse_order(self, txn_env):
        database, manager = txn_env
        box = database.make("Box", values={"Name": "start"})
        txn = manager.begin()
        manager.write(txn, box, "Name", "mid")
        manager.write(txn, box, "Name", "end")
        manager.abort(txn)
        assert database.value(box, "Name") == "start"


@pytest.fixture
def docs_env():
    """Pages shared by documents under a dependent shared set (Ds)."""
    database = Database()
    database.make_class("Page", attributes=[
        AttributeSpec("Text", domain="string"),
    ])
    database.make_class("Doc", attributes=[
        AttributeSpec("Pages", domain=SetOf("Page"), composite=True,
                      exclusive=False, dependent=True),
    ])
    doc_a, doc_b = database.make("Doc"), database.make("Doc")
    page = database.make("Page", parents=[(doc_a, "Pages"),
                                          (doc_b, "Pages")])
    return database, TransactionManager(database), doc_a, doc_b, page


class TestAbortRestoresBothEnds:
    """The Deletion Rule edits survivors too; abort must undo those edits."""

    def test_abort_delete_of_component_with_surviving_ds_parents(
            self, docs_env):
        database, manager, doc_a, doc_b, page = docs_env
        txn = manager.begin()
        manager.delete(txn, page)
        assert database.value(doc_a, "Pages") == []
        manager.abort(txn)
        assert database.value(doc_a, "Pages") == [page]
        assert database.value(doc_b, "Pages") == [page]
        database.validate()

    def test_abort_delete_of_parent_whose_shared_component_survives(
            self, docs_env):
        database, manager, doc_a, doc_b, page = docs_env
        txn = manager.begin()
        report = manager.delete(txn, doc_a)
        assert report.deleted == [doc_a]
        assert database.parents_of(page) == [doc_b]
        manager.abort(txn)
        assert sorted(database.parents_of(page), key=lambda u: u.number) \
            == [doc_a, doc_b]
        database.validate()


class TestStrict2PL:
    def test_writer_blocks_writer(self, txn_env):
        database, manager = txn_env
        box = database.make("Box")
        t1, t2 = manager.begin(), manager.begin()
        manager.write(t1, box, "Name", "a")
        with pytest.raises(LockConflictError):
            manager.write(t2, box, "Name", "b")

    def test_readers_share(self, txn_env):
        database, manager = txn_env
        box = database.make("Box", values={"Name": "a"})
        t1, t2 = manager.begin(), manager.begin()
        assert manager.read(t1, box, "Name") == "a"
        assert manager.read(t2, box, "Name") == "a"

    def test_reader_blocks_writer(self, txn_env):
        database, manager = txn_env
        box = database.make("Box")
        t1, t2 = manager.begin(), manager.begin()
        manager.read(t1, box, "Name")
        with pytest.raises(LockConflictError):
            manager.write(t2, box, "Name", "b")

    def test_locks_held_until_commit(self, txn_env):
        database, manager = txn_env
        box = database.make("Box")
        t1 = manager.begin()
        manager.write(t1, box, "Name", "a")
        t2 = manager.begin()
        with pytest.raises(LockConflictError):
            manager.read(t2, box, "Name")
        manager.commit(t1)
        assert manager.read(t2, box, "Name") == "a"

    def test_abort_releases_locks(self, txn_env):
        database, manager = txn_env
        box = database.make("Box")
        t1 = manager.begin()
        manager.write(t1, box, "Name", "a")
        manager.abort(t1)
        t2 = manager.begin()
        manager.write(t2, box, "Name", "b")

    def test_read_composite_locks_whole_granule(self, txn_env):
        database, manager = txn_env
        box = database.make("Box")
        leaf = database.make("Leaf", parents=[(box, "L")])
        t1 = manager.begin()
        components = manager.read_composite(t1, box)
        assert components == [leaf]
        # The composite read (ISO on Leaf) blocks a direct leaf writer (IX).
        t2 = manager.begin()
        with pytest.raises(LockConflictError):
            manager.write(t2, leaf, "Tag", "dirty")

    def test_composite_update_lock(self, txn_env):
        database, manager = txn_env
        b1 = database.make("Box")
        b2 = database.make("Box")
        t1, t2 = manager.begin(), manager.begin()
        manager.lock_composite_for_update(t1, b1)
        # Distinct composite objects of the same class update concurrently.
        manager.lock_composite_for_update(t2, b2)
        assert manager.table.modes_held(t1, ("class", "Leaf")) == {M.IXO}
        assert manager.table.modes_held(t2, ("class", "Leaf")) == {M.IXO}

    def test_make_locks_parents(self, txn_env):
        database, manager = txn_env
        box = database.make("Box")
        t1 = manager.begin()
        manager.make(t1, "Leaf", parents=[(box, "L")])
        t2 = manager.begin()
        with pytest.raises(LockConflictError):
            manager.write(t2, box, "Name", "b")

    def test_abort_after_another_txn_deleted_the_new_object(self):
        database = Database()
        database.make_class("Cell", attributes=[
            AttributeSpec("Tag", domain="string"),
        ])
        manager = TransactionManager(database)
        t0, t1 = manager.begin(), manager.begin()
        cell = manager.make(t0, "Cell")
        # Strict 2PL refuses t1: t0 holds X on the object it made.
        try:
            manager.write(t1, cell, "Tag", "x")
            manager.delete(t1, cell)
            manager.commit(t1)
        except LockConflictError:
            manager.abort(t1)
        manager.abort(t0)
        assert not database.exists(cell)
        database.validate()


class TestTxnContext:
    def test_nested_scope_restores_the_outer_transaction(self, txn_env):
        database, manager = txn_env
        outer, inner = manager.begin(), manager.begin()
        with database.txn_context(outer):
            with database.txn_context(inner):
                assert database.current_txn is inner
            assert database.current_txn is outer
        assert database.current_txn is None

    def test_a_raising_body_restores_and_propagates(self, txn_env):
        database, manager = txn_env
        outer, inner = manager.begin(), manager.begin()
        with database.txn_context(outer):
            with pytest.raises(KeyError, match="boom"):
                with database.txn_context(inner):
                    raise KeyError("boom")
            assert database.current_txn is outer
        assert database.current_txn is None

    def test_a_data_op_leaves_no_current_transaction(self, txn_env):
        database, manager = txn_env
        box = database.make("Box", values={"Name": "a"})
        txn = manager.begin()
        manager.write(txn, box, "Name", "b")
        with pytest.raises(UnknownAttributeError):
            manager.write(txn, box, "NoSuchAttribute", 1)
        assert database.current_txn is None
