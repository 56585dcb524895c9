"""The transaction manager: strict two-phase locking over the composite
protocol, with undo-based abort.

Every data operation acquires its locks through the Section 7 protocol
(class intention lock + instance lock; whole-composite operations take the
composite plan); the database records the inverse of every edit it makes
into the transaction's undo log.  Locks are held to commit or abort
(strict 2PL).  Lock conflicts raise immediately
(:class:`repro.errors.LockConflictError`) — the synchronous API never
blocks; the discrete-event simulator (:mod:`repro.sim.eventsim`) drives
the lock table's queues directly for waiting semantics.
"""

from __future__ import annotations

from ..errors import TransactionStateError
from ..locking.protocol import CompositeLockingProtocol
from ..locking.table import LockTable
from .transaction import Transaction, TxnState


class TransactionManager:
    """Transactions over one database."""

    def __init__(self, database, lock_table=None):
        self._db = database
        self.table = lock_table if lock_table is not None else LockTable()
        self.protocol = CompositeLockingProtocol(database, self.table)
        #: Commit / abort counters.
        self.commits = 0
        self.aborts = 0

    # -- lifecycle ----------------------------------------------------------

    def begin(self, snapshot=False, epoch=None):
        """Start a transaction.

        With ``snapshot=True`` the transaction reads at a fixed commit
        epoch (*epoch*, defaulting to the current one) through the
        database's :class:`~repro.mvcc.manager.SnapshotManager` —
        lock-free, consistent, never blocking behind writers.  Its own
        writes still take X-locks and are additionally validated under
        first-updater-wins (snapshot isolation); a read-only snapshot
        transaction is fully serializable (docs/REPLICATION.md).
        """
        txn = Transaction()
        if snapshot:
            manager = self._db.snapshot_manager
            if manager is None:
                raise TransactionStateError(
                    "snapshot transactions need an attached "
                    "SnapshotManager (repro.mvcc)"
                )
            txn.snapshot_epoch = (
                manager.current_epoch if epoch is None else int(epoch)
            )
        return txn

    def commit(self, txn):
        """Commit: make the redo batch durable, discard the undo log,
        release all locks.

        ``on_txn_commit`` listeners (the durability journal) run *before*
        locks release, so a transaction's changes are on disk before any
        conflicting transaction can read them.  Locks release even when
        a listener raises (a journal IO failure surfaces as
        :class:`~repro.errors.StorageError`) — a transaction that cannot
        become durable must not also wedge every lock it holds.
        """
        txn.ensure_active()
        txn.state = TxnState.COMMITTED
        txn.undo_log.clear()
        self.commits += 1
        try:
            for callback in self._db.on_txn_commit:
                callback(txn)
        finally:
            released = self.table.release_all(txn)
        return released

    def abort(self, txn):
        """Abort: replay the undo log through the database's edit
        funnels (:meth:`Database.rollback`), release all locks.

        The undo pass runs inside the transaction's journal context, so
        under a batching sync policy the compensating records land in the
        same (never-written) batch and the whole batch is dropped by the
        ``on_txn_abort`` listeners — an aborted transaction leaves no
        trace in the journal.
        """
        if txn.state in (TxnState.COMMITTED, TxnState.ABORTED):
            raise TransactionStateError(
                f"transaction {txn.txn_id} is {txn.state.value}"
            )
        try:
            txn.undoing = True
            try:
                with self._db.txn_context(txn):
                    self._db.rollback(txn.undo_log)
            finally:
                txn.undoing = False
            txn.state = TxnState.ABORTED
            self.aborts += 1
            for callback in self._db.on_txn_abort:
                callback(txn)
        finally:
            # Locks release even when undo or a listener raises — an
            # abort that fails (journal IO) must not wedge the lock
            # table for every other transaction.
            released = self.table.release_all(txn)
        return released

    # -- data operations --------------------------------------------------------

    def reads_snapshot(self, txn, uid):
        """True when *txn* reads *uid* from the version chain at its
        snapshot epoch and so takes no locks for it: a snapshot
        transaction, on an object it has not written itself.  The one
        place this is decided -- :meth:`read`, :meth:`read_composite`
        and the network server's ``value`` op all ask here."""
        return (
            txn.snapshot_epoch is not None
            and uid not in txn.written_uids
            and self._db.snapshot_manager is not None
        )

    def read(self, txn, uid, attribute):
        """Read one attribute.

        Strict-2PL transactions take an S instance lock; *snapshot*
        transactions (``begin(snapshot=True)``) read lock-free from the
        version chain at their snapshot epoch — except objects the
        transaction itself wrote, which it re-reads from the live,
        already-X-locked object (read-your-writes).

        The read runs inside ``txn_context`` so passive observers (the
        isolation-history recorder) attribute it to this transaction;
        the journal only reacts to writes, so this costs nothing.
        """
        txn.ensure_active()
        if self.reads_snapshot(txn, uid):
            with self._db.txn_context(txn):
                return self._db.snapshot_manager.read_at(
                    uid, attribute, txn.snapshot_epoch
                )
        self.protocol.lock_instance(txn, uid, "read", wait=False)
        with self._db.txn_context(txn):
            return self._db.value(uid, attribute)

    def _check_snapshot_write(self, txn, uid):
        """First-updater-wins validation for snapshot transactions
        (runs *after* the X lock is granted, so the chain tail is
        stable while we compare epochs)."""
        if txn.snapshot_epoch is None:
            return
        manager = self._db.snapshot_manager
        if manager is not None:
            manager.check_write(txn, uid)

    def write(self, txn, uid, attribute, value):
        """Write one attribute under an X instance lock."""
        txn.ensure_active()
        self.protocol.lock_instance(txn, uid, "write", wait=False)
        self._check_snapshot_write(txn, uid)
        with self._db.txn_context(txn):
            self._db.set_value(uid, attribute, value)
        txn.written_uids.add(uid)

    def insert(self, txn, uid, attribute, member):
        """Insert into a set-of attribute under an X instance lock."""
        txn.ensure_active()
        self.protocol.lock_instance(txn, uid, "write", wait=False)
        self._check_snapshot_write(txn, uid)
        with self._db.txn_context(txn):
            inserted = self._db.insert_into(uid, attribute, member)
        if inserted:
            txn.written_uids.add(uid)
        return inserted

    def remove(self, txn, uid, attribute, member):
        """Remove from a set-of attribute under an X instance lock."""
        txn.ensure_active()
        self.protocol.lock_instance(txn, uid, "write", wait=False)
        self._check_snapshot_write(txn, uid)
        with self._db.txn_context(txn):
            removed = self._db.remove_from(uid, attribute, member)
        if removed:
            txn.written_uids.add(uid)
        return removed

    def make(self, txn, class_name, values=None, parents=(), **kw_values):
        """Create an instance under the write plan: its parents X-locked
        and its class IX-locked first, so a conflict refuses the make
        before anything changes, then X on the new instance before the
        call returns, so no other transaction can see it uncommitted."""
        txn.ensure_active()
        protocol = self.protocol
        for parent_uid, _attribute in parents:
            protocol.lock_instance(txn, parent_uid, "write", wait=False)
        resource, mode = protocol.class_step(class_name, "write")
        self.table.acquire(txn, resource, mode, wait=False)
        for parent_uid, _attribute in parents:
            self._check_snapshot_write(txn, parent_uid)
        with self._db.txn_context(txn):
            uid = self._db.make(
                class_name, values=values, parents=parents, **kw_values
            )
        protocol.lock_made(txn, uid)
        txn.written_uids.add(uid)
        for parent_uid, _attribute in parents:
            txn.written_uids.add(parent_uid)
        return uid

    def delete(self, txn, uid):
        """Delete a composite object under the composite write plan."""
        txn.ensure_active()
        self.protocol.lock_composite(txn, uid, "write", wait=False)
        self._check_snapshot_write(txn, uid)
        with self._db.txn_context(txn):
            report = self._db.delete(uid)
        txn.written_uids.add(uid)
        return report

    def read_composite(self, txn, root_uid):
        """Lock a whole composite object for reading; return components.

        A snapshot transaction walks the version chains at its epoch
        instead — no composite read plan, no locks."""
        txn.ensure_active()
        if self.reads_snapshot(txn, root_uid):
            with self._db.txn_context(txn):
                return self._db.snapshot_manager.components_at(
                    root_uid, txn.snapshot_epoch
                )
        self.protocol.lock_composite(txn, root_uid, "read", wait=False)
        with self._db.txn_context(txn):
            return self._db.components_of(root_uid)

    def lock_composite_for_update(self, txn, root_uid):
        """Take the composite write plan (subsequent writes need no new
        instance locks for components of this composite's classes)."""
        txn.ensure_active()
        return self.protocol.lock_composite(txn, root_uid, "write", wait=False)
