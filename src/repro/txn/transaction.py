"""Transactions.

A :class:`Transaction` is a unit of atomicity and isolation: it carries an
id (ids double as age for deadlock victim selection — higher id = younger),
a state, and an undo log: the inverses the database's edit funnels
recorded for its operations, which abort replays newest first
(:meth:`repro.core.database.Database.rollback`).
"""

from __future__ import annotations

import enum

from ..errors import TransactionStateError


class TxnState(enum.Enum):
    ACTIVE = "active"
    BLOCKED = "blocked"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One transaction."""

    _next_id = 1

    def __init__(self, txn_id=None):
        if txn_id is None:
            txn_id = Transaction._next_id
            Transaction._next_id += 1
        self.txn_id = txn_id
        self.state = TxnState.ACTIVE
        #: Inverse edits recorded by the database, oldest first.
        self.undo_log = []
        #: Number of restarts after deadlock aborts (simulator metric).
        self.restarts = 0
        #: True while the manager replays this transaction's undo log.
        #: Passive observers (the isolation-history recorder) must not
        #: mistake compensating writes for new data operations.
        self.undoing = False
        #: Snapshot epoch this transaction reads at (None = strict-2PL
        #: locked reads).  Set by ``TransactionManager.begin(snapshot=)``;
        #: writes of a snapshot transaction are validated under
        #: first-updater-wins (docs/REPLICATION.md).
        self.snapshot_epoch = None
        #: What the transaction is doing, as a tuple of labels -- the
        #: network server names the wire op and session here, so a lock
        #: observer can say where a grant came from without walking the
        #: Python stack (repro.analysis.lockdep adds the transaction).
        self.site = ()
        #: UIDs this transaction wrote (read-your-writes routing: a
        #: snapshot transaction reads its own writes from the live,
        #: X-locked object instead of the version chain).
        self.written_uids = set()

    # -- state ------------------------------------------------------------

    @property
    def active(self):
        return self.state in (TxnState.ACTIVE, TxnState.BLOCKED)

    def ensure_active(self):
        if not self.active:
            raise TransactionStateError(
                f"transaction {self.txn_id} is {self.state.value}"
            )

    def __repr__(self):
        return f"<Txn {self.txn_id} {self.state.value} undo={len(self.undo_log)}>"

    # Hashed and compared by identity (the object defaults, C code): ids
    # are never reused, and the lock table probes by transaction.

    def __lt__(self, other):
        return self.txn_id < other.txn_id
