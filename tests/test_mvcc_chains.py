"""Flat version chains answer exactly as the parallel-list chains did.

``SnapshotManager`` keeps each chain as one flat tuple ``(epoch0, image0,
epoch1, image1, ...)`` with a single append path (``_install``) and a
scan back from the newest pair.  The oracle is the chain as it was
before: a tuple of two parallel lists, stamped by two copies of the
replace/append/prune code and read with ``bisect``.

Hypothesis drives both managers with one random stream of makes,
set_values (often writing the value already stored, so a journal batch
dedups and a second scope stamps inside one epoch), deletes, explicit
transactions that commit or abort, and replicated batches applied to a
pair of replica databases, with ``max_versions`` 2-4 so that pruning
happens.  After every step, for every UID and every epoch from the floor
to now, ``instance_at`` must give the same answer (or the same
``SnapshotTooOldError``), ``check_write`` the same outcome at every
snapshot epoch, ``versions()`` the same pairs and ``stats_row()`` the
same counters.
"""

from __future__ import annotations

import bisect
import tempfile

from hypothesis import given, settings, strategies as st

from repro import AttributeSpec, Database
from repro.errors import ReproError, SnapshotConflictError, SnapshotTooOldError
from repro.mvcc import SnapshotManager
from repro.mvcc.manager import _ABSENT, _UNSEALED
from repro.storage.durable import DurableDatabase
from repro.storage.journal import SYNC_POLICIES, install_batch
from repro.storage.serializer import decode_instance, encode_instance
from repro.txn.manager import TransactionManager

# ---------------------------------------------------------------------------
# The reference: the chain before it was flattened
# ---------------------------------------------------------------------------


class ReferenceManager(SnapshotManager):
    """Chains as ``([epoch, ...], [image, ...])`` parallel lists."""

    def _on_before_change(self, instance):
        scope = self._scopes.setdefault(self._scope_key(), {})
        uid = instance.uid
        if uid in scope:
            return
        chain = self._chains.get(uid)
        if chain is not None:
            scope[uid] = chain[1][-1]
        elif uid == self._db._placement_pending:
            scope[uid] = _ABSENT
        else:
            scope[uid] = encode_instance(instance)

    def _stamp(self, scope):
        journal = self._journal
        if journal is None:
            self._db.commit_epoch += 1
            sealed = {}
        else:
            sealed = journal.sealed_images
        epoch = self._db.commit_epoch
        for uid, baseline in scope.items():
            image = sealed.get(uid, _UNSEALED)
            if image is _UNSEALED:
                instance = self._db.peek(uid)
                image = None if instance is None else encode_instance(instance)
            chain = self._chains.get(uid)
            if chain is None:
                if image is not None and baseline is not _ABSENT \
                        and image == baseline:
                    continue
                seed = None if baseline is _ABSENT else baseline
                chain = self._chains[uid] = ([self.floor_epoch], [seed])
            epochs, images = chain
            if epochs and epochs[-1] == epoch:
                images[-1] = image
            else:
                epochs.append(epoch)
                images.append(image)
                self.versions_stamped += 1
            if len(epochs) > self.max_versions:
                drop = len(epochs) - self.max_versions
                del epochs[:drop]
                del images[:drop]
                self.versions_pruned += drop

    def instance_at(self, uid, epoch):
        if epoch < self.floor_epoch:
            raise SnapshotTooOldError(
                f"snapshot epoch {epoch} is below the retained floor "
                f"{self.floor_epoch}",
                epoch=epoch, floor=self.floor_epoch,
            )
        chain = self._chains.get(uid)
        if chain is not None:
            epochs, images = chain
            index = bisect.bisect_right(epochs, epoch) - 1
            if index < 0:
                raise SnapshotTooOldError(
                    f"version chain of {uid} pruned past epoch {epoch} "
                    f"(oldest retained: {epochs[0]})",
                    epoch=epoch, floor=epochs[0],
                )
            self.chain_hits += 1
            image = images[index]
            return None if image is None else decode_instance(image)
        return super().instance_at(uid, epoch)

    def check_write(self, txn, uid):
        snapshot_epoch = getattr(txn, "snapshot_epoch", None)
        if snapshot_epoch is None:
            return
        chain = self._chains.get(uid)
        if chain is None:
            return
        epochs, _images = chain
        if epochs and epochs[-1] > snapshot_epoch:
            self.write_conflicts += 1
            raise SnapshotConflictError(
                f"write to {uid} at snapshot epoch {snapshot_epoch} lost "
                f"first-updater-wins: a version committed at epoch "
                f"{epochs[-1]}",
                uid=uid, snapshot_epoch=snapshot_epoch,
                committed_epoch=epochs[-1],
            )

    def apply_replicated(self, records, epoch):
        db = self._db
        top = 0
        for uid, image, prior in install_batch(db, records):
            top = max(top, uid.number)
            if uid not in self._chains:
                self._chains[uid] = (
                    [self.floor_epoch],
                    [None if prior is None else encode_instance(prior)],
                )
            epochs, images = self._chains[uid]
            if epochs[-1] == epoch:
                images[-1] = image
            else:
                epochs.append(epoch)
                images.append(image)
                self.versions_stamped += 1
            if len(epochs) > self.max_versions:
                drop = len(epochs) - self.max_versions
                del epochs[:drop]
                del images[:drop]
                self.versions_pruned += drop
        if top >= db.allocator.peek():
            db.allocator = type(db.allocator)(start=top + 1)
        db.topology_reset()
        if epoch > db.commit_epoch:
            db.commit_epoch = epoch

    def versions(self, uid):
        chain = self._chains.get(uid)
        return () if chain is None else tuple(zip(*chain))

    def stats_row(self):
        row = super().stats_row()
        row["chain_entries"] = sum(
            len(epochs) for epochs, _ in self._chains.values()
        )
        return row


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------


def _schema(db):
    db.make_class("Cell", attributes=[AttributeSpec("V", domain="integer")])


class _Snapshot:
    """A stand-in snapshot transaction for ``check_write``."""

    def __init__(self, epoch):
        self.snapshot_epoch = epoch


def _answer(manager, uid, epoch):
    try:
        instance = manager.instance_at(uid, epoch)
    except SnapshotTooOldError as error:
        return ("too old", error.epoch, error.floor)
    return None if instance is None else encode_instance(instance)


def _write_outcome(manager, uid, epoch):
    try:
        manager.check_write(_Snapshot(epoch), uid)
    except SnapshotConflictError as error:
        return (error.uid, error.snapshot_epoch, error.committed_epoch)
    return None


def _assert_same(reference, change, uids):
    now = change._db.commit_epoch
    assert reference._db.commit_epoch == now
    for uid in uids:
        assert change.versions(uid) == reference.versions(uid), uid
        for epoch in range(change.floor_epoch, now + 1):
            assert _answer(change, uid, epoch) == \
                _answer(reference, uid, epoch), (uid, epoch)
        for epoch in range(change.floor_epoch - 1, now + 2):
            assert _write_outcome(change, uid, epoch) == \
                _write_outcome(reference, uid, epoch), (uid, epoch)
    assert change.stats_row() == reference.stats_row()


# Values come from a small range, so a write often stores the value
# already there: its batch dedups, the epoch does not advance, and the
# next stamp lands on the head's epoch.
_VALUES = st.integers(0, 2)
_PICK = st.integers(0, 15)
_TXN = st.integers(0, 1)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("make"), _VALUES),
        st.tuples(st.just("set"), _PICK, _VALUES),
        st.tuples(st.just("set"), _PICK, _VALUES),
        st.tuples(st.just("set"), _PICK, _VALUES),
        st.tuples(st.just("delete"), _PICK),
        st.tuples(st.just("again"), _PICK),
        st.tuples(st.just("begin"), _TXN),
        st.tuples(st.just("twrite"), _TXN, _PICK, _VALUES),
        st.tuples(st.just("twrite"), _TXN, _PICK, _VALUES),
        st.tuples(st.just("tmake"), _TXN, _VALUES),
        st.tuples(st.just("tdelete"), _TXN, _PICK),
        st.tuples(st.sampled_from(["commit", "commit", "abort"]), _TXN),
        st.tuples(st.just("replicate"),
                  st.lists(_PICK, min_size=1, max_size=4),
                  st.integers(0, 2)),
    ),
    min_size=10,
    max_size=50,
)


class _Run:
    """One primary watched by both managers, and two replica databases
    fed the same batches, one per manager."""

    def __init__(self, directory, policy, max_versions):
        self.db = DurableDatabase(directory, sync_policy=policy)
        _schema(self.db)
        self.tm = TransactionManager(self.db)
        # Both managers see every hook of the one primary; the journal
        # seals each batch once and both stamp its images.
        self.reference = ReferenceManager(self.db, max_versions=max_versions)
        self.change = SnapshotManager(self.db, max_versions=max_versions)
        self.replicas = []
        for kind in (ReferenceManager, SnapshotManager):
            replica = Database()
            self.replicas.append(kind(replica, max_versions=max_versions))
        self.uids = []
        self.images = {}
        self.txns = [None, None]
        #: UIDs each open transaction made, wrote or deleted.
        self.touched = [set(), set()]
        self.made = [set(), set()]

    def pick(self, index):
        return self.uids[index % len(self.uids)] if self.uids else None

    def step(self, step):
        try:
            self._apply(*step)
        except ReproError:
            pass  # a refused step (lock conflict, deleted object) is a step
        for uid in self.uids:
            instance = self.db.peek(uid)
            if instance is not None:
                self.images[uid] = encode_instance(instance)

    def _apply(self, kind, *args):
        db, tm = self.db, self.tm
        if kind == "make":
            self.uids.append(db.make("Cell", values={"V": args[0]}))
        elif kind == "replicate":
            self.replicate(*args)
        elif kind in ("set", "delete", "again"):
            uid = self.pick(args[0])
            # A bare operation takes no lock: it leaves alone what an
            # open transaction touched, as a locked client would wait.
            if uid is not None and not any(uid in touched
                                           for touched in self.touched):
                if kind == "set":
                    db.set_value(uid, "V", args[1])
                elif kind == "again":
                    # Stores the value already there: the batch dedups
                    # and this scope stamps inside the head's epoch.
                    db.set_value(uid, "V", db.value(uid, "V"))
                else:
                    db.delete(uid)
        elif kind == "begin":
            if self.txns[args[0]] is None:
                self.txns[args[0]] = tm.begin()
        elif self.txns[args[0]] is None:
            return
        elif kind in ("commit", "abort"):
            txn, self.txns[args[0]] = self.txns[args[0]], None
            self.touched[args[0]] = set()
            self.made[args[0]] = set()
            (tm.commit if kind == "commit" else tm.abort)(txn)
        elif kind == "tmake":
            self.uids.append(
                tm.make(self.txns[args[0]], "Cell", values={"V": args[1]}))
            self.touched[args[0]].add(self.uids[-1])
            self.made[args[0]].add(self.uids[-1])
        elif self.uids and self.pick(args[1]) not in self.made[1 - args[0]]:
            # The transaction manager does not lock what ``make`` creates,
            # so the other transaction leaves its new objects alone.
            uid = self.pick(args[1])
            self.touched[args[0]].add(uid)
            if kind == "twrite":
                tm.write(self.txns[args[0]], uid, "V", args[2])
            else:
                tm.delete(self.txns[args[0]], uid)

    def replicate(self, picks, advance):
        """One batch of the primary's current images (a tombstone for a
        deleted UID) at the replica's epoch plus *advance*: 0 replaces
        each head stamped at that epoch."""
        records = []
        for index in picks:
            uid = self.pick(index)
            if uid is None or uid not in self.images:
                continue
            live = self.db.peek(uid) is not None
            records.append((b"I" if live else b"D", self.images[uid]))
        if not records:
            return
        for manager in self.replicas:
            manager.apply_replicated(
                list(records), manager._db.commit_epoch + advance)

    def check(self):
        _assert_same(self.reference, self.change, self.uids)
        _assert_same(*self.replicas, self.uids)

    def close(self):
        for manager in (self.reference, self.change, *self.replicas):
            manager.close()
        self.db.close()


@settings(max_examples=150, deadline=None)
@given(
    steps=_STEPS,
    policy=st.sampled_from(SYNC_POLICIES),
    max_versions=st.integers(2, 4),
)
def test_flat_chains_answer_as_the_reference(steps, policy, max_versions):
    with tempfile.TemporaryDirectory() as directory:
        run = _Run(directory, policy, max_versions)
        try:
            run.check()
            for step in steps:
                run.step(step)
                run.check()
        finally:
            run.close()
