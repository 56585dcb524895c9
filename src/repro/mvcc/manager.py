"""Multi-version concurrency control: epoch-stamped version chains.

The :class:`SnapshotManager` keeps a bounded per-UID chain of *committed*
instance images, each stamped with the journal commit epoch that
installed it (``Database.commit_epoch``, mirrored from the journal's
``commit_seq`` on every sealed batch).  A snapshot read at epoch ``E``
then never takes a lock: it walks the chain to the newest entry at or
below ``E`` and decodes the answer from that image — a writer holding
X-locks on the live object is invisible to it.

Version visibility
------------------

For one UID the committed timeline looks like::

    epoch:    floor ..... e1 ....... e2 ....... now
    state:    baseline    image@e1   image@e2   live

* Chains are *lazy*: an object never written since the manager attached
  has no chain, and a snapshot read falls through to the live object —
  which IS the committed state, because every writer funnels through
  ``on_before_change`` first.
* The first change to an object captures its pre-change image as the
  chain's *seed* entry at the manager's floor epoch, so readers below
  the change keep a consistent answer while the writer's transaction is
  open and after it commits.  Once a chain exists the baseline is never
  read (stamps and reads go to the chain), so later changes record the
  chain head instead of encoding one.
* Only forward changes (and deletes) version an object.  A component
  gains a reverse reference under its new parent's lock, not its own,
  while another transaction may hold uncommitted forward values in it;
  versioning that image would show them to snapshot readers.  The
  journal still seals such an image, so a replica's chain can carry an
  entry the primary's lacks (docs/REPLICATION.md).
* A read below the floor (or below a pruned chain's oldest entry)
  raises :class:`~repro.errors.SnapshotTooOldError` — the GC bound of
  docs/REPLICATION.md.

Write stamping piggybacks on the journal's hook order: the journal's
commit hook seals the batch and bumps ``db.commit_epoch`` *before* the
manager's commit hook runs (hooks fire in attach order and the journal
attaches at database construction), so chain entries always carry the
exact epoch whose sealed batch made them durable — and they carry the
very bytes that batch sealed (``Journal.sealed_images``), so an object
is encoded once per commit, not once by each.  On a database with no
journal the manager bumps the epoch itself and encodes the live state.

Snapshot-mode *writers* (snapshot isolation) are validated by
:meth:`SnapshotManager.check_write` under first-updater-wins: a version
installed above the writer's snapshot epoch means a concurrent
transaction committed first, and the writer aborts with
:class:`~repro.errors.SnapshotConflictError` instead of losing its
update.
"""

from __future__ import annotations

from ..core.operations import walk_components
from ..errors import SnapshotConflictError, SnapshotTooOldError, UnknownObjectError
from ..storage.journal import install_batch
from ..storage.serializer import decode_instance, encode_instance

#: Baseline marker for objects that did not exist when first touched in
#: a commit scope (created by that scope).
_ABSENT = object()
#: ``sealed_images`` lookup default: the journal did not seal this UID.
_UNSEALED = object()


class SnapshotManager:
    """Committed-version chains for one database.

    Parameters
    ----------
    database:
        The database to version.  Hooks are registered on its
        ``on_before_change`` / ``on_update`` / ``on_op_end`` /
        ``on_txn_commit`` / ``on_txn_abort`` lists.
    max_versions:
        Per-UID chain bound: older entries are pruned once a chain
        exceeds this many committed versions (the GC bound — reads
        below a pruned entry raise SnapshotTooOldError).
    """

    def __init__(self, database, max_versions=16):
        self._db = database
        self.max_versions = max(2, int(max_versions))
        #: uid -> ``(epoch0, image0, epoch1, image1, ...)`` in epoch
        #: order; an image is bytes, or None for a tombstone/absence.
        #: Only ints, bytes and None: CPython stops GC-tracking it.
        self._chains = {}
        #: Open commit scopes: txn-or-None -> {uid: baseline image}.
        #: The baseline is the committed pre-change image (``_ABSENT``
        #: for objects the scope itself created); the key set doubles
        #: as the scope's dirty set.
        self._scopes = {}
        #: Epoch the manager attached at: the oldest epoch any read may
        #: target (state before it was never versioned).
        self.floor_epoch = database.commit_epoch
        #: The journal whose seals precede this manager's stamps (None:
        #: the manager advances the epoch itself on every commit).
        self._journal = getattr(database, "journal", None)
        # -- counters (stats op / B22 report these) --
        self.snapshot_reads = 0
        self.chain_hits = 0
        self.baseline_hits = 0
        self.live_fallbacks = 0
        self.versions_stamped = 0
        self.versions_pruned = 0
        self.write_conflicts = 0
        self._hooks = (
            (database.on_before_change, self._on_before_change),
            (database.on_update, self._on_update),
            (database.on_op_end, self._on_op_end),
            (database.on_txn_commit, self._on_txn_commit),
            (database.on_txn_abort, self._on_txn_abort),
        )
        for hook_list, callback in self._hooks:
            hook_list.append(callback)
        database.snapshot_manager = self

    def detach(self):
        """Deregister every database hook (idempotent)."""
        for hook_list, callback in self._hooks:
            if callback in hook_list:
                hook_list.remove(callback)
        if self._db.snapshot_manager is self:
            self._db.snapshot_manager = None

    def close(self):
        self.detach()

    # -- change capture ----------------------------------------------------

    def _scope_key(self):
        # Undo mutations during an abort carry current_txn too, so they
        # land in the aborting scope, which the abort hook discards
        # wholesale; None is the auto scope of bare operations.
        return self._db.current_txn

    def _on_before_change(self, instance):
        scope = self._scopes.setdefault(self._scope_key(), {})
        uid = instance.uid
        if uid in scope:
            return
        chain = self._chains.get(uid)
        if chain is not None:
            # Once a chain exists neither _stamp nor instance_at reads
            # the baseline; the head stands in for it, unencoded.
            scope[uid] = chain[-1]
        elif uid == self._db._placement_pending:
            scope[uid] = _ABSENT
        else:
            scope[uid] = encode_instance(instance)

    def _on_update(self, instance, _attribute):
        scope = self._scopes.setdefault(self._scope_key(), {})
        if instance.uid not in scope:
            # Every mutation of an *existing* object fires
            # on_before_change first, so a missing baseline here means
            # the object was created by this scope.
            scope[instance.uid] = _ABSENT

    # -- commit stamping ---------------------------------------------------

    def _on_op_end(self):
        if self._db.current_txn is not None:
            return
        scope = self._scopes.pop(None, None)
        if scope:
            self._stamp(scope)

    def _on_txn_commit(self, txn):
        scope = self._scopes.pop(txn, None)
        if scope:
            self._stamp(scope)

    def _on_txn_abort(self, txn):
        # The undo pass restored the live objects; the captured
        # baselines describe state that never became visible -- unless
        # the journal wrote the restored images under a new epoch (a
        # stale batch, or ``always``): then they are that epoch's
        # committed versions.
        scope = self._scopes.pop(txn, None)
        if scope and self._journal is not None and self._journal.compensated:
            self._stamp(scope)

    def _stamp(self, scope):
        """Install the live state of every dirty UID as a chain entry at
        the current commit epoch (the journal bumped it while sealing
        this scope's batch; without a journal we advance it here).  The
        image is the one that seal encoded; only a UID it did not seal
        (no journal, or ``always`` sealing a transaction per operation)
        is encoded here."""
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
                    # Captured but never actually changed (a funnel
                    # fired the hook, then the operation failed or
                    # wrote back the identical state): no new version.
                    continue
                chain = (self.floor_epoch,
                         None if baseline is _ABSENT else baseline)
            self._install(uid, chain, epoch, image)

    def _install(self, uid, chain, epoch, image):
        """Make *image* the version of *uid* at *epoch*, the newest on
        *chain*: the one append path of the primary's stamps and a
        replica's batches.  An epoch equal to the head's replaces the
        head -- several scopes seal inside one epoch only when the
        epoch authority did not advance (no journal records, e.g. a
        fully deduped batch), and the newest state wins."""
        if chain[-2] == epoch:
            chain = chain[:-1] + (image,)
        else:
            chain += (epoch, image)
            self.versions_stamped += 1
        excess = len(chain) - 2 * self.max_versions
        if excess > 0:
            chain = chain[excess:]
            self.versions_pruned += excess // 2
        self._chains[uid] = chain

    # -- snapshot reads ----------------------------------------------------

    @property
    def current_epoch(self):
        """The newest epoch a snapshot token may target right now."""
        return self._db.commit_epoch

    def instance_at(self, uid, epoch):
        """The decoded instance of *uid* as of *epoch* (None if absent
        at that epoch).  Lock-free: never consults the lock table."""
        if epoch < self.floor_epoch:
            raise SnapshotTooOldError(
                f"snapshot epoch {epoch} is below the retained floor "
                f"{self.floor_epoch}",
                epoch=epoch, floor=self.floor_epoch,
            )
        chain = self._chains.get(uid)
        if chain is not None:
            # Newest first: a chain holds at most max_versions pairs,
            # and reads mostly target recent epochs.
            index = len(chain) - 2
            while chain[index] > epoch:
                index -= 2
                if index < 0:
                    raise SnapshotTooOldError(
                        f"version chain of {uid} pruned past epoch {epoch} "
                        f"(oldest retained: {chain[0]})",
                        epoch=epoch, floor=chain[0],
                    )
            self.chain_hits += 1
            image = chain[index + 1]
            return None if image is None else decode_instance(image)
        for scope in self._scopes.values():
            baseline = scope.get(uid)
            if baseline is not None:
                # An open writer touched this object; its pre-change
                # image is the newest committed state.
                self.baseline_hits += 1
                return (None if baseline is _ABSENT
                        else decode_instance(baseline))
        # Never written since attach: the live object IS the committed
        # state at every retained epoch.
        self.live_fallbacks += 1
        return self._db.peek(uid)

    def read_at(self, uid, attribute, epoch):
        """Read one attribute at *epoch* without taking any lock."""
        self.snapshot_reads += 1
        instance = self.instance_at(uid, epoch)
        if instance is None:
            raise UnknownObjectError(uid)
        for callback in self._db.on_snapshot_read:
            callback(uid, attribute, epoch)
        spec = self._db.lattice.get(instance.class_name).attribute(attribute)
        value = instance.get(attribute)
        if spec.is_set:
            return list(value) if value is not None else []
        return value

    def components_at(self, root_uid, epoch):
        """Whole-composite snapshot read: every component of *root_uid*
        reachable through composite forward references as of *epoch*, in
        the breadth-first order of a live ``components_of``."""
        self.snapshot_reads += 1
        root = self.instance_at(root_uid, epoch)
        if root is None:
            raise UnknownObjectError(root_uid)
        seen = walk_components(self._db.lattice, root,
                               lambda uid: self.instance_at(uid, epoch))
        for callback in self._db.on_snapshot_read:
            callback(root_uid, None, epoch)
            for member in seen:
                callback(member, None, epoch)
        return seen

    def state_at(self, epoch):
        """Forward-value projection of the whole database at *epoch*:
        ``{uid: {attribute: value}}`` over every object alive then.
        The Hypothesis property test compares this against a journal
        replay truncated at the same epoch."""
        uids = set(self._chains)
        for instance in self._db.live_instances():
            uids.add(instance.uid)
        for scope in self._scopes.values():
            uids.update(scope)
        state = {}
        for uid in uids:
            instance = self.instance_at(uid, epoch)
            if instance is None:
                continue
            state[uid] = {
                name: (sorted(value, key=repr) if isinstance(value, list)
                       else value)
                for name, value in instance.values.items()
            }
        return state

    # -- snapshot-isolation write validation -------------------------------

    def check_write(self, txn, uid):
        """First-updater-wins check for a snapshot transaction's write.

        A committed version above the transaction's snapshot epoch
        means a concurrent transaction already won: raise
        :class:`~repro.errors.SnapshotConflictError` (the caller
        aborts and retries at a fresh snapshot).
        """
        snapshot_epoch = getattr(txn, "snapshot_epoch", None)
        if snapshot_epoch is None:
            return
        chain = self._chains.get(uid)
        if chain is not None and chain[-2] > snapshot_epoch:
            self.write_conflicts += 1
            raise SnapshotConflictError(
                f"write to {uid} at snapshot epoch {snapshot_epoch} lost "
                f"first-updater-wins: a version committed at epoch "
                f"{chain[-2]}",
                uid=uid, snapshot_epoch=snapshot_epoch,
                committed_epoch=chain[-2],
            )

    # -- replication feed --------------------------------------------------

    def apply_replicated(self, records, epoch):
        """Install one replayed journal batch on a replica.

        *records* is the batch's ``(kind, payload)`` list exactly as the
        journal's :class:`~repro.storage.journal.BatchReplayer` handed
        it over; *epoch* is the commit epoch the batch became visible
        at.  The journal's installer updates the live object table; the
        version chains advance with it, so the replica serves both
        current reads and snapshot reads at any retained epoch.
        """
        db = self._db
        top = 0
        for uid, image, prior in install_batch(db, records):
            top = max(top, uid.number)
            chain = self._chains.get(uid)
            if chain is None:
                # Seed the chain with the pre-change committed image
                # (None only if the object is genuinely new), mirroring
                # what on_before_change captures on the primary — an
                # epoch-pinned read below this batch must still see the
                # recovered state.
                chain = (self.floor_epoch,
                         None if prior is None else encode_instance(prior))
            self._install(uid, chain, epoch, image)
        if top >= db.allocator.peek():
            db.allocator = type(db.allocator)(start=top + 1)
        db.topology_reset()
        if epoch > db.commit_epoch:
            db.commit_epoch = epoch

    # -- inspection --------------------------------------------------------

    def versions(self, uid):
        """The ``(epoch, image)`` pairs retained for *uid*, oldest first
        (``()`` when it has no chain); an image of None is an absence."""
        chain = self._chains.get(uid, ())
        return tuple(zip(chain[::2], chain[1::2]))

    def stats_row(self):
        return {
            "epoch": self._db.commit_epoch,
            "floor_epoch": self.floor_epoch,
            "chains": len(self._chains),
            "chain_entries": sum(
                len(chain) for chain in self._chains.values()
            ) // 2,
            "max_versions": self.max_versions,
            "snapshot_reads": self.snapshot_reads,
            "chain_hits": self.chain_hits,
            "baseline_hits": self.baseline_hits,
            "live_fallbacks": self.live_fallbacks,
            "versions_stamped": self.versions_stamped,
            "versions_pruned": self.versions_pruned,
            "write_conflicts": self.write_conflicts,
        }
