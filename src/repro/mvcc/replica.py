"""Journal-shipping read replicas.

A replica process follows a primary's durability directory — the
checkpoint snapshot plus the append-only redo journal of
:mod:`repro.storage.journal` — and replays *sealed* group-commit
batches into its own in-memory database and MVCC version chains.  The
journal is the replication stream: nothing new is written on the
primary, and a batch becomes visible on the replica exactly when its
commit marker (carrying the commit epoch) is on disk, so the replica's
state is always some committed prefix of the primary's history.

* :class:`JournalFollower` — the tailing engine: it resumes recovery's
  own :class:`~repro.storage.journal.BatchReplayer` where recovery
  stopped (a torn tail waits for more bytes; prepared batches stash and
  resolve exactly as in recovery), and rebuilds in full when the
  primary checkpoints (the journal header's epoch changes).
* :class:`ReplicaServer` — a read-only :class:`repro.server.server
  .ReproServer` over the follower's database: serves ``snapshot_read``
  / ``read_epoch`` / plain reads, advertises its applied epoch and
  replication lag, and rejects mutations with a typed error.
* :class:`ReadRouter` — client-side read routing: snapshot reads fan
  out round-robin across replicas with a staleness bound and fall back
  to the primary when a replica lags (or died).

Staleness contract: a replica read at ``min_epoch=E`` either reflects
every batch the primary committed up to epoch ``E`` or fails with
:class:`repro.errors.ReplicaLagError` — it never silently serves older
data (docs/REPLICATION.md).
"""

from __future__ import annotations

import asyncio
import contextlib
from pathlib import Path

from ..core.database import Database
from ..errors import ReplicaLagError, StorageError
from ..server.server import ReproServer, ServerThread
from ..storage.journal import (
    JOURNAL_NAME,
    BatchReplayer,
    Journal,
    checkpoint_epoch,
)
from .manager import SnapshotManager


class JournalFollower:
    """Tail one primary's store directory and replay sealed batches.

    Parameters
    ----------
    root:
        The primary's durability directory (``checkpoint.db`` +
        ``journal.log``).  The follower only ever *reads* it.
    max_versions:
        Committed versions retained per object on the replica; deeper
        than the primary's default so epoch-pinned reads stay
        answerable while replication lags.

    The follower owns one :class:`repro.Database` for its lifetime
    (``self.database``) — a rebuild swaps the recovered state into the
    same object, so a server holding the reference never re-wires.
    """

    def __init__(self, root, max_versions=64):
        self.root = Path(root)
        self.max_versions = max_versions
        self.database = Database()
        self.snapshots = None
        #: The journal reader (set by :meth:`rebuild`): checkpoint epoch
        #: followed, applied commit epoch, in-doubt stash, and the offset
        #: of the next unconsumed batch (always a batch boundary: a
        #: partial tail batch is re-read on the next poll instead of
        #: buffered across polls).
        self._replay = None
        # -- counters (lag_row / the bench report these) --
        self.batches_applied = 0
        self.records_applied = 0
        self.rebuilds = 0
        self.polls = 0
        self.rebuild()

    @property
    def applied_epoch(self):
        """Newest commit epoch applied (the stale-bound the replica
        advertises)."""
        return self._replay.epoch

    # -- rebuild ----------------------------------------------------------

    def rebuild(self):
        """Recover snapshot + journal from scratch (initial attach, and
        whenever the primary checkpointed under us).  Replay resumes at
        the offset and checkpoint epoch recovery itself consumed, so a
        batch sealed after recovery read the journal is polled, not
        skipped."""
        fresh = Database()
        Journal.recover_into(fresh, self.root)
        if self.snapshots is not None:
            self.snapshots.close()
        db = self.database
        engine = db.auth_engine
        db.__dict__.clear()
        db.__dict__.update(fresh.__dict__)
        if engine is not None:
            # The swap dropped the engine's hooks along with everything
            # it had deduced from the old state.
            engine.attach()
        self.snapshots = SnapshotManager(db, max_versions=self.max_versions)
        # ``db.in_doubt`` stays the live stash: polls resolve into it.
        self._replay = BatchReplayer(
            db.checkpoint_epoch, db.commit_epoch, db.in_doubt,
            db.journal_offset,
        )
        self.rebuilds += 1

    # -- polling ----------------------------------------------------------

    def poll(self):
        """Apply every newly sealed batch; returns how many applied.

        A checkpoint on the primary (snapshot meta epoch moved, or the
        journal was replaced/truncated under our offset) triggers a
        full :meth:`rebuild`.  A torn tail — the primary mid-write —
        applies nothing and waits for the next poll.  A record of
        unknown kind raises :class:`StorageError` after the batches
        before it applied.
        """
        self.polls += 1
        replay = self._replay
        if checkpoint_epoch(self.root) != replay.checkpoint_epoch:
            self.rebuild()
            return self.batches_applied
        try:
            data = (self.root / JOURNAL_NAME).read_bytes()
        except FileNotFoundError:
            return 0
        if len(data) < replay.offset:
            # Journal shrank without a new checkpoint epoch: replaced
            # out from under us — resync from scratch.
            self.rebuild()
            return self.batches_applied
        applied = replay.run(data, self._apply)
        if replay.corrupt is not None:
            raise StorageError(
                f"replica follower hit a corrupt journal record at offset "
                f"{replay.corrupt} in {self.root}"
            )
        return applied

    def _apply(self, records, epoch):
        self.snapshots.apply_replicated(records, epoch)
        self.records_applied += len(records)
        self.batches_applied += 1

    # -- reads ------------------------------------------------------------

    def require_epoch(self, min_epoch):
        """Fail with :class:`ReplicaLagError` unless *min_epoch* has
        been applied (the staleness bound of docs/REPLICATION.md)."""
        if min_epoch is not None and self.applied_epoch < min_epoch:
            raise ReplicaLagError(
                f"replica has applied epoch {self.applied_epoch}, "
                f"epoch {min_epoch} was required",
                applied_epoch=self.applied_epoch, min_epoch=min_epoch,
            )

    def read_at(self, uid, attribute, epoch=None, min_epoch=None):
        """Snapshot read against the replica's chains (embedded use;
        the server op goes through the snapshot manager directly)."""
        self.require_epoch(min_epoch)
        at = self.applied_epoch if epoch is None else int(epoch)
        return self.snapshots.read_at(uid, attribute, at)

    # -- stats ------------------------------------------------------------

    def lag_row(self):
        journal = self.root / JOURNAL_NAME
        try:
            size = journal.stat().st_size
        except FileNotFoundError:
            size = 0
        return {
            "applied_epoch": self.applied_epoch,
            "base_epoch": self._replay.checkpoint_epoch,
            "pending_bytes": max(0, size - self._replay.offset),
            "batches_applied": self.batches_applied,
            "records_applied": self.records_applied,
            "rebuilds": self.rebuilds,
            "polls": self.polls,
            "in_doubt": len(self._replay.in_doubt),
        }


class ReplicaServer(ReproServer):
    """A read-only :class:`ReproServer` over a :class:`JournalFollower`.

    Serves the full read surface — ``snapshot_read``, ``read_epoch``,
    ``value``/``resolve``/navigation, snapshot transactions — while a
    background task, started with the server and cancelled when it
    stops, polls the primary's journal every *poll_interval* seconds.
    Mutations are rejected with :class:`repro.errors.ReadOnlyError`
    naming this as a replica.
    """

    def __init__(self, primary_root, host="127.0.0.1", port=0,
                 poll_interval=0.02, max_versions=64, **server_kwargs):
        # The follower owns the database served, so it comes first.
        self.follower = JournalFollower(
            primary_root, max_versions=max_versions
        )
        super().__init__(
            database=self.follower.database, host=host, port=port,
            mvcc=False,  # the follower's manager is already attached
            **server_kwargs,
        )
        self.read_only = True
        self.read_only_reason = (
            "this server is a read replica; writes go to the primary"
        )
        self.replica = self.follower
        self.poll_interval = poll_interval
        self._poll_task = None

    async def start(self):
        await super().start()
        self._poll_task = asyncio.get_running_loop().create_task(
            self._poll_loop()
        )
        return self

    async def _poll_loop(self):
        while True:
            try:
                self.follower.poll()
            except StorageError:
                # Corrupt tail: keep serving at the applied prefix; the
                # next primary checkpoint rebuilds past it.
                pass
            # A rebuild re-created the snapshot manager on the same
            # database object; keep the stats pointer fresh.
            self.snapshots = self.follower.snapshots
            await asyncio.sleep(self.poll_interval)

    async def stop(self):
        if self._poll_task is not None:
            self._poll_task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await self._poll_task
            self._poll_task = None
        await super().stop()


class ReplicaThread(ServerThread):
    """:class:`ServerThread` over a :class:`ReplicaServer` (tests,
    benchmarks)::

        with ReplicaThread(primary_dir) as replica:
            client = Client(port=replica.port)
            client.snapshot_read(uid, "Title")
    """

    def __init__(self, primary_root, **kwargs):
        super().__init__(server=ReplicaServer(primary_root, **kwargs))

    @property
    def follower(self):
        return self.server.follower


class ReadRouter:
    """Client-side read routing across a primary and its replicas.

    Wraps already-connected :class:`repro.server.client.Client`
    handles.  ``snapshot_read`` rotates round-robin over the replicas
    with the caller's freshness floor as ``min_epoch``; a replica that
    lags (:class:`ReplicaLagError`) or died (ConnectionError) is
    skipped and the read falls back to the primary, which by
    definition satisfies every bound.  Writes always go to the
    primary.
    """

    def __init__(self, primary, replicas=()):
        self.primary = primary
        self.replicas = list(replicas)
        self._next = 0
        self.replica_reads = 0
        self.primary_reads = 0
        self.fallbacks = 0

    def snapshot_read(self, uid, attribute, epoch=None, min_epoch=None):
        for _ in range(len(self.replicas)):
            client = self.replicas[self._next % len(self.replicas)]
            self._next += 1
            try:
                kwargs = {}
                if epoch is not None:
                    kwargs["epoch"] = epoch
                if min_epoch is not None:
                    kwargs["min_epoch"] = min_epoch
                result = client.snapshot_read(uid, attribute, **kwargs)
                self.replica_reads += 1
                return result
            except (ReplicaLagError, ConnectionError, OSError,
                    TimeoutError):
                self.fallbacks += 1
                continue
        kwargs = {}
        if epoch is not None:
            kwargs["epoch"] = epoch
        self.primary_reads += 1
        return self.primary.snapshot_read(uid, attribute, **kwargs)

    def read_epoch(self):
        """The primary's newest committed epoch (the freshness floor
        callers pass back as ``min_epoch``)."""
        return self.primary.read_epoch()

    def stats_row(self):
        return {
            "replicas": len(self.replicas),
            "replica_reads": self.replica_reads,
            "primary_reads": self.primary_reads,
            "fallbacks": self.fallbacks,
        }
