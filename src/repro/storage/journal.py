"""Durability: checkpoint snapshots plus a redo journal with group commit.

ORION is a persistent database; this module supplies the disk story for
the reproduction with a classic two-file design:

* **snapshot** (``checkpoint.db``) — the schema (JSON: class definitions,
  IS-A lattice, versionable flags, segments), the UID allocator position,
  and an after-image of every live instance (the binary record format of
  :mod:`repro.storage.serializer`);
* **journal** (``journal.log``) — an append-only redo log of instance
  after-images and deletion tombstones, grouped into *batches* terminated
  by commit markers.

Opening a directory loads the latest snapshot and replays the journal.
Replay applies records batch by batch: records are buffered until their
commit marker and an unterminated tail (a torn final batch) is discarded,
exactly as a torn record was discarded before batching existed.  Because
every batch boundary is an operation or transaction boundary, any journal
prefix yields a consistent database.

Sync policies (`how hard the log manager leans on fsync`):

``always``
    Every top-level operation is its own batch, sealed with its own fsync
    when the operation ends — even inside a transaction, whose abort then
    seals the undo pass's compensating images the same way.  One fsync
    per mutating operation, the seed behavior.
``commit``
    Redo records are buffered in memory per transaction (per operation
    outside a transaction) and written with a single flush+fsync when the
    transaction commits.  Records of an aborted transaction never reach
    disk at all.
``group``
    Like ``commit`` but the fsync itself is deferred so several commits
    can share one: embedded callers sync every ``group_size`` sealed
    batches (or on :meth:`sync`/:meth:`close`); the asyncio server layers
    a time-window group commit on top (see ``repro.server.server``).
``none``
    Batches are written and flushed but never fsynced while running (the
    OS decides); :meth:`close` still syncs, so only a crash loses data.

Write coalescing: a batch buffers the changed *instance* under its UID,
not its bytes, and the seal encodes each buffered UID once, from its
final state — link bookkeeping that re-images the same instance several
times inside one commit costs a dictionary store each time, not an
encode.  At the seal a digest of the last sealed image per UID
suppresses byte-identical rewrites.  The seal hands the images it just
encoded (``Journal.sealed_images``) to the commit hooks that follow it,
so the MVCC version chains stamp those bytes instead of encoding again:
one encode per dirty object per commit.

Schema changes (DDL) force a checkpoint; the journal itself only carries
instance-level changes.  This is a deliberate simplification over ARIES —
there are no partial page writes to repair because images are logical.

This module is the only one that knows the on-disk format.  Every reader
goes through it: :func:`iter_frames` is the one framing loop,
:class:`BatchReplayer` the one batch replayer (commit epochs, the 2PC
prepare stash and its resolution, the stop rules) and
:func:`install_batch` the one installer of replayed records.  Recovery,
replica replay (``repro.mvcc.replica``), the 2PC in-doubt apply
(``repro.shard.twopc``) and the protocol trace checker
(``repro.analysis.protocheck``) all use them.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from contextlib import suppress
from pathlib import Path

from ..errors import StorageError
from ..faults.registry import fire as _fire
from .serializer import decode_instance, encode_instance

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
#: Every record is one frame: kind byte + u32 payload length + payload.
_FRAME_HEAD = 1 + _U32.size
_IMAGE = b"I"
_TOMBSTONE = b"D"
#: A commit marker seals the preceding records as one batch.  Since the
#: MVCC work its payload carries the batch's *commit epoch* (u64
#: ``commit_seq``) — the snapshot token version chains and replicas are
#: stamped with (docs/REPLICATION.md).  Legacy journals with an empty
#: payload still replay (recovery infers sequential epochs).
_COMMIT = b"C"
#: Two-phase-commit markers (docs/SHARDING.md).  ``P`` seals the
#: preceding records as a *prepared* batch — durable but in doubt; its
#: payload names the global transaction (JSON ``{"gtid": ...}``).  ``R``
#: resolves a prepared batch (JSON ``{"gtid": ..., "commit": bool}``):
#: recovery applies the stashed batch on commit, discards it on abort,
#: and surfaces any still-unresolved batch as in-doubt.  Public because
#: their sequence is the trace the protocol checker reads.
PREPARE = b"P"
RESOLVE = b"R"

SNAPSHOT_NAME = "checkpoint.db"
JOURNAL_NAME = "journal.log"
_MAGIC = b"REPRO-SNAP-1"
#: The journal file opens with a fixed-size header carrying the
#: checkpoint *epoch* (magic + u32).  The snapshot records the same
#: epoch; recovery replays the journal only when the two agree.  This
#: closes a crash window in :meth:`Journal.checkpoint`: a crash between
#: the snapshot ``os.replace`` and the journal unlink used to leave a
#: *stale* journal next to a *newer* snapshot, and replaying it rolled
#: instances back to pre-checkpoint images.
JOURNAL_MAGIC = b"REPRO-JRNL-1"
JOURNAL_HEADER_SIZE = len(JOURNAL_MAGIC) + 4

#: The sync policies :class:`Journal` understands.
SYNC_POLICIES = ("always", "commit", "group", "none")


def _read_snapshot(path, images=False):
    """``(meta, images)`` of the snapshot at *path*: its meta JSON ({}
    when no snapshot exists) and, when *images* is true, the list of
    instance images it holds (else an empty list)."""
    path = Path(path)
    if not path.exists():
        return {}, []
    with open(path, "rb") as handle:
        if handle.read(len(_MAGIC)) != _MAGIC:
            raise StorageError(f"{path} is not a snapshot file")
        schema_len = _U32.unpack(handle.read(4))[0]
        meta = json.loads(handle.read(schema_len).decode("utf-8"))
        if not images:
            return meta, []
        count = _U32.unpack(handle.read(4))[0]
        return meta, [
            handle.read(_U32.unpack(handle.read(4))[0]) for _ in range(count)
        ]


def checkpoint_epoch(directory):
    """Checkpoint epoch of the snapshot in *directory* (0 if none)."""
    return _read_snapshot(Path(directory) / SNAPSHOT_NAME)[0].get("epoch", 0)


def _journal_body(data, snapshot_epoch):
    """Offset of the first record in the raw journal bytes *data*, when
    they may be replayed over a snapshot of *snapshot_epoch*.

    None when the journal must not be replayed: a header torn mid-write
    (no record can follow a torn header), or an epoch mismatch (a stale
    journal left behind by a crash mid-checkpoint).  A journal without
    the magic is a legacy headerless stream, replayed only against an
    epoch-0 snapshot.
    """
    if data[:len(JOURNAL_MAGIC)] == JOURNAL_MAGIC:
        if len(data) < JOURNAL_HEADER_SIZE:
            return None  # torn header
        epoch = _U32.unpack(
            data[len(JOURNAL_MAGIC):JOURNAL_HEADER_SIZE]
        )[0]
        if epoch != snapshot_epoch:
            return None  # stale (or future) journal: do not replay
        return JOURNAL_HEADER_SIZE
    if JOURNAL_MAGIC[:len(data)] == data:
        return None  # torn header shorter than the magic
    return 0 if snapshot_epoch == 0 else None


def _frame(kind, payload):
    """One record as written: kind byte + u32 length + payload."""
    return kind + _U32.pack(len(payload)) + payload


def iter_frames(data, start=None):
    """Yield ``(kind, payload, end)`` for each complete frame of the raw
    journal bytes *data*, *end* being the offset just past the frame.

    Starts at offset *start*; by default just past a header of any epoch
    (the trace checker's view: :class:`BatchReplayer` checks the epoch).
    A torn final frame ends the iteration.
    """
    if start is None:
        start = JOURNAL_HEADER_SIZE if data.startswith(JOURNAL_MAGIC) else 0
    size = len(data)
    position = start
    while position + _FRAME_HEAD <= size:
        end = position + _FRAME_HEAD + _U32.unpack_from(data, position + 1)[0]
        if end > size:
            return
        yield data[position:position + 1], data[position + _FRAME_HEAD:end], end
        position = end


class BatchReplayer:
    """The one reader of sealed journal batches.

    :meth:`run` owns every replay rule: records buffer until a marker
    closes their batch; a ``C`` marker makes the batch visible at the
    epoch its payload carries (a legacy empty payload means the previous
    epoch + 1); a ``P`` marker stashes the batch in ``in_doubt``; an
    ``R`` record applies the stashed batch on commit (at the epoch it
    carries) or drops it on abort.  A torn tail or a record of unknown
    kind stops the run, and an unterminated batch is discarded.

    The state survives across runs, so a follower resumes where the
    previous run stopped:

    ``checkpoint_epoch``
        the snapshot's epoch, which the journal header must carry;
    ``epoch``
        the commit epoch of the newest visible batch;
    ``in_doubt``
        prepared batches not yet resolved (gtid -> record list);
    ``offset``
        the file offset just past the last consumed marker;
    ``corrupt``
        the offset of the unknown-kind record the last run stopped at,
        else None;
    ``uid_floor``
        the highest UID number any prepared batch carried — recovery
        seats the allocator above it whatever the outcome, so an
        aborted batch's UIDs are never re-issued.
    """

    def __init__(self, checkpoint_epoch=0, epoch=0, in_doubt=None, offset=0):
        self.checkpoint_epoch = checkpoint_epoch
        self.epoch = epoch
        self.in_doubt = {} if in_doubt is None else in_doubt
        self.offset = offset
        self.corrupt = None
        self.uid_floor = 0

    def run(self, data, apply):
        """Replay the batches of the raw journal bytes *data* sealed
        after ``offset``: ``apply(records, epoch)`` once per batch made
        visible, *records* being its ``(kind, payload)`` list.  Returns
        how many batches were applied."""
        self.corrupt = None
        start = _journal_body(data, self.checkpoint_epoch)
        if start is None:
            return 0
        self.offset = max(self.offset, start)
        applied = 0
        pending = []
        for kind, payload, end in iter_frames(data, self.offset):
            if kind == _IMAGE or kind == _TOMBSTONE:
                pending.append((kind, payload))
                continue
            if kind == _COMMIT:
                self.epoch = max(
                    self.epoch,
                    _U64.unpack(payload)[0] if len(payload) == _U64.size
                    else self.epoch + 1,
                )
                apply(pending, self.epoch)
                applied += 1
            elif kind == PREPARE:
                for _kind, image in pending:
                    self.uid_floor = max(
                        self.uid_floor, decode_instance(image).uid.number
                    )
                self.in_doubt[json.loads(payload)["gtid"]] = pending
            elif kind == RESOLVE:
                meta = json.loads(payload)
                stashed = self.in_doubt.pop(meta["gtid"], None)
                if meta["commit"]:
                    self.epoch = max(
                        self.epoch, meta.get("commit_seq", self.epoch + 1)
                    )
                    apply(stashed or [], self.epoch)
                    applied += 1
            else:
                self.corrupt = end - _FRAME_HEAD - len(payload)
                break
            pending = []
            self.offset = end
        return applied


def install_batch(database, records):
    """Install one visible batch's ``(kind, payload)`` records into
    *database*'s object table and class extents: an image replaces the
    instance under its UID, a tombstone removes it.

    The one installer of journal records — recovery, a 2PC commit
    decided after recovery and replica replay all use it; the caller
    announces the change with ``database.topology_reset()``.  Returns
    ``[(uid, image or None, prior instance or None)]`` in record order.
    """
    objects = database._objects
    extents = database._extents
    changes = []
    for kind, payload in records:
        instance = decode_instance(payload)
        uid = instance.uid
        prior = objects.pop(uid, None)
        if prior is not None:
            extents.get(prior.class_name, set()).discard(uid)
        if kind == _TOMBSTONE:
            payload = None
        else:
            instance.deleted = False
            objects[uid] = instance
            extents.setdefault(instance.class_name, set()).add(uid)
        changes.append((uid, payload, prior))
    return changes


def _digest(image):
    """Fixed-size fingerprint of an encoded image (dedup bookkeeping)."""
    return hashlib.blake2b(image, digest_size=16).digest()


def _encode_uid(uid):
    return {"number": uid.number, "class": uid.class_name}


def _schema_payload(database):
    """JSON-able rendering of the class lattice."""
    classes = []
    for classdef in database.lattice:
        if classdef.name == "object":
            continue
        classes.append({
            "name": classdef.name,
            "superclasses": list(classdef.superclasses),
            "versionable": classdef.versionable,
            "segment": classdef.segment,
            "document": classdef.document,
            "attributes": [
                {
                    "name": spec.name,
                    "domain": (
                        {"set_of": spec.domain_class} if spec.is_set
                        else spec.domain_class
                    ),
                    "composite": spec.composite,
                    "exclusive": spec.exclusive,
                    "dependent": spec.dependent,
                    "init": spec.init,
                    "defined_in": spec.defined_in,
                }
                for spec in classdef.local.values()
            ],
        })
    return classes


def _restore_schema(database, classes):
    from ..schema.attribute import AttributeSpec, SetOf

    pending = list(classes)
    defined = {"object"}
    guard = 0
    while pending:
        guard += 1
        if guard > len(classes) ** 2 + 10:
            raise StorageError("cyclic or dangling superclasses in snapshot")
        entry = pending.pop(0)
        supers = entry["superclasses"] or ["object"]
        if not all(sup in defined for sup in supers):
            pending.append(entry)
            continue
        specs = []
        for attr in entry["attributes"]:
            domain = attr["domain"]
            if isinstance(domain, dict):
                domain = SetOf(domain["set_of"])
            specs.append(AttributeSpec(
                name=attr["name"],
                domain=domain,
                composite=attr["composite"],
                exclusive=attr["exclusive"],
                dependent=attr["dependent"],
                init=attr["init"],
                defined_in=attr["defined_in"],
            ))
        database.make_class(
            entry["name"],
            superclasses=[s for s in entry["superclasses"]],
            attributes=specs,
            versionable=entry["versionable"],
            segment=entry["segment"],
            document=entry["document"],
        )
        defined.add(entry["name"])


class _Batch:
    """The dirty instances of one transaction (or one operation).

    Instances are keyed by UID, so re-images coalesce: the seal encodes
    and writes only the final state of each instance.  ``stale`` marks a
    batch whose uncommitted state already reached disk — a
    mid-transaction checkpoint, or another commit's seal of an object
    this batch also has dirty (whole-object images: a component gains a
    reverse reference under its new parent's lock, not its own).  Its
    abort must *write* the compensating records instead of dropping them.
    """

    __slots__ = ("records", "stale")

    def __init__(self):
        self.records = {}  # uid -> instance, encoded at the seal
        self.stale = False

    def put(self, uid, instance):
        """Buffer *instance*; returns True when *uid* was already dirty."""
        replaced = uid in self.records
        self.records[uid] = instance
        return replaced

    def __len__(self):
        return len(self.records)


class _IOGuard:
    """One :meth:`Journal._io_guard` scope."""

    __slots__ = ("_journal", "_what")

    def __init__(self, journal, what):
        self._journal = journal
        self._what = what

    def __enter__(self):
        pass

    def __exit__(self, kind, error, _tb):
        if kind is not None and issubclass(kind, OSError):
            journal = self._journal
            journal.failed = True
            raise StorageError(
                f"journal IO failed while trying to {self._what} "
                f"at {journal.directory}: {error}"
            ) from error
        return False


class _BarrierScope:
    """A journal's :meth:`Journal.synced_by_barrier` scope (one per
    journal: it holds no per-commit state)."""

    __slots__ = ("_journal",)

    def __init__(self, journal):
        self._journal = journal

    def __enter__(self):
        self._journal._barrier_owned = True

    def __exit__(self, *_exc):
        self._journal._barrier_owned = False


class Journal:
    """Checkpoint/journal persistence for one database.

    Parameters
    ----------
    database:
        The :class:`repro.Database` to journal (hooks are registered on
        its ``on_update`` / ``on_persist`` / ``on_op_end`` /
        ``on_txn_commit`` / ``on_txn_abort`` lists).
    directory:
        Store directory (created when missing).
    sync_policy:
        One of :data:`SYNC_POLICIES`; see the module docstring.
    group_size:
        Under the ``group`` policy, fsync after this many sealed batches
        (auto-sync).  A server commit's seal does not count
        (:meth:`synced_by_barrier`): its batch barrier fsyncs before
        the acknowledgement.
    """

    def __init__(self, database, directory, sync_policy="always",
                 group_size=8):
        if sync_policy not in SYNC_POLICIES:
            raise StorageError(
                f"unknown sync policy {sync_policy!r}; "
                f"expected one of {', '.join(SYNC_POLICIES)}"
            )
        self._db = database
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sync_policy = sync_policy
        self.group_size = group_size
        self._journal_file = None
        self.closed = False
        #: Fail-stop flag: set on the first journal IO failure.  Every
        #: later append/sync/checkpoint raises StorageError instead of
        #: silently journaling onto a file in an unknown state.
        self.failed = False
        #: Checkpoint epoch (see :data:`JOURNAL_MAGIC`).
        meta, _images = _read_snapshot(self.directory / SNAPSHOT_NAME)
        self.epoch = meta.get("epoch", 0)
        #: Commit epoch: monotonic count of sealed batches, persisted in
        #: commit-marker payloads and across checkpoints in the snapshot
        #: meta.  This is the MVCC snapshot token (docs/REPLICATION.md).
        #: When the served database already recovered to a later epoch
        #: (recover_into replayed sealed batches), adopt its position.
        self.commit_seq = max(
            meta.get("commit_seq", 0),
            getattr(database, "commit_epoch", 0),
        )
        database.commit_epoch = self.commit_seq
        #: Journal records written since the last checkpoint.
        self.records_since_checkpoint = 0
        #: Digest of the last sealed image per UID (seal-time dedup: a
        #: commit can leave an object exactly as it found it).
        self._last_image = {}
        #: Buffered batches: one per open transaction plus the implicit
        #: auto batch of the operation outside any transaction (every
        #: operation's batch under ``always``).
        self._txn_batches = {}
        self._auto_batch = _Batch()
        #: ``{uid: image, or None for a tombstone}`` of the seal this
        #: commit hook round made — read by the hooks that run after the
        #: journal's (MVCC stamping), reset at the start of each round.
        self.sealed_images = {}
        #: True from an abort's compensating seal until the next hook
        #: round: the abort wrote the undo pass's restored images under
        #: a fresh commit marker (and ``sealed_images`` holds them).
        self.compensated = False
        #: True while a server commit seals (:meth:`synced_by_barrier`).
        self._barrier_owned = False
        self._barrier_scope = _BarrierScope(self)
        #: True when flushed bytes await an fsync (group/none policies).
        self._dirty = False
        self._unsynced_seals = 0
        #: Prepared-but-undecided global transactions (gtid -> True):
        #: live prepares plus in-doubt batches adopted from recovery.
        #: Checkpointing refuses while any exist — a snapshot would
        #: capture (or lose) state whose outcome is not yet known.
        self._prepared = {}
        # -- durability counters (the stats op and B12c report these) --
        self.records_written = 0
        self.records_coalesced = 0
        self.records_skipped = 0
        self.records_dropped = 0
        self.batches_sealed = 0
        self.batches_dropped = 0
        self.fsyncs = 0
        self._register_hooks(database)
        self._open_journal()

    def _register_hooks(self, database):
        self._hooks = (
            (database.on_update, self._buffer),
            (database.on_persist, self._buffer),
            (database.on_op_end, self._on_op_end),
            (database.on_txn_commit, self._on_txn_commit),
            (database.on_txn_abort, self._on_txn_abort),
        )
        for hook_list, callback in self._hooks:
            hook_list.append(callback)

    def detach(self):
        """Deregister every database hook (mutations after this are no
        longer journaled — the close path uses this so a mutation on a
        closed database degrades to in-memory instead of crashing)."""
        for hook_list, callback in self._hooks:
            if callback in hook_list:
                hook_list.remove(callback)
        self.sealed_images = {}
        self.compensated = False

    # -- paths --------------------------------------------------------------

    @property
    def snapshot_path(self):
        return self.directory / SNAPSHOT_NAME

    @property
    def journal_path(self):
        return self.directory / JOURNAL_NAME

    def _open_journal(self):
        self._journal_file = open(self.journal_path, "ab")
        if self._journal_file.tell() == 0:
            self._journal_file.write(JOURNAL_MAGIC)
            self._journal_file.write(_U32.pack(self.epoch))
            self._journal_file.flush()

    def _ensure_open(self, what):
        if self.closed:
            raise StorageError(
                f"journal at {self.directory} is closed; cannot {what}"
            )
        if self.failed:
            raise StorageError(
                f"journal at {self.directory} failed earlier and is "
                f"fail-stop; cannot {what}"
            )

    def _io_guard(self, what):
        """Surface journal IO failures as fail-stop :class:`StorageError`.

        Any :class:`OSError` (a real disk error or an injected fault —
        see :mod:`repro.faults`) marks the journal ``failed`` so later
        writes refuse instead of appending after a hole, then re-raises
        wrapped.  Errors never pass silently out of a journal write
        path.
        """
        return _IOGuard(self, what)

    # -- journaling ----------------------------------------------------------

    @property
    def batching(self):
        """True when records buffer in commit-scoped batches."""
        return self.sync_policy != "always"

    @property
    def needs_sync(self):
        """True when flushed journal bytes still await an fsync."""
        return self._dirty

    def _buffer(self, instance, _attribute=None):
        """Mark *instance* dirty in the current batch (the ``on_update``
        and ``on_persist`` hook).  Nothing is encoded here: the seal
        encodes each dirty UID once.  Seals at once when no operation is
        open to seal the batch later."""
        self._ensure_open("append a record")
        batch = self._current_batch()
        if batch.put(instance.uid, instance):
            self.records_coalesced += 1
        if self._db._op_depth == 0 and batch is self._auto_batch:
            with self._io_guard("seal an operation batch"):
                self._seal_batch(batch)

    def _current_batch(self):
        txn = self._db.current_txn
        if txn is None or not self.batching:
            return self._auto_batch
        batch = self._txn_batches.get(txn)
        if batch is None:
            batch = self._txn_batches[txn] = _Batch()
        return batch

    def _write_record(self, kind, payload):
        frame = _frame(kind, payload)
        _fire("journal.write_record", journal=self, frame=frame,
              file=self._journal_file)
        self._journal_file.write(frame)
        self.records_written += 1
        self.records_since_checkpoint += 1

    def _write_batch(self, batch):
        """Encode each dirty instance of *batch* once and write the
        records whose image changed since its last seal (a deleted
        instance writes a tombstone).  Returns ``{uid: image or None}``
        for every buffered UID, skipped ones included."""
        images = {}
        last_image = self._last_image
        others = [other for other in self._txn_batches.values()
                  if other is not batch and other.records]
        for uid, instance in batch.records.items():
            image = encode_instance(instance)
            if instance.deleted:
                images[uid] = None
                last_image.pop(uid, None)
                self._write_record(_TOMBSTONE, image)
            else:
                images[uid] = image
                digest = _digest(image)
                if last_image.get(uid) == digest:
                    self.records_skipped += 1
                    continue
                last_image[uid] = digest
                self._write_record(_IMAGE, image)
            for other in others:
                if uid in other.records:
                    other.stale = True
        batch.records.clear()
        batch.stale = False
        return images

    def _seal_batch(self, batch):
        """Write a buffered batch and its commit marker; fsync per policy.
        A batch whose every image was unchanged writes no marker.
        Returns True when a marker (a new commit epoch) was written."""
        if not batch.records:
            return False
        written = self.records_written
        self.sealed_images = self._write_batch(batch)
        if self.records_written == written:
            return False
        self.commit_seq += 1
        self._db.commit_epoch = self.commit_seq
        self._journal_file.write(_frame(_COMMIT, _U64.pack(self.commit_seq)))
        self._journal_file.flush()
        self.batches_sealed += 1
        if self.sync_policy in ("always", "commit"):
            self._fsync()
        elif self.sync_policy == "group":
            self._dirty = True
            self._unsynced_seals += 1
            if (not self._barrier_owned and self.group_size
                    and self._unsynced_seals >= self.group_size):
                self.sync()
        else:  # none: flushed, never fsynced while running
            self._dirty = True
        return True

    def synced_by_barrier(self):
        """Seal the enclosed commit without the ``group_size`` count.

        The server wraps its commits in this: a server commit is
        acknowledged only after its batch barrier's fsync, so that
        barrier is the batch's one sync point.  Every other seal -- an
        embedded commit, an abort's compensating records -- still counts
        toward ``group_size``.
        """
        return self._barrier_scope

    def _fsync(self):
        # A "skip" directive is the lying-fsync fault: counters advance
        # exactly as on success, but nothing actually reached the disk
        # — the crash simulator's durable watermark ("journal.fsynced",
        # observer-only) does not move.
        if _fire("journal.fsync", journal=self) != "skip":
            os.fsync(self._journal_file.fileno())
            _fire("journal.fsynced", journal=self)
        self.fsyncs += 1
        self._dirty = False
        self._unsynced_seals = 0

    def sync(self):
        """Flush and fsync the journal now (the group-commit flush)."""
        self._ensure_open("sync")
        with self._io_guard("sync"):
            self._journal_file.flush()
            self._fsync()

    # -- two-phase commit ----------------------------------------------------

    def prepare_txn(self, txn, gtid):
        """Seal *txn*'s buffered batch as a *prepared* batch (2PC phase 1).

        Writes the batch records followed by a ``P`` marker naming
        *gtid*, then fsyncs unconditionally — a prepare is a promise to
        commit on demand, so it is durable under every batching policy.
        The transaction stays open (locks held, undo log intact) until
        :meth:`resolve_prepared` delivers the coordinator's decision.

        Returns True when a prepared batch was written, False when the
        transaction buffered nothing here (a read-only participant: the
        caller should vote "ro" and needs no decision record).
        """
        self._ensure_open("prepare a transaction")
        if not self.batching:
            raise StorageError(
                "2PC prepare requires a batching sync policy "
                "(commit/group/none); 'always' seals every operation "
                "and cannot hold a batch back for the decision"
            )
        batch = self._txn_batches.get(txn)
        if batch is not None and batch.stale:
            # A checkpoint or another commit's seal persisted this
            # transaction's uncommitted state with no in-doubt marker,
            # so a prepared outcome could not be resolved at recovery.
            # Refuse — the coordinator aborts, and the abort writes the
            # compensating records.
            raise StorageError(
                "cannot prepare a transaction whose uncommitted state "
                "a checkpoint or another commit already persisted"
            )
        if batch is None or not batch.records:
            self._txn_batches.pop(txn, None)
            return False
        del self._txn_batches[txn]
        payload = json.dumps({"gtid": gtid}).encode("utf-8")
        with self._io_guard("prepare a transaction"):
            # An undecided image is no dedup base: an abort decision
            # restores the images sealed before it.
            for uid in self._write_batch(batch):
                self._last_image.pop(uid, None)
            self._write_record(PREPARE, payload)
            self._journal_file.flush()
            self._fsync()
        self.batches_sealed += 1
        self._prepared[gtid] = True
        return True

    def resolve_prepared(self, gtid, commit):
        """Journal the coordinator's decision for *gtid* (2PC phase 2).

        Appends an ``R`` record; a commit decision fsyncs so the shard's
        own log proves the outcome without the coordinator log.  An
        abort decision merely flushes — losing it re-opens the in-doubt
        window, and presumed-abort resolution closes it again.
        """
        self._ensure_open("resolve a prepared transaction")
        fields = {"gtid": gtid, "commit": bool(commit)}
        if commit:
            # A commit decision makes the prepared batch visible: it
            # gets the next commit epoch, carried in the R payload so
            # recovery and replicas stamp the same token.
            self.commit_seq += 1
            self._db.commit_epoch = self.commit_seq
            fields["commit_seq"] = self.commit_seq
        payload = json.dumps(fields).encode("utf-8")
        with self._io_guard("resolve a prepared transaction"):
            self._write_record(RESOLVE, payload)
            self._journal_file.flush()
            if commit or self.sync_policy in ("always", "commit"):
                self._fsync()
            else:
                self._dirty = True
        self._prepared.pop(gtid, None)

    def adopt_in_doubt(self, gtids):
        """Register recovered in-doubt transactions (checkpoint guard).

        Called by the shard worker after :meth:`recover_into` surfaced
        unresolved prepared batches: until each is resolved through
        :meth:`resolve_prepared`, checkpointing must refuse.
        """
        for gtid in gtids:
            self._prepared[gtid] = True

    @property
    def prepared_gtids(self):
        """Gtids of prepared-but-undecided transactions, sorted."""
        return sorted(self._prepared)

    # -- transaction hooks ---------------------------------------------------

    def _on_op_end(self):
        self.sealed_images = {}
        self.compensated = False
        if self.closed:
            return
        if self.failed:
            # This hook runs in the operation's ``finally`` — the write
            # that failed already surfaced StorageError to the caller,
            # and recovery discards the unterminated batch, which is
            # exactly the failed operation's abort semantics.  Drop the
            # bookkeeping instead of raising again mid-unwind.
            self._drop_batch(self._auto_batch)
            return
        txn = self._db.current_txn
        if txn is None or not self.batching:
            with self._io_guard("seal an operation batch"):
                sealed = self._seal_batch(self._auto_batch)
            # ``always`` seals an abort's undo pass here, as the
            # rollback operation ends.
            self.compensated = sealed and txn is not None and txn.undoing

    def _on_txn_commit(self, txn):
        self.sealed_images = {}
        self.compensated = False
        if self.closed:
            return
        batch = self._txn_batches.pop(txn, None)
        if self.failed:
            if batch is not None and batch.records:
                raise StorageError(
                    f"journal at {self.directory} failed earlier; "
                    f"{len(batch.records)} buffered record(s) of the "
                    f"committing transaction cannot be made durable"
                )
            return
        if batch is not None:
            with self._io_guard("seal a transaction batch"):
                self._seal_batch(batch)

    def _on_txn_abort(self, txn):
        """Drop the aborted transaction's batched records.

        Usually nothing of the transaction reached disk, so discarding
        the batch leaves the journal exactly at the pre-transaction
        state.  A ``stale`` batch must instead *write* its records, the
        compensating images produced by the undo pass: a checkpoint ran
        mid-transaction, or another commit sealed an object this batch
        also had dirty, and either persisted uncommitted state.
        ``compensated`` tells the hooks after this one whether such a
        seal wrote a commit marker.  Under ``always`` the rollback
        operation's end already sealed the undo pass (and set both
        ``sealed_images`` and ``compensated``); there is no batch here.
        """
        if self.closed:
            return
        batch = self._txn_batches.pop(txn, None)
        if batch is None:
            return
        if batch.stale:
            # Compensating records MUST reach the journal (a checkpoint
            # persisted the uncommitted state they undo) — on a failed
            # journal that is impossible, and staying silent would leave
            # dirty state durable.  Raise instead.
            if self.failed:
                if batch.records:
                    raise StorageError(
                        f"journal at {self.directory} failed earlier; "
                        f"{len(batch.records)} compensating record(s) of "
                        f"the aborting transaction cannot be journaled"
                    )
                return
            with self._io_guard("seal an abort's compensating batch"):
                self.compensated = self._seal_batch(batch)
            return
        # Dropping is correct even after a failure: nothing of the
        # batch reached disk, and an abort discards it by design.
        self._drop_batch(batch)

    def _drop_batch(self, batch):
        """Discard a buffered batch.  The dedup digests stay: the undo
        pass restored every object to its last sealed image."""
        if not batch.records:
            return
        self.records_dropped += len(batch.records)
        self.batches_dropped += 1
        batch.records.clear()

    def image_digest(self, uid):
        """The 16-byte digest of *uid*'s last sealed image, or None.

        This is the seal's dedup fingerprint — the server's image cache
        keys encoded wire snapshots on it.  While *uid* has a buffered
        change in any batch the live object may differ from that image
        (uncommitted, or committed but not yet sealed), so the answer is
        None and the cache is bypassed; otherwise the live object IS the
        sealed image (dropped on tombstone and 2PC abort, cleared by
        checkpoints)."""
        if uid in self._auto_batch.records or any(
            uid in batch.records for batch in self._txn_batches.values()
        ):
            return None
        return self._last_image.get(uid)

    # -- stats ---------------------------------------------------------------

    def stats_row(self):
        """Durability counters (the server's ``stats`` op and B12c)."""
        return {
            "policy": self.sync_policy,
            "records_written": self.records_written,
            "records_coalesced": self.records_coalesced,
            "records_skipped": self.records_skipped,
            "records_dropped": self.records_dropped,
            "batches_sealed": self.batches_sealed,
            "batches_dropped": self.batches_dropped,
            "fsyncs": self.fsyncs,
            "records_per_fsync": (
                self.records_written / self.fsyncs if self.fsyncs else None
            ),
            "pending_sync": self._dirty,
            "failed": self.failed,
            "epoch": self.epoch,
            "commit_seq": self.commit_seq,
            "in_doubt": len(self._prepared),
        }

    # -- checkpointing --------------------------------------------------------

    def checkpoint(self):
        """Write a full snapshot and truncate the journal.

        The snapshot captures the *current* in-memory state — including
        any buffered (not yet sealed) batch records, which are therefore
        cleared.  Open transactions' batches are marked stale so their
        abort writes compensating records instead of dropping them.
        """
        self._ensure_open("checkpoint")
        if self._prepared:
            raise StorageError(
                "cannot checkpoint with prepared (in-doubt) "
                f"transaction(s) pending: {', '.join(sorted(self._prepared))}"
            )
        _fire("journal.checkpoint", journal=self)
        database = self._db
        temp_path = self.snapshot_path.with_suffix(".tmp")
        with self._io_guard("checkpoint"):
            with open(temp_path, "wb") as handle:
                handle.write(_MAGIC)
                schema = json.dumps({
                    "classes": _schema_payload(database),
                    "next_uid": database.allocator.peek(),
                    "epoch": self.epoch + 1,
                    "commit_seq": self.commit_seq,
                }).encode("utf-8")
                handle.write(_U32.pack(len(schema)))
                handle.write(schema)
                instances = list(database.live_instances())
                handle.write(_U32.pack(len(instances)))
                for instance in instances:
                    image = encode_instance(instance)
                    handle.write(_U32.pack(len(image)))
                    handle.write(image)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, self.snapshot_path)
            self._journal_file.close()
            self.journal_path.unlink(missing_ok=True)
            # The new snapshot carries epoch+1, so from here on only a
            # journal stamped with the same epoch is replayed over it —
            # a crash before the unlink leaves a stale journal behind,
            # and recovery now ignores it instead of replaying
            # pre-checkpoint images over the fresher snapshot.
            self.epoch += 1
            self._open_journal()
        self._last_image.clear()
        self._auto_batch = _Batch()
        for batch in self._txn_batches.values():
            batch.records.clear()
            batch.stale = True
        self.records_since_checkpoint = 0
        self._dirty = False
        self._unsynced_seals = 0
        _fire("journal.checkpointed", journal=self)

    def close(self):
        """Seal every pending batch, fsync, close, and deregister hooks.

        Idempotent.  Any journal method used after close raises
        :class:`~repro.errors.StorageError`; mutations on the database
        itself keep working in-memory (the hooks are gone).

        A failure while sealing or fsyncing here raises
        :class:`~repro.errors.StorageError` — the caller must learn
        that the shutdown did *not* persist everything — but the file
        handle is still closed and the hooks deregistered, so close
        stays idempotent and the database remains usable in-memory.
        On a journal that already failed earlier, close is a quiet
        cleanup: every lost record surfaced a StorageError at its own
        write, and re-raising here would mask the original fault.
        """
        if self.closed:
            return
        try:
            if (self._journal_file and not self._journal_file.closed
                    and not self.failed):
                # A clean shutdown persists everything the hooks
                # buffered — including batches of still-open
                # transactions.
                with self._io_guard("close"):
                    self._seal_batch(self._auto_batch)
                    for batch in self._txn_batches.values():
                        self._seal_batch(batch)
                    self._txn_batches.clear()
                    self._journal_file.flush()
                    os.fsync(self._journal_file.fileno())
        finally:
            if self._journal_file and not self._journal_file.closed:
                with suppress(OSError):
                    self._journal_file.close()
            self.detach()
            self.closed = True

    def abandon(self):
        """Drop the journal without sealing or fsyncing anything.

        The crash simulator's ``kill -9``: buffered batches and pending
        syncs are thrown away exactly as a dead process would leave
        them, the file handle is closed (flushing nothing beyond what
        the OS already had), and the hooks are deregistered.  Never
        call this to shut down a database you care about — that is
        :meth:`close`.
        """
        if self.closed:
            return
        if self._journal_file and not self._journal_file.closed:
            with suppress(OSError):
                self._journal_file.close()
        self.detach()
        self.closed = True

    # -- recovery ----------------------------------------------------------------

    @staticmethod
    def recover_into(database, directory):
        """Load snapshot + journal from *directory* into a fresh database.

        Returns (instances_restored, journal_records_replayed).  Records
        apply batch-at-a-time: a batch's records take effect only once
        its commit marker is seen, so a truncated final batch (torn
        write) is discarded in full, as a real redo log would after a
        crash.

        A batch sealed by a ``P`` (prepare) marker is *not* applied;
        it is stashed under its gtid and applied/discarded when a later
        ``R`` (resolution) record decides it.  Batches still undecided
        at the end of the stream are exposed as ``database.in_doubt``
        (gtid -> record list) for the shard worker to resolve against
        the coordinator log (see ``repro.shard.twopc``); the attribute
        is always set, so non-sharded callers simply see ``{}``.

        Beside ``in_doubt`` and ``commit_epoch`` it reports what it
        consumed, from the bytes it actually read: ``checkpoint_epoch``
        (the snapshot's) and ``journal_offset`` (just past the last
        replayed marker).  A follower resumes exactly there.
        """
        directory = Path(directory)
        meta, images = _read_snapshot(directory / SNAPSHOT_NAME, images=True)
        if meta:
            _restore_schema(database, meta["classes"])
        max_uid = meta.get("next_uid", 1) - 1
        installed = 0

        def apply(records, _epoch=None):
            nonlocal max_uid, installed
            for uid, _image, _prior in install_batch(database, records):
                max_uid = max(max_uid, uid.number)
            installed += len(records)

        apply([(_IMAGE, image) for image in images])
        replay = BatchReplayer(meta.get("epoch", 0), meta.get("commit_seq", 0))
        try:
            data = (directory / JOURNAL_NAME).read_bytes()
        except FileNotFoundError:
            data = b""
        # A torn header or an epoch mismatch (a stale journal left by a
        # crash mid-checkpoint) replays nothing; a torn tail or an
        # unknown record kind stops at the last good batch.
        replay.run(data, apply)
        from ..core.identity import UIDAllocator

        database.allocator = UIDAllocator(
            start=max(max_uid, replay.uid_floor) + 1
        )
        database.topology_reset()
        database.in_doubt = replay.in_doubt
        database.commit_epoch = replay.epoch
        database.journal_offset = replay.offset
        database.checkpoint_epoch = replay.checkpoint_epoch
        return len(images), installed - len(images)
