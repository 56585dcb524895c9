"""The asyncio TCP server: many clients, one database.

Architecture
------------

Every connection gets a :class:`Session`.  A session owns at most one
:class:`repro.txn.transaction.Transaction` at a time — either an explicit
``begin``/``commit`` scope or a per-request auto-commit transaction — so
the Section 7 composite locking protocol and the wait-for-graph deadlock
detector mediate *real* cross-client conflicts: all sessions share one
:class:`repro.locking.table.LockTable` through one
:class:`repro.txn.manager.TransactionManager`.

The synchronous transaction layer never blocks (no-wait locking); the
server adds waiting on top with :class:`LockService`: lock plans are
acquired step-by-step with ``wait=True`` (queueing in the table's FIFO
queues), and a blocked session suspends on the event loop until the grant
that promotes its request resumes it, a deadlock check names its
transaction the victim, or the wait times out.  Because the data
operations themselves run on the single event-loop thread, the database
needs no internal locking.

The transport half (listener, handshake, pipelined session loop, one
write per batch) is :class:`WireServer`; :class:`ReproServer` and the
shard router (:mod:`repro.shard.router`) both subclass it.

Metrics follow the counter style of :mod:`repro.storage.stats`: a
:class:`ServerStats` aggregate plus per-session :class:`SessionStats`,
both exposed over the wire through the ``stats`` op.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import signal
import threading
from dataclasses import dataclass

from ..core.database import Database
from ..errors import (
    DeadlockError,
    LockConflictError,
    StorageError,
    TransactionStateError,
)
from ..faults.registry import fire as _fire
from ..locking.deadlock import DeadlockDetector
from ..locking.table import LockObserver
from ..txn.manager import TransactionManager
from .dispatch import dispatch
from .protocol import (
    SUPPORTED_VERSIONS,
    VERSION,
    ProtocolError,
    WireProtocol,
    check_request,
    decode_payload,
    encode_error_bytes,
    encode_result_bytes,
)


@dataclass
class SessionStats:
    """Counters for one client connection."""

    requests: int = 0
    errors: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    lock_waits: int = 0
    commits: int = 0
    aborts: int = 0
    deadlock_aborts: int = 0

    def row(self):
        return dataclasses.asdict(self)


@dataclass
class ServerStats:
    """Aggregate counters for one server."""

    sessions_opened: int = 0
    sessions_closed: int = 0
    requests: int = 0
    errors: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    lock_waits: int = 0
    commits: int = 0
    aborts: int = 0
    deadlock_aborts: int = 0
    lock_timeouts: int = 0
    pipelined_batches: int = 0
    pipelined_requests: int = 0
    #: Auto-commit reads and writes run in one step, without a
    #: transaction (their plan was free; :meth:`Session.run`).  Each
    #: also counts as a commit.
    unlocked_reads: int = 0
    unlocked_writes: int = 0

    def row(self):
        return dataclasses.asdict(self)


class GroupCommitGate:
    """Time-window group commit over one journal.

    Under the journal's ``group`` sync policy a commit seals its batch
    (write + flush) but leaves the fsync to whoever syncs next.  The gate
    is that whoever, and for the server's own commits it is the *only*
    syncer: they seal inside ``journal.synced_by_barrier()``, off the
    ``group_size`` count, so a server batch pays exactly the fsync of
    its barrier.  The first committer of a window starts a flush round
    that sleeps ``window`` seconds and then fsyncs once; every commit
    arriving inside the window awaits the same round, so concurrent
    sessions share a single fsync.
    With one session connected no other commit can join the round, so
    the gate fsyncs at once instead of sleeping.  A commit is
    acknowledged to its client only after its round's fsync — durability
    is delayed by at most ``window`` seconds, never dropped.

    The fsync itself runs on the event loop (journal writes are
    single-threaded there); at the default 2 ms window the stall is the
    point — it is the shared price of durability for the whole window.
    """

    def __init__(self, journal, sessions, window=0.002):
        self.journal = journal
        #: The server's connected sessions (only their count is read).
        self.sessions = sessions
        self.window = window
        #: Commits that passed through the gate / fsyncs actually issued.
        self.commits = 0
        self.flushes = 0
        self._round = None

    async def wait(self):
        """Block until the caller's sealed batch is on disk."""
        self.commits += 1
        if self.journal.closed or not self.journal.needs_sync:
            return
        if self._round is None:
            if len(self.sessions) < 2:
                self._flush()
                return
            self._round = asyncio.create_task(self._run_round())
        # Shield: a committer whose connection dies mid-wait must not
        # cancel the flush every other committer in the window shares.
        await asyncio.shield(self._round)

    async def _run_round(self):
        try:
            await asyncio.sleep(self.window)
        finally:
            # Later commits start a fresh round: their bytes may land
            # after this round's fsync begins.
            self._round = None
        self._flush()

    def _flush(self):
        if not self.journal.closed and self.journal.needs_sync:
            self.journal.sync()
            self.flushes += 1


class LockService(LockObserver):
    """Asynchronous lock waiting over the shared no-wait lock table.

    :meth:`acquire_plan` requests each step in the table; a request that
    conflicts queues there (FIFO fairness and wait-for edges come for
    free) and parks its session on one future.  The grant that promotes
    the request resumes that future and no other: while any session is
    parked the service observes the table's grants, so every path that
    grants a queued request hands it over the same way -- the release
    in :meth:`ReproServer.finish` (a commit, an abort, a commit whose
    journal failed: the manager releases regardless) and the
    :meth:`LockTable.cancel` of a request queued ahead of it (a wait
    that timed out, a deadlock victim, a request cancelled while it
    waits).  Nothing polls, and no waiter asks the table twice.

    Each new wait runs the deadlock detector.  The victim (youngest in
    the cycle, as in :mod:`repro.locking.deadlock`) has its future
    failed with :class:`DeadlockError`; it withdraws its request, and
    its session aborts the transaction, releasing its locks.  A wait
    longer than the timeout withdraws its request and raises
    :class:`LockConflictError`.
    """

    def __init__(self, table, stats, wait_timeout=30.0):
        self.table = table
        self.stats = stats
        self.wait_timeout = wait_timeout
        self.detector = DeadlockDetector(table)
        #: txn -> the future its one queued request parks it on.  The
        #: service observes the table only while this is not empty.
        self._waiters = {}

    def on_grant(self, txn, resource, mode):
        """Resume *txn* if it is parked: the grant is its queued request
        (a parked transaction requests nothing else)."""
        waiter = self._waiters.get(txn)
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    async def acquire_plan(self, txn, steps, timeout=None):
        """Acquire every (resource, mode) of *steps* in order; return the
        number of steps that waited.

        Each step is one table request, decided inline; only a step that
        queued parks."""
        waits = 0
        acquire = self.table.acquire
        for resource, mode in steps:
            if not acquire(txn, resource, mode, wait=True):
                await self._wait(txn, resource, mode, timeout)
                waits += 1
        return waits

    async def _wait(self, txn, resource, mode, timeout):
        """Park until *txn*'s queued request for *mode* on *resource* is
        granted; raise the deadlock victim's error or, after *timeout*,
        :class:`LockConflictError`."""
        self.stats.lock_waits += 1
        waiter = asyncio.get_running_loop().create_future()
        if not self._waiters:
            self.table.observers.append(self)
        self._waiters[txn] = waiter
        timeout = self.wait_timeout if timeout is None else timeout
        try:
            victim = self.detector.check(raise_on_deadlock=False)
            if victim is not None:
                parked = self._waiters.get(victim)
                if parked is not None and not parked.done():
                    parked.set_exception(DeadlockError(
                        f"transaction {victim.txn_id} chosen as deadlock "
                        f"victim",
                        victim=victim.txn_id,
                    ))
            await asyncio.wait_for(waiter, timeout)
        except asyncio.TimeoutError:
            self.stats.lock_timeouts += 1
            raise LockConflictError(
                f"timed out after {timeout:.2f}s waiting for {mode} "
                f"on {resource!r}",
                resource=resource,
                requested=mode,
                holders=[
                    getattr(holder, "txn_id", holder)
                    for holder in self.table.holders(resource)
                ],
            ) from None
        finally:
            del self._waiters[txn]
            # Withdraw the request unless it was granted.  The withdrawal
            # may grant requests queued behind it, resuming their waiters.
            self.table.cancel(txn, resource, mode)
            if not self._waiters:
                self.table.observers.remove(self)


class Session:
    """One client connection: user, transaction, interpreter, counters."""

    def __init__(self, server, session_id, peer):
        self.server = server
        self.session_id = session_id
        self.peer = peer
        self.user = None
        #: True while the server is executing this session's pipelined
        #: batch: commit acks defer their durability barrier to one
        #: shared batch-end wait (see ``_serve_session``).
        self.defer_sync = False
        #: Set by a commit whose barrier was deferred; the serve loop
        #: reads it per request to know which acks need the batch fsync.
        self.sync_pending = False
        self.txn = None
        #: The wire op being executed (set by ``dispatch``); with the
        #: session it is the acquisition site :meth:`txn_scope` stamps
        #: on the transaction for the lock-order recorder.
        self.op = ""
        self._label = f"session {session_id}"
        #: Gtid of a 2PC-prepared transaction awaiting its decision
        #: (set by the ``prepare`` op, cleared by ``decide``/park).
        self.prepared_gtid = None
        #: True when the prepare sealed a durable journal batch (an
        #: in-memory or read-only participant prepares without one).
        self.prepared_durable = False
        self.stats = SessionStats()
        self._interpreter = None

    @property
    def interpreter(self):
        if self._interpreter is None:
            from ..query.interpreter import Interpreter

            self._interpreter = Interpreter(self.server.db)
        return self._interpreter

    # -- authorization ----------------------------------------------------

    def authorize(self, auth_type, uid):
        """Require *auth_type* on *uid* when the server enforces auth."""
        engine = self.server.auth
        if engine is not None:
            engine.require(self.user, auth_type, uid)

    # -- locking ----------------------------------------------------------

    def lock_instance(self, txn, uid, intent):
        return self._lock(txn, uid, intent, False)

    async def _lock(self, txn, uid, intent, composite):
        """The locking protocol's own decision, with its steps awaited
        instead of refused: the transaction manager's no-wait lock call
        that follows finds the granule covered."""
        protocol = self.server.tm.protocol
        plan = protocol.pending(txn, uid, intent, composite)
        while plan is not None:
            self.stats.lock_waits += await self.server.locks.acquire_plan(
                txn, plan.steps
            )
            if plan.granule is not None:
                protocol.granted(txn, plan)
                return
            # The object was absent under another transaction's lock (an
            # uncommitted delete), which is now released: look again.
            plan = protocol.pending(txn, uid, intent, composite)

    # -- data ops ---------------------------------------------------------

    async def run(self, body, args, uids, intent, composite=False,
                  snapshot=False, class_name=None):
        """Run the data op ``body(self, tm, txn, args)`` under *intent*'s
        Section 7 plan on each of *uids* (the composite plan when
        *composite*) and, with *class_name*, a make's class step (see
        ``dispatch._read_op`` and ``dispatch._write_op``).

        A request with no explicit transaction whose plan is free
        (:meth:`CompositeLockingProtocol.free`) runs in one step: the
        body runs with *txn* None and *tm* the manager's
        :class:`~repro.txn.manager.OneStep` -- no transaction, no grant,
        no commit, no release.  Nothing else runs on the loop between
        the check and the op, so this is the locked path's acquire, op
        and release with nothing in between.  A write is then one
        ``Database`` operation: its own bracket rolls it back if it
        fails, the journal seals it as an auto batch (inside
        ``synced_by_barrier``, as :meth:`ReproServer.finish` seals a
        commit), MVCC stamps it and the history recorder commits it as
        an auto-transaction ``b<n>`` when it ends.  It counts as the
        auto-commit it replaces (a commit, or an abort when it raises;
        a journal failure turns the server read-only) and acks after
        the same durability point.  Otherwise the body runs in the
        request's scope, with the real manager, once the plan is held;
        with *snapshot*, a snapshot transaction's read takes no locks
        (the manager's ``reads_snapshot``).
        """
        server = self.server
        tm = server.tm
        if self.txn is None:
            try:
                free = tm.protocol.free(uids, intent, composite, class_name)
                if free:
                    if server.gate is None or intent == "read":
                        result = body(self, tm.one_step, None, args)
                    else:
                        with server.journal.synced_by_barrier():
                            result = body(self, tm.one_step, None, args)
            except Exception as error:
                self.stats.aborts += 1
                server.stats.aborts += 1
                if intent == "write" and isinstance(error, StorageError):
                    # The write's seal failed, as a failed commit's would.
                    server._note_journal_failure()
                raise
            if free:
                self.stats.commits += 1
                server.stats.commits += 1
                if intent == "read":
                    server.stats.unlocked_reads += 1
                else:
                    server.stats.unlocked_writes += 1
                await self.durability_point()
                return result
        async with _RequestScope(self) as txn:
            if not (snapshot and tm.reads_snapshot(txn, uids[0])):
                for uid in uids:
                    await self._lock(txn, uid, intent, composite)
            if class_name is not None:
                # A make's class step is awaited too, so a make behind
                # an extent scan's S waits instead of being refused.
                # The manager then X-locks the new instance: a fresh
                # UID, so that never waits.
                self.stats.lock_waits += await server.locks.acquire_plan(
                    txn, (tm.protocol.class_step(class_name, intent),)
                )
            return body(self, tm, txn, args)

    # -- transactions -----------------------------------------------------

    def begin(self, snapshot=False, epoch=None):
        if self.txn is not None and self.txn.active:
            raise TransactionStateError(
                f"session {self.session_id} already has active transaction "
                f"{self.txn.txn_id}; commit or abort it first"
            )
        self.txn = self.server.tm.begin(snapshot=snapshot, epoch=epoch)
        return self.txn

    def commit(self):
        if self.txn is None:
            raise TransactionStateError("no transaction to commit")
        if self.prepared_gtid is not None:
            raise TransactionStateError(
                f"transaction is prepared for 2PC as {self.prepared_gtid!r}"
                f"; only 'decide' may finish it"
            )
        # Detach before finishing: if the journal fails mid-commit the
        # typed StorageError goes to the client, but the session must not
        # keep a reference to the dead transaction (its locks are already
        # released by the manager) — a wedged session could neither retry
        # nor disconnect cleanly.
        txn, self.txn = self.txn, None
        self.server.finish(txn, commit=True)
        self.stats.commits += 1
        return txn.txn_id

    def abort(self):
        if self.txn is None:
            raise TransactionStateError("no transaction to abort")
        if self.prepared_gtid is not None:
            raise TransactionStateError(
                f"transaction is prepared for 2PC as {self.prepared_gtid!r}"
                f"; only 'decide' may finish it"
            )
        txn, self.txn = self.txn, None
        self.server.finish(txn, commit=False)
        self.stats.aborts += 1
        return txn.txn_id

    def txn_scope(self):
        """The session's transaction, or a per-request auto-commit one
        (``async with session.txn_scope() as txn``; see
        :class:`_RequestScope`)."""
        return _RequestScope(self)

    def _stamp(self, txn):
        """Name the op and session as *txn*'s acquisition site (the
        lock-order recorder adds the transaction when it renders one):
        every grant this request takes has the same Python stack (serve
        loop, dispatch, handler, lock service), so this is all a stack
        would say -- at one tuple per request instead of a frame walk
        per grant.  The graph interns equal sites to one id."""
        txn.site = (self.op, self._label)

    async def durability_point(self):
        """A commit acknowledgement's durability barrier.

        Serial requests await the group-commit gate right here, exactly
        as before pipelining existed.  Inside a pipelined batch the wait
        is deferred: the request is only *marked* as needing the fsync,
        and the serve loop runs one shared barrier after the whole batch
        — N commits in a batch then cost one gate wait instead of N
        sequential window sleeps.  Safety is unchanged either way: no
        response marked ``sync_pending`` is written to the socket before
        the batch barrier returns (or is replaced by a typed error when
        the barrier fails).
        """
        if self.defer_sync:
            self.sync_pending = True
        else:
            await self.server.durability_barrier()

    def close(self):
        """Release everything on disconnect.

        A journal failure during the cleanup abort is swallowed: the
        client is gone, the manager has already released the locks, and
        :meth:`ReproServer.finish` has flagged the server read-only —
        there is nobody left to report the error to.

        A transaction *prepared for 2PC* must NOT be aborted here: the
        coordinator may already have logged a commit decision it could
        not deliver before the connection died.  It is parked on the
        server (locks held) and resolved by the coordinator log poller
        or an explicit ``decide`` from a reconnected router.
        """
        if self.txn is not None and self.txn.active:
            if self.prepared_gtid is not None:
                self.server.park_prepared(self)
                return
            with contextlib.suppress(StorageError):
                self.server.finish(self.txn, commit=False)
            self.stats.aborts += 1
        self.txn = None


class _RequestScope:
    """One request's :meth:`Session.txn_scope`: the session's explicit
    transaction, or an auto-commit one begun on entry and finished on
    the way out.

    A deadlock abort always tears the transaction down (the victim
    *must* release its locks to break the cycle); other errors roll
    back auto-commit scopes but leave an explicit transaction active
    for the client to abort or retry.  A ``BaseException`` (a request
    cancelled, say, in its lock wait) aborts an auto-commit scope as a
    disconnect does, and leaves an explicit transaction to the
    session's close.  A plain object rather than an async generator,
    because every data request enters one.
    """

    __slots__ = ("_session", "_txn", "_auto")

    def __init__(self, session):
        self._session = session

    async def __aenter__(self):
        session = self._session
        txn = session.txn
        self._auto = txn is None
        if txn is None:
            txn = session.server.tm.begin()
        elif session.prepared_gtid is not None:
            raise TransactionStateError(
                f"transaction is prepared for 2PC as "
                f"{session.prepared_gtid!r}; no further operations until "
                f"the decision"
            )
        elif not txn.active:
            raise TransactionStateError(
                f"transaction {txn.txn_id} is "
                f"{txn.state.value}; abort it first"
            )
        self._txn = txn
        session._stamp(txn)
        return txn

    async def __aexit__(self, kind, _error, _tb):
        session = self._session
        if kind is None:
            if self._auto:
                session.server.finish(self._txn, commit=True)
                session.stats.commits += 1
                # Auto-commit acks like any commit: after the group fsync.
                await session.durability_point()
            return False
        deadlock = issubclass(kind, DeadlockError)
        if self._auto:
            if issubclass(kind, Exception):
                session.server.finish(self._txn, commit=False)
            else:
                # The abort also withdraws a queued lock request; what
                # propagates is the cancellation, not a journal failure.
                with contextlib.suppress(StorageError):
                    session.server.finish(self._txn, commit=False)
            session.stats.aborts += 1
        elif deadlock:
            session.abort()
        if deadlock:
            session.stats.deadlock_aborts += 1
            session.server.stats.deadlock_aborts += 1
        return False


class Preframed:
    """A handler result that is already a whole response frame (request
    id and length prefix included): the session loop writes it verbatim.
    The shard router's raw relay answers with these."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = data


class WireServer:
    """The transport half of a wire frontend: one listener, one session
    loop.

    Accepts connections, runs the ``hello`` handshake, then serves each
    connection's requests in pipelined batches (decode,
    ``server.recv_frame``, ``check_request``, the frontend's handler,
    encode) and answers each batch with one write.  A subclass supplies:

    * :attr:`name` and :meth:`_hello_fields` for the handshake;
    * ``_open_session(session_id, peer)`` and the coroutine
      ``_close_session(session)``: its session type (carrying
      ``session_id``, ``stats``, ``defer_sync`` and ``sync_pending``) and
      its disconnect cleanup;
    * ``_request(session, op, args, raw)``: the awaitable answering one
      checked request (*raw* is its undecoded payload) with a result
      value or a :class:`Preframed` response;
    * ``self.stats``, with the session, request, error, byte and
      pipelining counters the loop keeps;
    * ``durability_barrier()``, if its sessions ever set
      ``sync_pending``.
    """

    #: Names the frontend in the hello response (``<name>/<version>``).
    name = "repro"

    def __init__(self, host="127.0.0.1", port=0, max_pipeline=64):
        self.host = host
        self.port = port
        self.max_pipeline = max(1, int(max_pipeline))
        self._server = None
        #: session_id -> (session, WireProtocol) for every open
        #: connection.
        self._sessions = {}
        self._conn_tasks = set()
        self._next_session = 0

    def _hello_fields(self):
        """Extra fields for the hello response."""
        return {}

    # -- lifecycle --------------------------------------------------------

    async def start(self):
        """Bind and start accepting connections."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: WireProtocol(self._accept), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self):
        """Stop accepting, cancel and await every connection task (each
        one closes its own session on the way out), then wait for the
        listener to close.  Connections go first: since Python 3.12.1
        ``wait_closed`` also waits for every open connection."""
        listener, self._server = self._server, None
        if listener is not None:
            listener.close()
        tasks = [task for task in self._conn_tasks if not task.done()]
        for task in tasks:
            task.cancel()
        for task in tasks:
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        self._conn_tasks.clear()
        if listener is not None:
            await listener.wait_closed()

    async def run(self, publish=None):
        """The one lifecycle of every frontend: start, call
        ``publish(self)`` once bound, serve until SIGTERM or SIGINT (on
        the main thread) or until cancelled, then stop.  Returns
        normally after a signal, so a process whose main coroutine this
        is exits 0."""
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        signals = ()
        if threading.current_thread() is threading.main_thread():
            signals = (signal.SIGTERM, signal.SIGINT)
        for signum in signals:
            loop.add_signal_handler(signum, stopping.set)
        try:
            await self.start()
            if publish is not None:
                publish(self)
            await stopping.wait()
        finally:
            for signum in signals:
                loop.remove_signal_handler(signum)
            await self.stop()

    # -- connection handling ----------------------------------------------

    def _accept(self, wire):
        """A connection is made: start its session task."""
        task = asyncio.get_running_loop().create_task(self._connection(wire))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _connection(self, wire):
        self._next_session += 1
        session = self._open_session(
            self._next_session, wire.transport.get_extra_info("peername")
        )
        self._sessions[session.session_id] = (session, wire)
        self.stats.sessions_opened += 1
        try:
            if not await self._handshake(session, wire):
                return
            await self._serve_session(session, wire)
        except ProtocolError as error:
            # Corrupt stream: report once (best effort), then hang up.
            with contextlib.suppress(Exception):
                await self._write_frames(session, wire, [
                    encode_error_bytes(VERSION, 0, error)
                ])
        except OSError:
            # Broken peer or injected socket fault: tear the session
            # down below.  OSError (not just ConnectionError) so an
            # armed failpoint's InjectedFault lands here too.
            pass
        except asyncio.CancelledError:
            # Stopping: answers the peer has not read are dropped, so a
            # peer that never reads cannot hold the close (and the stop).
            wire.transport.abort()
            raise
        finally:
            await self._close_session(session)
            self._sessions.pop(session.session_id, None)
            self.stats.sessions_closed += 1
            with contextlib.suppress(Exception):
                await wire.close()

    async def _read(self, session, wire, limit):
        """Up to *limit* request payloads, metered as ``4 + len(payload)``
        wire bytes each; ``[]`` at a clean EOF."""
        batch = await wire.read(limit)
        size = 4 * len(batch) + sum(map(len, batch))
        session.stats.bytes_in += size
        self.stats.bytes_in += size
        return batch

    async def _handshake(self, session, wire):
        batch = await self._read(session, wire, 1)
        if not batch:
            return False
        # A payload that is no frame (a legacy JSON hello, say) raises
        # ProtocolError here, and the connection closes.
        frame = decode_payload(VERSION, batch[0])
        try:
            request_id, op, args = check_request(frame)
            if op != "hello":
                raise ProtocolError("first request must be 'hello'")
            offered = args.get("versions")
            if not isinstance(offered, list) or not offered:
                raise ProtocolError("'hello' must offer a list of versions")
            if VERSION not in offered:
                raise ProtocolError(
                    f"no common protocol version: client speaks {offered}, "
                    f"server speaks {list(SUPPORTED_VERSIONS)}"
                )
        except ProtocolError as error:
            await self._write_frames(session, wire, [
                encode_error_bytes(VERSION, frame["id"], error)
            ])
            return False
        from .. import __version__

        await self._write_frames(session, wire, [
            encode_result_bytes(VERSION, request_id, {
                "version": VERSION,
                "server": f"{self.name}/{__version__}",
                "session": session.session_id,
                "pipeline": self.max_pipeline,
                **self._hello_fields(),
            })
        ])
        return True

    async def _serve_session(self, session, wire):
        while True:
            # Pipelining: every request the client already queued is one
            # batch — the loop waits for a refill only when no complete
            # frame is buffered, never for bytes that have not arrived —
            # executed strictly in order, and answered with one write
            # and one shared durability barrier.
            batch = await self._read(session, wire, self.max_pipeline)
            if not batch:
                return
            if len(batch) > 1:
                self.stats.pipelined_batches += 1
                self.stats.pipelined_requests += len(batch)
            session.defer_sync = len(batch) > 1
            try:
                responses = await self._serve_batch(session, batch)
            finally:
                session.defer_sync = False
            await self._write_frames(
                session, wire, [data for data, _sync, _rid in responses]
            )

    async def _serve_batch(self, session, batch):
        """Execute one batch of raw request frames, in order.

        Returns the encoded responses as ``(wire bytes, needs_sync)``
        pairs.  When any request in the batch committed under the group
        sync policy, the single shared durability barrier runs *before*
        returning — and if that fsync fails, every acknowledgement that
        depended on it is replaced by the typed storage error (a commit
        must never be acked and then lost).
        """
        responses = []
        for raw in batch:
            frame = decode_payload(VERSION, raw)
            directive = _fire(
                "server.recv_frame", server=self, session=session,
                frame=frame,
            )
            if directive == "drop":
                continue  # lost request: the client times out, not us
            if directive == "kill":
                raise ConnectionError("connection killed by failpoint")
            self.stats.requests += 1
            session.stats.requests += 1
            try:
                request_id, op, args = check_request(frame)
            except ProtocolError as error:
                session.stats.errors += 1
                self.stats.errors += 1
                # A decoded frame always carries an integer id.
                bad_id = frame["id"]
                responses.append(
                    (encode_error_bytes(VERSION, bad_id, error), False,
                     bad_id)
                )
                continue
            session.sync_pending = False
            try:
                result = await self._request(session, op, args, raw)
                if isinstance(result, Preframed):
                    response = result.data
                else:
                    response = encode_result_bytes(
                        VERSION, request_id, result
                    )
            except Exception as error:
                session.stats.errors += 1
                self.stats.errors += 1
                response = encode_error_bytes(VERSION, request_id, error)
            responses.append((response, session.sync_pending, request_id))
        if any(needs_sync for _, needs_sync, _ in responses):
            try:
                await self.durability_barrier()
            except StorageError as error:
                responses = [
                    (encode_error_bytes(VERSION, rid, error), False, rid)
                    if needs_sync else (data, needs_sync, rid)
                    for data, needs_sync, rid in responses
                ]
        return responses

    async def _write_frames(self, session, wire, frames):
        """Send *frames* (wire bytes) with one ``write`` and one ``drain``.

        ``server.send_frame`` still fires once per frame, in order:
        ``drop`` leaves the frame out and ``garble`` corrupts it, while
        ``delay``, ``kill`` and an injected error first send the frames
        before it, then sleep or tear the connection down.
        """
        out = []
        try:
            for data in frames:
                directive = _fire(
                    "server.send_frame", server=self, session=session,
                    payload=data,
                )
                if directive == "drop":
                    continue
                if directive == "kill":
                    raise ConnectionError("connection killed by failpoint")
                if directive == "garble":
                    # Flip bits in the body but keep the length prefix
                    # honest: the client reads a full frame of garbage
                    # and must fail with a typed ProtocolError, not hang
                    # on a short read.
                    data = data[:4] + bytes(byte ^ 0x5A for byte in data[4:])
                elif isinstance(directive, tuple) and directive[0] == "delay":
                    self._write(session, wire, out)
                    out = []
                    await wire.drain()
                    await asyncio.sleep(directive[1])
                out.append(data)
        finally:
            self._write(session, wire, out)
        await wire.drain()

    def _write(self, session, wire, frames):
        if frames:
            data = b"".join(frames)
            wire.write(data)
            session.stats.bytes_out += len(data)
            self.stats.bytes_out += len(data)


class ReproServer(WireServer):
    """A TCP server multiplexing clients onto one :class:`repro.Database`.

    Parameters
    ----------
    database:
        The database to serve (a fresh one by default).
    host, port:
        Bind address; port 0 picks a free port (read it back from
        ``server.port`` after :meth:`start`).
    auth:
        Optional :class:`repro.authorization.engine.AuthorizationEngine`;
        when given, every data op checks the session's ``login`` user.
    lock_wait_timeout:
        Seconds a lock wait may last before failing with
        :class:`repro.errors.LockConflictError`.
    group_commit_window:
        When the served database journals under the ``group`` sync
        policy, commits acknowledged within this many seconds share one
        fsync (see :class:`GroupCommitGate`).  Ignored for databases
        without a journal or under other policies.
    lockdep:
        Attach a :class:`repro.analysis.lockdep.LockOrderRecorder` to
        the shared lock table, so ``check(plane="lockdep")`` reports
        latent deadlocks (lock-order inversions) across everything every
        session acquired — even runs where no deadlock ever formed.
        The recorder names the wire op, session and transaction as
        each grant's acquisition site instead of walking the Python
        stack (one interned ``(op, session)`` pair per session and op;
        the transaction is added when a report renders it), so it costs
        a constant per grant (benchmark B16 holds it to the stack-less
        recorder's cost).  On by default;
        ``repro-server --no-lockdep`` turns the plane off.
    record_history:
        Attach a :class:`repro.analysis.history.HistoryRecorder` to the
        served database, so ``check(plane="iso")`` can replay the
        recorded transaction history through the Adya serialization-
        graph checker.  A string/path value additionally streams the
        history there as JSONL (``repro-server --record-history PATH``)
        for offline ``repro-check iso``; ``True`` records in memory
        only; ``None``/``False`` (default) disables recording
        (benchmark B21 measures the overhead).
    shard_info:
        When this server is a shard worker: a ``(shard_id, shards)``
        pair.  Enables the ``prepare``/``decide``/``indoubt`` 2PC ops'
        bookkeeping in ``stats`` and the ``placement`` check plane
        (docs/SHARDING.md).
    coord_log:
        Path to the cluster's coordinator decision log (``coord.log``).
        A worker with a parked prepared transaction (its router
        connection died mid-2PC) polls this log to resolve the
        transaction without the router.
    max_pipeline:
        Upper bound on how many already-received requests one
        connection's serve loop executes as a single pipelined batch
        (responses are written together; commit acks share one
        group-commit barrier).  1 disables pipelining.
    image_cache_capacity:
        Entries in the encoded-object-image LRU used by ``resolve`` on
        v2 connections (journal-backed databases only; keyed by the
        journal's image digest).  0 disables the cache.
    mvcc:
        Attach a :class:`repro.mvcc.SnapshotManager` to the served
        database, enabling the ``snapshot_read`` op and
        ``begin(snapshot=True)`` transactions — lock-free consistent
        reads at a commit epoch (docs/REPLICATION.md).  On by default;
        ``repro-server --no-mvcc`` disables it (benchmark B22 measures
        the version-chain overhead).  A manager already attached to the
        database is adopted as-is.
    max_versions:
        Committed versions retained per object by the MVCC manager
        (reads below the retained window raise SnapshotTooOldError).
    """

    def __init__(self, database=None, host="127.0.0.1", port=0, auth=None,
                 lock_wait_timeout=30.0, group_commit_window=0.002,
                 lockdep=True, record_history=None, shard_info=None,
                 coord_log=None, max_pipeline=64, image_cache_capacity=1024,
                 mvcc=True, max_versions=16):
        super().__init__(host, port, max_pipeline)
        self.db = database if database is not None else Database()
        self.auth = auth
        self.shard_info = tuple(shard_info) if shard_info else None
        self.coord_log = coord_log
        #: 2PC-prepared transactions whose session disconnected before
        #: the decision arrived: gtid -> (txn, prepared_durable).
        self.parked = {}
        self._parked_task = None
        self.tm = TransactionManager(self.db)
        self.stats = ServerStats()
        self.locks = LockService(
            self.tm.table, self.stats, wait_timeout=lock_wait_timeout
        )
        self.lockdep = None
        if lockdep:
            from ..analysis.lockdep import LockOrderRecorder

            self.lockdep = LockOrderRecorder(
                self.tm.table, capture_stacks=False
            )
        # MVCC before the history recorder: the recorder snapshots
        # ``db.snapshot_manager`` at construction to decide whether to
        # track commit-epoch/version timelines for snapshot reads.
        self.snapshots = getattr(self.db, "snapshot_manager", None)
        self._owns_snapshots = False
        if mvcc and self.snapshots is None:
            from ..mvcc import SnapshotManager

            self.snapshots = SnapshotManager(
                self.db, max_versions=max_versions
            )
            self._owns_snapshots = True
        #: Set by :class:`repro.mvcc.replica.ReplicaServer`: the journal
        #: follower whose applied epoch / lag ``read_epoch`` advertises.
        self.replica = None
        self.history = None
        if record_history:
            from ..analysis.history import HistoryRecorder

            path = (None if record_history is True
                    else str(record_history))
            self.history = HistoryRecorder(self.db, path=path)
        self.journal = getattr(self.db, "journal", None)
        self.image_cache = None
        if self.journal is not None and image_cache_capacity > 0:
            from ..storage.serializer import ImageCache

            self.image_cache = ImageCache(capacity=image_cache_capacity)
        #: True once the journal has failed persistently: mutating ops
        #: are rejected with :class:`repro.errors.ReadOnlyError` instead
        #: of being applied in memory without durability (or crashing
        #: the server).  Reads keep being served.
        self.read_only = False
        #: Optional override for the rejection message (a read replica
        #: sets this — see :mod:`repro.mvcc.replica`).
        self.read_only_reason = None
        self.gate = None
        if self.journal is not None and self.journal.sync_policy == "group":
            self.gate = GroupCommitGate(
                self.journal, self._sessions, window=group_commit_window
            )

    # -- session hooks ----------------------------------------------------

    def _open_session(self, session_id, peer):
        return Session(self, session_id, peer)

    async def _close_session(self, session):
        session.close()

    def _request(self, session, op, args, raw):
        return dispatch(session, op, args)

    # -- transaction completion ------------------------------------------
    # The manager releases the transaction's locks even when the journal
    # fails; each queued request that release grants resumes its own
    # waiter (LockService.on_grant), so nothing here wakes anyone.

    def finish(self, txn, commit):
        try:
            if commit:
                if self.gate is None:
                    self.tm.commit(txn)
                else:
                    # The ack waits for the batch barrier's fsync
                    # (Session.durability_point): the seal skips the
                    # journal's group_size count.
                    with self.journal.synced_by_barrier():
                        self.tm.commit(txn)
                self.stats.commits += 1
            else:
                self.tm.abort(txn)
                self.stats.aborts += 1
        except StorageError:
            self._note_journal_failure()
            raise

    # -- 2PC: parked prepared transactions --------------------------------

    def park_prepared(self, session):
        """Keep a prepared transaction alive across its session's death.

        The transaction's locks stay held (strict 2PL over an in-doubt
        outcome) and a background poller watches the coordinator log for
        the decision; a reconnected router can also deliver it directly
        via the ``decide`` op.  Aborting here instead would break
        atomicity: the coordinator may have logged *commit* and crashed
        before telling us.
        """
        gtid = session.prepared_gtid
        txn, session.txn = session.txn, None
        session.prepared_gtid = None
        self.parked[gtid] = (txn, session.prepared_durable)
        session.prepared_durable = False
        if self.coord_log is not None and self._parked_task is None:
            try:
                loop = asyncio.get_running_loop()
            except RuntimeError:
                return
            self._parked_task = loop.create_task(self._parked_resolver())

    def decide_parked(self, gtid, commit):
        """Apply a 2PC decision to a parked transaction."""
        txn, durable = self.parked.pop(gtid)
        if durable and self.journal is not None:
            self.journal.resolve_prepared(gtid, commit)
        self.finish(txn, commit=commit)

    async def _parked_resolver(self):
        """Poll the coordinator log until every parked txn is decided."""
        from ..shard.twopc import CoordinatorLog

        log = CoordinatorLog(self.coord_log)
        try:
            while self.parked:
                decisions = log.load()
                for gtid in list(self.parked):
                    outcome = decisions.get(gtid)
                    if outcome is not None:
                        with contextlib.suppress(StorageError):
                            self.decide_parked(gtid, outcome == "commit")
                if self.parked:
                    await asyncio.sleep(0.05)
        finally:
            self._parked_task = None

    def _note_journal_failure(self):
        """Degrade to read-only when the journal is fail-stopped.

        The journal sets ``failed`` on the first unrecoverable IO error
        and rejects further writes, so any StorageError with that flag
        up means no future mutation can be made durable.  Rejecting
        mutations (dispatch checks ``read_only``) beats the two
        alternatives: crashing drops the readable in-memory state, and
        accepting writes silently diverges memory from disk.
        """
        if self.journal is not None and self.journal.failed:
            self.read_only = True

    async def durability_barrier(self):
        """Return once the calling commit's batch is durable.

        A no-op unless the journal runs the ``group`` policy (``always``
        and ``commit`` fsync inside :meth:`finish`; ``none`` never
        promises durability before close).
        """
        if self.gate is not None:
            try:
                await self.gate.wait()
            except StorageError:
                self._note_journal_failure()
                raise

    async def stop(self):
        """Graceful shutdown: stop accepting, abort and drop sessions.

        Parked prepared transactions are deliberately left undecided:
        their journal batches carry ``P`` markers, so the next recovery
        re-raises them as in-doubt and resolves them against the
        coordinator log — exactly the crash path, minus the crash.
        """
        if self._parked_task is not None:
            self._parked_task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await self._parked_task
            self._parked_task = None
        await super().stop()
        if self.history is not None:
            self.history.close()
        if self._owns_snapshots and self.snapshots is not None:
            # Detach the version-chain hooks so a database that outlives
            # this server stops paying the baseline-capture cost.
            self.snapshots.close()
            self.snapshots = None
            self._owns_snapshots = False

    # -- stats ------------------------------------------------------------

    def describe_stats(self, session=None):
        lock_stats = self.tm.table.stats
        server_row = self.stats.row()
        server_row["read_only"] = self.read_only
        if self.shard_info is not None:
            server_row["shard"] = {
                "shard_id": self.shard_info[0],
                "shards": self.shard_info[1],
                "parked": sorted(self.parked),
            }
        payload = {
            "server": server_row,
            "locks": {
                "requests": lock_stats.requests,
                "grants": lock_stats.grants,
                "blocks": lock_stats.blocks,
                "denials": lock_stats.denials,
                "covered": lock_stats.covered,
                "deadlocks_detected": self.locks.detector.detections,
            },
            "sessions": {
                str(other.session_id): other.stats.row()
                for other, _wire in self._sessions.values()
            },
        }
        if self.journal is not None:
            durability = self.journal.stats_row()
            if self.gate is not None:
                durability["group_commits"] = self.gate.commits
                durability["group_flushes"] = self.gate.flushes
                durability["group_window_s"] = self.gate.window
            payload["durability"] = durability
        if self.image_cache is not None:
            payload["image_cache"] = self.image_cache.stats_row()
        if self.lockdep is not None:
            payload["lockdep"] = self.lockdep.stats_row()
        if self.snapshots is not None:
            payload["mvcc"] = self.snapshots.stats_row()
        if self.replica is not None:
            payload["replica"] = self.replica.lag_row()
        if self.history is not None:
            payload["history"] = self.history.stats_row()
        if session is not None:
            payload["session"] = session.stats.row()
        return payload


# ---------------------------------------------------------------------------
# Threaded harness (tests, examples, benchmarks, embedding)
# ---------------------------------------------------------------------------


#: Seconds :meth:`ServerThread.stop` waits for the server thread to end.
_STOP_JOIN_S = 10.0


class ServerThread:
    """Run a wire frontend on a dedicated event-loop thread.

    Lets synchronous code (tests, the benchmark driver, examples) stand up
    a real TCP server without owning an event loop::

        with ServerThread(database=db) as handle:
            client = Client(port=handle.port)

    The frontend is a :class:`ReproServer` over *database* built from
    *server_kwargs*, or any ready-made :class:`WireServer` passed as
    *server* (a replica, a router).  The thread runs it through
    :meth:`WireServer.run`, so :meth:`stop` is a cancellation; a
    frontend that fails to boot (a taken port, say) raises its error
    from :meth:`start`.

    ``submit`` schedules a coroutine or plain callable onto the server's
    loop — the supported way to touch server state from other threads.
    A :meth:`stop` whose thread outlives its timeout raises
    :class:`TimeoutError` and keeps the handle, so it can be stopped
    again; the thread closes its own loop whenever it ends.
    """

    def __init__(self, database=None, server=None, **server_kwargs):
        if server is None:
            server = ReproServer(database=database, **server_kwargs)
        self.server = server
        self._loop = None
        self._task = None
        self._thread = None
        self._booted = threading.Event()
        self._error = None

    @property
    def port(self):
        return self.server.port

    @property
    def db(self):
        return self.server.db

    def start(self):
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        if not self._booted.wait(timeout=10.0):
            raise RuntimeError("server thread did not start within 10 s")
        if self._error is not None:
            self._thread.join()
            raise self._error
        return self

    def _run(self):
        loop = self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        task = self._task = loop.create_task(
            self.server.run(lambda _server: self._booted.set())
        )
        try:
            loop.run_until_complete(task)
        except asyncio.CancelledError:
            pass  # stop() cancelled it
        except BaseException as error:
            if self._booted.is_set():
                raise
            self._error = error  # start() raises it
        finally:
            self._booted.set()
            loop.close()

    def submit(self, work):
        """Run *work* (coroutine or callable) on the server loop; block."""
        if not asyncio.iscoroutine(work):
            work = _call(work)
        future = asyncio.run_coroutine_threadsafe(work, self._loop)
        return future.result(timeout=30.0)

    def stop(self):
        """Cancel the frontend and wait up to :data:`_STOP_JOIN_S` seconds
        for its thread; raise :class:`TimeoutError` (the handle intact) if
        it is still running then."""
        if self._thread is not None:
            with contextlib.suppress(RuntimeError):  # loop already closed
                self._loop.call_soon_threadsafe(self._task.cancel)
            self._thread.join(timeout=_STOP_JOIN_S)
            if self._thread.is_alive():
                raise TimeoutError(
                    f"server thread still running {_STOP_JOIN_S} s after stop"
                )
        self._loop = self._task = self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()


async def _call(fn):
    return fn()
