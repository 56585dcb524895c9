"""The scopes a served request runs inside, on every exit path.

Four scopes bracket each served request and each committed operation:

* ``Session.run`` -- one data op: a single step outside an explicit
  transaction (at once when its lock plan is free, else once a bare lock
  owner holds the plan), or a step of the session's explicit one;
* ``Database._operation`` -- one atomic operation (replay on failure);
* ``Journal._io_guard`` -- an IO failure becomes a fail-stop
  ``StorageError``;
* ``Journal.synced_by_barrier`` -- a server commit seals off the
  ``group_size`` count.

Each is checked here on a normal exit, an ``Exception``, a
``DeadlockError`` and a ``BaseException`` (``CancelledError``,
``KeyboardInterrupt``).  Then the served path: serving requests through
``_serve_batch`` builds no generator context manager and first-iterates
no async generator, a single request's ack waits for the same batch
barrier as a pipelined one, and a scripted two-session conflict and
deadlock count lock requests, blocks, waits and lock-order edges exactly
as pinned below.
"""

from __future__ import annotations

import asyncio
import contextlib
import sys

import pytest

from repro import Database
from repro.errors import DeadlockError, StorageError, TransactionStateError
from repro.faults import fault_scope
from repro.schema.attribute import AttributeSpec
from repro.server.protocol import (
    ProtocolError,
    decode_payload,
    encode_request_bytes,
)
from repro.server.server import ReproServer
from repro.storage.durable import DurableDatabase
from repro.txn.transaction import Transaction, TxnState
from repro.workloads.txmix import STAMP_ATTRIBUTE as STAMP, memory_fixture

pytestmark = pytest.mark.usefixtures("owns_nothing")

# ---------------------------------------------------------------------------
# Session.run
# ---------------------------------------------------------------------------

#: What each outcome raises out of the request body.
RAISED = {
    "return": None,
    "protocol": ProtocolError,
    "deadlock": DeadlockError,
    "cancelled": asyncio.CancelledError,
}

#: (row, outcome) -> the session's txn state afterwards (None: it has
#: none), locks still granted, Transactions created by the request,
#: session (commits, aborts, deadlock_aborts), server (commits, aborts,
#: deadlock_aborts, unlocked_writes), sync_pending, the stamp afterwards,
#: and the history key the write recorded under (None: no write).  Rows:
#: ``auto`` -- no explicit transaction, a free plan; ``waited`` -- no
#: explicit transaction, a plan that is not free; ``explicit``.  The body
#: raises before it writes, as a refusal is decided before an op changes
#: anything (or inside the op's own bracket).  A one-step request ends
#: owning nothing on every path; a cancelled request leaves an explicit
#: transaction with the session (its disconnect aborts it).
EXPECTED = {
    ("auto", "return"):
        (None, 0, 0, (1, 0, 0), (1, 0, 0, 1), True, 7, "b"),
    ("auto", "protocol"):
        (None, 0, 0, (0, 1, 0), (0, 1, 0, 0), False, 0, None),
    ("auto", "deadlock"):
        (None, 0, 0, (0, 1, 1), (0, 1, 1, 0), False, 0, None),
    ("auto", "cancelled"):
        (None, 0, 0, (0, 1, 0), (0, 1, 0, 0), False, 0, None),
    ("waited", "return"):
        (None, 0, 1, (1, 0, 0), (1, 0, 0, 0), True, 7, "b"),
    ("waited", "protocol"):
        (None, 0, 1, (0, 1, 0), (0, 1, 0, 0), False, 0, None),
    ("waited", "deadlock"):
        (None, 0, 1, (0, 1, 1), (0, 1, 1, 0), False, 0, None),
    ("waited", "cancelled"):
        (None, 0, 1, (0, 1, 0), (0, 1, 0, 0), False, 0, None),
    ("explicit", "return"):
        ("active", 2, 0, (0, 0, 0), (0, 0, 0, 0), False, 7, "t"),
    ("explicit", "protocol"):
        ("active", 2, 0, (0, 0, 0), (0, 0, 0, 0), False, 0, None),
    ("explicit", "deadlock"):
        (None, 0, 0, (0, 1, 1), (0, 1, 1, 0), False, 0, None),
    ("explicit", "cancelled"):
        ("active", 2, 0, (0, 0, 0), (0, 0, 0, 0), False, 0, None),
}


@pytest.fixture
def served(tmp_path):
    """A group-committing, history-recording server over one MixRoot,
    and one session."""
    db = DurableDatabase(tmp_path, sync_policy="group")
    (root,), _ = memory_fixture(db, roots=1, parts_per_root=1)
    server = ReproServer(db, mvcc=False, record_history=True)
    session = server._open_session(1, None)
    yield server, session, root
    session.close()
    server.history.close()
    db.close()


def _not_free(server, monkeypatch):
    """Make every plan wait for a lock owner (nothing holds a lock, so
    the owner is granted at once)."""
    monkeypatch.setattr(server.tm.protocol, "free", lambda *args: False)


@pytest.mark.parametrize("outcome", list(RAISED))
@pytest.mark.parametrize("scope", ["auto", "waited", "explicit"])
def test_request_scope_exit_paths(served, monkeypatch, scope, outcome):
    server, session, root = served
    if scope == "explicit":
        session.begin()
    elif scope == "waited":
        _not_free(server, monkeypatch)

    def body(session, tm, txn, args):
        if RAISED[outcome] is not None:
            raise RAISED[outcome]("raised by the request body")
        tm.write(txn, root, STAMP, 7)
        return True

    next_txn = Transaction._next_id
    session.sync_pending = False
    run = session.run(body, {}, (root,), "write")
    if RAISED[outcome] is None:
        assert asyncio.run(run) is True
    else:
        with pytest.raises(RAISED[outcome]):
            asyncio.run(run)

    writes = {event.txn[0] for event in server.history.history
              if event.kind == "write"}
    counters = ("commits", "aborts", "deadlock_aborts")
    observed = (
        session.txn.state.value if session.txn is not None else None,
        server.tm.table.lock_count(),
        Transaction._next_id - next_txn,
        tuple(getattr(session.stats, name) for name in counters),
        tuple(getattr(server.stats, name)
              for name in (*counters, "unlocked_writes")),
        session.sync_pending,
        server.db.value(root, STAMP),
        writes.pop() if writes else None,
    )
    assert not writes
    assert observed == EXPECTED[scope, outcome]


def test_request_cancelled_in_its_lock_wait_aborts_and_withdraws(served):
    server, holder, root = served
    waiter = server._open_session(2, None)
    table = server.tm.table
    holder.begin()
    owners = []

    def body(session, tm, txn, args):
        raise AssertionError("the body must not run")

    async def scenario():
        await holder._lock(holder.txn, root, "write", False)
        task = asyncio.ensure_future(waiter.run(body, {}, (root,), "write"))
        while not table.wait_for_edges():
            await asyncio.sleep(0)
        owners.extend(server.locks._waiters)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

    asyncio.run(scenario())
    (owner,) = owners
    assert owner is not holder.txn and owner.state is TxnState.ACTIVE
    assert table.held_resources(owner) == []
    assert not table._waiting
    assert table.wait_for_edges() == []
    assert (waiter.stats.aborts, server.stats.aborts) == (1, 1)
    assert server.stats.commits == 0
    waiter.close()


def test_request_scope_refuses_a_prepared_or_finished_txn(served):
    server, session, root = served

    def body(session, tm, txn, args):
        raise AssertionError("the body must not run")

    def request():
        return asyncio.run(session.run(body, {}, (root,), "write"))

    session.begin()
    session.prepared_gtid = "g1"
    with pytest.raises(TransactionStateError, match="prepared for 2PC"):
        request()
    session.prepared_gtid = None
    session.txn.state = TxnState.ABORTED
    with pytest.raises(TransactionStateError, match="abort it first"):
        request()
    assert (session.stats.commits, session.stats.aborts) == (0, 0)
    assert server.tm.table.lock_count() == 0


def test_request_scope_stamps_the_acquisition_site(served):
    server, session, root = served
    session.op = "set_value"
    owners = []

    async def lock(session, txn, args):
        owners.append(txn)

    def request():
        asyncio.run(session.run(lambda *args: True, {}, (root,), "write",
                                lock=lock))

    request()  # one step, through a bare lock owner
    session.begin()
    request()
    owner, txn = owners
    assert owner is not txn and txn is session.txn
    assert owner.site == txn.site == ("set_value", "session 1")


# ---------------------------------------------------------------------------
# Database._operation
# ---------------------------------------------------------------------------


@pytest.fixture
def plain_db():
    db = Database()
    db.make_class("Part", attributes=[AttributeSpec("A", domain="integer")])
    uid = db.make("Part", values={"A": 0})
    ends = []
    db.on_op_end.append(lambda: ends.append(db.value(uid, "A")))
    return db, uid, ends


def test_nested_operation_replays_on_keyboard_interrupt(plain_db):
    db, uid, ends = plain_db
    with pytest.raises(KeyboardInterrupt):
        with db._operation():
            db.set_value(uid, "A", 1)
            with db._operation():
                db.set_value(uid, "A", 2)
                raise KeyboardInterrupt
    assert db.value(uid, "A") == 0
    # on_op_end runs once, when the outermost bracket exits, on failure
    # too: after the replay.
    assert ends == [0]
    assert db._op_depth == 0
    assert db._undo == []


def test_failed_inner_operation_keeps_the_outer_edits(plain_db):
    db, uid, ends = plain_db
    txn = Transaction()
    with db.txn_context(txn):
        with db._operation():
            db.set_value(uid, "A", 1)
            with contextlib.suppress(ValueError):
                with db._operation():
                    db.set_value(uid, "A", 2)
                    raise ValueError("inner refusal")
            assert db.value(uid, "A") == 1
            assert ends == []
    assert db.value(uid, "A") == 1
    assert ends == [1]
    # The outer edit's inverse moved to the transaction; none is left.
    assert len(txn.undo_log) == 1
    assert db._undo == []
    db.rollback(txn.undo_log)
    assert db.value(uid, "A") == 0


def test_operation_replay_error_still_ends_the_operation(plain_db):
    db, uid, ends = plain_db
    with pytest.raises(RuntimeError, match="body"):
        with db._operation():
            db.set_value(uid, "A", 5)
            raise RuntimeError("body")
    assert db.value(uid, "A") == 0
    assert ends == [0]
    assert db._op_depth == 0


# ---------------------------------------------------------------------------
# Journal._io_guard and Journal.synced_by_barrier
# ---------------------------------------------------------------------------


@pytest.fixture
def journal(tmp_path):
    db = DurableDatabase(tmp_path, sync_policy="group")
    yield db.journal
    db.journal.failed = False
    db.close()


def test_io_guard_turns_os_error_into_fail_stop_storage_error(journal):
    with journal._io_guard("sync"):
        pass
    with pytest.raises(ValueError):
        with journal._io_guard("sync"):
            raise ValueError("not an IO error")
    assert not journal.failed
    cause = OSError(5, "injected")
    with pytest.raises(StorageError) as info:
        with journal._io_guard("seal a transaction batch"):
            raise cause
    assert journal.failed
    assert info.value.__cause__ is cause
    assert str(info.value).startswith(
        "journal IO failed while trying to seal a transaction batch at "
    )
    assert str(info.value).endswith(f": {cause}")


def test_synced_by_barrier_restores_the_flag(journal):
    assert not journal._barrier_owned
    with journal.synced_by_barrier():
        assert journal._barrier_owned
    assert not journal._barrier_owned
    with pytest.raises(StorageError):
        with journal.synced_by_barrier():
            assert journal._barrier_owned
            raise StorageError("refused commit")
    assert not journal._barrier_owned
    with pytest.raises(asyncio.CancelledError):
        with journal.synced_by_barrier():
            raise asyncio.CancelledError
    assert not journal._barrier_owned


# ---------------------------------------------------------------------------
# The served path: no generator scaffolding, the same lock counts
# ---------------------------------------------------------------------------


def _frame(request_id, op, args):
    return encode_request_bytes(2, request_id, op, args)[4:]


async def _serve(server, session, requests, start=0):
    batch = [_frame(start + n, op, args)
             for n, (op, args) in enumerate(requests)]
    replies = []
    for data, _sync, _rid in await server._serve_batch(session, batch):
        frame = decode_payload(2, data[4:])
        replies.append(frame["result"] if frame["ok"] else frame["error"])
    return replies


@contextlib.contextmanager
def _counting_scaffolding():
    """Count generator context managers built and async generators
    first-iterated while the block runs (the hooks are the running
    loop's, so enter this inside it)."""
    counts = {"gcm": 0, "asyncgen": 0}
    patched = []
    for cls in (contextlib._GeneratorContextManager,
                contextlib._AsyncGeneratorContextManager):
        original = cls.__init__

        def init(self, *args, _original=original, **kwargs):
            counts["gcm"] += 1
            _original(self, *args, **kwargs)

        cls.__init__ = init
        patched.append((cls, original))
    hooks = sys.get_asyncgen_hooks()

    def firstiter(agen):
        counts["asyncgen"] += 1
        if hooks.firstiter is not None:
            hooks.firstiter(agen)

    sys.set_asyncgen_hooks(firstiter=firstiter, finalizer=hooks.finalizer)
    try:
        yield counts
    finally:
        sys.set_asyncgen_hooks(*hooks)
        for cls, original in patched:
            cls.__init__ = original


def test_served_requests_build_no_generator_scaffolding(tmp_path):
    from repro.authorization.engine import AuthorizationEngine

    db = DurableDatabase(tmp_path, sync_policy="group")
    memory_fixture(db, roots=0)
    auth = AuthorizationEngine(db)
    auth.grant("designer", "sW", on_class="MixRoot")
    server = ReproServer(db, auth=auth, group_commit_window=0.0)
    session = server._open_session(1, None)

    async def run():
        await _serve(server, session, [("login", {"user": "designer"})])
        with _counting_scaffolding() as counts:
            # Pipelined: the durable_ingest shape, batches of 16.
            roots = await _serve(server, session, [
                ("make", {"class_name": "MixRoot", "values": {STAMP: n}})
                for n in range(16)
            ], start=1)
            await _serve(server, session, [
                ("set_value", {"uid": uid, "attribute": STAMP, "value": -n})
                for n, uid in enumerate(roots)
            ], start=17)
            await _serve(server, session, [
                ("resolve", {"uid": uid}) for uid in roots
            ], start=33)
            # Depth 1, autocommit and explicit.
            await _serve(server, session, [("value", {
                "uid": roots[0], "attribute": STAMP})], start=49)
            for n, (op, args) in enumerate([
                    ("begin", {}),
                    ("set_value", {"uid": roots[1], "attribute": STAMP,
                                   "value": 1}),
                    ("resolve", {"uid": roots[1]}),
                    ("commit", {})]):
                await _serve(server, session, [(op, args)], start=50 + n)
        return counts, roots

    try:
        counts, roots = asyncio.run(run())
        assert counts == {"gcm": 0, "asyncgen": 0}
        assert server.stats.commits == 16 * 3 + 2
        assert db.value(roots[1], STAMP) == 1
    finally:
        session.close()
        db.close()


@pytest.mark.parametrize("scope", ["auto", "explicit"])
def test_a_single_request_barrier_failure_replies_the_storage_error(
        tmp_path, scope):
    """A batch of one acks after the batch barrier too: when its group
    fsync fails, the auto-commit write or the commit replies with the
    typed StorageError, never an ack, and the server turns read-only."""
    db = DurableDatabase(tmp_path, sync_policy="group")
    (root,), _ = memory_fixture(db, roots=1, parts_per_root=0)
    server = ReproServer(db, mvcc=False)
    session = server._open_session(1, None)
    write = ("set_value", {"uid": root, "attribute": STAMP, "value": 7})

    async def run():
        last = write
        if scope == "explicit":
            assert await _serve(server, session, [("begin", {})]) != []
            assert await _serve(server, session, [write], start=1) == [True]
            last = ("commit", {})
        with fault_scope() as faults:
            faults.add("journal.fsync", "error", count=None)
            return await _serve(server, session, [last], start=2)

    try:
        (reply,) = asyncio.run(run())
        assert reply["code"] == StorageError.code
        assert server.read_only
        assert (session.stats.errors, server.stats.errors) == (1, 1)
    finally:
        session.close()
        db.journal.abandon()


#: LockTable.stats, ServerStats.lock_waits and lockdep's stats_row() after
#: the scripted conflicts below.  Each of the three waits costs one
#: request: the grant that promotes it resumes the waiter, which does not
#: ask the table again.  ``covered`` counts the explicit writes' manager
#: calls; the waiting auto-commit writer runs in one step, which asks
#: nothing.
PINNED_LOCKS = {
    "requests": 12, "grants": 11, "blocks": 3, "denials": 0,
    "releases": 9, "covered": 4,
}
PINNED_LOCK_WAITS = 3
PINNED_LOCKDEP = {
    "transactions_recorded": 4, "open_traces": 0, "order_edges": 3,
}


def test_scripted_conflicts_count_as_pinned():
    db = Database()
    (r1, r2), _ = memory_fixture(db, roots=2, parts_per_root=0)
    server = ReproServer(db, mvcc=False)
    a = server._open_session(1, None)
    b = server._open_session(2, None)
    table = server.tm.table

    def write(uid, value):
        return ("set_value", {"uid": uid, "attribute": STAMP,
                              "value": value})

    async def blocked(session, request, start):
        waiting = table.stats.blocks
        task = asyncio.create_task(_serve(server, session, [request],
                                          start))
        for _ in range(400):
            if table.stats.blocks > waiting or task.done():
                break
            await asyncio.sleep(0.005)
        return task

    async def run():
        # A deadlock: A waits on B, then B on A; B (younger) is the victim.
        await _serve(server, a, [("begin", {}), write(r1, 1)], 1)
        await _serve(server, b, [("begin", {}), write(r2, 2)], 1)
        a_waits = await blocked(a, write(r2, 3), 3)
        b_reply = await (await blocked(b, write(r1, 4), 3))
        assert b_reply[0]["code"] == "DEADLOCK"
        assert await a_waits == [True]
        assert (await _serve(server, a, [("commit", {})], 4))[0]["txn"]
        # A plain conflict: an autocommit writer waits for A's commit.
        await _serve(server, a, [("begin", {}), write(r1, 5)], 5)
        b_waits = await blocked(b, write(r1, 6), 4)
        assert not b_waits.done()
        await _serve(server, a, [("commit", {})], 7)
        assert await b_waits == [True]

    try:
        asyncio.run(run())
        assert db.value(r1, STAMP) == 6 and db.value(r2, STAMP) == 3
        assert vars(table.stats) == PINNED_LOCKS
        assert server.stats.lock_waits == PINNED_LOCK_WAITS
        assert server.stats.deadlock_aborts == 1
        assert server.lockdep.stats_row() == PINNED_LOCKDEP
    finally:
        a.close()
        b.close()
