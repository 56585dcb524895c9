"""The scopes a served request runs inside, on every exit path.

Four scopes bracket each served request and each committed operation:

* ``Session.txn_scope`` -- the request's transaction (the session's
  explicit one, or an autocommit one of its own);
* ``Database._operation`` -- one atomic operation (replay on failure);
* ``Journal._io_guard`` -- an IO failure becomes a fail-stop
  ``StorageError``;
* ``Journal.synced_by_barrier`` -- a server commit seals off the
  ``group_size`` count.

Each is checked here on a normal exit, an ``Exception``, a
``DeadlockError`` and a ``BaseException`` (``CancelledError``,
``KeyboardInterrupt``).  Then a guard: serving requests through
``_serve_batch`` builds no generator context manager and first-iterates
no async generator, and a scripted two-session conflict and deadlock
count lock requests, blocks, waits and lock-order edges exactly as
pinned below.
"""

from __future__ import annotations

import asyncio
import contextlib
import sys

import pytest

from repro import Database
from repro.errors import DeadlockError, StorageError, TransactionStateError
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
# Session.txn_scope
# ---------------------------------------------------------------------------

#: What each outcome raises out of the request body.
RAISED = {
    "return": None,
    "protocol": ProtocolError,
    "deadlock": DeadlockError,
    "cancelled": asyncio.CancelledError,
}

#: (scope, outcome) -> txn state, held lock resources, the session still
#: holds the txn, session (commits, aborts, deadlock_aborts), server
#: (commits, aborts, deadlock_aborts), sync_pending, the stamp afterwards.
#: A cancelled request aborts its autocommit transaction; an explicit one
#: stays with the session (its disconnect aborts it).
EXPECTED = {
    ("auto", "return"):
        ("committed", 0, False, (1, 0, 0), (1, 0, 0), True, 7),
    ("auto", "protocol"):
        ("aborted", 0, False, (0, 1, 0), (0, 1, 0), False, 0),
    ("auto", "deadlock"):
        ("aborted", 0, False, (0, 1, 1), (0, 1, 1), False, 0),
    ("auto", "cancelled"):
        ("aborted", 0, False, (0, 1, 0), (0, 1, 0), False, 0),
    ("explicit", "return"):
        ("active", 2, True, (0, 0, 0), (0, 0, 0), False, 7),
    ("explicit", "protocol"):
        ("active", 2, True, (0, 0, 0), (0, 0, 0), False, 7),
    ("explicit", "deadlock"):
        ("aborted", 0, False, (0, 1, 1), (0, 1, 1), False, 0),
    ("explicit", "cancelled"):
        ("active", 2, True, (0, 0, 0), (0, 0, 0), False, 7),
}


@pytest.fixture
def served(tmp_path):
    """A group-committing server over one MixRoot, and one session."""
    db = DurableDatabase(tmp_path, sync_policy="group")
    (root,), _ = memory_fixture(db, roots=1, parts_per_root=1)
    server = ReproServer(db, mvcc=False)
    session = server._open_session(1, None)
    yield server, session, root
    session.close()
    db.close()


@pytest.mark.parametrize("outcome", list(RAISED))
@pytest.mark.parametrize("scope", ["auto", "explicit"])
def test_request_scope_exit_paths(served, scope, outcome):
    server, session, root = served
    if scope == "explicit":
        session.begin()
    seen = []

    async def request():
        async with session.txn_scope() as txn:
            seen.append(txn)
            await session.lock_instance(txn, root, "write")
            server.tm.write(txn, root, STAMP, 7)
            if RAISED[outcome] is not None:
                raise RAISED[outcome]("raised by the request body")
            return True

    async def serve():
        # Inside a pipelined batch: a commit marks its ack sync_pending.
        session.defer_sync = True
        session.sync_pending = False
        try:
            return await request()
        finally:
            session.defer_sync = False

    if RAISED[outcome] is None:
        assert asyncio.run(serve()) is True
    else:
        with pytest.raises(RAISED[outcome]):
            asyncio.run(serve())

    (txn,) = seen
    counters = ("commits", "aborts", "deadlock_aborts")
    observed = (
        txn.state.value,
        len(server.tm.table.held_resources(txn)),
        session.txn is txn,
        tuple(getattr(session.stats, name) for name in counters),
        tuple(getattr(server.stats, name) for name in counters),
        session.sync_pending,
        server.db.value(root, STAMP),
    )
    assert observed == EXPECTED[scope, outcome]


def test_request_cancelled_in_its_lock_wait_aborts_and_withdraws(served):
    server, holder, root = served
    waiter = server._open_session(2, None)
    holder.begin()
    seen = []

    async def request():
        async with waiter.txn_scope() as txn:
            seen.append(txn)
            await waiter.lock_instance(txn, root, "write")

    async def scenario():
        await holder.lock_instance(holder.txn, root, "write")
        task = asyncio.ensure_future(request())
        while not server.tm.table.wait_for_edges():
            await asyncio.sleep(0)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

    asyncio.run(scenario())
    (txn,) = seen
    assert txn.state is TxnState.ABORTED
    assert server.tm.table.held_resources(txn) == []
    assert server.tm.table.wait_for_edges() == []
    assert (waiter.stats.aborts, server.stats.aborts) == (1, 1)
    waiter.close()


def test_request_scope_refuses_a_prepared_or_finished_txn(served):
    server, session, root = served

    async def request():
        async with session.txn_scope():
            raise AssertionError("the body must not run")

    session.begin()
    session.prepared_gtid = "g1"
    with pytest.raises(TransactionStateError, match="prepared for 2PC"):
        asyncio.run(request())
    session.prepared_gtid = None
    session.txn.state = TxnState.ABORTED
    with pytest.raises(TransactionStateError, match="abort it first"):
        asyncio.run(request())
    assert (session.stats.commits, session.stats.aborts) == (0, 0)


def test_request_scope_stamps_the_acquisition_site(served):
    server, session, root = served
    session.op = "set_value"

    async def request():
        async with session.txn_scope() as txn:
            return txn

    txn = asyncio.run(request())
    assert txn.site == ("set_value", "session 1")


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
            session.defer_sync = True
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
            session.defer_sync = False
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


#: LockTable.stats, ServerStats.lock_waits and lockdep's stats_row() after
#: the scripted conflicts below.  Each of the three waits costs one
#: request: the grant that promotes it resumes the waiter, which does not
#: ask the table again.
PINNED_LOCKS = {
    "requests": 12, "grants": 11, "blocks": 3, "denials": 0,
    "releases": 9, "covered": 5,
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
