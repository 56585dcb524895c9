"""Auto-commit reads answered without a transaction.

A request with no explicit transaction whose Section 7 read plan would be
granted right now runs unlocked (``Session.run``): no ``Transaction``, no
lock-table request, no commit.  A plan that is not free -- a writer holds
X, or a queued request conflicts -- takes the locked path and waits.  The
last test is the differential: random two-session scripts give the same
replies, counters, final state and fsck whether the unlocked step runs or
``CompositeLockingProtocol.free`` is patched to refuse it.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.core.identity import UID
from repro.locking.protocol import CompositeLockingProtocol
from repro.server.protocol import decode_payload, encode_request_bytes
from repro.server.server import ReproServer
from repro.txn.transaction import Transaction
from repro.workloads.txmix import STAMP_ATTRIBUTE as STAMP, memory_fixture

pytestmark = pytest.mark.usefixtures("owns_nothing")

#: The read ops behind the one wrapper, with their arguments.
READS = {
    "resolve": lambda uid: {"uid": uid},
    "value": lambda uid: {"uid": uid, "attribute": STAMP},
    "components_of": lambda uid: {"uid": uid},
    "children_of": lambda uid: {"uid": uid},
    "parents_of": lambda uid: {"uid": uid},
}


def _frame(request_id, op, args):
    return encode_request_bytes(2, request_id, op, args)[4:]


async def _serve(server, session, requests):
    """Serve *requests* as one batch: ``[(reply, needs_sync)]``."""
    batch = [_frame(n, op, args) for n, (op, args) in enumerate(requests)]
    replies = []
    for data, sync, _rid in await server._serve_batch(session, batch):
        frame = decode_payload(2, data[4:])
        replies.append(
            (frame["result"] if frame["ok"] else frame["error"], sync)
        )
    return replies


async def _settle():
    """Let every runnable task on the loop run until it waits."""
    for _ in range(50):
        await asyncio.sleep(0)


def _setup(**server_kwargs):
    db = Database()
    roots, components = memory_fixture(db, roots=2, parts_per_root=2)
    server = ReproServer(db, mvcc=False, **server_kwargs)
    sessions = [server._open_session(n, None) for n in (1, 2, 3)]
    return db, server, sessions, roots, components


def _write(uid, value):
    return ("set_value", {"uid": uid, "attribute": STAMP, "value": value})


class TestFreeRead:
    def test_a_free_read_takes_no_transaction_and_no_lock(self):
        db, server, (a, *_), roots, components = _setup()
        table = server.tm.table
        root = roots[0]
        part = components[root][0]

        async def run():
            a.defer_sync = True  # inside a pipelined batch
            targets = {"parents_of": part}
            requests = [(op, args(targets.get(op, root)))
                        for op, args in READS.items()]
            return await _serve(server, a, requests)

        requests, next_txn = table.stats.requests, Transaction._next_id
        replies = asyncio.run(run())
        assert table.stats.requests == requests
        assert Transaction._next_id == next_txn
        assert table.lock_count() == 0
        assert all(sync for _reply, sync in replies)
        assert replies[1][0] == 0
        assert len(replies[2][0]) == 2
        assert server.stats.unlocked_reads == len(READS)
        assert server.stats.commits == a.stats.commits == len(READS)
        assert "unlocked_reads" in server.describe_stats()["server"]

    def test_a_missing_uid_is_refused_as_the_autocommit_scope_refused_it(self):
        db, server, (a, *_), roots, _components = _setup()
        missing = UID(10**6, "MixRoot")
        replies = asyncio.run(_serve(server, a, [("resolve", {"uid": missing})]))
        assert replies[0][0]["code"] == "UNKNOWN_OBJECT"
        assert (a.stats.commits, a.stats.aborts) == (0, 1)
        assert server.stats.aborts == 1
        assert server.stats.unlocked_reads == 0


class TestLockedReads:
    @pytest.mark.parametrize("outcome, expected", [("commit", 5), ("abort", 0)])
    def test_a_read_of_an_x_held_object_waits_for_the_writer(
            self, outcome, expected):
        db, server, (a, b, _c), roots, _ = _setup()

        async def run():
            await _serve(server, a, [("begin", {}), _write(roots[0], 5)])
            reader = asyncio.create_task(_serve(
                server, b, [("value", READS["value"](roots[0]))]))
            await _settle()
            assert not reader.done()
            assert server.stats.lock_waits == 1
            await _serve(server, a, [(outcome, {})])
            return await reader

        assert asyncio.run(run())[0][0] == expected
        assert b.stats.lock_waits == 1
        assert server.stats.unlocked_reads == 0
        assert server.tm.table.lock_count() == 0

    def test_a_read_behind_a_queued_writer_does_not_barge(self):
        db, server, (a, b, c), roots, _ = _setup()
        table = server.tm.table

        async def run():
            # A holds S; B's autocommit write queues for X behind it.
            await _serve(server, a, [("begin", {}),
                                     ("resolve", {"uid": roots[0]})])
            writer = asyncio.create_task(_serve(server, b, [_write(roots[0], 9)]))
            await _settle()
            assert not writer.done()
            # S is compatible with A's S, but not with B's queued X.
            reader = asyncio.create_task(_serve(
                server, c, [("value", READS["value"](roots[0]))]))
            await _settle()
            assert not reader.done()
            assert table.stats.blocks == 2
            await _serve(server, a, [("commit", {})])
            return await writer, await reader

        written, read = asyncio.run(run())
        assert written[0][0] is True
        assert read[0][0] == 9
        assert server.stats.unlocked_reads == 0

    @pytest.mark.parametrize("outcome, count", [("commit", 1), ("abort", 2)])
    def test_components_of_waits_behind_a_composite_write(self, outcome, count):
        db, server, (a, b, _c), roots, components = _setup()
        part = components[roots[0]][0]

        async def run():
            # Deleting a part takes the composite write plan on it: IX on
            # MixPart, which the reader's ISO conflicts with.
            await _serve(server, a, [("begin", {}),
                                     ("delete", {"uid": part})])
            reader = asyncio.create_task(_serve(
                server, b, [("components_of", {"uid": roots[0]})]))
            await _settle()
            assert not reader.done()
            await _serve(server, a, [(outcome, {})])
            return await reader

        assert len(asyncio.run(run())[0][0]) == count
        assert b.stats.lock_waits == 1
        assert server.stats.unlocked_reads == 0


def _resolve_into(client, uid, seen):
    """Append what *client*'s resolve of *uid* answers to *seen*."""
    from repro.errors import UnknownObjectError

    try:
        seen.append(client.resolve(uid)["values"][STAMP])
    except UnknownObjectError as error:
        seen.append(error)


class TestMakeLocksTheNewObject:
    def test_a_read_of_an_uncommitted_make_waits_for_its_creator(self):
        import threading

        from repro.errors import UnknownObjectError
        from repro.server import Client, ServerThread
        from repro.workloads.txmix import tcp_fixture

        with ServerThread(lock_wait_timeout=10.0) as handle, \
                Client(port=handle.port, timeout=20.0) as creator, \
                Client(port=handle.port, timeout=20.0) as reader:
            tcp_fixture(creator, roots=1, parts_per_root=0)
            for outcome in ("commit", "abort"):
                creator.begin()
                made = creator.make("MixRoot", values={STAMP: 7})
                seen = []
                thread = threading.Thread(target=_resolve_into,
                                          args=(reader, made, seen))
                thread.start()
                thread.join(timeout=0.4)
                assert thread.is_alive() and not seen  # it waits
                getattr(creator, outcome)()
                thread.join(timeout=10.0)
                assert not thread.is_alive()
                if outcome == "commit":
                    assert seen == [7]
                else:
                    assert isinstance(seen[0], UnknownObjectError)
            assert reader.stats()["session"]["lock_waits"] == 2


# ---------------------------------------------------------------------------
# Differential: the unlocked step changes no reply, counter or state
# ---------------------------------------------------------------------------

_TARGETS = 6  # 2 roots and their 4 parts


def _step():
    target = st.integers(0, _TARGETS - 1)
    return st.one_of(
        st.just(("begin",)),
        st.just(("commit",)),
        st.just(("abort",)),
        st.tuples(st.just("set_value"), target, st.integers(1, 99)),
        st.tuples(st.sampled_from(sorted(READS)), target),
    )


def _request(step, uids):
    op = step[0]
    if op in ("begin", "commit", "abort"):
        return op, {}
    if op == "set_value":
        return _write(uids[step[1]], step[2])
    return op, READS[op](uids[step[1]])


def _normal(reply):
    """A reply without transaction ids (fewer transactions are built when
    reads run unlocked): errors by code, txn ops by their outcome."""
    if isinstance(reply, dict) and "code" in reply:
        return ("error", reply["code"])
    if isinstance(reply, dict) and "txn" in reply:
        return "txn"
    return reply


def _run_script(turns, scripts):
    db, server, sessions, roots, components = _setup(lock_wait_timeout=5.0)
    uids = [uid for root in roots for uid in (root, *components[root])]
    sessions = sessions[:2]
    replies = [[], []]

    async def run():
        queues = [[_request(step, uids) for step in script]
                  for script in scripts]
        # Each session finishes whatever it left open.
        for queue in queues:
            queue.append(("commit", {}))
        tasks = [None, None]

        def launch(index):
            task = tasks[index]
            if task is not None and not task.done():
                return  # blocked: its turn passes
            if task is not None:
                replies[index].append(_normal(task.result()[0][0]))
                tasks[index] = None
            if queues[index]:
                request = queues[index].pop(0)
                tasks[index] = asyncio.create_task(
                    _serve(server, sessions[index], [request]))

        for turn in turns:
            launch(turn)
            await _settle()
        for _ in range(400):
            for index in (0, 1):
                launch(index)
            await _settle()
            if not any(queues) and tasks == [None, None]:
                break
            await asyncio.sleep(0.001)
        assert not any(queues) and tasks == [None, None]

    try:
        asyncio.run(run())
        state = [db.value(uid, STAMP) for uid in uids]
        counters = [(s.stats.commits, s.stats.aborts, s.stats.lock_waits,
                     s.stats.deadlock_aborts) for s in sessions]
        assert server.tm.table.lock_count() == 0
        return replies, state, counters, db.fsck().ok, server.stats.unlocked_reads
    finally:
        for session in sessions:
            session.close()


@settings(max_examples=40, deadline=None)
@given(
    scripts=st.lists(st.lists(_step(), max_size=8), min_size=2, max_size=2),
    turns=st.lists(st.integers(0, 1), max_size=24),
)
def test_unlocked_reads_change_no_reply_and_no_state(scripts, turns):
    shipped = _run_script(turns, scripts)
    original = CompositeLockingProtocol.free
    CompositeLockingProtocol.free = lambda self, *_plan: False
    try:
        locked = _run_script(turns, scripts)
    finally:
        CompositeLockingProtocol.free = original
    assert shipped[:4] == locked[:4]
    assert shipped[3] is True
    assert locked[4] == 0
