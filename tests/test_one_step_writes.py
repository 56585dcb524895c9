"""Auto-commit writes run in one step.

A request with no explicit transaction whose Section 7 write plan is free
(``CompositeLockingProtocol.free``: the instance or composite write plan
of its key UID; for ``make``, each parent's plan and the class step)
runs as one ``Database`` operation (``Session.run``): no
``Transaction``, no lock-table request, no commit.  It still acks after
the batch barrier, costs a pipelined batch one fsync, rolls back when it
fails, and turns the server read-only when the journal fails.  A plan
that is not free -- a lock held, or a conflicting request queued --
waits under a bare lock owner, then runs as the same one step.  An
access to an object that another
open transaction has deleted waits for that delete's outcome.  The last
test is the differential: random two-session scripts give the same
replies, counters, final state and fsck whether the one-step path runs
or ``CompositeLockingProtocol.free`` is patched to refuse it.
"""

from __future__ import annotations

import asyncio
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.identity import UID
from repro.errors import ReadOnlyError, StorageError, UnknownObjectError
from repro.faults import fault_scope
from repro.locking.protocol import CompositeLockingProtocol
from repro.mvcc import SnapshotManager
from repro.server.server import ReproServer
from repro.storage.durable import DurableDatabase
from repro.txn.transaction import Transaction
from repro.workloads.txmix import STAMP_ATTRIBUTE as STAMP, memory_fixture

from .test_unlocked_reads import (
    READS, _normal, _serve, _settle, _setup, _write)

pytestmark = pytest.mark.usefixtures("owns_nothing")


def _parts(root, part, op):
    return (op, {"uid": root, "attribute": "Parts", "member": part})


def _part_of(root, part, op):
    return (op, {"child": part, "parent": root, "attribute": "Parts"})


def _make(root=None):
    args = {"class_name": "MixPart", "values": {STAMP: 1}}
    if root is not None:
        args["parents"] = [[root, "Parts"]]
    return ("make", args)


def _ingest(server, session, requests):
    """*requests* as one pipelined batch on *session*."""
    return asyncio.run(_serve(server, session, requests))


class TestFreeWrite:
    def test_a_free_write_takes_no_transaction_and_no_lock(self):
        db, server, (a, *_), roots, components = _setup()
        table = server.tm.table
        r0, r1 = roots
        p0, p1 = components[r0]
        requests = [
            _write(r0, 5),
            _parts(r0, p0, "remove_from"),
            _parts(r0, p0, "insert_into"),
            _part_of(r0, p0, "remove_part_of"),
            _part_of(r0, p0, "make_part_of"),
            ("delete", {"uid": p1}),
            ("make", {"class_name": "MixRoot", "values": {STAMP: 3}}),
            _make(r1),
        ]
        before, next_txn = table.stats.requests, Transaction._next_id
        replies = _ingest(server, a, requests)
        assert table.stats.requests == before
        assert Transaction._next_id == next_txn
        assert table.lock_count() == 0
        assert all(sync for _reply, sync in replies)
        assert [reply for reply, _sync in replies[:5]] == [True] * 5
        assert replies[5][0]["deleted"] == [p1]
        made_root, made_part = replies[6][0], replies[7][0]
        assert db.value(made_root, STAMP) == 3
        assert made_part in db.value(r1, "Parts")
        assert db.value(r0, STAMP) == 5
        assert db.value(r0, "Parts") == [p0]
        assert server.stats.unlocked_writes == len(requests)
        assert server.stats.unlocked_reads == 0
        assert server.stats.commits == a.stats.commits == len(requests)
        assert server.describe_stats()["server"]["unlocked_writes"] == 8
        assert db.fsck().ok

    def test_a_pipelined_batch_of_sixteen_costs_one_fsync(self, tmp_path):
        db = DurableDatabase(tmp_path, sync_policy="group")
        roots, _ = memory_fixture(db, roots=16, parts_per_root=0)
        server = ReproServer(db, mvcc=False)
        session = server._open_session(1, None)
        journal = db.journal
        try:
            journal.sync()
            fsyncs = journal.stats_row()["fsyncs"]
            replies = _ingest(server, session, [
                _write(uid, n) for n, uid in enumerate(roots)])
            assert [reply for reply, _sync in replies] == [True] * 16
            assert journal.stats_row()["fsyncs"] == fsyncs + 1
            assert server.gate.flushes == 1
            assert server.stats.unlocked_writes == 16
            assert server.tm.table.stats.requests == 0
        finally:
            session.close()
            db.close()
        recovered = DurableDatabase(tmp_path, sync_policy="group")
        try:
            assert [recovered.value(uid, STAMP) for uid in roots] \
                == list(range(16))
            assert recovered.fsck().ok
        finally:
            recovered.close()


class TestLockedWrites:
    @pytest.mark.parametrize("outcome", ["commit", "abort"])
    def test_a_write_of_a_held_object_waits_for_the_holder(self, outcome):
        db, server, (a, b, _c), roots, _ = _setup()

        async def run():
            await _serve(server, a, [("begin", {}),
                                     ("resolve", {"uid": roots[0]}),
                                     _write(roots[1], 5)])
            writer = asyncio.create_task(_serve(server, b, [
                _write(roots[0], 9), ("value", READS["value"](roots[1]))]))
            await _settle()
            assert not writer.done()
            await _serve(server, a, [(outcome, {})])
            return await writer

        replies = asyncio.run(run())
        assert replies[0][0] is True
        assert replies[1][0] == (5 if outcome == "commit" else 0)
        assert db.value(roots[0], STAMP) == 9
        assert b.stats.lock_waits == 1
        assert server.stats.unlocked_writes == 0
        assert server.stats.unlocked_reads == 1

    def test_a_write_behind_a_queued_scan_does_not_barge(self):
        db, server, (a, b, c), roots, _ = _setup()
        table = server.tm.table

        async def run():
            # A holds IX on MixRoot; B's extent scan queues for S behind
            # it.  C's write of another root asks IX: compatible with
            # A's IX, but not with B's queued S.
            await _serve(server, a, [("begin", {}), _write(roots[0], 1)])
            scan = asyncio.create_task(_serve(server, b, [
                ("instances_of", {"class_name": "MixRoot"})]))
            await _settle()
            writer = asyncio.create_task(_serve(server, c, [
                _write(roots[1], 2)]))
            maker = asyncio.create_task(_serve(server, c, [
                ("make", {"class_name": "MixRoot"})]))
            await _settle()
            assert not (scan.done() or writer.done() or maker.done())
            assert table.stats.blocks == 3
            await _serve(server, a, [("commit", {})])
            return await scan, await writer, await maker

        scanned, written, made = asyncio.run(run())
        assert sorted(scanned[0][0]) == sorted(roots)
        assert written[0][0] is True
        assert isinstance(made[0][0], UID)
        assert server.stats.unlocked_writes == 0


class TestWaitedOneStep:
    """A plan that is not free is awaited by a bare lock owner, and the
    op then still runs as one step: one ``b<n>`` in the history, no
    ``t<n>``, no commit."""

    @pytest.mark.parametrize("outcome", ["commit", "abort"])
    def test_a_waiting_write_records_as_one_auto_transaction(self, outcome):
        db, server, (a, b, _c), roots, _ = _setup(record_history=True)

        async def run():
            await _serve(server, a, [("begin", {}), _write(roots[0], 5)])
            holder = f"t{a.txn.txn_id}"
            writer = asyncio.create_task(_serve(server, b, [
                _write(roots[0], 9)]))
            await _settle()
            assert not writer.done()
            await _serve(server, a, [(outcome, {})])
            return holder, await writer

        holder, replies = asyncio.run(run())
        events = [(event.kind, event.txn) for event in server.history.history
                  if event.kind != "boot"]
        assert replies == [(True, True)]
        assert db.value(roots[0], STAMP) == 9
        (step,) = {txn for _kind, txn in events if txn != holder}
        assert step.startswith("b")
        assert events == [("write", holder), (outcome, holder),
                          ("write", step), ("commit", step)]
        assert (b.stats.lock_waits, b.stats.commits) == (1, 1)
        assert server.stats.unlocked_writes == 0
        assert server.tm.table.lock_count() == 0

    def test_ancestry_and_extent_reads_wait_for_a_writer_then_answer(self):
        db, server, (a, *readers), roots, components = _setup()
        readers.append(server._open_session(4, None))
        root = roots[0]
        part = components[root][0]
        requests = [("ancestors_of", {"uid": part}),
                    ("roots_of", {"uid": part}),
                    ("instances_of", {"class_name": "MixPart"})]

        async def run():
            await _serve(server, a, [("begin", {}), _write(part, 5)])
            tasks = [asyncio.create_task(_serve(server, session, [request]))
                     for session, request in zip(readers, requests)]
            await _settle()
            assert not any(task.done() for task in tasks)
            await _serve(server, a, [("commit", {})])
            return [(await task)[0] for task in tasks]

        ancestors, found_roots, extent = asyncio.run(run())
        assert ancestors == found_roots == ([root], True)
        assert sorted(extent[0]) == sorted(
            uid for parts in components.values() for uid in parts)
        assert [session.stats.lock_waits for session in readers] == [1] * 3
        assert [session.stats.commits for session in readers] == [1] * 3
        assert server.stats.unlocked_reads == 0
        assert server.tm.table.lock_count() == 0

    def test_a_snapshot_read_outside_a_transaction_creates_none(self):
        db, server, (a, *_), roots, _ = _setup()
        manager = SnapshotManager(db)
        try:
            next_txn, requests = (Transaction._next_id,
                                  server.tm.table.stats.requests)
            replies = asyncio.run(_serve(server, a, [
                _write(roots[0], 4),
                ("snapshot_read", {"uid": roots[0], "attribute": STAMP})]))
            assert replies[1][0]["value"] == 4
            assert Transaction._next_id == next_txn
            assert server.tm.table.stats.requests == requests
            assert (server.stats.unlocked_reads, a.stats.commits) == (1, 2)
        finally:
            manager.close()


class TestFailingWrite:
    def test_a_refused_write_is_rolled_back_and_counted_as_an_abort(
            self, tmp_path):
        db = DurableDatabase(tmp_path, sync_policy="group")
        roots, components = memory_fixture(db, roots=2, parts_per_root=1)
        server = ReproServer(db)
        session = server._open_session(1, None)
        r0, r1 = roots
        before = (len(db), db.value(r0, "Parts"), db.value(r1, STAMP))
        try:
            replies = _ingest(server, session, [
                _write(r0, "not an integer"),
                _parts(r0, r1, "insert_into"),
                ("make", {"class_name": "MixPart",
                          "parents": [[r0, "Parts"], [r1, "Nope"]]}),
                _write(UID(10**6, "MixRoot"), 1),
                _write(r1, 4),
            ])
            codes = [reply["code"] for reply, _sync in replies[:4]]
            assert codes == ["DOMAIN", "DOMAIN", "UNKNOWN_ATTRIBUTE",
                             "UNKNOWN_OBJECT"]
            assert replies[4] == (True, True)
            assert (len(db), db.value(r0, "Parts")) == before[:2]
            assert (session.stats.commits, session.stats.aborts) == (1, 4)
            assert (server.stats.commits, server.stats.aborts) == (1, 4)
            assert server.stats.unlocked_writes == 1
            assert db.fsck().ok
        finally:
            session.close()
            server.snapshots.close()
            db.close()
        recovered = DurableDatabase(tmp_path, sync_policy="group")
        try:
            assert recovered.value(r1, STAMP) == 4
            assert recovered.value(r0, "Parts") == before[1]
            assert recovered.fsck().ok
        finally:
            recovered.close()

    def test_a_journal_failure_turns_the_server_read_only(self, tmp_path):
        db = DurableDatabase(tmp_path, sync_policy="commit")
        (root,), _ = memory_fixture(db, roots=1, parts_per_root=0)
        server = ReproServer(db, mvcc=False)
        session = server._open_session(1, None)
        try:
            with fault_scope() as faults:
                faults.add("journal.fsync", "error", count=None)
                replies = asyncio.run(_serve(server, session, [
                    _write(root, 1)]))
            assert replies[0][0]["code"] == StorageError.code
            assert server.read_only
            assert (session.stats.commits, session.stats.aborts) == (0, 1)
            replies = asyncio.run(_serve(server, session, [
                _write(root, 2), ("value", READS["value"](root))]))
            assert replies[0][0]["code"] == ReadOnlyError.code
            assert replies[1][0] == 1
        finally:
            session.close()
            db.journal.abandon()


# ---------------------------------------------------------------------------
# An object another open transaction deleted
# ---------------------------------------------------------------------------


def _call_into(client, op, uid, seen):
    """Append what *client*'s *op* on *uid* answers (or raises) to *seen*."""
    try:
        if op == "components_of":
            seen.append(client.components_of(uid))
        elif op == "resolve":
            seen.append(client.resolve(uid))
        else:
            seen.append(client.set_value(uid, STAMP, 8))
    except UnknownObjectError as error:
        seen.append(error)


class TestUncommittedDelete:
    @pytest.mark.parametrize("op", ["components_of", "set_value"])
    @pytest.mark.parametrize("outcome", ["commit", "abort"])
    def test_an_access_waits_for_the_deleter(self, op, outcome):
        from repro.server import Client, ServerThread
        from repro.workloads.txmix import tcp_fixture

        with ServerThread(lock_wait_timeout=10.0) as handle, \
                Client(port=handle.port, timeout=20.0) as deleter, \
                Client(port=handle.port, timeout=20.0) as other:
            (root,), components = tcp_fixture(deleter, roots=1,
                                              parts_per_root=2)
            made = deleter.stats()["server"]["unlocked_writes"]
            deleter.begin()
            deleter.delete(root)
            seen = []
            thread = threading.Thread(target=_call_into,
                                      args=(other, op, root, seen))
            thread.start()
            thread.join(timeout=0.4)
            assert thread.is_alive() and not seen  # it waits
            getattr(deleter, outcome)()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            if outcome == "commit":
                assert isinstance(seen[0], UnknownObjectError)
            elif op == "components_of":
                assert sorted(seen[0]) == sorted(components[root])
            else:
                assert seen == [True]
                assert deleter.value(root, STAMP) == 8
            stats = other.stats()
            assert stats["session"]["lock_waits"] == 1
            assert stats["server"]["unlocked_writes"] == made

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "open defect, CHANGES.md FOUND on src/repro/locking/protocol.py / "
        "src/repro/core/database.py: the parts a composite delete removes "
        "are locked only through class-level composite modes, so another "
        "session reads their uncommitted delete (UNKNOWN_OBJECT at once, "
        "the part back after an abort)"))
    def test_an_access_to_a_deleted_part_waits_for_the_deleter(self):
        from repro.server import Client, ServerThread
        from repro.workloads.txmix import tcp_fixture

        with ServerThread(lock_wait_timeout=10.0) as handle, \
                Client(port=handle.port, timeout=20.0) as deleter, \
                Client(port=handle.port, timeout=20.0) as other:
            (root,), components = tcp_fixture(deleter, roots=1,
                                              parts_per_root=2)
            part = components[root][0]
            deleter.begin()
            deleter.delete(root)
            seen = []
            thread = threading.Thread(target=_call_into,
                                      args=(other, "resolve", part, seen))
            thread.start()
            thread.join(timeout=0.4)
            answered_early = list(seen)
            deleter.abort()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert answered_early == []  # it waited for the deleter
            assert seen[0]["uid"] == part


# ---------------------------------------------------------------------------
# Differential: the one-step path changes no reply, counter or state
# ---------------------------------------------------------------------------

_ROOTS = 2
_TARGETS = 6  # 2 roots and their 4 parts


def _step():
    target = st.integers(0, _TARGETS - 1)
    root = st.integers(0, _ROOTS - 1)
    return st.one_of(
        st.just(("begin",)),
        st.just(("commit",)),
        st.just(("abort",)),
        st.tuples(st.just("set_value"), target, st.integers(1, 99)),
        st.tuples(st.sampled_from(["insert_into", "remove_from"]), root,
                  target),
        st.tuples(st.just("make"), st.one_of(st.none(), root)),
        st.tuples(st.just("delete"), target),
        st.tuples(st.sampled_from(sorted(READS)), target),
    )


def _request(step, uids):
    op = step[0]
    if op in ("begin", "commit", "abort"):
        return op, {}
    if op == "set_value":
        return _write(uids[step[1]], step[2])
    if op in ("insert_into", "remove_from"):
        return _parts(uids[step[1] * 3], uids[step[2]], op)
    if op == "make":
        return _make(None if step[1] is None else uids[step[1] * 3])
    if op == "delete":
        return op, {"uid": uids[step[1]]}
    return op, READS[op](uids[step[1]])


def _state(db):
    """Every live object's class, stamp and parts, by UID number."""
    return sorted(
        (instance.uid.number, instance.class_name, instance.get(STAMP),
         instance.get("Parts") if instance.class_name == "MixRoot" else None)
        for instance in db.live_instances()
    )


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
        counters = [(s.stats.commits, s.stats.aborts, s.stats.lock_waits,
                     s.stats.deadlock_aborts) for s in sessions]
        assert server.tm.table.lock_count() == 0
        return (replies, _state(db), counters, db.fsck().ok,
                server.stats.unlocked_writes)
    finally:
        for session in sessions:
            session.close()


@settings(max_examples=40, deadline=None)
@given(
    scripts=st.lists(st.lists(_step(), max_size=8), min_size=2, max_size=2),
    turns=st.lists(st.integers(0, 1), max_size=24),
)
def test_one_step_writes_change_no_reply_and_no_state(scripts, turns):
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
