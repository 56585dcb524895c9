"""Lock waits are handed off: the grant that promotes a queued request
resumes the session parked on it, and no other.

Every path that grants a queued request is driven here on the server's
own loop, through :meth:`LockService.acquire_plan`: the holder's commit,
its abort, its commit whose journal fsync fails, and the withdrawal of a
request queued ahead (a wait that timed out, the deadlock victim's, a
cancelled request's).  Each wait may last ``WAIT_TIMEOUT`` seconds, and
each scenario must end within ``SCENARIO_S``; between the grant and the
check only ready callbacks run (:func:`_settle`, no wall time), so a
waiter passes only if the grant itself resumed it.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import DeadlockError, LockConflictError, StorageError
from repro.faults import fault_scope
from repro.locking.modes import LockMode
from repro.server.server import ReproServer
from repro.storage.durable import DurableDatabase
from repro.workloads.txmix import STAMP_ATTRIBUTE as STAMP, memory_fixture

pytestmark = pytest.mark.usefixtures("owns_nothing")

#: Seconds any wait below may last before it times out.
WAIT_TIMEOUT = 30
#: Seconds each whole scenario may last.
SCENARIO_S = 2.0

S, X = LockMode.S, LockMode.X


@pytest.fixture
def served(tmp_path):
    """A server over a journal that fsyncs in each commit, and one root."""
    db = DurableDatabase(tmp_path, sync_policy="commit")
    (root,), _ = memory_fixture(db, roots=1, parts_per_root=0)
    server = ReproServer(db, mvcc=False, lock_wait_timeout=WAIT_TIMEOUT)
    yield server, root
    if db.journal.failed:
        db.journal.abandon()
    else:
        db.close()


def _run(scenario):
    asyncio.run(asyncio.wait_for(scenario(), SCENARIO_S))


async def _settle():
    """Run every ready callback, letting no wall time pass: a waiter a
    grant resumed is done after this, one waiting on a timer is not."""
    for _ in range(10):
        await asyncio.sleep(0)


async def _park(server, txn, resource, mode, timeout=None):
    """Start *txn*'s wait for *mode* on *resource*; return its task once
    the request is queued and the transaction parked."""
    task = asyncio.ensure_future(
        server.locks.acquire_plan(txn, [(resource, mode)], timeout)
    )
    await _settle()
    assert not task.done()
    assert txn in server.locks._waiters
    return task


@pytest.mark.parametrize("outcome", ["commit", "abort", "journal failure"])
def test_the_holders_release_resumes_its_waiter(served, outcome):
    server, root = served
    tm = server.tm
    holder, waiter = tm.begin(), tm.begin()

    async def scenario():
        await server.locks.acquire_plan(holder, [("r", X)])
        tm.write(holder, root, STAMP, 1)  # a commit with a journal batch
        task = await _park(server, waiter, "r", X)
        if outcome == "journal failure":
            # The manager still releases, but the list of requests its
            # release granted never reaches the caller.
            with fault_scope() as faults:
                faults.add("journal.fsync", "error", count=None)
                with pytest.raises(StorageError):
                    server.finish(holder, commit=True)
            assert server.read_only
        else:
            server.finish(holder, commit=outcome == "commit")
        assert tm.table.held_resources(holder) == []
        await _settle()
        assert task.result() == 1
        assert tm.table.modes_held(waiter, "r") == {X}
        assert not server.locks._waiters
        server.finish(waiter, commit=False)

    _run(scenario)
    assert server.stats.lock_waits == 1


def test_a_release_resumes_only_the_waiter_it_grants(served):
    server, _root = served
    tm = server.tm
    first, second, w1, w2 = (tm.begin() for _ in range(4))

    async def scenario():
        await server.locks.acquire_plan(first, [("a", X)])
        await server.locks.acquire_plan(second, [("b", X)])
        on_a = await _park(server, w1, "a", S)
        on_b = await _park(server, w2, "b", S)
        requests = tm.table.stats.requests
        server.finish(first, commit=True)
        await _settle()
        assert on_a.result() == 1
        assert not on_b.done()
        assert set(server.locks._waiters) == {w2}
        # Neither waiter asked the table again.
        assert tm.table.stats.requests == requests
        server.finish(second, commit=True)
        await _settle()
        assert on_b.result() == 1
        for txn in (w1, w2):
            server.finish(txn, commit=True)

    _run(scenario)


def test_a_timed_out_wait_hands_the_lock_to_the_waiter_behind_it(served):
    server, _root = served
    tm = server.tm
    holder, timed, behind = tm.begin(), tm.begin(), tm.begin()

    async def scenario():
        await server.locks.acquire_plan(holder, [("r", S)])
        timing_out = await _park(server, timed, "r", X, timeout=0.05)
        # S is compatible with the holder's S, but not with the X queued
        # ahead of it: FIFO keeps it queued.
        queued = await _park(server, behind, "r", S)
        with pytest.raises(LockConflictError, match="timed out"):
            await timing_out
        await _settle()
        assert queued.result() == 1
        assert tm.table.waiters("r") == []
        for txn in (holder, timed, behind):
            server.finish(txn, commit=False)

    _run(scenario)
    assert server.stats.lock_timeouts == 1


def test_the_victims_withdrawal_hands_the_lock_to_the_waiter_behind_it(
        served):
    server, _root = served
    tm = server.tm
    older, victim, behind = tm.begin(), tm.begin(), tm.begin()

    async def scenario():
        await server.locks.acquire_plan(older, [("a", S)])
        await server.locks.acquire_plan(victim, [("b", X)])
        victims_wait = await _park(server, victim, "a", X)
        queued = await _park(server, behind, "a", S)
        # The older transaction closes the cycle; the younger of the two
        # is the victim.  The one behind it is not in the cycle.
        olders_wait = asyncio.ensure_future(
            server.locks.acquire_plan(older, [("b", X)])
        )
        await _settle()
        with pytest.raises(DeadlockError) as raised:
            await victims_wait
        assert raised.value.victim == victim.txn_id
        # The victim withdrew its request on "a" but still holds "b".
        assert queued.result() == 1
        assert not olders_wait.done()
        server.finish(victim, commit=False)
        await _settle()
        assert olders_wait.result() == 1
        for txn in (older, behind):
            server.finish(txn, commit=True)

    _run(scenario)
    assert server.locks.detector.detections == 1


def test_a_request_cancelled_in_its_wait_leaves_nothing_queued(served):
    server, _root = served
    tm = server.tm
    holder, cancelled, behind = tm.begin(), tm.begin(), tm.begin()

    async def scenario():
        await server.locks.acquire_plan(holder, [("r", S)])
        waiting = await _park(server, cancelled, "r", X)
        queued = await _park(server, behind, "r", S)
        waiting.cancel()
        await _settle()
        assert waiting.cancelled()
        assert queued.result() == 1
        assert tm.table.waiters("r") == []
        assert not server.locks._waiters
        for txn in (holder, cancelled, behind):
            server.finish(txn, commit=False)

    _run(scenario)
