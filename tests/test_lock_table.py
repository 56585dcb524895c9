"""Tests for the lock table and deadlock detector."""

import pytest

from repro.errors import DeadlockError, LockConflictError
from repro.graph import first_cycle
from repro.locking.deadlock import DeadlockDetector, choose_victim
from repro.locking.modes import LockMode as M
from repro.locking.table import LockTable


class TestBasicGrants:
    def test_grant_compatible(self):
        table = LockTable()
        assert table.acquire("T1", "r", M.S)
        assert table.acquire("T2", "r", M.S)
        assert set(table.holders("r")) == {"T1", "T2"}

    def test_incompatible_nowait_raises(self):
        table = LockTable()
        table.acquire("T1", "r", M.X)
        with pytest.raises(LockConflictError) as excinfo:
            table.acquire("T2", "r", M.S, wait=False)
        assert excinfo.value.resource == "r"
        assert excinfo.value.requested is M.S
        assert "T1" in excinfo.value.holders

    def test_incompatible_wait_queues(self):
        table = LockTable()
        table.acquire("T1", "r", M.X)
        assert table.acquire("T2", "r", M.S, wait=True) is False
        assert len(table.waiters("r")) == 1

    def test_reacquire_held_mode_noop(self):
        table = LockTable()
        table.acquire("T1", "r", M.S)
        assert table.acquire("T1", "r", M.S)
        assert table.modes_held("T1", "r") == {M.S}

    def test_requeue_does_not_duplicate(self):
        table = LockTable()
        table.acquire("T1", "r", M.X)
        table.acquire("T2", "r", M.S, wait=True)
        table.acquire("T2", "r", M.S, wait=True)
        assert len(table.waiters("r")) == 1

    def test_mode_type_checked(self):
        with pytest.raises(TypeError):
            LockTable().acquire("T1", "r", "X")

    def test_mode_sets_union(self):
        # The composite protocol holds ISO and ISOS on one class at once.
        table = LockTable()
        table.acquire("T1", "c", M.ISO)
        table.acquire("T1", "c", M.ISOS)
        assert table.modes_held("T1", "c") == {M.ISO, M.ISOS}
        # A request must be compatible with BOTH held modes.
        with pytest.raises(LockConflictError):
            table.acquire("T2", "c", M.IXOS, wait=False)
        assert table.acquire("T2", "c", M.ISO)

    def test_own_locks_never_conflict(self):
        table = LockTable()
        table.acquire("T1", "r", M.S)
        assert table.acquire("T1", "r", M.X)  # conversion

    def test_conversion_checked_against_others(self):
        table = LockTable()
        table.acquire("T1", "r", M.S)
        table.acquire("T2", "r", M.S)
        with pytest.raises(LockConflictError):
            table.acquire("T1", "r", M.X, wait=False)


class TestReleaseAndPromotion:
    def test_release_grants_waiter(self):
        table = LockTable()
        table.acquire("T1", "r", M.X)
        table.acquire("T2", "r", M.S, wait=True)
        granted = table.release_all("T1")
        assert [req.txn for req in granted] == ["T2"]
        assert table.modes_held("T2", "r") == {M.S}

    def test_release_clears_queue_entries(self):
        table = LockTable()
        table.acquire("T1", "r", M.X)
        table.acquire("T2", "r", M.S, wait=True)
        table.release_all("T2")
        assert table.waiters("r") == []

    def test_fifo_no_barging(self):
        # A new S request must wait behind a queued X request.
        table = LockTable()
        table.acquire("T1", "r", M.S)
        table.acquire("T2", "r", M.X, wait=True)
        assert table.acquire("T3", "r", M.S, wait=True) is False
        granted = table.release_all("T1")
        # X goes first (FIFO), S after it.
        assert [req.txn for req in granted] == ["T2"]
        granted = table.release_all("T2")
        assert [req.txn for req in granted] == ["T3"]

    def test_multiple_compatible_waiters_granted_together(self):
        table = LockTable()
        table.acquire("T1", "r", M.X)
        table.acquire("T2", "r", M.S, wait=True)
        table.acquire("T3", "r", M.S, wait=True)
        granted = table.release_all("T1")
        assert {req.txn for req in granted} == {"T2", "T3"}

    def test_lock_count(self):
        table = LockTable()
        table.acquire("T1", "a", M.S)
        table.acquire("T1", "b", M.IX)
        table.acquire("T1", "b", M.IXO)
        assert table.lock_count() == 3
        table.release_all("T1")
        assert table.lock_count() == 0

    def test_held_resources(self):
        table = LockTable()
        table.acquire("T1", "a", M.S)
        table.acquire("T1", "b", M.S)
        assert set(table.held_resources("T1")) == {"a", "b"}

    def test_held_resources_follow_grants_and_releases(self):
        """The per-transaction index behind release_all: acquisition
        order, one entry per resource however many modes, a promoted
        waiter's grant included, nothing left after release."""
        table = LockTable()
        table.acquire("T1", "b", M.IX)
        table.acquire("T1", "a", M.S)
        table.acquire("T1", "b", M.IXO)  # a second mode, not a second entry
        table.acquire("T2", "a", M.S)
        table.acquire("T2", "b", M.X, wait=True)  # queued behind T1
        assert table.held_resources("T1") == ["b", "a"]
        assert table.held_resources("T2") == ["a"]
        before = table.stats.releases
        granted = table.release_all("T1")
        assert table.stats.releases - before == 2
        assert [request.txn for request in granted] == ["T2"]
        assert table.held_resources("T1") == []
        assert table.held_resources("T2") == ["a", "b"]
        assert table.holders("a") == ["T2"] and table.holders("b") == ["T2"]
        table.release_all("T2")
        assert table.lock_count() == 0 and table.held_resources("T2") == []
        assert table.release_all("T2") == []  # nothing held: a no-op

    def test_stats_counters(self):
        table = LockTable()
        table.acquire("T1", "r", M.X)
        with pytest.raises(LockConflictError):
            table.acquire("T2", "r", M.X, wait=False)
        table.acquire("T3", "r", M.X, wait=True)
        table.release_all("T1")
        stats = table.stats
        assert stats.grants >= 2 and stats.denials == 1 and stats.blocks == 1
        assert stats.releases >= 1


class TestWaitForGraph:
    def test_edges_to_holders(self):
        table = LockTable()
        table.acquire("T1", "r", M.X)
        table.acquire("T2", "r", M.S, wait=True)
        assert ("T2", "T1") in table.wait_for_edges()

    def test_edges_to_earlier_waiters(self):
        table = LockTable()
        table.acquire("T1", "r", M.S)
        table.acquire("T2", "r", M.X, wait=True)
        table.acquire("T3", "r", M.X, wait=True)
        edges = table.wait_for_edges()
        assert ("T3", "T2") in edges

    def test_no_self_edges(self):
        table = LockTable()
        table.acquire("T1", "r", M.S)
        table.acquire("T1", "r2", M.S)
        assert all(a != b for a, b in table.wait_for_edges())


class TestFindCycle:
    def test_acyclic(self):
        assert first_cycle([(1, 2), (2, 3), (1, 3)]) is None

    def test_two_cycle(self):
        cycle = first_cycle([(1, 2), (2, 1)])
        assert set(cycle) == {1, 2}

    def test_empty(self):
        assert first_cycle([]) is None

    def test_victim_is_youngest(self):
        assert choose_victim([3, 1, 2]) == 3


class TestDeadlockDetector:
    def _deadlock_table(self):
        table = LockTable()
        table.acquire("A", "r1", M.X)
        table.acquire("B", "r2", M.X)
        table.acquire("A", "r2", M.X, wait=True)
        table.acquire("B", "r1", M.X, wait=True)
        return table

    def test_detects_and_raises(self):
        detector = DeadlockDetector(self._deadlock_table())
        with pytest.raises(DeadlockError) as excinfo:
            detector.check()
        assert set(excinfo.value.cycle) == {"A", "B"}
        assert excinfo.value.victim == "B"  # youngest by string comparison

    def test_returns_victim_without_raise(self):
        detector = DeadlockDetector(self._deadlock_table())
        assert detector.check(raise_on_deadlock=False) == "B"
        assert detector.detections == 1

    def test_no_deadlock(self):
        table = LockTable()
        table.acquire("A", "r1", M.X)
        table.acquire("B", "r1", M.S, wait=True)
        detector = DeadlockDetector(table)
        assert detector.check() is None

    def test_three_way_deadlock(self):
        table = LockTable()
        for txn, res in (("A", "r1"), ("B", "r2"), ("C", "r3")):
            table.acquire(txn, res, M.X)
        table.acquire("A", "r2", M.S, wait=True)
        table.acquire("B", "r3", M.S, wait=True)
        table.acquire("C", "r1", M.S, wait=True)
        victim = DeadlockDetector(table).check(raise_on_deadlock=False)
        assert victim in ("A", "B", "C")
