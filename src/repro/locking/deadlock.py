"""Wait-for-graph deadlock detection.

The lock table exposes its wait-for edges; the detector finds a cycle
(:func:`repro.graph.first_cycle`) and nominates a victim.  Victim policy
is *youngest transaction in the cycle* (highest transaction id), the
classic low-cost choice: the youngest has done the least work to redo.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from ..errors import DeadlockError
from ..graph import first_cycle


def choose_victim(
    cycle: Iterable[Any],
    txn_id: Callable[[Any], Any] = lambda txn: getattr(txn, "txn_id", txn),
) -> Any:
    """Pick the victim of a deadlock cycle (youngest = max id)."""
    return max(cycle, key=txn_id)


class DeadlockDetector:
    """Detects deadlocks over a :class:`repro.locking.table.LockTable`."""

    def __init__(self, lock_table: Any) -> None:
        self._table = lock_table
        #: Deadlocks detected so far (benchmark metric).
        self.detections = 0

    def check(self, raise_on_deadlock: bool = True) -> Any:
        """Look for a cycle; return the chosen victim or None.

        With *raise_on_deadlock*, raises :class:`DeadlockError` carrying
        the cycle and victim instead of returning.
        """
        cycle = first_cycle(self._table.wait_for_edges())
        if cycle is None:
            return None
        self.detections += 1
        victim = choose_victim(cycle)
        if raise_on_deadlock:
            raise DeadlockError(
                f"deadlock among {cycle}; victim {victim}",
                victim=victim,
                cycle=cycle,
            )
        return victim
