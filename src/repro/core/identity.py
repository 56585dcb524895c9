"""Object identity: UIDs and UID allocation.

ORION identifies every object by a system-generated *unique identifier*
(the paper calls it a UID; Section 2.1: "an object O' has a reference to
another object O if O' contains the object identifier (UID) of O").

A :class:`UID` here is an immutable value wrapping a monotonically
increasing integer plus the name of the class the object was created in.
Carrying the class name in the identifier mirrors ORION's segmented OIDs
(class identifier + instance identifier) and lets the storage layer route
an object to its class's physical segment without a catalog lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count


@dataclass(frozen=True, slots=True, order=True)
class UID:
    """An immutable object identifier.

    Ordering is by allocation number, which doubles as a creation
    timestamp for the version subsystem's "system default is the most
    recently created version" rule (paper 5.1).
    """

    #: Monotonically increasing allocation number, unique per database.
    number: int
    #: Name of the class the object belongs to (ORION-style segmented OID).
    class_name: str = field(compare=False)

    # Spelled out: every object-table, lock-table and authorization-cache
    # probe hashes a UID, and the generated methods build a tuple each time.
    def __eq__(self, other):
        if other.__class__ is UID:
            return self.number == other.number
        return NotImplemented

    def __hash__(self):
        return self.number

    def __repr__(self):
        return f"UID({self.number}:{self.class_name})"

    def __str__(self):
        return f"{self.class_name}#{self.number}"


class UIDAllocator:
    """Allocates UIDs for one database.

    The allocator is deliberately trivial — a shared counter — but it is
    the single point of identity creation, so the storage layer and the
    version manager can rely on UID numbers being unique and monotonic.

    ``step`` supports strided allocation for sharded deployments: shard
    *i* of *N* allocates ``start=i+1, step=N``, so every UID number
    satisfies ``(number - 1) % N == i`` and shard membership is a pure
    function of the identifier (no placement catalog lookup; see
    docs/SHARDING.md).
    """

    def __init__(self, start=1, step=1):
        if step < 1:
            raise ValueError("allocator step must be >= 1")
        self.step = step
        self._counter = count(start, step)

    def allocate(self, class_name):
        """Return a fresh :class:`UID` for an instance of *class_name*."""
        return UID(next(self._counter), class_name)

    def peek(self):
        """Return the next number that would be allocated (for tests)."""
        # itertools.count has no peek; emulate by allocating and rebuilding.
        nxt = next(self._counter)
        self._counter = count(nxt, self.step)
        return nxt

    def restride(self, floor, shard_id, shards):
        """Re-seat the counter on shard *shard_id*'s stride, at the
        smallest on-stride number > *floor*.

        Called after journal recovery on a shard worker: recovery sets
        the counter to ``max_uid + 1``, which may sit on another shard's
        residue; the worker must resume allocating only numbers with
        ``(n - 1) % shards == shard_id``.
        """
        nxt = floor + 1
        nxt += (shard_id - (nxt - 1)) % shards
        self.step = shards
        self._counter = count(nxt, shards)
        return nxt
