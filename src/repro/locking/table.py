"""The lock table.

Grants lock modes on *resources* (instance UIDs, class names, or any
hashable key) to *transactions*.  A transaction may hold several modes on
the same resource — the composite protocol locks a component class in ISO
for one link and ISOS for another, and the claims those modes grant simply
union — so grants are stored as mode *sets* and a request is compatible
when it is compatible with every mode held by every other transaction.

Blocking requests queue FIFO; releases re-scan the queue in order and
grant every request compatible with the new state (no barging past an
incompatible head, to avoid starvation).  Deadlock handling lives in
:mod:`repro.locking.deadlock`; the table maintains the wait-for edges the
detector consumes.

Observers (:class:`LockObserver`) may register in :attr:`LockTable.observers`
to see every grant and full release — the lock-dependency recorder of
:mod:`repro.analysis.lockdep` uses this to build lock-order graphs without
touching the grant path when disabled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Hashable, Optional

from ..errors import LockConflictError
from .modes import CONFLICTS, LockMode


class LockObserver:
    """Interface for passive lock-table observers.

    Observers must never call back into the table — they see state
    transitions, they do not make them.  Both callbacks default to
    no-ops so subclasses override only what they need.
    """

    def on_grant(self, txn: Any, resource: Hashable, mode: LockMode) -> None:
        """Called when *mode* on *resource* is newly granted to *txn*."""

    def on_grant_new(self, txn: Any, resource: Hashable, mode: LockMode) -> None:
        """Called instead of :meth:`on_grant` when *mode* is granted on a
        resource nobody could hold or wait for before (an object *txn*
        has just made): a grant that could not have waited, like a
        kernel trylock.  Defaults to :meth:`on_grant`."""
        self.on_grant(txn, resource, mode)

    def on_release(self, txn: Any) -> None:
        """Called when every lock of *txn* has been released."""


@dataclass
class LockRequest:
    """A queued (blocked) lock request."""

    txn: object
    resource: object
    mode: LockMode


@dataclass
class LockStats:
    """Counters for benchmark B4 (lock calls vs granule choice)."""

    requests: int = 0
    grants: int = 0
    blocks: int = 0
    denials: int = 0
    releases: int = 0
    #: Accesses answered from a transaction's coverage, not by a request.
    covered: int = 0

    def reset(self) -> None:
        self.requests = 0
        self.grants = 0
        self.blocks = 0
        self.denials = 0
        self.releases = 0
        self.covered = 0


def _admits(
    grants: Optional[dict[Any, set[LockMode]]],
    queue: Optional[deque[LockRequest]],
    txn: Any,
    fresh: bool,
    conflicts: frozenset[LockMode],
) -> bool:
    """The grant rule.  True when no holder in *grants* other than *txn*
    holds a mode in *conflicts* (own locks never conflict; that is a
    conversion) and, for a *fresh* request (*txn* holds nothing on the
    resource yet), no request of another transaction queued in *queue*
    before it asks for one either: FIFO, so a fresh request never barges
    past a waiter."""
    if queue and fresh:
        for pending in queue:
            if pending.txn is not txn and pending.mode in conflicts:
                return False
    if grants:
        for holder, modes in grants.items():
            if holder is not txn and not conflicts.isdisjoint(modes):
                return False
    return True


class LockTable:
    """All locks of one database."""

    def __init__(self) -> None:
        #: resource -> txn (in first-grant order) -> set of LockMode
        self._granted: dict[Hashable, dict[Any, set[LockMode]]] = {}
        #: txn -> the resources it holds a mode on, in first-grant order:
        #: the index that makes :meth:`release_all` cost the transaction's
        #: own locks instead of a scan of every granted resource.
        self._held: dict[Any, list[Hashable]] = {}
        #: resource -> deque of LockRequest (blocked requests, FIFO)
        self._waiting: dict[Hashable, deque[LockRequest]] = {}
        #: txn -> granule -> bits: plans a protocol saw granted in full
        #: (:meth:`cover`).  Locks only grow until :meth:`release_all`,
        #: which drops the entry, so what is recorded here is still held.
        self._covered: dict[Any, dict[Hashable, int]] = {}
        self.stats = LockStats()
        #: Passive :class:`LockObserver` instances notified on every grant
        #: and full release (see :mod:`repro.analysis.lockdep`).
        self.observers: list[LockObserver] = []

    # -- queries ----------------------------------------------------------

    def holders(self, resource: Hashable) -> list[Any]:
        """Transactions currently holding locks on *resource*."""
        return list(self._granted.get(resource, ()))

    def modes_held(self, txn: Any, resource: Hashable) -> set[LockMode]:
        """Modes *txn* holds on *resource* (empty set when none)."""
        return set(self._granted.get(resource, {}).get(txn, ()))

    def held_resources(self, txn: Any) -> list[Hashable]:
        """Resources on which *txn* holds at least one mode, in the order
        it first acquired them."""
        return list(self._held.get(txn, ()))

    def waiters(self, resource: Hashable) -> list[LockRequest]:
        """Blocked requests queued on *resource*, in FIFO order."""
        return list(self._waiting.get(resource, ()))

    def wait_for_edges(self) -> list[tuple[Any, Any]]:
        """Edges (waiter, holder) of the wait-for graph.

        A blocked transaction waits for every incompatible current holder
        and for every incompatible earlier waiter (FIFO ordering).
        """
        edges: list[tuple[Any, Any]] = []
        for resource, queue in self._waiting.items():
            grants = self._granted.get(resource, {})
            earlier: list[LockRequest] = []
            for request in queue:
                conflicts = CONFLICTS[request.mode]
                for holder, modes in grants.items():
                    if holder is not request.txn and not conflicts.isdisjoint(
                        modes
                    ):
                        edges.append((request.txn, holder))
                for prior in earlier:
                    if prior.txn is not request.txn and prior.mode in conflicts:
                        edges.append((request.txn, prior.txn))
                earlier.append(request)
        return edges

    def is_compatible(
        self, txn: Any, resource: Hashable, mode: LockMode
    ) -> bool:
        """True when granting (*txn*, *mode*) now would not conflict."""
        return _admits(
            self._granted.get(resource), None, txn, False, CONFLICTS[mode]
        )

    def free(self, resource: Hashable, mode: LockMode) -> bool:
        """True when a transaction holding nothing would be granted
        *mode* on *resource* right now: :meth:`acquire`'s rule, with no
        holder of its own and behind every queued request."""
        return _admits(
            self._granted.get(resource),
            self._waiting.get(resource) if self._waiting else None,
            None,
            True,
            CONFLICTS[mode],
        )

    # -- coverage ---------------------------------------------------------

    def coverage(self, txn: Any, granule: Hashable) -> int:
        """The bits :meth:`cover` recorded for (*txn*, *granule*), else 0."""
        mine = self._covered.get(txn)
        return mine.get(granule, 0) if mine is not None else 0

    def cover(self, txn: Any, granule: Hashable, bits: int) -> None:
        """Record *bits* (their meaning is the protocol's) for a plan on
        *granule* granted to *txn* in full, until *txn* releases."""
        mine = self._covered.get(txn)
        if mine is None:
            self._covered[txn] = {granule: bits}
        else:
            mine[granule] = mine.get(granule, 0) | bits

    def uncover(self) -> None:
        """Forget all coverage (the plans it stood for have changed)."""
        self._covered.clear()

    # -- acquisition -----------------------------------------------------------

    def acquire(
        self,
        txn: Any,
        resource: Hashable,
        mode: LockMode,
        wait: bool = True,
    ) -> bool:
        """Request *mode* on *resource* for *txn*.

        Returns True when granted immediately.  When incompatible:

        * ``wait=True`` — the request is queued and False is returned
          (the caller parks the transaction until :meth:`release_all`
          grants it);
        * ``wait=False`` — raises :class:`LockConflictError`.

        Re-requesting a held mode is a no-op; requesting a new mode on a
        held resource is a conversion (the mode set grows).  Conversions
        are checked against other holders only.
        """
        if not isinstance(mode, LockMode):
            raise TypeError(f"mode must be a LockMode, got {mode!r}")
        stats = self.stats
        stats.requests += 1
        grants = self._granted.get(resource)
        held = grants.get(txn) if grants is not None else None
        if held is not None and mode in held:
            stats.grants += 1
            return True
        queue = self._waiting.get(resource) if self._waiting else None
        if queue:
            for pending in queue:
                # A re-issued request that is already queued stays queued
                # once (the simulator re-issues a blocked step each tick).
                if pending.txn is txn and pending.mode is mode:
                    return False
        if _admits(grants, queue, txn, held is None, CONFLICTS[mode]):
            self._grant(txn, resource, mode, grants)
            stats.grants += 1
            return True
        if not wait:
            stats.denials += 1
            raise LockConflictError(
                f"{mode} on {resource!r} conflicts with holders "
                f"{self.holders(resource)}",
                resource=resource,
                requested=mode,
                holders=self.holders(resource),
            )
        stats.blocks += 1
        if queue is None:
            queue = self._waiting[resource] = deque()
        queue.append(LockRequest(txn=txn, resource=resource, mode=mode))
        return False

    def _grant(
        self,
        txn: Any,
        resource: Hashable,
        mode: LockMode,
        grants: Optional[dict[Any, set[LockMode]]],
    ) -> None:
        """Add *mode* to *txn*'s grant on *resource*; *grants* is the
        caller's ``_granted.get(resource)``, so a request probes once."""
        if grants is None:
            grants = self._granted[resource] = {}
        held = grants.get(txn)
        if held is not None:
            held.add(mode)
        else:
            grants[txn] = {mode}
            self._held.setdefault(txn, []).append(resource)
        for observer in self.observers:
            observer.on_grant(txn, resource, mode)

    def grant_new(self, txn: Any, resource: Hashable, mode: LockMode) -> None:
        """Grant *mode* on a *resource* that no transaction can hold or
        wait for yet -- the instance lock of an object *txn* has just
        made -- with no conflict check.  One request and one grant;
        observers see it through :meth:`LockObserver.on_grant_new`."""
        self.stats.requests += 1
        self.stats.grants += 1
        self._granted[resource] = {txn: {mode}}
        self._held.setdefault(txn, []).append(resource)
        for observer in self.observers:
            observer.on_grant_new(txn, resource, mode)

    def cancel(
        self,
        txn: Any,
        resource: Hashable,
        mode: Optional[LockMode] = None,
    ) -> list[LockRequest]:
        """Withdraw *txn*'s queued (ungranted) requests on *resource*.

        Granted modes are untouched.  With *mode* only that request is
        withdrawn; otherwise all of the transaction's requests on the
        resource.  Returns the requests newly granted to other
        transactions (the withdrawal may unblock the queue), as
        :meth:`release_all` does.  The network server uses this to time
        out a lock wait without aborting the whole transaction.
        """
        queue = self._waiting.get(resource)
        if not queue:
            return []
        remaining = deque(
            request
            for request in queue
            if not (
                request.txn is txn and (mode is None or request.mode is mode)
            )
        )
        if len(remaining) == len(queue):
            return []
        if remaining:
            self._waiting[resource] = remaining
        else:
            del self._waiting[resource]
        return self._promote()

    # -- release -------------------------------------------------------------

    def release_all(self, txn: Any) -> list[LockRequest]:
        """Release every lock of *txn* and cancel its queued requests.

        Returns the requests newly granted to other transactions, so a
        scheduler can resume them.
        """
        held = self._held.pop(txn, None)
        if held:
            granted = self._granted
            for resource in held:
                # pop, and put back if shared: the sole-holder case
                # hashes the resource once.
                grants = granted.pop(resource)
                del grants[txn]
                if grants:
                    granted[resource] = grants
            self.stats.releases += len(held)
            for observer in self.observers:
                observer.on_release(txn)
        self._covered.pop(txn, None)
        if not self._waiting:
            return []  # nobody queued: nothing to withdraw or promote
        for resource in list(self._waiting):
            queue = self._waiting[resource]
            remaining = deque(r for r in queue if r.txn is not txn)
            if remaining:
                self._waiting[resource] = remaining
            else:
                del self._waiting[resource]
        return self._promote()

    def _promote(self) -> list[LockRequest]:
        """Grant queued requests that have become compatible (FIFO)."""
        granted: list[LockRequest] = []
        for resource in list(self._waiting):
            queue = self._waiting[resource]
            still_waiting: deque[LockRequest] = deque()
            for request in queue:
                # A request may run only if compatible with current grants
                # AND with earlier still-blocked requests (fairness).
                grants = self._granted.get(resource)
                if _admits(grants, still_waiting, request.txn, True,
                           CONFLICTS[request.mode]):
                    self._grant(request.txn, resource, request.mode, grants)
                    granted.append(request)
                    self.stats.grants += 1
                else:
                    still_waiting.append(request)
            if still_waiting:
                self._waiting[resource] = still_waiting
            else:
                del self._waiting[resource]
        return granted

    def lock_count(self) -> int:
        """Total (txn, resource, mode) grants currently outstanding."""
        return sum(
            len(modes)
            for grants in self._granted.values()
            for modes in grants.values()
        )
