"""Composite-object locking protocols (paper Section 7).

Three lockers over the same :class:`repro.locking.table.LockTable`:

* :class:`CompositeLockingProtocol` — the paper's revised protocol.  To
  read (update) an entire composite object: lock the root's class in IS
  (IX), the root instance in S (X), and each component class of the
  composite class hierarchy in ISO/ISOS (IXO/IXOS) according to whether
  the class is reached through exclusive or shared composite references.
  "This protocol allows multiple users to read and update different
  composite objects that share the same composite class hierarchy."

* :class:`InstanceLockingBaseline` — plain granularity locking: intention
  locks on the classes and an S/X lock on every component instance
  individually.  Benchmark B4 counts its lock calls against the protocol's.

* :class:`RootLockingAlgorithm` — the [GARZ88] algorithm: "sets a lock on
  the root of a composite object when a component object is directly
  accessed."  Sound for exclusive hierarchies (one root per component);
  for shared references the paper shows it breaks — different roots'
  composites overlap, so two transactions can implicitly lock the same
  shared component in conflicting modes without any detectable root-level
  conflict.  :meth:`RootLockingAlgorithm.detect_implicit_conflicts`
  surfaces exactly that anomaly for the Figure 5 scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator, Optional

from ..errors import UnknownObjectError
from .modes import LockMode
from .table import LockTable

#: intent -> (root class mode, root instance mode,
#:            exclusive-link class mode, shared-link class mode)
_INTENT_MODES = {
    "read": (LockMode.IS, LockMode.S, LockMode.ISO, LockMode.ISOS),
    "write": (LockMode.IX, LockMode.X, LockMode.IXO, LockMode.IXOS),
}


def _modes_for(
    intent: str,
) -> tuple[LockMode, LockMode, LockMode, LockMode]:
    try:
        return _INTENT_MODES[intent]
    except KeyError:
        raise ValueError(f"intent must be 'read' or 'write', got {intent!r}") from None


@dataclass
class LockPlan:
    """The ordered (resource, mode) pairs one operation acquires."""

    steps: list[tuple[Hashable, LockMode]] = field(default_factory=list)
    #: Set by :class:`CompositeLockingProtocol`: the granule the plan
    #: locks, the coverage bit to record once every step is held, and
    #: the lattice version the steps were derived at.
    granule: Hashable = None
    bit: int = 0
    version: int = -1

    def add(self, resource: Hashable, mode: LockMode) -> None:
        self.steps.append((resource, mode))

    def __iter__(self) -> Iterator[tuple[Hashable, LockMode]]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)


#: Coverage bits, ``_COVER[composite][intent]`` -> (the bit recorded once
#: the plan is granted, the recorded bits that answer such a request).
#: A plan answers the plans it dominates claim for claim: write answers
#: read, and the composite plan on a root answers the instance plan on
#: that root -- never the reverse.
_COVER = (
    {"read": (1, 0b1111), "write": (2, 0b1010)},
    {"read": (4, 0b1100), "write": (8, 0b1000)},
)

_Step = tuple[Hashable, LockMode]

#: What an access its transaction already covers acquires: nothing.  One
#: shared plan, so its steps are a tuple and it cannot be extended.
_COVERED = LockPlan(())


class CompositeLockingProtocol:
    """The Section 7 protocol: a composite object is one lockable granule.

    A plan is the instance's own step between steps that depend only on
    its class and the intent; those are derived from the schema once and
    kept until ``ClassLattice.version`` moves.  A granule whose plan the
    transaction was granted in full is *covered*: under strict 2PL locks
    only grow until commit or abort, so asking again (same intent, or
    read under write) is answered without planning or a table request.
    """

    def __init__(
        self, database: Any, lock_table: Optional[LockTable] = None
    ) -> None:
        self._db = database
        self.table = lock_table if lock_table is not None else LockTable()
        #: (class name, intent) -> (class step, instance mode,
        #: component-class steps), valid at lattice version ``_version``.
        self._class_steps: dict[
            tuple[str, str], tuple[_Step, LockMode, tuple[_Step, ...]]
        ] = {}
        self._version = -1

    # -- planning (pure; also used by benchmarks to count lock calls) ------

    def _schema_moved(self) -> bool:
        """Drop what was derived from an older schema: the class steps,
        and all coverage (a granted composite plan may lack a component
        class it would have now)."""
        version = self._db.lattice.version
        if version == self._version:
            return False
        self._version = version
        self._class_steps.clear()
        self.table.uncover()
        return True

    def _steps(
        self, class_name: str, intent: str
    ) -> tuple[_Step, LockMode, tuple[_Step, ...]]:
        """The class step, instance mode and component-class steps of
        *intent* on an instance of *class_name*, derived once per
        lattice version."""
        if self._db.lattice.version != self._version:
            self._schema_moved()
        steps = self._class_steps.get((class_name, intent))
        if steps is None:
            class_intent, instance_mode, ex_mode, sh_mode = _modes_for(intent)
            # A dict keeps first-reached order and drops repeated steps.
            components = dict.fromkeys(
                (("class", link.component), ex_mode if link.exclusive else sh_mode)
                for link in self._db.lattice.composite_class_hierarchy(class_name)
            )
            steps = self._class_steps[(class_name, intent)] = (
                (("class", class_name), class_intent),
                instance_mode,
                tuple(components),
            )
        return steps

    def _plan(
        self, uid: Any, intent: str, composite: bool, txn: Any = None
    ) -> LockPlan:
        try:
            instance = self._db.resolve(uid)
        except UnknownObjectError:
            # Absent: deleted, perhaps by a transaction that has not
            # committed yet and still holds the instance lock.  Then the
            # access waits for that holder: a plan of the class step and
            # the instance step with no granule, after which the caller
            # plans again (UNKNOWN_OBJECT after a commit, the whole plan
            # after an abort brought the object back).
            mode = _modes_for(intent)[1]
            if self.table.is_compatible(txn, ("instance", uid), mode):
                raise
            return LockPlan([
                self._steps(uid.class_name, intent)[0],
                (("instance", uid), mode),
            ])
        # The live instance's own UID, not the caller's (a decoded
        # request's copy): the lock table, coverage and lock-order
        # recorder then hold no second copy of the identity.
        uid = instance.uid
        steps = self._steps(instance.class_name, intent)
        return LockPlan(
            [steps[0], (("instance", uid), steps[1]), *(steps[2] if composite else ())],
            uid,
            _COVER[composite][intent][0],
            self._version,
        )

    def plan_composite(
        self, root_uid: Any, intent: str = "read", txn: Any = None
    ) -> LockPlan:
        """The locks required to read/update the whole composite at *root_uid*.

        Component classes reached through both exclusive and shared links
        are locked in both corresponding modes (the claims union).  With
        *txn*, an absent root that another transaction holds plans a
        wait for it (:meth:`_plan`).
        """
        return self._plan(root_uid, intent, True, txn)

    def plan_instance(
        self, uid: Any, intent: str = "read", txn: Any = None
    ) -> LockPlan:
        """Direct access to a single instance: class intent + instance lock."""
        return self._plan(uid, intent, False, txn)

    def pending(
        self, txn: Any, uid: Any, intent: str, composite: bool
    ) -> Optional[LockPlan]:
        """The plan *txn* still has to acquire for this access, or None
        when it already covers the granule.  The caller acquires every
        step, then reports the plan :meth:`granted`: :meth:`lock_instance`
        and :meth:`lock_composite` without waiting, the network server
        awaiting each step.  A plan with no ``granule`` waits for an
        uncommitted delete of *uid* (:meth:`_plan`): once it is held the
        caller asks again."""
        cover = _COVER[composite].get(intent)
        if (
            cover is not None
            and self.table.coverage(txn, uid) & cover[1]
            and not self._schema_moved()
        ):
            self.table.stats.covered += 1
            return None
        plan = self.plan_composite if composite else self.plan_instance
        return plan(uid, intent, txn)

    def free(
        self,
        uids: Iterable[Any],
        intent: str,
        composite: bool = False,
        class_name: Optional[str] = None,
    ) -> bool:
        """True when a transaction holding nothing would be granted right
        now (:meth:`LockTable.free`) every step of *intent*'s plan on
        each of *uids* -- the composite plan when *composite* -- and,
        with *class_name*, the class step of a ``make`` of that class:
        :meth:`_plan`'s steps, unbuilt.
        On the server's single-threaded loop such an access can run
        without taking the plan: nothing else runs until it is done, so
        no other transaction could see its locks.  An absent UID raises
        :class:`UnknownObjectError`, unless another transaction holds or
        awaits its instance lock (an uncommitted delete): then the
        access is not free, and waits for it."""
        free = self.table.free
        resolve = self._db.resolve
        for uid in uids:
            try:
                instance = resolve(uid)
            except UnknownObjectError:
                if free(("instance", uid), _modes_for(intent)[1]):
                    raise
                return False
            class_step, instance_mode, components = self._steps(
                instance.class_name, intent
            )
            if not (free(*class_step)
                    and free(("instance", instance.uid), instance_mode)):
                return False
            if composite:
                for resource, mode in components:
                    if not free(resource, mode):
                        return False
        return class_name is None or free(*self._steps(class_name, intent)[0])

    def granted(self, txn: Any, plan: LockPlan) -> None:
        """Every step of *plan* is now held by *txn*: the granule is
        covered, unless the schema moved while the steps were awaited
        (or the plan has no granule)."""
        if plan.version == self._db.lattice.version:
            self.table.cover(txn, plan.granule, plan.bit)

    # -- acquisition -------------------------------------------------------------

    def _lock(
        self, txn: Any, uid: Any, intent: str, wait: bool, composite: bool
    ) -> LockPlan:
        plan = self.pending(txn, uid, intent, composite)
        if plan is None:
            return _COVERED
        acquire = self.table.acquire
        complete = True
        for resource, mode in plan.steps:
            if not acquire(txn, resource, mode, wait):
                complete = False  # queued: requested, not held yet
        if complete:
            self.granted(txn, plan)
        return plan

    def lock_composite(
        self,
        txn: Any,
        root_uid: Any,
        intent: str = "read",
        wait: bool = False,
    ) -> LockPlan:
        """Acquire the whole plan and return it (empty when *txn* already
        covers the composite).  Raises on conflict when ``wait=False``
        (locks already granted stay held — release via the transaction's
        abort, as in a real system)."""
        return self._lock(txn, root_uid, intent, wait, True)

    def lock_instance(
        self, txn: Any, uid: Any, intent: str = "read", wait: bool = False
    ) -> LockPlan:
        """Acquire a direct-access plan for one instance."""
        return self._lock(txn, uid, intent, wait, False)

    def class_step(self, class_name: str, intent: str) -> _Step:
        """The class step of *intent*'s plan on an instance of
        *class_name*: what a ``make`` locks before its instance exists."""
        return self._steps(class_name, intent)[0]

    def lock_made(self, txn: Any, uid: Any) -> None:
        """The instance step of the write plan on the object *txn* has
        just made (*uid* as the make returned it), whose
        :meth:`class_step` *txn* holds: X, granted as new
        (:meth:`LockTable.grant_new`), since nobody can hold or wait for
        a fresh UID, and the granule covered."""
        self.table.grant_new(txn, ("instance", uid), _INTENT_MODES["write"][1])
        if self._version == self._db.lattice.version:
            self.table.cover(txn, uid, _COVER[False]["write"][0])

    def release(self, txn: Any) -> list[Any]:
        """Release everything *txn* holds."""
        return self.table.release_all(txn)


class InstanceLockingBaseline:
    """Granularity locking without the composite modes.

    Reading a composite object locks every component instance in S (plus
    IS on each touched class); updating locks them in X (plus IX).  The
    number of lock calls grows with composite size — the cost the
    composite protocol's single granule avoids.
    """

    def __init__(
        self, database: Any, lock_table: Optional[LockTable] = None
    ) -> None:
        self._db = database
        self.table = lock_table if lock_table is not None else LockTable()

    def plan_composite(self, root_uid: Any, intent: str = "read") -> LockPlan:
        class_intent, instance_mode, _, _ = _modes_for(intent)
        root = self._db.resolve(root_uid)
        plan = LockPlan()
        classes_locked = set()

        def lock_class(name: str) -> None:
            if name not in classes_locked:
                classes_locked.add(name)
                plan.add(("class", name), class_intent)

        lock_class(root.class_name)
        plan.add(("instance", root_uid), instance_mode)
        for component_uid in self._db.components_of(root_uid):
            lock_class(self._db.class_of(component_uid))
            plan.add(("instance", component_uid), instance_mode)
        return plan

    def lock_composite(
        self,
        txn: Any,
        root_uid: Any,
        intent: str = "read",
        wait: bool = False,
    ) -> LockPlan:
        plan = self.plan_composite(root_uid, intent)
        for resource, mode in plan:
            self.table.acquire(txn, resource, mode, wait=wait)
        return plan

    def release(self, txn: Any) -> list[Any]:
        return self.table.release_all(txn)


@dataclass(frozen=True)
class ImplicitConflict:
    """Two transactions implicitly locking one instance incompatibly."""

    instance: object
    txn_a: object
    mode_a: LockMode
    txn_b: object
    mode_b: LockMode


class RootLockingAlgorithm:
    """The [GARZ88] root-OID locking algorithm.

    ``lock_component(txn, uid, intent)`` finds the roots of every
    composite object containing *uid* and locks each root instance in S or
    X.  Every component of a locked root is *implicitly* locked in the
    same mode — no lock-table entry exists for it, which is the
    algorithm's efficiency and, under shared references, its downfall.
    """

    def __init__(
        self, database: Any, lock_table: Optional[LockTable] = None
    ) -> None:
        self._db = database
        self.table = lock_table if lock_table is not None else LockTable()
        #: txn -> {instance_uid -> implicit LockMode} (S or X)
        self._implicit: dict[Any, dict[Any, LockMode]] = {}

    def lock_component(
        self, txn: Any, uid: Any, intent: str = "read", wait: bool = False
    ) -> list[Any]:
        """Lock *uid* for direct access by locking its composite roots."""
        _, instance_mode, _, _ = _modes_for(intent)
        roots = self._db.roots_of(uid)
        for root in roots:
            self.table.acquire(txn, ("instance", root), instance_mode, wait=wait)
            coverage = self._implicit.setdefault(txn, {})
            for covered in [root] + self._db.components_of(root):
                current = coverage.get(covered)
                if current is None or instance_mode is LockMode.X:
                    coverage[covered] = instance_mode
        return roots

    def implicit_coverage(self, txn: Any) -> dict[Any, LockMode]:
        """Instances *txn* implicitly holds, with modes."""
        return dict(self._implicit.get(txn, {}))

    def detect_implicit_conflicts(self) -> list[ImplicitConflict]:
        """Find conflicting implicit locks the lock table never saw.

        Under exclusive hierarchies this is always empty (each component
        has exactly one root, so conflicting accesses collide on that root
        in the table).  Under shared references, composites of *different*
        roots overlap, and this returns the resulting S/X collisions —
        reproducing the paper's conclusion that "the algorithm cannot be
        used for shared composite references."
        """
        conflicts: list[ImplicitConflict] = []
        txns = list(self._implicit)
        for i, txn_a in enumerate(txns):
            for txn_b in txns[i + 1 :]:
                coverage_a = self._implicit[txn_a]
                coverage_b = self._implicit[txn_b]
                for instance, mode_a in coverage_a.items():
                    mode_b = coverage_b.get(instance)
                    if mode_b is None:
                        continue
                    if mode_a is LockMode.X or mode_b is LockMode.X:
                        conflicts.append(
                            ImplicitConflict(instance, txn_a, mode_a, txn_b, mode_b)
                        )
        return conflicts

    def release(self, txn: Any) -> list[Any]:
        self._implicit.pop(txn, None)
        return self.table.release_all(txn)
