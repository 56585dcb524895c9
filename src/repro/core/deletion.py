"""The Deletion Rule (paper Section 2.2).

Deleting an object O' propagates along its composite references:

1. *independent exclusive* — never propagates;
2. *dependent exclusive* — always deletes the component;
3. *independent shared* — never propagates;
4. *dependent shared* — deletes the component only when O' was the last
   member of Ds(O); otherwise Ds(O) merely loses O'.

Condition 3 of the paper's Deletion Rule (transitive propagation through
intermediate objects that are themselves being deleted) falls out of the
worklist formulation below: every object enqueued for deletion processes
its own outgoing references the same way the root did.

Deletion also maintains referential hygiene beyond the rule itself: a
deleted object is unlinked from the forward attributes of its surviving
parents, and surviving components lose their reverse references to it.
Weak references are *not* chased — the paper gives them no semantics — so
they may dangle; :func:`repro.core.operations.find_dangling_references`
reports them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


@dataclass
class DeletionReport:
    """What one ``delete`` call did.

    Benchmark B7 compares these reports between the extended model and the
    KIM87b baseline to quantify "impedes reuse of objects in a complex
    design environment".
    """

    #: UIDs deleted, in cascade order (the requested root first).
    deleted: list = field(default_factory=list)
    #: Components that survived because their reference was independent.
    preserved_independent: list = field(default_factory=list)
    #: Components that survived because other dependent-shared parents remain.
    preserved_shared: list = field(default_factory=list)
    #: Surviving parents whose forward attribute lost a deleted component.
    unlinked_parents: list = field(default_factory=list)

    @property
    def deleted_count(self):
        return len(self.deleted)

    @property
    def preserved_count(self):
        return len(self.preserved_independent) + len(self.preserved_shared)


class DeletionEngine:
    """Executes the Deletion Rule over a database's object table.

    The engine is deliberately separate from :class:`repro.Database` so the
    KIM87b baseline (which hard-wires dependent-exclusive semantics) can
    reuse the same machinery with a different reference classification.
    """

    def __init__(self, database):
        self._db = database

    def delete(self, uid):
        """Delete *uid* and everything the Deletion Rule requires.

        Returns a :class:`DeletionReport`.  Raises
        :class:`repro.errors.UnknownObjectError` when *uid* is not live.
        """
        db = self._db
        root = db.resolve(uid)  # raises when unknown/deleted
        report = DeletionReport()
        queue = deque([root.uid])
        scheduled = {root.uid}

        while queue:
            instance = db.peek(queue.popleft())
            if instance is None:
                continue
            report.deleted.append(instance.uid)
            db.discard(instance)
            self._propagate_to_components(instance, queue, scheduled, report)
            self._unlink_from_parents(instance, scheduled, report)

        return report

    # -- internals ----------------------------------------------------------

    def _propagate_to_components(self, instance, queue, scheduled, report):
        """Apply deletion conditions 1-4 to every outgoing composite ref."""
        db = self._db
        classdef = db.lattice.get(instance.class_name)
        for attr, child_uid in db.iter_composite_values(instance):
            removed = db._unlink_component(instance, classdef.attribute(attr), child_uid)
            if removed is None:
                continue
            if removed.dependent:
                if removed.exclusive:
                    # Condition 2: dependent exclusive always cascades.
                    self._schedule(child_uid, queue, scheduled)
                elif not db.peek(child_uid).ds_parents():
                    # Condition 4: last dependent-shared parent gone.
                    self._schedule(child_uid, queue, scheduled)
                else:
                    report.preserved_shared.append(child_uid)
            else:
                # Conditions 1 and 3: independent references never cascade.
                report.preserved_independent.append(child_uid)

    def _unlink_from_parents(self, instance, scheduled, report):
        """Remove the dying object from its surviving parents' attributes."""
        db = self._db
        for ref in instance.reverse_references:
            if ref.parent in scheduled:
                continue  # parent is dying too; nothing to fix up
            parent = db.peek(ref.parent)
            if parent is None:
                continue
            if db._unlink_forward_value(parent, ref.attribute, instance.uid):
                report.unlinked_parents.append(parent.uid)
                spec = db.lattice.get(parent.class_name).attribute(ref.attribute)
                db._announce(parent, spec, instance, False)
                db.persist(parent)

    @staticmethod
    def _schedule(uid, queue, scheduled):
        if uid not in scheduled:
            scheduled.add(uid)
            queue.append(uid)


def would_delete(database, uid):
    """Predict the cascade of ``delete(uid)`` without performing it.

    Returns the set of UIDs that would be deleted.  Useful for interactive
    tools and used by tests to check the engine against an independent
    implementation of the rule.
    """
    root = database.resolve(uid)
    dying = {root.uid}
    # An object dies when (a) it is the root, or (b) its dependent
    # exclusive parent is dying, or (c) its Ds set is non-empty and ALL of
    # it is dying.  Either way a dying parent holds a composite reference
    # to it, so only the components of dying objects are ever examined —
    # and a component is examined again each time another of its parents
    # dies, which is when condition (c) can newly hold.  The cost follows
    # the cascade, not the database.
    worklist = [root]
    while worklist:
        parent = worklist.pop()
        for _attribute, child_uid in database.iter_composite_values(parent):
            if child_uid in dying:
                continue
            child = database.peek(child_uid)
            if child is None:
                continue
            dx = child.dx_parents()
            ds = child.ds_parents()
            if (dx and dx[0] in dying) or (
                ds and all(holder in dying for holder in ds)
            ):
                dying.add(child_uid)
                worklist.append(child)
    return dying
