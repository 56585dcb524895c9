"""The database façade.

:class:`Database` ties the subsystems together: the class lattice, the
object table, the topology checks, the Deletion Rule engine, the
Section-3 operations, optional paged storage with first-parent clustering,
and hooks the schema-evolution, version, authorization, and locking
managers attach to.

The public surface mirrors ORION's message API with Pythonic names::

    db = Database()
    db.make_class("Vehicle", attributes=[...])
    v = db.make("Vehicle", values={"Manufacturer": "MCC"})
    body = db.make("AutoBody", parents=[(v, "Body")])       # top-down
    db.make_part_of(existing_engine, v, "Drivetrain")        # bottom-up
    db.components_of(v)
    db.delete(v)
"""

from __future__ import annotations

from ..errors import (
    ClassDefinitionError,
    DomainError,
    TopologyError,
    UnknownObjectError,
)
from ..schema.attribute import AttributeSpec
from ..schema.classdef import ClassDef
from ..schema.lattice import ClassLattice
from ..storage.clustering import ClusteringPolicy
from ..storage.store import ObjectStore
from . import operations as ops
from .deletion import DeletionEngine
from .identity import UIDAllocator
from .instance import Instance
from .topology import check_make_component, check_topology_rules


class Database:
    """An ORION-style object database with extended composite objects.

    Parameters
    ----------
    paged:
        When True, every object is written through to a page-backed
        :class:`ObjectStore` whose I/O the experiments meter.  The object
        table remains authoritative either way (the store is a faithful
        mirror), so paged mode changes performance accounting, never
        semantics.
    buffer_capacity:
        Buffer-pool frames for paged mode.
    clustering:
        ``"parent"`` (the paper's first-parent policy) or ``"none"``.
    """

    def __init__(self, paged=False, buffer_capacity=64, clustering="parent"):
        self.lattice = ClassLattice()
        self.allocator = UIDAllocator()
        self._objects = {}
        #: Class extents: class name -> set of live UIDs.  ORION maintains
        #: extents for associative access; here they keep instances_of()
        #: O(extent) instead of O(database).
        self._extents = {}
        self.store = ObjectStore(buffer_capacity=buffer_capacity) if paged else None
        self.clustering = ClusteringPolicy(self.lattice, mode=clustering)
        self.clustering.class_resolver = self.class_of
        self._deletion = DeletionEngine(self)
        #: Hooks run on every resolve(); the deferred-evolution manager
        #: registers one to bring instances up to date (paper 4.3).
        self.access_hooks = []
        #: Optional callable(class_name) -> int giving the change count a
        #: new instance is born with ("When a new instance of the class C
        #: is created, the CC of the instance is set to the current value
        #: of the CC of the class", paper 4.3).
        self.cc_provider = None
        #: Optional override of the Make-Component check, with signature
        #: ``(parent_instance, spec, child_instance) -> None`` (raise to
        #: reject).  The version manager installs one implementing rule
        #: CV-2X, which relaxes exclusivity for generic instances.
        self.link_policy = None
        #: Callbacks ``(parent_instance, spec, child_instance)`` fired when
        #: a composite link is added / removed (including by deletion).
        #: The version manager maintains reverse composite generic
        #: reference counts here (paper 5.3).
        self.on_link = []
        self.on_unlink = []
        #: Optional predicate ``uid -> bool``: instances for which the
        #: strict Topology Rules are relaxed by the link policy (the
        #: version manager exempts generic instances — rule CV-2X allows
        #: several same-hierarchy exclusive references to a generic).
        self.topology_exempt = None
        #: Callbacks ``(instance, attribute_name)`` fired after an
        #: attribute value changes (attribute_name is None when many
        #: attributes may have changed at once, e.g. object creation).
        #: The query-index manager subscribes here.
        self.on_update = []
        #: Callbacks ``(instance,)`` fired whenever an instance is
        #: persisted (covers reverse-reference and flag changes that do
        #: not alter forward attribute values).  The durability journal
        #: subscribes to both on_update and on_persist.
        self.on_persist = []
        #: Callbacks ``()`` fired when a top-level mutating operation
        #: (``make``, ``set_value``, ``insert_into``, ``remove_from``,
        #: ``delete``) finishes.  The durability journal seals its
        #: current write batch here, so all redo records of one operation
        #: reach disk atomically.
        self.on_op_end = []
        #: Callbacks ``(txn,)`` fired by the transaction manager when a
        #: transaction commits / aborts.  The durability journal flushes
        #: the transaction's batched redo records on commit and drops
        #: them on abort.
        self.on_txn_commit = []
        self.on_txn_abort = []
        #: Callbacks ``(uid, attribute)`` fired by attribute-granular
        #: reads (:meth:`value`) and, with attribute ``None`` (a
        #: whole-object footprint), by the Section 3 reads through
        #: :meth:`note_reads`.  :meth:`resolve` is the access path every
        #: operation takes and fires none.  The isolation-history
        #: recorder subscribes here; the list is empty otherwise and the
        #: read path pays one truthiness check.
        self.on_read = []
        #: Callbacks ``(uid,)`` fired when :meth:`discard` removes an
        #: instance (the deletion engine's funnel) — the isolation-
        #: history recorder models a delete as the object's final write.
        self.on_delete = []
        #: Callbacks ``(instance,)`` fired *before* a mutation funnel
        #: changes an instance's forward state (and before ``discard``
        #: drops it).  The MVCC snapshot manager captures the
        #: pre-change image here, once per instance per commit scope,
        #: so snapshot readers below the current epoch still see the
        #: committed state while a writer holds X-locks.
        self.on_before_change = []
        #: Callbacks ``()`` fired by :meth:`topology_reset`: instances
        #: were installed, dropped or re-referenced *behind* ``on_link`` /
        #: ``on_unlink`` / ``on_delete``, so whatever is derived from the
        #: composite topology (the authorization engine's resolution
        #: cache) must be thrown away whole.
        self.on_topology_reset = []
        #: Callbacks ``(uid, attribute, epoch)`` fired by the MVCC
        #: snapshot-read path (attribute ``None`` for whole-object
        #: footprints).  The isolation-history recorder subscribes here
        #: to attribute the read to the *version installed at or below
        #: that epoch* rather than the live tail.
        self.on_snapshot_read = []
        #: Commit epoch: the journal mirrors its monotonic batch
        #: sequence here on every seal (the MVCC snapshot token).  A
        #: database without a journal has it bumped by the snapshot
        #: manager instead; it stays 0 when neither is attached.
        self.commit_epoch = 0
        #: The attached :class:`repro.mvcc.manager.SnapshotManager`
        #: (None when MVCC is off); the transaction manager routes
        #: snapshot-mode reads through it.
        self.snapshot_manager = None
        #: The transaction whose operation is currently executing (set by
        #: :meth:`txn_context`); the journal routes redo records of an
        #: open transaction into that transaction's commit batch.
        self.current_txn = None
        #: Nesting depth of :meth:`_operation` brackets (``make_part_of``
        #: delegates to ``insert_into``/``set_value``, so brackets nest).
        self._op_depth = 0
        #: The undo stream of the running operation: every edit funnel
        #: appends its exact inverse here as a tuple ``(funnel, *args)``.
        #: A bracket whose operation raises replays its part; the
        #: outermost one otherwise hands the list to
        #: ``current_txn.undo_log`` (or drops it).
        self._undo = []
        #: Counter of instance accesses (benchmarks read this).
        self.access_count = 0
        #: UID whose first store write is deferred to ``make`` placement.
        self._placement_pending = None
        #: Subsystem managers register themselves here on construction so
        #: the analysis plane (``Database.fsck()``, ``repro-check``, the
        #: server's ``check`` op) can audit everything that is wired up.
        self.versions = None
        self.evolution = None
        self.auth_engine = None

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------

    def make_class(
        self,
        name,
        superclasses=(),
        attributes=(),
        versionable=False,
        segment="",
        document="",
    ):
        """Define a class (the ``make-class`` message, paper 2.3).

        *attributes* is a sequence of :class:`AttributeSpec` (or dicts of
        keyword arguments for one).
        """
        specs = {}
        for item in attributes:
            spec = item if isinstance(item, AttributeSpec) else AttributeSpec(**item)
            if spec.name in specs:
                raise ClassDefinitionError(
                    f"class {name!r}: duplicate attribute {spec.name!r}"
                )
            specs[spec.name] = spec
        classdef = ClassDef(
            name=name,
            superclasses=tuple(superclasses),
            local=specs,
            versionable=versionable,
            segment=segment,
            document=document,
        )
        return self.lattice.define(classdef)

    def classdef(self, name):
        """The :class:`ClassDef` named *name*."""
        return self.lattice.get(name)

    # ------------------------------------------------------------------
    # Operation / transaction scoping (durability batching)
    # ------------------------------------------------------------------

    def _operation(self):
        """Bracket one mutating operation and make it atomic.

        If the operation raises, the inverses its edits recorded are
        replayed (newest first) before the error propagates.  When the
        outermost bracket succeeds its inverses move to the current
        transaction's undo log, or are dropped outside a transaction.

        ``on_op_end`` listeners run when the outermost bracket exits —
        on success *and* on failure, because a failed operation may have
        journaled compensating images that must still reach disk.
        """
        return _OpScope(self)

    def rollback(self, log):
        """Undo a transaction's undo *log* (the transaction manager's abort)."""
        with self._operation():
            self._replay(log, 0)

    def _replay(self, log, mark):
        """Pop and apply the inverses in ``log[mark:]``, newest first.

        Each is an ordinary funnel call, so every hook consumer sees undo
        as plain edits (what those calls record is discarded); each
        touched instance is persisted once at the end.  A listener that
        raises while an inverse is announced does not stop the replay:
        every inverse is applied, and the first such error is raised
        once the state is whole again.
        """
        saved, self._undo = self._undo, []
        touched = {}
        failure = None
        try:
            while len(log) > mark:
                funnel, instance, *args = log.pop()
                touched[instance] = None
                try:
                    funnel(instance, *args)
                except Exception as error:
                    failure = failure or error
        finally:
            self._undo = saved
        for instance in touched:
            self.persist(instance)
        if failure is not None:
            raise failure

    def txn_context(self, txn):
        """Mark *txn* as the transaction executing the enclosed operation
        (the transaction manager wraps every data operation in this, so
        the journal can batch redo records per transaction)."""
        return _TxnScope(self, txn)

    # ------------------------------------------------------------------
    # Object table plumbing (used by the subsystem engines)
    # ------------------------------------------------------------------

    def resolve(self, uid):
        """Return the live instance of *uid*, applying access hooks.

        This is *the* access path: the deferred schema-evolution catch-up
        of paper 4.3 ("When an instance of C is accessed, the CC of the
        instance is checked against the CC in the operation log") happens
        here.
        """
        instance = self._objects.get(uid)
        if instance is None or instance.deleted:
            raise UnknownObjectError(uid)
        self.access_count += 1
        for hook in self.access_hooks:
            hook(instance)
        return instance

    def peek(self, uid):
        """Return the instance without hooks/erroring (None when absent)."""
        instance = self._objects.get(uid)
        if instance is None or instance.deleted:
            return None
        return instance

    def exists(self, uid):
        """True when *uid* names a live object."""
        return self.peek(uid) is not None

    def class_of(self, uid):
        """Current class name of *uid*.

        Prefer this over ``uid.class_name``: the UID embeds the class the
        object was *born* in (for segment routing), which goes stale when
        the class is renamed (schema evolution).
        """
        instance = self.peek(uid)
        return instance.class_name if instance is not None else uid.class_name

    def live_instances(self):
        """Iterate over all live instances."""
        return (obj for obj in self._objects.values() if not obj.deleted)

    def instances_of(self, class_name, include_subclasses=True):
        """Live instances of *class_name* (and subclasses by default)."""
        names = (
            self.lattice.class_hierarchy_scope(class_name)
            if include_subclasses
            else [class_name]
        )
        results = []
        for name in names:
            for uid in sorted(self._extents.get(name, ()),
                              key=lambda u: u.number):
                instance = self.peek(uid)
                if instance is not None:
                    results.append(instance)
        return results

    def rebuild_extents(self):
        """Recompute the class extents (after a class rename)."""
        self._extents.clear()
        for instance in self.live_instances():
            self._extents.setdefault(instance.class_name, set()).add(
                instance.uid
            )

    def topology_reset(self):
        """Announce a change to the object table or to reverse composite
        references that bypassed the mutation funnels.

        Every path that writes ``_objects`` or patches reverse references
        directly calls this when it is done: journal recovery, in-doubt
        2PC resolution, replica apply, deferred schema-evolution
        catch-up.  (Undo does not: it edits through the funnels.)
        Forgetting the call leaves a stale implicit authorization in
        force -- a bypass, not a slow path.
        """
        for callback in self.on_topology_reset:
            callback()

    # ------------------------------------------------------------------
    # Edit funnels: the only code that changes instances or the object
    # table.  Each records its exact inverse on the undo stream first
    # (codelint's CODE-EDIT-FUNNEL keeps raw edits inside them).
    # ------------------------------------------------------------------

    def _put(self, instance, attribute, value):
        """Set one forward value.  Writers always store a fresh list for
        a set-of attribute, so the old value is kept by reference.  An
        instance mid-``make`` records nothing: discarding it undoes it."""
        for callback in self.on_before_change:
            callback(instance)
        if instance.uid is not self._placement_pending:
            self._undo.append((self._put, instance, attribute, instance.get(attribute)))
        instance.set(attribute, value)
        for callback in self.on_update:
            callback(instance, attribute)

    def _add_reference(self, child, parent_uid, spec):
        """Give *child* a reverse reference to *parent_uid.spec*."""
        child.add_reverse_reference(parent_uid, spec.dependent, spec.exclusive, spec.name)
        self._undo.append((self._remove_reference, child, parent_uid, spec.name))

    def _remove_reference(self, child, parent_uid, attribute):
        """Drop *child*'s reverse reference to *parent_uid.attribute*;
        returns it (None when absent)."""
        references = child.reverse_references
        for index, ref in enumerate(references):
            if ref.parent == parent_uid and ref.attribute == attribute:
                self._undo.append((self._restore_reference, child, index, ref))
                del references[index]
                return ref
        return None

    def _restore_reference(self, child, index, ref):
        """Put reverse reference *ref* back at its original *index*."""
        self._undo.append((self._remove_reference, child, ref.parent, ref.attribute))
        child.reverse_references.insert(index, ref)

    def _announce(self, parent, spec, child, linked):
        """Tell the ``on_link`` (*linked*) or ``on_unlink`` listeners
        about a composite link parent --spec--> child."""
        self._undo.append((self._announce, parent, spec, child, not linked))
        for callback in self.on_link if linked else self.on_unlink:
            callback(parent, spec, child)

    def _install(self, instance):
        """Enter *instance* into the object table as a live object."""
        self._undo.append((self.discard, instance))
        instance.deleted = False
        self._objects[instance.uid] = instance
        self._extents.setdefault(instance.class_name, set()).add(instance.uid)

    def _reinstate(self, instance):
        """Inverse of :meth:`discard`: reinstall and announce *instance*."""
        self._install(instance)
        for callback in self.on_update:
            callback(instance, None)

    def discard(self, instance):
        """Remove *instance* from the object table and store (the
        deletion engine's funnel); it reads as deleted from here on."""
        for callback in self.on_before_change:
            callback(instance)
        self._undo.append((self._reinstate, instance))
        instance.deleted = True
        del self._objects[instance.uid]
        self._extents.get(instance.class_name, set()).discard(instance.uid)
        for callback in self.on_delete:
            callback(instance.uid)
        for callback in self.on_update:
            callback(instance, None)
        if self.store is not None:
            self.store.delete(instance.uid)

    def persist(self, instance, near_uid=None):
        """Write-through *instance* to the paged store and notify
        persistence listeners (the durability journal)."""
        if instance.deleted:
            return
        if instance.uid == self._placement_pending:
            # The object is mid-``make``: its first write must be the
            # placement-aware one (clustering hint), not an incidental
            # write-through from link bookkeeping.
            return
        for callback in self.on_persist:
            callback(instance)
        if self.store is None:
            return
        segment = self.clustering.segment_for_class(instance.class_name)
        self.store.write(instance, segment, near_uid=near_uid)

    # ------------------------------------------------------------------
    # Instance creation (the ``make`` message, paper 2.3)
    # ------------------------------------------------------------------

    def make(self, class_name, values=None, parents=(), **kw_values):
        """Create an instance, optionally as a part of existing parents.

        *parents* is a sequence of ``(parent_uid, attribute_name)`` pairs —
        the ``:parent`` keyword.  "If ParentAttributeName.i is a composite
        attribute, the new instance becomes part of ParentObject.i"; when
        several composite parents are given they must all be shared
        composite attributes (Topology Rule 3), which is checked *before*
        any state changes.

        *values* / keyword arguments supply attribute values; a UID value
        for a composite attribute makes that existing object a component of
        the new instance (Make-Component Rule enforced).

        Returns the new instance's UID.
        """
        with self._operation():
            return self._make(class_name, values, parents, **kw_values)

    def _make(self, class_name, values, parents, **kw_values):
        classdef = self.lattice.get(class_name)
        # The lattice's own string, not the caller's (a decoded
        # request's copy): the instance and its UID share it.
        class_name = classdef.name
        merged = dict(values or {})
        merged.update(kw_values)

        parent_pairs = [(p, a) for p, a in parents]
        self._check_parent_pairs(parent_pairs)

        uid = self.allocator.allocate(class_name)
        born_cc = self.cc_provider(class_name) if self.cc_provider else 0
        # Every effective attribute starts at its init value (or
        # None/empty) unless a value is supplied.
        instance = Instance(uid, class_name, change_count=born_cc, values={
            spec.name: (list(spec.init) if spec.init else [])
            if spec.is_set else spec.init
            for spec in classdef.attributes()
            if spec.name not in merged
        })
        # Left set if the wiring below raises: the bracket's rollback
        # then discards an object that must read as never having existed.
        self._placement_pending = uid
        self._install(instance)
        for name, value in merged.items():
            self._assign(instance, classdef.attribute(name), value)
        for parent_uid, attribute in parent_pairs:
            self._attach_child(parent_uid, attribute, uid)
        self._placement_pending = None

        if self.store is not None:
            segment, near_hint = self.clustering.placement(
                class_name, [p for p, _ in parent_pairs]
            )
            self.store.write(instance, segment, near_uid=near_hint)
        # Persist mutated parents even without a paged store: the
        # durability journal listens on on_persist, and the parent's
        # forward set just grew.
        for parent_uid, _ in parent_pairs:
            parent = self.peek(parent_uid)
            if parent is not None:
                self.persist(parent)
        for callback in self.on_update:
            callback(instance, None)
        return uid

    def _check_parent_pairs(self, parent_pairs):
        """Pre-validate the ``:parent`` list (paper 2.3).

        "When more than one (ParentObject.i ParentAttributeName.i) is
        specified such that ParentAttributeName.i is a composite attribute,
        then ... these attributes must be shared composite attributes."
        """
        composite_pairs = []
        for parent_uid, attribute in parent_pairs:
            parent = self.resolve(parent_uid)
            spec = self.lattice.get(parent.class_name).attribute(attribute)
            if spec.is_composite:
                composite_pairs.append((parent_uid, attribute, spec))
        if len(composite_pairs) > 1:
            offenders = [
                f"{p}.{a}" for p, a, s in composite_pairs if not s.is_shared_composite
            ]
            if offenders:
                raise TopologyError(
                    "multiple composite parents require shared composite "
                    f"attributes; exclusive: {', '.join(offenders)}",
                    rule=3,
                )

    # ------------------------------------------------------------------
    # Attribute access and update
    # ------------------------------------------------------------------

    def value(self, uid, attribute):
        """Read one attribute value."""
        instance = self.resolve(uid)
        classdef = self.lattice.get(instance.class_name)
        spec = classdef.attribute(attribute)
        if self.on_read:
            for callback in self.on_read:
                callback(uid, attribute)
        value = instance.get(attribute)
        if spec.is_set and value is None:
            return []
        return list(value) if spec.is_set else value

    def set_value(self, uid, attribute, value):
        """Set a single-valued attribute.

        For composite attributes this unlinks the old component (removing
        its reverse reference) and links the new one under the
        Make-Component Rule.
        """
        instance = self.resolve(uid)
        spec = self.lattice.get(instance.class_name).attribute(attribute)
        if spec.is_set:
            raise DomainError(
                f"{instance.class_name}.{attribute} is a set-of attribute; "
                f"use insert_into/remove_from"
            )
        with self._operation():
            self._assign(instance, spec, value)
            self.persist(instance)

    def insert_into(self, uid, attribute, member):
        """Add *member* to a set-of attribute (linking when composite)."""
        instance = self.resolve(uid)
        spec = self.lattice.get(instance.class_name).attribute(attribute)
        if not spec.is_set:
            raise DomainError(
                f"{instance.class_name}.{attribute} is single-valued; use set_value"
            )
        if member in (instance.get(attribute) or ()):
            return False
        with self._operation():
            self._add_member(instance, spec, member)
            self.persist(instance)
        return True

    def remove_from(self, uid, attribute, member):
        """Remove *member* from a set-of attribute (unlinking when composite)."""
        instance = self.resolve(uid)
        spec = self.lattice.get(instance.class_name).attribute(attribute)
        if not spec.is_set:
            raise DomainError(
                f"{instance.class_name}.{attribute} is single-valued; use set_value"
            )
        current = instance.get(attribute) or []
        if member not in current:
            return False
        with self._operation():
            if spec.is_composite:
                self._unlink_component(instance, spec, member)
            self._put(instance, attribute, [v for v in current if v != member])
            self.persist(instance)
        return True

    def make_part_of(self, child_uid, parent_uid, attribute):
        """Make existing *child_uid* a part of *parent_uid* (bottom-up).

        This is the paper's algorithm of Section 2.4 ("making an existing
        object O a part of another object O' through an attribute A"),
        enabled by the extended model: "This prevents a bottom-up creation
        of objects by assembling already existing objects" was shortcoming
        2 of [KIM87b].
        """
        parent = self.resolve(parent_uid)
        spec = self.lattice.get(parent.class_name).attribute(attribute)
        if spec.is_set:
            return self.insert_into(parent_uid, attribute, child_uid)
        self.set_value(parent_uid, attribute, child_uid)
        return True

    def remove_part_of(self, child_uid, parent_uid, attribute):
        """Detach *child_uid* from *parent_uid.attribute* (never deletes).

        Reference removal only severs the IS-PART-OF link; existence
        dependency fires exclusively on object deletion (the paper's
        Deletion Rule is defined on ``del`` only).
        """
        parent = self.resolve(parent_uid)
        spec = self.lattice.get(parent.class_name).attribute(attribute)
        if spec.is_set:
            return self.remove_from(parent_uid, attribute, child_uid)
        if parent.get(attribute) != child_uid:
            return False
        self.set_value(parent_uid, attribute, None)
        return True

    # -- assignment internals ---------------------------------------------

    def _assign(self, instance, spec, value):
        """Assign *value* to *spec* on *instance*, maintaining reverse refs."""
        if spec.is_set:
            members = list(value or [])
            if len(set(members)) != len(members):
                raise DomainError(
                    f"{instance.class_name}.{spec.name}: duplicate members"
                )
            for member in members:
                self._check_member(spec, member)
            old_members = instance.get(spec.name) or []
            if spec.is_composite:
                for member in old_members:
                    if member not in members:
                        self._unlink_component(instance, spec, member)
                for member in members:
                    if member not in old_members:
                        self._link_component(instance, spec, member)
            self._put(instance, spec.name, members)
            return
        self._check_member(spec, value)
        old = instance.get(spec.name)
        if spec.is_composite:
            if old is not None and old != value:
                self._unlink_component(instance, spec, old)
            if value is not None and value != old:
                self._link_component(instance, spec, value)
        self._put(instance, spec.name, value)

    def _check_member(self, spec, value):
        """Domain-check one element value for *spec*."""
        if value is None:
            return
        if spec.is_primitive:
            if not spec.accepts_primitive(value):
                raise DomainError(
                    f"attribute {spec.name!r}: {value!r} is not a "
                    f"{spec.domain_class}"
                )
            return
        # Reference domain: value must be a live UID of the domain class
        # (or a subclass of it).
        target = self.peek(value) if not isinstance(value, (int, float, str)) else None
        if target is None:
            raise DomainError(
                f"attribute {spec.name!r}: {value!r} is not a live object UID"
            )
        if spec.domain_class != "any" and not self.lattice.is_subclass(
            target.class_name, spec.domain_class
        ):
            raise DomainError(
                f"attribute {spec.name!r}: {value} is a {target.class_name}, "
                f"not a {spec.domain_class}"
            )

    def _link_component(self, instance, spec, child_uid):
        """Add the IS-PART-OF link instance --spec--> child_uid."""
        child = self.resolve(child_uid)
        if self.link_policy is not None:
            # The policy owns the topology invariants (version rule CV-2X
            # legitimately relaxes them for generic instances).
            self.link_policy(instance, spec, child)
        else:
            check_make_component(child, spec, parent_uid=instance.uid)
        self._add_reference(child, instance.uid, spec)
        if self.link_policy is None:
            check_topology_rules(child)
        self._announce(instance, spec, child, True)
        self.persist(child)

    def _unlink_component(self, instance, spec, child_uid):
        """Remove the IS-PART-OF link instance --spec--> child_uid;
        returns the removed reverse reference (None when there was none)."""
        child = self.peek(child_uid)
        if child is None:
            return None
        removed = self._remove_reference(child, instance.uid, spec.name)
        if removed is not None:
            self._announce(instance, spec, child, False)
            self.persist(child)
        return removed

    def _add_member(self, instance, spec, member):
        """Append *member* to set-of attribute *spec*, linking if composite."""
        self._check_member(spec, member)
        if spec.is_composite:
            self._link_component(instance, spec, member)
        self._put(instance, spec.name, [*(instance.get(spec.name) or ()), member])

    def _attach_child(self, parent_uid, attribute, child_uid):
        """Wire a new instance into *parent_uid.attribute* (the ``:parent``
        keyword path of ``make``)."""
        parent = self.resolve(parent_uid)
        spec = self.lattice.get(parent.class_name).attribute(attribute)
        if not spec.is_set:
            self._assign(parent, spec, child_uid)
        elif child_uid not in (parent.get(attribute) or ()):
            self._add_member(parent, spec, child_uid)

    def iter_composite_values(self, instance):
        """Yield ``(attribute_name, child_uid)`` for every composite
        forward reference held by *instance* (read from its class's
        ``composite_slots``)."""
        values = instance.values
        for name, is_set, _exclusive in self.lattice.get(
                instance.class_name).composite_slots:
            value = values.get(name)
            if value is None:
                continue
            if is_set:
                for member in value:
                    yield name, member
            else:
                yield name, value

    def _unlink_forward_value(self, parent, attribute, child_uid):
        """Drop *child_uid* from *parent.attribute* (deletion fix-up).

        Unlike :meth:`remove_from`, this does not touch reverse references
        (the child is being deleted) and tolerates stale schema states.
        """
        value = parent.get(attribute)
        if isinstance(value, list):
            if child_uid not in value:
                return False
            self._put(parent, attribute, [v for v in value if v != child_uid])
            return True
        if value != child_uid:
            return False
        self._put(parent, attribute, None)
        return True

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------

    def delete(self, uid):
        """Delete *uid* under the Deletion Rule; returns a DeletionReport."""
        with self._operation():
            return self._deletion.delete(uid)

    # ------------------------------------------------------------------
    # Section 3 operations, re-exported
    # ------------------------------------------------------------------

    def note_reads(self, uids):
        """Tell the ``on_read`` observers that the running operation read
        the whole objects *uids*.  Callers test ``on_read`` first, so an
        unobserved read pays one truthiness check."""
        for callback in self.on_read:
            for uid in uids:
                callback(uid, None)

    def components_of(self, uid, classes=None, exclusive=False, shared=False, level=None):
        """``components-of`` (see :mod:`repro.core.operations`)."""
        result = ops.components_of(self, uid, classes, exclusive, shared, level)
        if self.on_read:
            # A composite read's data footprint is the root plus every
            # returned component (whole-object granularity).
            self.note_reads([uid, *result])
        return result

    def children_of(self, uid, classes=None, exclusive=False, shared=False):
        """Direct components of *uid* (``components-of`` at level 1)."""
        return self.components_of(uid, classes, exclusive, shared, level=1)

    def parents_of(self, uid, classes=None, exclusive=False, shared=False):
        """``parents-of``; its footprint is *uid*'s reverse references."""
        result = ops.parents_of(self, uid, classes, exclusive, shared)
        if self.on_read:
            self.note_reads((uid,))
        return result

    def ancestors_of(self, uid, classes=None, exclusive=False, shared=False):
        """``ancestors-of``; its footprint is *uid* and every ancestor
        whose reverse references the walk read."""
        read = [] if self.on_read else None
        result = ops.ancestors_of(self, uid, classes, exclusive, shared, read)
        if read:
            self.note_reads(read)
        return result

    def child_of(self, uid1, uid2):
        """``child-of``."""
        return ops.child_of(self, uid1, uid2)

    def component_of(self, uid1, uid2):
        """``component-of``."""
        return ops.component_of(self, uid1, uid2)

    def exclusive_component_of(self, uid1, uid2):
        """``exclusive-component-of``."""
        return ops.exclusive_component_of(self, uid1, uid2)

    def shared_component_of(self, uid1, uid2):
        """``shared-component-of``."""
        return ops.shared_component_of(self, uid1, uid2)

    def roots_of(self, uid):
        """Roots of the composite objects containing *uid*; the footprint
        is that of :meth:`ancestors_of`."""
        read = [] if self.on_read else None
        result = ops.roots_of(self, uid, read)
        if read:
            self.note_reads(read)
        return result

    def compositep(self, class_name, attribute=None):
        """``compositep`` class predicate (paper 3.2)."""
        return self.lattice.get(class_name).compositep(attribute)

    def exclusive_compositep(self, class_name, attribute=None):
        """``exclusive-compositep``."""
        return self.lattice.get(class_name).exclusive_compositep(attribute)

    def shared_compositep(self, class_name, attribute=None):
        """``shared-compositep``."""
        return self.lattice.get(class_name).shared_compositep(attribute)

    def dependent_compositep(self, class_name, attribute=None):
        """``dependent-compositep``."""
        return self.lattice.get(class_name).dependent_compositep(attribute)

    # ------------------------------------------------------------------
    # Invariant validation (tests & property-based checks)
    # ------------------------------------------------------------------

    def validate(self):
        """Check global invariants; raises on violation.

        1. Topology Rules 1-3 hold for every live object.
        2. Every forward composite reference has a matching reverse
           reference with the right flags, and vice versa.
        3. No composite reference targets a deleted object.
        """
        for instance in self.live_instances():
            exempt = (
                self.topology_exempt is not None
                and self.topology_exempt(instance.uid)
            )
            if not exempt:
                check_topology_rules(instance)
            classdef = self.lattice.get(instance.class_name)
            for attr, child_uid in self.iter_composite_values(instance):
                child = self.peek(child_uid)
                if child is None:
                    raise TopologyError(
                        f"{instance.uid}.{attr} references dead object {child_uid}"
                    )
                spec = classdef.attribute(attr)
                ref = child.find_reverse_reference(instance.uid, attr)
                if ref is None:
                    raise TopologyError(
                        f"missing reverse reference: {instance.uid}.{attr} -> "
                        f"{child_uid}"
                    )
                if ref.exclusive != spec.exclusive or ref.dependent != spec.dependent:
                    raise TopologyError(
                        f"reverse-reference flags of {child_uid} disagree with "
                        f"schema of {instance.class_name}.{attr}"
                    )
            for ref in instance.reverse_references:
                parent = self.peek(ref.parent)
                if parent is None:
                    raise TopologyError(
                        f"{instance.uid} has a reverse reference to dead "
                        f"parent {ref.parent}"
                    )
                forward = parent.get(ref.attribute)
                present = (
                    instance.uid in forward
                    if isinstance(forward, list)
                    else forward == instance.uid
                )
                if not present:
                    raise TopologyError(
                        f"stale reverse reference: {instance.uid} claims parent "
                        f"{ref.parent}.{ref.attribute}"
                    )
        return True

    def fsck(self):
        """Audit every invariant; returns an analysis ``Report``.

        Unlike :meth:`validate`, which raises on the first violation,
        fsck keeps going and reports *every* problem as a finding — and
        also covers the version registry, ref-counts, extents, and
        authorization graph of whatever managers are registered (see
        :mod:`repro.analysis.fsck`).
        """
        from ..analysis.fsck import fsck_database

        return fsck_database(self)

    def check_schema(self):
        """Run the static schema analyzer; returns an analysis ``Report``
        (see :mod:`repro.analysis.schema_check`)."""
        from ..analysis.schema_check import SchemaAnalyzer

        return SchemaAnalyzer(self.lattice).analyze()

    def __len__(self):
        return sum(1 for _ in self.live_instances())

    def __contains__(self, uid):
        return self.exists(uid)


class _OpScope:
    """One :meth:`Database._operation` bracket.  A plain object rather
    than a generator, because every edit of a committed operation runs
    inside one."""

    __slots__ = ("_db", "_log", "_mark")

    def __init__(self, db):
        self._db = db

    def __enter__(self):
        db = self._db
        log = self._log = db._undo
        self._mark = len(log)
        db._op_depth += 1

    def __exit__(self, kind, _error, _tb):
        db = self._db
        log = self._log
        try:
            if kind is not None:
                db._replay(log, self._mark)
        finally:
            db._op_depth -= 1
            if db._op_depth == 0:
                if db.current_txn is not None:
                    db.current_txn.undo_log += log
                log.clear()
                for callback in db.on_op_end:
                    callback()
        return False


class _TxnScope:
    """One :meth:`Database.txn_context` scope: *txn* is the database's
    ``current_txn`` inside it, and the previous one again on the way
    out, also when the body raises.  A plain object rather than a
    generator, because every transaction-manager data op enters one."""

    __slots__ = ("_db", "_txn", "_previous")

    def __init__(self, db, txn):
        self._db = db
        self._txn = txn

    def __enter__(self):
        db = self._db
        self._previous = db.current_txn
        db.current_txn = self._txn

    def __exit__(self, *_exc):
        self._db.current_txn = self._previous
