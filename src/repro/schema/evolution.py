"""Schema evolution over composite attributes (paper Section 4).

Implements the subset of the [BANE87b] schema-change taxonomy whose
semantics the extended composite-object model alters (4.1), the
attribute-type changes (4.2), and both the *immediate* and *deferred*
implementation strategies (4.3).

Structural changes
------------------
* :meth:`SchemaEvolutionManager.drop_attribute` — instances lose their
  values; objects referenced through a composite attribute are dropped
  "in accordance with the Deletion Rule" (dependent references cascade,
  independent ones merely unlink).
* :meth:`~SchemaEvolutionManager.change_attribute_inheritance` — inherit
  the same-named attribute from a different superclass.
* :meth:`~SchemaEvolutionManager.remove_superclass` — composite attributes
  lost with the superclass behave like dropped attributes.
* :meth:`~SchemaEvolutionManager.drop_class` — instances of the class are
  deleted (cascading per the Deletion Rule); subclasses re-attach to the
  dropped class's superclasses.

Attribute-type changes
----------------------
State-independent (remove a constraint, or touch only the D flag):

* **I1** composite -> non-composite
* **I2** exclusive -> shared
* **I3** dependent -> independent
* **I4** independent -> dependent

each available ``mode="immediate"`` (patch every affected instance now) or
``mode="deferred"`` (log the change; instances catch up when accessed —
see :mod:`repro.schema.oplog`).

State-dependent (add a constraint; always immediate, verified first):

* **D1** non-composite -> exclusive composite
* **D2** non-composite -> shared composite
* **D3** shared -> exclusive composite

D1/D2 are expensive by design: a weak reference has no reverse reference,
so step 1 scans every instance of the owning class (benchmark B2 measures
exactly this asymmetry against D3, which reads reverse references).
"""

from __future__ import annotations

from ..errors import (
    SchemaEvolutionError,
    StateDependentChangeRejected,
    UnknownAttributeError,
)
from .oplog import OperationLogRegistry
from .taxonomy import TaxonomyMixin

#: Labels of the deferrable state-independent changes.
STATE_INDEPENDENT_CHANGES = ("I1", "I2", "I3", "I4")
#: Labels of the state-dependent changes.
STATE_DEPENDENT_CHANGES = ("D1", "D2", "D3")


class SchemaEvolutionManager(TaxonomyMixin):
    """Applies schema changes to a :class:`repro.Database`.

    One manager per database; constructing it registers the deferred
    catch-up access hook and the new-instance CC provider.
    """

    def __init__(self, database):
        self._db = database
        self.oplog = OperationLogRegistry()
        #: Instances patched lazily so far (benchmark metric).
        self.deferred_applications = 0
        #: Instances patched eagerly so far (benchmark metric).
        self.immediate_applications = 0
        database.access_hooks.append(self._catch_up)
        database.cc_provider = lambda class_name: self.oplog.current_cc
        database.evolution = self
        #: Analyzer report of the most recent pre-flighted change (see
        #: :meth:`preflight`); None before any change runs.
        self.last_preflight = None
        #: When True, a change whose pre-flight finds errors is rejected
        #: before anything is touched.
        self.strict_preflight = False

    def preflight(self, change, class_name, attribute=None):
        """Consult the static analyzer (Plane 1) before a schema change.

        Every destructive operation calls this first; the report is kept
        in :attr:`last_preflight` so callers can inspect what the change
        would strand or cascade.  With :attr:`strict_preflight` set,
        error findings reject the change outright.
        """
        from ..analysis.schema_check import SchemaAnalyzer

        report = SchemaAnalyzer(self._db.lattice).preflight(
            change, class_name, attribute
        )
        self.last_preflight = report
        if self.strict_preflight and report.errors:
            raise SchemaEvolutionError(
                f"{change} rejected by pre-flight: "
                + "; ".join(f.message for f in report.errors)
            )
        return report

    # ------------------------------------------------------------------
    # 4.1 — structural changes
    # ------------------------------------------------------------------

    def drop_attribute(self, class_name, attribute):
        """Drop attribute A from class C (and subclasses inheriting it).

        "This operation causes all instances of the class C to lose their
        values for attribute A. If A is a composite attribute, objects that
        are referenced through A are deleted in accordance with the
        Deletion Rule."
        """
        db = self._db
        self.preflight("drop_attribute", class_name, attribute)
        classdef = db.lattice.get(class_name)
        spec = classdef.attribute(attribute)
        if spec.defined_in != class_name:
            raise SchemaEvolutionError(
                f"{class_name}.{attribute} is inherited from "
                f"{spec.defined_in}; drop it there"
            )
        affected = [class_name] + [
            sub
            for sub in db.lattice.all_subclasses(class_name)
            if self._inherits_attribute(sub, attribute, class_name)
        ]
        for owner in affected:
            for instance in db.instances_of(owner, include_subclasses=False):
                self._drop_instance_attribute(instance, spec)
        del classdef.local[attribute]
        db.lattice.reresolve_subtree(class_name)
        self._drop_stale_values(affected, attribute)
        return affected

    def change_attribute_inheritance(self, class_name, attribute, from_superclass):
        """Inherit *attribute* from *from_superclass* instead (4.1 item 2).

        The class must currently inherit an attribute of that name, and the
        named superclass must provide one.  When the two definitions differ
        in composite semantics the instance-level flags are patched like an
        attribute-type change.
        """
        db = self._db
        classdef = db.lattice.get(class_name)
        old_spec = classdef.attribute(attribute)
        sup = db.lattice.get(from_superclass)
        if from_superclass not in db.lattice.all_superclasses(class_name):
            raise SchemaEvolutionError(
                f"{from_superclass} is not a superclass of {class_name}"
            )
        try:
            new_spec = sup.attribute(attribute)
        except UnknownAttributeError:
            raise SchemaEvolutionError(
                f"{from_superclass} does not define attribute {attribute!r}"
            ) from None
        marker = new_spec.evolved(inherit_from=from_superclass)
        classdef.local[attribute] = marker
        db.lattice.reresolve_subtree(class_name)
        self._reconcile_type_change(class_name, old_spec, marker)
        return marker

    def remove_superclass(self, class_name, superclass):
        """Remove S from C's superclass list (4.1 item 3).

        Attributes C only had through S disappear; composite ones behave
        like :meth:`drop_attribute` for C and its subclasses.
        """
        db = self._db
        self.preflight("remove_superclass", class_name, superclass)
        classdef = db.lattice.get(class_name)
        if superclass not in classdef.superclasses:
            raise SchemaEvolutionError(
                f"{superclass} is not a direct superclass of {class_name}"
            )
        before = dict(classdef.effective)
        remaining = tuple(s for s in classdef.superclasses if s != superclass)
        classdef.superclasses = remaining or ("object",)
        db.lattice._subclasses[superclass].discard(class_name)
        for sup in classdef.superclasses:
            db.lattice._subclasses[sup].add(class_name)
        db.lattice.reresolve_subtree(class_name)
        after = classdef.effective
        lost = [spec for name, spec in before.items() if name not in after]
        scope = [class_name] + db.lattice.all_subclasses(class_name)
        for spec in lost:
            for owner in scope:
                for instance in db.instances_of(owner, include_subclasses=False):
                    self._drop_instance_attribute(instance, spec)
            self._drop_stale_values(scope, spec.name)
        return [spec.name for spec in lost]

    def drop_class(self, class_name):
        """Drop an existing class C (4.1 item 4).

        Instances of C are deleted under the Deletion Rule; subclasses
        become immediate subclasses of C's superclasses and keep their own
        instances (minus C's attributes).
        """
        db = self._db
        self.preflight("drop_class", class_name)
        classdef = db.lattice.get(class_name)
        for instance in list(db.instances_of(class_name, include_subclasses=False)):
            if db.exists(instance.uid):
                db.delete(instance.uid)
        lost_attrs = [
            spec for spec in classdef.local.values()
        ]
        subclasses = db.lattice.all_subclasses(class_name)
        db.lattice.remove(class_name)
        for spec in lost_attrs:
            survivors = [
                sub for sub in subclasses
                if sub in db.lattice and not db.lattice.get(sub).has_attribute(spec.name)
            ]
            for owner in survivors:
                for instance in db.instances_of(owner, include_subclasses=False):
                    self._drop_instance_attribute(instance, spec)
            self._drop_stale_values(survivors, spec.name)
        return subclasses

    # ------------------------------------------------------------------
    # 4.2/4.3 — state-independent attribute-type changes (I1-I4)
    # ------------------------------------------------------------------

    def make_noncomposite(self, class_name, attribute, mode="immediate"):
        """**I1** — change a composite attribute to a non-composite one."""
        self.preflight("I1", class_name, attribute)
        spec = self._composite_spec(class_name, attribute)
        self._apply_state_independent("I1", class_name, spec, mode)
        return self._rewrite_spec(class_name, attribute, composite=False)

    def make_shared(self, class_name, attribute, mode="immediate"):
        """**I2** — change an exclusive composite attribute to shared."""
        self.preflight("I2", class_name, attribute)
        spec = self._composite_spec(class_name, attribute)
        if not spec.exclusive:
            raise SchemaEvolutionError(f"{class_name}.{attribute} is already shared")
        self._apply_state_independent("I2", class_name, spec, mode)
        return self._rewrite_spec(class_name, attribute, exclusive=False)

    def make_independent(self, class_name, attribute, mode="immediate"):
        """**I3** — change a dependent composite attribute to independent."""
        self.preflight("I3", class_name, attribute)
        spec = self._composite_spec(class_name, attribute)
        if not spec.dependent:
            raise SchemaEvolutionError(
                f"{class_name}.{attribute} is already independent"
            )
        self._apply_state_independent("I3", class_name, spec, mode)
        return self._rewrite_spec(class_name, attribute, dependent=False)

    def make_dependent(self, class_name, attribute, mode="immediate"):
        """**I4** — change an independent composite attribute to dependent."""
        self.preflight("I4", class_name, attribute)
        spec = self._composite_spec(class_name, attribute)
        if spec.dependent:
            raise SchemaEvolutionError(f"{class_name}.{attribute} is already dependent")
        self._apply_state_independent("I4", class_name, spec, mode)
        return self._rewrite_spec(class_name, attribute, dependent=True)

    # ------------------------------------------------------------------
    # 4.2/4.3 — state-dependent attribute-type changes (D1-D3)
    # ------------------------------------------------------------------

    def make_exclusive_composite(self, class_name, attribute):
        """**D1** — change a non-composite attribute to exclusive composite.

        Verifies that no referenced instance has *any* composite reference,
        then installs reverse references with the X flag.
        """
        return self._make_composite(class_name, attribute, exclusive=True)

    def make_shared_composite(self, class_name, attribute):
        """**D2** — change a non-composite attribute to shared composite.

        Verifies Topology Rule 3 (no exclusive references to any referenced
        instance).  Step 1 is the paper's "very expensive" full scan: weak
        references have no reverse references to consult.
        """
        return self._make_composite(class_name, attribute, exclusive=False)

    def make_exclusive(self, class_name, attribute):
        """**D3** — change a shared composite attribute to exclusive.

        "Reject the change if an instance O exists such that O has more
        than one reverse composite reference, and at least one of the
        reverse composite references is from an instance of the class C'."
        """
        self.preflight("D3", class_name, attribute)
        db = self._db
        spec = self._composite_spec(class_name, attribute)
        if spec.exclusive:
            raise SchemaEvolutionError(f"{class_name}.{attribute} is already exclusive")
        owners = self._owner_classes(class_name, attribute)
        for target in db.instances_of(spec.domain_class):
            from_owner = [
                ref
                for ref in target.reverse_references
                if ref.attribute == attribute and ref.parent.class_name in owners
            ]
            if from_owner and len(target.reverse_references) > 1:
                raise StateDependentChangeRejected(
                    "D3",
                    target.uid,
                    f"{target.uid} has {len(target.reverse_references)} reverse "
                    f"composite references; cannot make {class_name}.{attribute} "
                    f"exclusive",
                )
        for target in db.instances_of(spec.domain_class):
            for ref in list(target.reverse_references):
                if ref.attribute == attribute and ref.parent.class_name in owners:
                    target.replace_reverse_reference(ref, ref.with_flags(exclusive=True))
                    self.immediate_applications += 1
                    db.persist(target)
        return self._rewrite_spec(class_name, attribute, exclusive=True)

    def _make_composite(self, class_name, attribute, exclusive):
        self.preflight("D1" if exclusive else "D2", class_name, attribute)
        db = self._db
        classdef = db.lattice.get(class_name)
        spec = classdef.attribute(attribute)
        if spec.is_composite:
            raise SchemaEvolutionError(
                f"{class_name}.{attribute} is already composite"
            )
        if spec.is_primitive:
            raise SchemaEvolutionError(
                f"{class_name}.{attribute} has primitive domain "
                f"{spec.domain_class!r}; cannot become composite"
            )
        label = "D1" if exclusive else "D2"
        # Step 1 — find every referenced instance (full scan of C' and
        # subclasses; weak references have no reverse references).
        owners = self._owner_classes(class_name, attribute)
        referenced = {}
        for owner in owners:
            for holder in db.instances_of(owner, include_subclasses=False):
                for target_uid in self._attribute_targets(holder, attribute):
                    referenced.setdefault(target_uid, []).append(holder.uid)
        # Step 2 — verify.  The change *adds* composite references, so the
        # Make-Component Rule applies to every target: an exclusive
        # reference needs a target with no composite reference at all (and
        # exactly one referencing holder); a shared one needs a target with
        # no exclusive reference (Topology Rule 3).
        for target_uid, holders in referenced.items():
            target = db.peek(target_uid)
            if target is None:
                continue
            reason = None
            if exclusive:
                if target.has_composite_reference():
                    reason = (
                        f"{target_uid} already has a composite reference "
                        f"(D1 requires none)"
                    )
                elif len(holders) > 1:
                    reason = (
                        f"{target_uid} is referenced by {len(holders)} "
                        f"instances through {attribute}; exclusive allows one"
                    )
            elif target.has_exclusive_reference():
                reason = (
                    f"{target_uid} has an exclusive composite reference "
                    f"(Topology Rule 3)"
                )
            if reason is not None:
                raise StateDependentChangeRejected(label, target_uid, reason)
        # Step 3 — install reverse composite references.
        new_spec = self._rewrite_spec(
            class_name, attribute, composite=True, exclusive=exclusive
        )
        for target_uid, holders in referenced.items():
            target = db.peek(target_uid)
            if target is None:
                continue
            for holder_uid in holders:
                target.add_reverse_reference(
                    holder_uid,
                    dependent=new_spec.dependent,
                    exclusive=exclusive,
                    attribute=attribute,
                )
                self.immediate_applications += 1
            db.persist(target)
        return new_spec

    # ------------------------------------------------------------------
    # Deferred catch-up (the access hook)
    # ------------------------------------------------------------------

    def _catch_up(self, instance):
        """Bring *instance*'s reverse-reference flags up to date (4.3).

        "When an instance of C is accessed, the CC of the instance is
        checked against the CC in the operation log associated with the
        class: if CC(instance) < CC(class), then the flags in the reverse
        composite reference in the instance must be modified."
        """
        current = self.oplog.current_cc
        if instance.change_count >= current:
            return
        lineage = [instance.class_name] + self._db.lattice.all_superclasses(
            instance.class_name
        )
        pending = self.oplog.entries_for(lineage, newer_than=instance.change_count)
        for entry in pending:
            self._apply_entry_to_instance(instance, entry)
        instance.change_count = current
        if pending:
            self._db.persist(instance)
            # Reverse references were patched outside on_link/on_unlink.
            self._db.topology_reset()

    def catch_up_all(self):
        """Eagerly apply pending deferred changes to every live instance."""
        for instance in list(self._db.live_instances()):
            self._catch_up(instance)

    def _apply_entry_to_instance(self, instance, entry):
        self.deferred_applications += _patch_reverse_references(
            instance, entry.change, entry.attribute, entry.owners
        )

    # ------------------------------------------------------------------
    # Shared internals
    # ------------------------------------------------------------------

    def _inherits_attribute(self, subclass, attribute, origin_class):
        """True when *subclass* sees *attribute* as inherited from
        *origin_class* (rather than redefining it locally)."""
        spec = self._db.lattice.get(subclass).effective.get(attribute)
        return spec is not None and spec.defined_in == origin_class

    def _composite_spec(self, class_name, attribute):
        spec = self._db.lattice.get(class_name).attribute(attribute)
        if not spec.is_composite:
            raise SchemaEvolutionError(
                f"{class_name}.{attribute} is not a composite attribute"
            )
        return spec

    def _owner_classes(self, class_name, attribute):
        """C' and every subclass that inherits the attribute unchanged
        (a subclass that redefines it owns its own attribute)."""
        lattice = self._db.lattice
        origin = lattice.get(class_name).attribute(attribute).defined_in
        return {class_name} | {
            sub for sub in lattice.all_subclasses(class_name)
            if self._inherits_attribute(sub, attribute, origin)
        }

    def _apply_state_independent(self, change, class_name, spec, mode):
        """Dispatch an I1-I4 change immediately or to the log."""
        if mode not in ("immediate", "deferred"):
            raise SchemaEvolutionError(f"unknown evolution mode {mode!r}")
        # Owners are fixed now, for both modes: a subclass that redefines
        # the attribute owns its own references and is never patched.
        owners = self._owner_classes(class_name, spec.name)
        if mode == "deferred":
            self.oplog.append(
                change, class_name, spec.name, spec.domain_class, owners
            )
            return
        db = self._db
        for target in db.instances_of(spec.domain_class):
            self.immediate_applications += _patch_reverse_references(
                target, change, spec.name, owners
            )
            db.persist(target)

    def _rewrite_spec(self, class_name, attribute, **changes):
        """Update the schema-side AttributeSpec on C' and its subclasses."""
        db = self._db
        classdef = db.lattice.get(class_name)
        old = classdef.attribute(attribute)
        new = old.evolved(**changes)
        if attribute in classdef.local:
            classdef.local[attribute] = new
        else:
            # Changing an inherited attribute's type specializes it locally.
            classdef.local[attribute] = new.evolved(defined_in=class_name)
        db.lattice.reresolve_subtree(class_name)
        return classdef.attribute(attribute)

    def _reconcile_type_change(self, class_name, old_spec, new_spec):
        """Patch instance flags when inheritance change alters semantics."""
        if (
            old_spec.is_composite == new_spec.is_composite
            and old_spec.exclusive == new_spec.exclusive
            and old_spec.dependent == new_spec.dependent
        ):
            return
        if old_spec.is_composite and not new_spec.is_composite:
            self._apply_state_independent("I1", class_name, old_spec, "immediate")
            return
        if old_spec.is_composite and new_spec.is_composite:
            if old_spec.exclusive and not new_spec.exclusive:
                self._apply_state_independent("I2", class_name, old_spec, "immediate")
            if old_spec.dependent and not new_spec.dependent:
                self._apply_state_independent("I3", class_name, old_spec, "immediate")
            if not old_spec.dependent and new_spec.dependent:
                self._apply_state_independent("I4", class_name, old_spec, "immediate")

    def _drop_instance_attribute(self, instance, spec):
        """Remove one attribute's value from *instance*, applying the
        Deletion Rule to composite targets."""
        db = self._db
        if spec.is_composite:
            for target_uid in self._attribute_targets(instance, spec.name):
                target = db.peek(target_uid)
                if target is None:
                    continue
                removed = target.remove_reverse_reference(instance.uid, spec.name)
                if removed is not None and removed.dependent:
                    if removed.exclusive or not target.ds_parents():
                        if db.exists(target.uid):
                            db.delete(target.uid)
                            continue
                db.persist(target)
        instance.drop_value(spec.name)
        db.persist(instance)

    def _drop_stale_values(self, class_names, attribute):
        """Erase leftover values of a dropped attribute in given classes."""
        for owner in class_names:
            if owner not in self._db.lattice:
                continue
            for instance in self._db.instances_of(owner, include_subclasses=False):
                instance.drop_value(attribute)

    @staticmethod
    def _attribute_targets(instance, attribute):
        """UIDs referenced by *instance.attribute* (scalar or set)."""
        value = instance.get(attribute)
        if value is None:
            return []
        return list(value) if isinstance(value, list) else [value]


#: The reverse-reference flags each of I2-I4 sets (I1 drops the reference).
_CHANGED_FLAGS = {
    "I2": {"exclusive": False},
    "I3": {"dependent": False},
    "I4": {"dependent": True},
}


def _patch_reverse_references(target, change, attribute, owners):
    """Apply one I1-I4 *change* to the reverse references *target* holds
    from instances of *owners* through *attribute*; returns how many were
    patched.  The immediate and the deferred path both end here."""
    patched = 0
    for ref in list(target.reverse_references):
        if ref.attribute != attribute or ref.parent.class_name not in owners:
            continue
        patched += 1
        if change == "I1":
            target.reverse_references.remove(ref)
        else:
            target.replace_reverse_reference(
                ref, ref.with_flags(**_CHANGED_FLAGS[change])
            )
    return patched
