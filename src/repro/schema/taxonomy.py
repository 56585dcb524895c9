"""The remainder of the [BANE87b] schema-evolution taxonomy.

Paper Section 4 alters the semantics of the schema changes that involve
composite attributes; this module supplies the rest of the framework those
changes live in, so the schema manager covers the full taxonomy:

1. *Changes to the contents of a class*: add an attribute, rename an
   attribute, change an attribute's default value, drop an attribute
   (in :mod:`repro.schema.evolution`, composite-aware).
2. *Changes to the class lattice*: add a class (``make_class``), rename a
   class, add a superclass, remove a superclass / drop a class (in
   :mod:`repro.schema.evolution`).

These operations are *state-independent* in the paper's sense — no
verification of instance state is needed — but several require touching
every instance (adding an attribute materializes its default; renaming
moves stored values and patches reverse references).
"""

from __future__ import annotations

from dataclasses import replace

from ..errors import ClassDefinitionError, SchemaEvolutionError
from .attribute import AttributeSpec, SetOf, domain_class_name


class TaxonomyMixin:
    """Mixed into :class:`repro.schema.evolution.SchemaEvolutionManager`."""

    # ------------------------------------------------------------------
    # 1) Contents of a class
    # ------------------------------------------------------------------

    def add_attribute(self, class_name, spec):
        """Add an attribute to a class (and, by inheritance, subclasses).

        Existing instances receive the attribute's init value (an empty
        set for set-of attributes).  Composite attributes may be added
        freely — they constrain only future references.
        """
        db = self._db
        classdef = db.lattice.get(class_name)
        if not isinstance(spec, AttributeSpec):
            spec = AttributeSpec(**spec)
        if classdef.has_attribute(spec.name):
            raise SchemaEvolutionError(
                f"{class_name} already has attribute {spec.name!r}"
            )
        classdef.local[spec.name] = spec.inherited_into(class_name)
        db.lattice.reresolve_subtree(class_name)
        self._materialize(spec, [class_name] + [
            sub for sub in db.lattice.all_subclasses(class_name)
            if self._inherits_attribute(sub, spec.name, class_name)
        ])
        return classdef.attribute(spec.name)

    def _materialize(self, spec, owners):
        """Give every instance of *owners* *spec*'s init value (an empty
        set for set-of attributes)."""
        db = self._db
        for owner in owners:
            for instance in db.instances_of(owner, include_subclasses=False):
                if spec.is_set:
                    instance.set(spec.name, list(spec.init) if spec.init else [])
                else:
                    instance.set(spec.name, spec.init)
                db.persist(instance)

    def rename_attribute(self, class_name, old_name, new_name):
        """Rename an attribute, migrating values and reverse references.

        Only the owners of the attribute — the class and the subclasses
        that inherit it unchanged — hold its values.  A subclass that
        redefines *old_name* keeps its own attribute and newly inherits
        *new_name*, whose init value its instances get.  Reverse composite
        references record the attribute name, so every referenced instance
        must be patched — the same access pattern as an immediate I-change.
        """
        db = self._db
        classdef = db.lattice.get(class_name)
        spec = classdef.attribute(old_name)
        if spec.defined_in != class_name:
            raise SchemaEvolutionError(
                f"{class_name}.{old_name} is inherited from "
                f"{spec.defined_in}; rename it there"
            )
        owners = self._owner_classes(class_name, old_name)
        for owner in [class_name, *sorted(owners - {class_name})]:
            if db.lattice.get(owner).has_attribute(new_name):
                raise SchemaEvolutionError(
                    f"{owner} already has attribute {new_name!r}"
                )
        new_spec = spec.evolved(name=new_name)
        del classdef.local[old_name]
        classdef.local[new_name] = new_spec
        db.lattice.reresolve_subtree(class_name)
        for owner in owners:
            for instance in db.instances_of(owner, include_subclasses=False):
                if old_name in instance.values:
                    instance.set(new_name, instance.values.pop(old_name))
                    db.persist(instance)
        self._materialize(new_spec, (
            sub for sub in db.lattice.all_subclasses(class_name)
            if sub not in owners
            and self._inherits_attribute(sub, new_name, class_name)
        ))
        if spec.is_composite:
            for target in db.instances_of(spec.domain_class):
                patched = False
                for ref in list(target.reverse_references):
                    if ref.attribute == old_name and ref.parent.class_name in owners:
                        target.replace_reverse_reference(
                            ref, replace(ref, attribute=new_name)
                        )
                        patched = True
                if patched:
                    db.persist(target)
        return new_spec

    def change_default(self, class_name, attribute, init):
        """Change an attribute's default (init) value.

        Affects only instances created afterwards — [BANE87b] semantics.
        """
        db = self._db
        classdef = db.lattice.get(class_name)
        spec = classdef.attribute(attribute)
        owner_def = db.lattice.get(spec.defined_in)
        owner_def.local[attribute] = owner_def.local[attribute].evolved(init=init)
        db.lattice.reresolve_subtree(spec.defined_in)
        return db.lattice.get(class_name).attribute(attribute)

    # ------------------------------------------------------------------
    # 2) The class lattice
    # ------------------------------------------------------------------

    def add_superclass(self, class_name, superclass):
        """Add S to the end of C's superclass list.

        C (and subclasses) gain S's attributes they do not already have;
        existing instances materialize the new attributes' defaults.
        Cycles are rejected.
        """
        db = self._db
        classdef = db.lattice.get(class_name)
        if superclass in classdef.superclasses:
            raise SchemaEvolutionError(
                f"{superclass} is already a superclass of {class_name}"
            )
        if db.lattice.is_subclass(superclass, class_name):
            raise ClassDefinitionError(
                f"adding {superclass} under {class_name} would create an "
                f"IS-A cycle"
            )
        before = set(classdef.effective)
        classdef.superclasses = classdef.superclasses + (superclass,)
        db.lattice._subclasses[superclass].add(class_name)
        db.lattice.reresolve_subtree(class_name)
        gained = [
            spec for name, spec in classdef.effective.items()
            if name not in before
        ]
        scope = [class_name] + db.lattice.all_subclasses(class_name)
        for spec in gained:
            for owner in scope:
                for instance in db.instances_of(owner, include_subclasses=False):
                    if spec.name in instance.values:
                        continue
                    if spec.is_set:
                        instance.set(spec.name,
                                     list(spec.init) if spec.init else [])
                    else:
                        instance.set(spec.name, spec.init)
                    db.persist(instance)
        return [spec.name for spec in gained]

    def rename_class(self, old_name, new_name):
        """Rename a class, patching every dependent schema artifact.

        Touches: the lattice registry, subclass superclass lists,
        attribute domains naming the class, live instances' class names
        (UIDs keep their original embedded name — identity is by number),
        and the clustering segment default.
        """
        db = self._db
        if new_name in db.lattice:
            raise SchemaEvolutionError(f"class {new_name!r} already exists")
        if not new_name.isidentifier():
            raise ClassDefinitionError(f"{new_name!r} is not a valid class name")
        classdef = db.lattice.get(old_name)
        # Registry and IS-A bookkeeping.
        lattice = db.lattice
        lattice._classes[new_name] = classdef
        del lattice._classes[old_name]
        lattice._subclasses[new_name] = lattice._subclasses.pop(old_name)
        for subs in lattice._subclasses.values():
            if old_name in subs:
                subs.discard(old_name)
                subs.add(new_name)
        classdef.name = new_name
        if classdef.segment == f"seg:{old_name}":
            classdef.segment = f"seg:{new_name}"
        for other in lattice._classes.values():
            if old_name in other.superclasses:
                other.superclasses = tuple(
                    new_name if sup == old_name else sup
                    for sup in other.superclasses
                )
            for attr_name, spec in list(other.local.items()):
                if domain_class_name(spec.domain) == old_name:
                    domain = (
                        SetOf(new_name) if spec.is_set else new_name
                    )
                    other.local[attr_name] = spec.evolved(domain=domain)
            if other.local:
                fixed = {}
                for attr_name, spec in other.local.items():
                    if spec.defined_in == old_name:
                        spec = spec.evolved(defined_in=new_name)
                    fixed[attr_name] = spec
                other.local = fixed
        for root in list(lattice._classes):
            lattice.reresolve_subtree(root)
        # Live instances follow the class.
        for instance in db.live_instances():
            if instance.class_name == old_name:
                instance.class_name = new_name
                db.persist(instance)
        db.rebuild_extents()
        return classdef
