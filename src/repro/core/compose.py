"""Whole-composite operations: copy, move, structural equality.

The paper's Section 3 opens: "the purpose of modeling a composite object
is above all to define operations which directly make use of the semantics
of composite objects", and cites [KIM87a] ("Operations and Implementation
of Complex Objects") for exactly these.  The reference semantics decide
what each operation does per attribute:

* **copy** — exclusive components are *copied* recursively (they cannot be
  shared with the original); shared components are *shared* (the copy
  references the same component); weak references are kept as-is.
* **move** — re-parent a component from one owner attribute to another,
  preserving its identity (legal only where Make-Component allows it).
* **equal** — structural equality of two composite objects: same class,
  same non-reference values, and recursively equal/identical components
  per the same exclusive/shared distinction (an isomorphism check that
  ignores UIDs for exclusive substructure).
"""

from __future__ import annotations

from ..errors import TopologyError


def copy_composite(database, root_uid, overrides=None, with_mapping=False):
    """Deep-copy the composite object rooted at *root_uid*.

    Returns the new root's UID — or ``(new_root, mapping)`` with
    ``with_mapping=True``, where *mapping* maps each copied original UID
    to its copy (the check-out/check-in workflow needs the
    correspondence).  Exclusive components are copied recursively; shared
    components are shared; weak references point at the originals.
    Cycles through exclusive references are preserved in the copy (each
    original is copied once).

    *overrides* optionally replaces attribute values on the new root.
    """
    copies = {}

    def clone(uid):
        existing = copies.get(uid)
        if existing is not None:
            return existing
        instance = database.resolve(uid)
        classdef = database.lattice.get(instance.class_name)
        # Two-phase: create an empty shell first so exclusive cycles
        # terminate, then fill values.
        new_uid = database.make(instance.class_name)
        copies[uid] = new_uid
        for spec in classdef.attributes():
            value = instance.get(spec.name)
            if value is None:
                continue
            if spec.is_set:
                for member in value:
                    database.insert_into(
                        new_uid, spec.name, _copy_member(spec, member)
                    )
            else:
                database.set_value(new_uid, spec.name, _copy_member(spec, value))
        return new_uid

    def _copy_member(spec, member):
        if spec.is_composite and spec.exclusive:
            return clone(member)
        return member  # shared component or weak reference: share

    new_root = clone(root_uid)
    if overrides:
        for name, value in overrides.items():
            database.set_value(new_root, name, value)
    if with_mapping:
        return new_root, dict(copies)
    return new_root


def move_component(database, component_uid, from_parent, to_parent,
                   attribute=None, to_attribute=None):
    """Move a component between parents, keeping its identity.

    *attribute* defaults to the attribute through which *from_parent*
    holds the component; *to_attribute* defaults to the same name on the
    destination.  The detach happens first, so an exclusive component can
    move (the Make-Component Rule sees it unattached); on failure the
    original link is restored.
    """
    component = database.resolve(component_uid)
    if attribute is None:
        refs = [r for r in component.reverse_references if r.parent == from_parent]
        if len(refs) != 1:
            raise TopologyError(
                f"{component_uid} is held by {from_parent} through "
                f"{len(refs)} attributes; specify one"
            )
        attribute = refs[0].attribute
    to_attribute = to_attribute or attribute
    if not database.remove_part_of(component_uid, from_parent, attribute):
        raise TopologyError(
            f"{component_uid} is not a component of "
            f"{from_parent}.{attribute}"
        )
    try:
        database.make_part_of(component_uid, to_parent, to_attribute)
    except Exception:
        database.make_part_of(component_uid, from_parent, attribute)
        raise
    return to_attribute


def composites_equal(database, uid_a, uid_b):
    """Structural equality of two composite objects.

    Equal iff: same class; equal primitive/weak values; set attributes
    match element-wise under an order-insensitive pairing; exclusive
    components are recursively equal (identity ignored); shared components
    and weak references must be *identical* (sharing is part of the
    structure).  Handles cycles via a visited-pair set.
    """
    in_progress = set()

    def equal(a, b):
        if a == b:
            return True
        if (a, b) in in_progress:
            return True  # co-recursive pair assumed equal within the cycle
        instance_a, instance_b = database.peek(a), database.peek(b)
        if instance_a is None or instance_b is None:
            return False
        if instance_a.class_name != instance_b.class_name:
            return False
        in_progress.add((a, b))
        try:
            classdef = database.lattice.get(instance_a.class_name)
            for spec in classdef.attributes():
                value_a = instance_a.get(spec.name)
                value_b = instance_b.get(spec.name)
                if spec.is_set:
                    if not _sets_equal(spec, value_a or [], value_b or []):
                        return False
                elif not _members_equal(spec, value_a, value_b):
                    return False
            return True
        finally:
            in_progress.discard((a, b))

    def _members_equal(spec, a, b):
        if a is None or b is None:
            return a is None and b is None
        if spec.is_composite and spec.exclusive:
            return equal(a, b)
        return a == b  # shared/weak/primitive: identity or value equality

    def _sets_equal(spec, members_a, members_b):
        if len(members_a) != len(members_b):
            return False
        if not (spec.is_composite and spec.exclusive):
            return sorted(map(str, members_a)) == sorted(map(str, members_b))
        remaining = list(members_b)
        for member_a in members_a:
            match = next(
                (m for m in remaining if equal(member_a, m)), None
            )
            if match is None:
                return False
            remaining.remove(match)
        return True

    return equal(uid_a, uid_b)


def composite_size(database, root_uid):
    """Number of objects in the composite (root + components)."""
    return 1 + len(database.components_of(root_uid))


def dismantle(database, root_uid):
    """Detach every *direct* component of *root_uid* (never deletes).

    Returns the detached component UIDs.  After dismantling, independent
    components are free for reuse (the Example 1 workflow); the root
    remains, empty of composite references.
    """
    detached = []
    instance = database.resolve(root_uid)
    for attribute, member in list(database.iter_composite_values(instance)):
        database.remove_part_of(member, root_uid, attribute)
        detached.append(member)
    return detached
