"""Operations on composite objects (paper Section 3).

Implements the ORION messages::

    (components-of Object [ListofClasses] [Exclusive] [Shared] [Level])
    (parents-of    Object [ListofClasses] [Exclusive] [Shared])
    (ancestors-of  Object [ListofClasses] [Exclusive] [Shared])
    (component-of  Object1 Object2)
    (child-of      Object1 Object2)
    (exclusive-component-of Object1 Object2)
    (shared-component-of    Object1 Object2)

plus the class predicates ``compositep`` / ``exclusive-compositep`` /
``shared-compositep`` / ``dependent-compositep`` (those live on
:class:`repro.schema.classdef.ClassDef` and are re-exported through the
database façade).

All traversals are breadth-first, so the ``Level`` argument of
``components-of`` coincides with the paper's definition of a *level-n
component* ("the shortest path between O and O' has n composite
references").

The downward walk, :func:`walk_components`, reads each class's
``composite_slots`` (worked out when the lattice resolves attributes) and
serves live and snapshot reads alike.  The upward walks take an optional
*read* list that collects every object whose reverse references they read.
"""

from __future__ import annotations

from collections import deque


def _admitted_classes(lattice, list_of_classes):
    """The class names the optional ListofClasses argument admits, or
    None when it admits every class.

    Membership is by class *hierarchy*: naming a class admits instances of
    its subclasses too, matching ORION's class-hierarchy query semantics.
    """
    if not list_of_classes:
        return None
    admitted = set()
    for name in list_of_classes:
        admitted.update(lattice.class_hierarchy_scope(name))
    return admitted


def _kind(exclusive, shared):
    """Decide the Exclusive/Shared filter arguments of Section 3.1 once:
    True admits exclusive references only, False shared ones only, None
    every reference.

    "If Exclusive is True, only the exclusive components are retrieved;
    and if Shared is True, only shared components. If both are Nil, all
    components are retrieved."  Both True admits everything (the union).
    """
    if bool(exclusive) == bool(shared):
        return None
    return bool(exclusive)


def walk_components(lattice, root, lookup, classes=None, exclusive=False,
                    shared=False, level=None):
    """The breadth-first walk behind ``components-of``.

    *root* is an instance and *lookup(uid)* returns a component's instance,
    or None when it is absent: the live object table or a snapshot epoch.
    Returns UIDs in BFS order, without the root, each once (at its
    shortest-path level); *level* limits the depth.  Filters decide only
    what is returned: every live component is walked through.
    """
    admitted = _admitted_classes(lattice, classes)
    kind = _kind(exclusive, shared)
    class_named = lattice.get
    results = []
    seen = {root.uid}
    frontier = [root]
    depth = 0
    while frontier and (level is None or depth < level):
        depth += 1
        below = []
        for instance in frontier:
            values = instance.values
            for name, is_set, slot_exclusive in class_named(
                    instance.class_name).composite_slots:
                value = values.get(name)
                if value is None:
                    continue
                admit = kind is None or slot_exclusive is kind
                for uid in value if is_set else (value,):
                    if uid in seen:
                        continue
                    child = lookup(uid)
                    if child is None:
                        continue
                    seen.add(uid)
                    below.append(child)
                    if admit and (admitted is None
                                  or child.class_name in admitted):
                        results.append(uid)
        frontier = below
    return results


def components_of(database, uid, classes=None, exclusive=False, shared=False, level=None):
    """``components-of`` — all (transitive) components of *uid*.

    Returns UIDs in BFS order, without *uid* itself, each appearing once
    (at its shortest-path level).  *level* limits the depth; ``level=1``
    returns the children.
    """
    root = database.resolve(uid)
    return walk_components(database.lattice, root, database.peek, classes,
                           exclusive, shared, level)


def parents_of(database, uid, classes=None, exclusive=False, shared=False):
    """``parents-of`` — objects with a *direct* composite reference to *uid*.

    Served straight from the in-object reverse composite references, which
    is the whole point of storing them (paper 2.4: "the user often finds
    it necessary to determine its parents or ancestors ... we need to
    maintain in each component a list of reverse composite references").
    """
    instance = database.resolve(uid)
    admitted = _admitted_classes(database.lattice, classes)
    kind = _kind(exclusive, shared)
    results = []
    for ref in instance.reverse_references:
        if kind is not None and bool(ref.exclusive) is not kind:
            continue
        if admitted is not None and database.class_of(ref.parent) not in admitted:
            continue
        if ref.parent not in results:
            results.append(ref.parent)
    return results


def ancestors_of(database, uid, classes=None, exclusive=False, shared=False,
                 read=None):
    """``ancestors-of`` — transitive closure of ``parents-of``.

    The Exclusive/Shared filter applies to each hop's reference type; the
    class filter applies to which ancestors are *returned* (traversal is
    not cut by class, matching ``components-of``).  *read*, when given,
    collects *uid* and every ancestor whose reverse references were read.
    """
    database.resolve(uid)
    admitted = _admitted_classes(database.lattice, classes)
    kind = _kind(exclusive, shared)
    results = []
    seen = {uid}
    queue = deque([uid])
    while queue:
        current = queue.popleft()
        instance = database.peek(current)
        if instance is None:
            continue
        if read is not None:
            read.append(current)
        for ref in instance.reverse_references:
            if ref.parent in seen:
                continue
            if kind is not None and bool(ref.exclusive) is not kind:
                continue
            seen.add(ref.parent)
            queue.append(ref.parent)
            if admitted is None or database.class_of(ref.parent) in admitted:
                results.append(ref.parent)
    return results


def child_of(database, uid1, uid2):
    """``child-of`` — True when *uid1* is a direct component of *uid2*."""
    instance = database.resolve(uid1)
    return any(ref.parent == uid2 for ref in instance.reverse_references)


def component_of(database, uid1, uid2):
    """``component-of`` — True when *uid1* is a direct or indirect
    component of *uid2*.

    Implemented by walking *up* from uid1 through reverse references (the
    paper notes ``components-of`` + scan also works but is a long way
    round).
    """
    database.resolve(uid1)
    database.resolve(uid2)
    seen = set()
    queue = deque([uid1])
    while queue:
        current = queue.popleft()
        instance = database.peek(current)
        if instance is None:
            continue
        for ref in instance.reverse_references:
            if ref.parent == uid2:
                return True
            if ref.parent not in seen:
                seen.add(ref.parent)
                queue.append(ref.parent)
    return False


def exclusive_component_of(database, uid1, uid2):
    """``exclusive-component-of`` (paper 3.2).

    True when *uid1* is a component of *uid2* and is an exclusive
    component (its composite references are exclusive — by Topology Rule 3
    an object's composite references are all-exclusive or all-shared, so
    this is a property of *uid1*).  Nil (False) when not a component or a
    shared component.
    """
    instance = database.resolve(uid1)
    if not instance.has_exclusive_reference():
        return False
    return component_of(database, uid1, uid2)


def shared_component_of(database, uid1, uid2):
    """``shared-component-of`` (paper 3.2).

    The paper observes this equals ``component-of`` followed by a negative
    ``exclusive-component-of`` in the same transaction; we implement it
    directly.
    """
    instance = database.resolve(uid1)
    if not instance.has_shared_reference():
        return False
    return component_of(database, uid1, uid2)


def roots_of(database, uid, read=None):
    """The roots of every composite object containing *uid*.

    Not a paper message, but the system needs it internally ("the system
    needs to determine efficiently the parents or the roots of a given
    component ... to efficiently support locking, versions, and
    authorization"); the GARZ88 root-locking algorithm (Section 7) calls
    this.  A root is an ancestor with no composite parents of its own; an
    object with no parents is its own root.  *read*, when given, collects
    *uid* and every ancestor whose reverse references were read.
    """
    instance = database.resolve(uid)
    if not instance.reverse_references:
        if read is not None:
            read.append(uid)
        return [uid]
    roots = []
    seen = {uid}
    queue = deque([uid])
    while queue:
        current = queue.popleft()
        node = database.peek(current)
        if node is None:
            continue
        if read is not None:
            read.append(current)
        if current != uid and not node.reverse_references:
            if current not in roots:
                roots.append(current)
            continue
        for ref in node.reverse_references:
            if ref.parent not in seen:
                seen.add(ref.parent)
                queue.append(ref.parent)
    # An object whose every ancestor chain is cyclic has no parentless
    # ancestor; treat it as its own root.
    return roots or [uid]


def find_dangling_references(database):
    """Report weak references to objects that no longer exist.

    The Deletion Rule leaves weak references untouched; this audit helper
    finds ``(holder_uid, attribute, dangling_target)`` triples.
    """
    dangles = []
    for instance in database.live_instances():
        classdef = database.lattice.get(instance.class_name)
        for spec in classdef.attributes():
            if not spec.is_reference or spec.is_composite:
                continue
            value = instance.get(spec.name)
            targets = value if isinstance(value, list) else [value]
            for target in targets:
                if target is not None and database.peek(target) is None:
                    dangles.append((instance.uid, spec.name, target))
    return dangles
