"""The class lattice: IS-A hierarchy, inheritance, composite class hierarchy.

Implements the schema substrate of [BANE87a/b] that the paper builds on:

* classes form a rooted DAG (multiple inheritance) under IS-A;
* a class inherits every attribute of its superclasses; name conflicts are
  resolved in favour of the earlier superclass in the class's superclass
  list, unless the attribute declares ``:inherit-from``;
* the *composite class hierarchy* (paper 2.1) of a root class is the set of
  classes reachable by following composite-attribute domains, each tagged
  with the strongest reference semantics along the way — the locking
  protocol of Section 7 locks exactly these component classes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import ClassDefinitionError, UnknownClassError
from .attribute import PRIMITIVE_DOMAINS
from .classdef import ClassDef

#: Name of the implicit root of the lattice.
ROOT_CLASS = "object"


@dataclass(frozen=True, slots=True)
class ComponentClassLink:
    """One edge of a composite class hierarchy.

    Records that *owner*'s composite attribute *attribute* has *component*
    as its domain, with the given exclusivity/dependency.  The locking
    protocol chooses ISO/IXO vs ISOS/IXOS per link exclusivity.
    """

    owner: str
    attribute: str
    component: str
    exclusive: bool
    dependent: bool


class ClassLattice:
    """Registry and IS-A lattice of all class definitions of one database."""

    def __init__(self):
        self._classes = {}
        self._subclasses = {}  # name -> set of direct subclass names
        #: Bumped by every change to the lattice (define, remove, and the
        #: re-resolution every schema-evolution operation ends with), so
        #: whatever is derived from IS-A or attribute semantics -- the
        #: authorization engine's resolution cache -- can tell it is stale
        #: with one integer comparison.
        self.version = 0
        root = ClassDef(name=ROOT_CLASS, superclasses=())
        self._classes[ROOT_CLASS] = root
        self._subclasses[ROOT_CLASS] = set()

    # -- registry --------------------------------------------------------

    def __contains__(self, name):
        return name in self._classes

    def __iter__(self):
        return iter(self._classes.values())

    def names(self):
        """All class names, including the implicit root."""
        return list(self._classes)

    def get(self, name):
        """Return the :class:`ClassDef` named *name*."""
        try:
            return self._classes[name]
        except KeyError:
            raise UnknownClassError(name) from None

    def define(self, classdef):
        """Register a new class, resolving inheritance.

        Superclasses default to the implicit root when empty.  Raises
        :class:`ClassDefinitionError` on redefinition or unknown/cyclic
        superclasses.
        """
        if classdef.name in self._classes:
            raise ClassDefinitionError(f"class {classdef.name!r} already defined")
        if classdef.name in PRIMITIVE_DOMAINS:
            raise ClassDefinitionError(
                f"{classdef.name!r} is a primitive class and cannot be redefined"
            )
        supers = classdef.superclasses or (ROOT_CLASS,)
        for sup in supers:
            if sup not in self._classes:
                raise UnknownClassError(sup)
        classdef.superclasses = tuple(supers)
        self._resolve(classdef)
        self._classes[classdef.name] = classdef
        self._subclasses[classdef.name] = set()
        for sup in supers:
            self._subclasses[sup].add(classdef.name)
        self.version += 1
        return classdef

    def remove(self, name):
        """Drop a class definition; subclasses re-attach to its superclasses.

        Implements the lattice side of schema change "drop an existing
        class C" (paper 4.1): "All subclasses of C become immediate
        subclasses of the superclasses of C."  The instance side (cascade
        deletion through composite attributes) lives in schema.evolution.
        """
        if name == ROOT_CLASS:
            raise ClassDefinitionError("cannot drop the root class")
        dropped = self.get(name)
        children = sorted(self._subclasses[name])
        for sup in dropped.superclasses:
            self._subclasses[sup].discard(name)
        for child_name in children:
            child = self._classes[child_name]
            new_supers = []
            for sup in child.superclasses:
                if sup == name:
                    for grand in dropped.superclasses:
                        if grand not in new_supers:
                            new_supers.append(grand)
                elif sup not in new_supers:
                    new_supers.append(sup)
            child.superclasses = tuple(new_supers) or (ROOT_CLASS,)
            for sup in child.superclasses:
                self._subclasses[sup].add(child_name)
        del self._classes[name]
        del self._subclasses[name]
        self._reresolve_from(children)
        return dropped

    # -- IS-A queries -------------------------------------------------------

    def direct_superclasses(self, name):
        """Direct superclass names of *name*."""
        return list(self.get(name).superclasses)

    def direct_subclasses(self, name):
        """Direct subclass names of *name* (sorted for determinism)."""
        self.get(name)
        return sorted(self._subclasses[name])

    def all_superclasses(self, name):
        """Transitive superclasses of *name*, nearest first (no duplicates)."""
        seen, order = set(), []
        queue = deque(self.get(name).superclasses)
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            order.append(current)
            queue.extend(self.get(current).superclasses)
        return order

    def all_subclasses(self, name):
        """Transitive subclasses of *name* (sorted, no duplicates)."""
        seen = set()
        queue = deque(self.direct_subclasses(name))
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            queue.extend(self.direct_subclasses(current))
        return sorted(seen)

    def is_subclass(self, name, ancestor):
        """True when *name* IS-A *ancestor* (reflexive)."""
        return name == ancestor or ancestor in self.all_superclasses(name)

    def class_hierarchy_scope(self, name):
        """*name* plus all its subclasses — the granule an authorization or
        lock on a class covers under granularity semantics."""
        return [name] + self.all_subclasses(name)

    # -- inheritance resolution ----------------------------------------------

    def _resolve(self, classdef):
        """Set *classdef*'s effective attributes and, from them, its
        composite slots: the one place either is worked out, so every
        schema change (each ends in :meth:`define` or
        :meth:`_reresolve_from`) leaves the two in step."""
        classdef.effective = self._resolve_attributes(classdef)
        classdef.composite_slots = tuple(
            (spec.name, spec.is_set, bool(spec.exclusive))
            for spec in classdef.effective.values()
            if spec.is_composite
        )

    def _resolve_attributes(self, classdef):
        """Compute the effective attribute map of *classdef*.

        Resolution order (BANE87a): inherited attributes come first in
        superclass order, then local attributes.  A local attribute
        overrides an inherited one with the same name.  When two
        superclasses both provide an attribute of the same name, the first
        superclass in the list wins unless the local definition carries
        ``:inherit-from`` naming the other.
        """
        effective = {}
        for sup_name in classdef.superclasses:
            sup = self.get(sup_name)
            for spec in sup.effective.values():
                if spec.name in classdef.local:
                    continue  # local definition will override below
                current = effective.get(spec.name)
                if current is None:
                    effective[spec.name] = spec
                else:
                    preferred = self._inherit_preference(classdef, spec.name)
                    if preferred and self._spec_origin_matches(spec, preferred):
                        effective[spec.name] = spec
        for spec in classdef.local.values():
            effective[spec.name] = spec
        return effective

    def _inherit_preference(self, classdef, attr_name):
        """Return the ``:inherit-from`` superclass for *attr_name*, if any."""
        spec = classdef.local.get(attr_name)
        return spec.inherit_from if spec is not None else ""

    def _spec_origin_matches(self, spec, superclass_name):
        """True when *spec* was introduced in (or under) *superclass_name*."""
        return spec.defined_in == superclass_name or self.is_subclass(
            spec.defined_in, superclass_name
        )

    def _reresolve_from(self, names):
        """Re-resolve effective attributes for *names* and their subclasses."""
        self.version += 1
        pending = list(dict.fromkeys(names))
        seen = set()
        while pending:
            name = pending.pop(0)
            if name in seen or name not in self._classes:
                continue
            seen.add(name)
            self._resolve(self._classes[name])
            pending.extend(self.direct_subclasses(name))

    def reresolve_subtree(self, name):
        """Public hook for evolution: re-resolve *name* and its subclasses."""
        self._reresolve_from([name])

    # -- composite class hierarchy ---------------------------------------------

    def composite_links(self, name):
        """Direct :class:`ComponentClassLink` edges out of class *name*."""
        classdef = self.get(name)
        links = []
        for spec in classdef.composite_attributes():
            domain = spec.domain_class
            if domain in PRIMITIVE_DOMAINS:
                continue
            links.append(
                ComponentClassLink(
                    owner=name,
                    attribute=spec.name,
                    component=domain,
                    exclusive=spec.exclusive,
                    dependent=spec.dependent,
                )
            )
        return links

    def composite_class_hierarchy(self, root):
        """All component-class links reachable from *root*.

        Returns the edges of the composite class hierarchy rooted at class
        *root*, in breadth-first order.  A component class reachable
        through several attributes appears once per distinct link; cycles
        in the class graph terminate because visited (owner, attribute)
        pairs are not revisited.
        """
        self.get(root)
        edges = []
        visited_classes = set()
        queue = deque([root])
        while queue:
            current = queue.popleft()
            if current in visited_classes:
                continue
            visited_classes.add(current)
            for link in self.composite_links(current):
                edges.append(link)
                if link.component not in visited_classes:
                    queue.append(link.component)
        return edges

    def component_classes(self, root):
        """Component class names of the composite hierarchy rooted at *root*."""
        names = []
        for link in self.composite_class_hierarchy(root):
            if link.component not in names:
                names.append(link.component)
        return names

    def domain_dependents(self, name):
        """Classes having an attribute whose domain (element) is *name*.

        Used by the deferred-evolution operation log: "A class has n
        operation-logs, one for each attribute of which the class is the
        domain" (paper 4.3).
        """
        owners = []
        for classdef in self._classes.values():
            for spec in classdef.effective.values():
                if spec.domain_class == name:
                    owners.append((classdef.name, spec.name))
        return owners
