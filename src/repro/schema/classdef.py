"""Class definitions.

A :class:`ClassDef` is the schema object for one user class: its name,
direct superclasses, locally defined attributes, and the *effective*
attribute map after inheritance (computed by the lattice).

The composite class hierarchy of paper Section 2.1 — "the classes to which
the objects in the part hierarchy belong are also organized in a hierarchy
called a composite class hierarchy; each class in the hierarchy is called a
component class" — is derived from these definitions by following composite
attribute domains (see :meth:`ClassLattice.composite_class_hierarchy`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ClassDefinitionError, UnknownAttributeError
from .attribute import AttributeSpec


@dataclass
class ClassDef:
    """Schema definition of one class.

    Attributes are stored in two maps: ``local`` (defined directly on this
    class) and ``effective`` (local plus inherited, as resolved by the
    lattice).  Instances of the class materialize values for every
    effective attribute.
    """

    name: str
    superclasses: tuple = ()
    local: dict = field(default_factory=dict)
    #: Effective attribute map (name -> AttributeSpec), set by the lattice.
    effective: dict = field(default_factory=dict)
    #: True when instances of this class are versionable (paper 5.1).
    versionable: bool = False
    #: Physical segment the class's instances are stored in.  ORION clusters
    #: a new object with its first parent "only if the classes of the two
    #: objects are stored in the same physical segment" (paper 2.3).
    segment: str = ""
    #: Documentation string.
    document: str = ""

    #: ``(attribute, set-valued, exclusive)`` for each effective composite
    #: attribute, in definition order: what a composite walk reads.  The
    #: lattice sets it whenever it resolves ``effective``.  A plain class
    #: attribute, not a field, so equality and the schema payload ignore it.
    composite_slots = ()

    def __post_init__(self):
        if not self.name or not self.name.isidentifier():
            raise ClassDefinitionError(
                f"class name {self.name!r} is not a valid identifier"
            )
        self.superclasses = tuple(self.superclasses)
        if self.name in self.superclasses:
            raise ClassDefinitionError(f"class {self.name!r} cannot inherit itself")
        if not self.segment:
            # Default: one segment per class, named after it.
            self.segment = f"seg:{self.name}"
        normalized = {}
        for spec in self.local.values():
            if spec.name in normalized:
                raise ClassDefinitionError(
                    f"class {self.name!r}: duplicate attribute {spec.name!r}"
                )
            normalized[spec.name] = spec.inherited_into(self.name)
        self.local = normalized
        if not self.effective:
            self.effective = dict(self.local)

    # -- attribute access ----------------------------------------------------

    def attribute(self, name):
        """Return the effective :class:`AttributeSpec` named *name*."""
        try:
            return self.effective[name]
        except KeyError:
            raise UnknownAttributeError(self.name, name) from None

    def has_attribute(self, name):
        """True when *name* is an effective attribute of this class."""
        return name in self.effective

    def attributes(self):
        """Iterate over effective attribute specs."""
        return iter(self.effective.values())

    def attribute_names(self):
        """Effective attribute names, in definition order."""
        return list(self.effective)

    # -- composite-attribute queries (used by the Section 3 predicates) ------

    def composite_attributes(self):
        """Effective attributes that are composite references."""
        return [a for a in self.effective.values() if a.is_composite]

    def compositep(self, attribute_name=None):
        """Predicate ``compositep`` (paper 3.2).

        With an attribute name, True iff that attribute is composite; with
        no argument, True iff the class has at least one composite
        attribute.
        """
        if attribute_name is None:
            return any(a.is_composite for a in self.effective.values())
        return self.attribute(attribute_name).is_composite

    def exclusive_compositep(self, attribute_name=None):
        """Predicate ``exclusive-compositep`` (paper 3.2)."""
        if attribute_name is None:
            return any(a.is_exclusive_composite for a in self.effective.values())
        return self.attribute(attribute_name).is_exclusive_composite

    def shared_compositep(self, attribute_name=None):
        """Predicate ``shared-compositep`` (paper 3.2)."""
        if attribute_name is None:
            return any(a.is_shared_composite for a in self.effective.values())
        return self.attribute(attribute_name).is_shared_composite

    def dependent_compositep(self, attribute_name=None):
        """Predicate ``dependent-compositep`` (paper 3.2)."""
        if attribute_name is None:
            return any(a.is_dependent_composite for a in self.effective.values())
        return self.attribute(attribute_name).is_dependent_composite

    # -- rendering ------------------------------------------------------------

    def describe(self):
        """Multi-line ORION-flavoured ``make-class`` rendering."""
        lines = [f"(make-class '{self.name}"]
        supers = " ".join(self.superclasses) if self.superclasses else "nil"
        lines.append(f"  :superclasses {supers}")
        if self.versionable:
            lines.append("  :versionable true")
        lines.append("  :attributes '(")
        for spec in self.effective.values():
            origin = "" if spec.defined_in == self.name else f"   ; from {spec.defined_in}"
            lines.append(f"    {spec.describe()}{origin}")
        lines.append("  ))")
        return "\n".join(lines)

    def __repr__(self):
        return f"<ClassDef {self.name} supers={list(self.superclasses)} attrs={list(self.effective)}>"


def make_attribute(name, **keywords):
    """Convenience constructor mirroring the ORION keyword syntax.

    Example::

        make_attribute("Body", domain="AutoBody",
                       composite=True, exclusive=True, dependent=False)
    """
    return AttributeSpec(name=name, **keywords)
