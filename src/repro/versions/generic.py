"""Version-model bookkeeping: generic instances and version instances.

Paper 5.1 (the [CHOU86/88] model): a *versionable object* is "a logical
collection of version instances in which one version instance has been
derived from another", the history living in a *generic instance*.  An
object may reference a versionable object *statically* (a specific version
instance) or *dynamically* (the generic instance; the system resolves the
default version).

The registry here is pure bookkeeping — which UIDs are generic instances,
which are version instances of which generic, the derivation tree, and
default-version selection.  The semantics of composite references between
versioned objects (rules CV-1X..CV-4X) live in
:mod:`repro.versions.manager`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import NotVersionableError, VersionError


@dataclass
class GenericInfo:
    """State of one generic instance."""

    uid: object
    class_name: str
    #: Version UIDs in creation order (creation order = UID order, which
    #: the system-default rule uses: "the system determines the system
    #: default on the basis of a timestamp ordering of the creation of the
    #: version instances").
    versions: list = field(default_factory=list)
    #: version uid -> version uid it was derived from (None for the first).
    derived_from: dict = field(default_factory=dict)
    #: Monotonic version-number allocator.
    next_number: int = 1
    #: User-specified default version (None -> system default).
    user_default: object = None


@dataclass(frozen=True, slots=True)
class VersionInfo:
    """Metadata of one version instance."""

    uid: object
    generic: object
    number: int
    derived_from: object


class VersionRegistry:
    """Maps UIDs to their version-model roles."""

    def __init__(self):
        self._generics = {}
        self._versions = {}
        #: Bumped whenever a generic or version is registered or
        #: forgotten: :meth:`generic_of` answers may have changed, so the
        #: authorization engine's resolution cache must be dropped.
        self.version = 0

    # -- registration -------------------------------------------------------

    def register_generic(self, uid, class_name):
        info = GenericInfo(uid=uid, class_name=class_name)
        self._generics[uid] = info
        self.version += 1
        return info

    def register_version(self, uid, generic_uid, derived_from=None):
        generic = self.generic_info(generic_uid)
        if derived_from is not None and derived_from not in generic.versions:
            raise VersionError(
                f"{derived_from} is not a version of {generic_uid}"
            )
        info = VersionInfo(
            uid=uid,
            generic=generic_uid,
            number=generic.next_number,
            derived_from=derived_from,
        )
        generic.next_number += 1
        generic.versions.append(uid)
        generic.derived_from[uid] = derived_from
        self._versions[uid] = info
        self.version += 1
        return info

    def forget_version(self, uid):
        """Drop a deleted version from the registry; returns its generic."""
        info = self._versions.pop(uid, None)
        if info is None:
            return None
        self.version += 1
        generic = self._generics.get(info.generic)
        if generic is not None:
            if uid in generic.versions:
                generic.versions.remove(uid)
            generic.derived_from.pop(uid, None)
            if generic.user_default == uid:
                generic.user_default = None
        return info.generic

    def forget_generic(self, uid):
        self.version += 1
        return self._generics.pop(uid, None)

    # -- queries --------------------------------------------------------------

    def is_generic(self, uid):
        return uid in self._generics

    def all_generics(self):
        """UIDs of every registered generic instance, in creation order."""
        return list(self._generics)

    def is_version(self, uid):
        return uid in self._versions

    def generic_info(self, uid):
        info = self._generics.get(uid)
        if info is None:
            raise NotVersionableError(f"{uid} is not a generic instance")
        return info

    def version_info(self, uid):
        info = self._versions.get(uid)
        if info is None:
            raise NotVersionableError(f"{uid} is not a version instance")
        return info

    def generic_of(self, uid):
        """The generic of a version instance, or None for anything else."""
        info = self._versions.get(uid)
        return info.generic if info is not None else None

    def hierarchy_key(self, uid):
        """The version-derivation hierarchy *uid* belongs to.

        For a version instance, its generic; for a generic instance,
        itself; for a plain object, the object (its own trivial
        hierarchy).  Rule CV-2X compares these keys.
        """
        if uid in self._generics:
            return uid
        info = self._versions.get(uid)
        return info.generic if info is not None else uid

    def default_version(self, generic_uid):
        """The default version instance bound by a dynamic reference.

        "The user may specify the default version instance for any given
        versionable object; in the absence of a user-specified default,
        the system determines the system default on the basis of a
        timestamp ordering" — i.e. the most recently created version.
        """
        info = self.generic_info(generic_uid)
        if info.user_default is not None:
            return info.user_default
        if not info.versions:
            raise VersionError(f"{generic_uid} has no version instances")
        return max(info.versions, key=lambda uid: uid.number)

    def set_default(self, generic_uid, version_uid):
        info = self.generic_info(generic_uid)
        if version_uid is not None and version_uid not in info.versions:
            raise VersionError(f"{version_uid} is not a version of {generic_uid}")
        info.user_default = version_uid

    def derivation_tree(self, generic_uid):
        """Edges (parent_version, child_version) of the derivation
        hierarchy; the first version has parent None."""
        info = self.generic_info(generic_uid)
        return [(info.derived_from[v], v) for v in info.versions]

    def all_generics(self):
        return list(self._generics)
