"""The authorization engine: composite objects as a unit of authorization.

Section 6's contribution: "we further augment the utility of composite
objects by introducing their use as a unit of authorization", extending
[RABI88]'s implicit authorization:

* an authorization on a **class** implies the same authorization on all
  its instances (and, for a composite class, "on all objects which are
  components of the instances of C" — but *not* on unrelated instances of
  the component classes);
* an authorization on a **composite object** (granted on its root) implies
  the same authorization on every component;
* a grant is rejected when it conflicts with an existing explicit or
  implicit authorization on any object it would cover.

Grant targets are ``("class", name)``, ``("instance", uid)``, or
``("database",)``.  Checks combine every authorization implied on the
object (:func:`repro.authorization.combine.combine`); a user may act when
the combined resolution positively authorizes the type.

Implicit authorizations stay *deduced, never stored* -- but the deduction
for one (user, object) pair is remembered until something it read can
change.  An entry of the resolution cache is dropped exactly when its
implied set may differ:

* ``grant`` / ``revoke`` -- the user's entries;
* a composite link added or removed (``Database.on_link`` /
  ``on_unlink``, which the Deletion Rule and every undo also fire) --
  the child and every component below it, whose ancestors just changed;
* ``Database.on_delete`` -- the object;
* a change to the class lattice or the version registry (their
  ``version`` counters) and ``Database.on_topology_reset`` (recovery,
  replica apply, deferred evolution catch-up) -- everything.

A stale "permit" would be an authorization bypass, so every path that
touches reverse references must go through one of these.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.operations import ancestors_of
from ..errors import AccessDenied, AuthorizationConflict
from .atoms import AuthType, parse_atom
from .combine import combine

DATABASE_SCOPE = ("database",)


@dataclass(frozen=True, slots=True)
class Grant:
    """One stored (explicit) authorization record."""

    user: str
    atom: object
    scope: tuple

    def __str__(self):
        return f"{self.user}: {self.atom} on {self.scope}"


class AuthorizationEngine:
    """Grants, implicit deduction, and access checks for one database."""

    def __init__(self, database, version_registry=None):
        self._db = database
        #: user -> list of Grant (explicit records only — implicit
        #: authorizations are deduced, which is the storage saving
        #: benchmark B3 measures).
        self._grants = {}
        #: user -> scope -> list of Grant: the same records by the scope
        #: they were granted on, so deduction looks up the scopes that
        #: cover an object instead of testing every grant of the user.
        self._by_scope = {}
        #: Optional :class:`repro.versions.VersionRegistry`: when given,
        #: a grant on a *generic instance* implies the same authorization
        #: on every version instance of that versionable object (the
        #: version-model counterpart of composite coverage).
        self._versions = version_registry
        #: Access checks performed (benchmark metric).
        self.checks = 0
        #: The resolution cache: user -> uid -> Resolution.
        self._cache = {}
        #: :meth:`_generation` when the cache was last known good.
        self._cache_generation = self._generation()
        self.attach()

    def attach(self):
        """Register with the database and start observing it, with an
        empty cache.  Construction does this; a holder that rebuilds the
        database in place (a replica swapping recovered state into the
        object it serves) calls it again because the swap drops every
        hook."""
        database = self._db
        self._cache.clear()
        database.auth_engine = self
        database.on_link.append(self._forget_components)
        database.on_unlink.append(self._forget_components)
        database.on_delete.append(self._forget_object)
        database.on_topology_reset.append(self._cache.clear)

    # ------------------------------------------------------------------
    # Granting
    # ------------------------------------------------------------------

    def grant(self, user, atom, on_class=None, on_instance=None, database=False):
        """Record an authorization for *user*.

        Exactly one target must be given.  The grant is rejected with
        :class:`AuthorizationConflict` when it would conflict with an
        authorization (explicit or implicit) the user already holds on any
        object the new grant covers — the paper's example: a strong ¬R
        received from Instance[j] makes a later strong W grant on
        Instance[k] fail when the two composites share a component.
        """
        atom = parse_atom(atom)
        scope = self._scope(on_class, on_instance, database)
        for uid in self._covered_objects(scope):
            existing = [g.atom for g in self._implied_grants(user, uid)]
            if not existing:
                continue
            if combine(existing + [atom]).conflict:
                raise AuthorizationConflict(
                    f"granting {atom} to {user!r} on {scope} conflicts with "
                    f"existing authorizations on {uid}",
                    existing=existing,
                    requested=atom,
                )
        record = Grant(user=user, atom=atom, scope=scope)
        self._grants.setdefault(user, []).append(record)
        self._by_scope.setdefault(user, {}).setdefault(scope, []).append(record)
        self._forget_subject(user)
        return record

    def revoke(self, user, atom, on_class=None, on_instance=None, database=False):
        """Remove a previously granted record (exact match)."""
        atom = parse_atom(atom)
        scope = self._scope(on_class, on_instance, database)
        record = Grant(user=user, atom=atom, scope=scope)
        try:
            self._grants.get(user, []).remove(record)
        except ValueError:
            return False
        by_scope = self._by_scope[user]
        by_scope[scope].remove(record)
        if not by_scope[scope]:
            del by_scope[scope]
        self._forget_subject(user)
        return True

    def grants_of(self, user):
        """Explicit grants stored for *user*."""
        return list(self._grants.get(user, ()))

    def stored_record_count(self):
        """Total explicit records — the storage metric of benchmark B3."""
        return sum(len(records) for records in self._grants.values())

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------

    def resolve(self, user, uid):
        """Combine every authorization implied for *user* on object *uid*.

        Answered from the resolution cache; a miss runs the deduction
        (:meth:`_implied_with_reason`, the only one there is)."""
        self.checks += 1
        generation = self._generation()
        if generation != self._cache_generation:
            self._cache.clear()
            self._cache_generation = generation
        resolutions = self._cache.get(user)
        resolution = None if resolutions is None else resolutions.get(uid)
        if resolution is None:
            resolution = combine(
                [grant.atom for grant in self._implied_grants(user, uid)]
            )
            # Only live objects are remembered: their entries go when
            # they are deleted, so the cache is bounded by the database.
            # The key is the instance's own UID, not the caller's copy.
            instance = self._db.peek(uid)
            if instance is not None:
                self._cache.setdefault(user, {})[instance.uid] = resolution
        return resolution

    def check(self, user, auth_type, uid):
        """True when *user* positively holds *auth_type* on *uid*."""
        return self.resolve(user, uid).permits(auth_type)

    def require(self, user, auth_type, uid):
        """Raise :class:`AccessDenied` unless the check passes.

        A permit is one probe of the cached resolution's permitted
        types; the :class:`AuthType` is built only to explain a denial.
        """
        resolution = self.resolve(user, uid)
        if resolution.permits(auth_type):
            return True
        auth_type = AuthType(auth_type)
        if resolution.conflict:
            reason = "conflicting implied authorizations"
        elif resolution.denies(auth_type):
            reason = f"negative {auth_type} authorization"
        else:
            reason = f"no {auth_type} authorization"
        raise AccessDenied(f"{user!r} may not {auth_type} {uid}: {reason}")

    def explain(self, user, uid):
        """``(grant, why)`` pairs showing where each implied atom came from."""
        return [
            (grant, why) for grant, why in self._implied_with_reason(user, uid)
        ]

    # ------------------------------------------------------------------
    # Implicit deduction
    # ------------------------------------------------------------------

    def _implied_grants(self, user, uid):
        return [grant for grant, _why in self._implied_with_reason(user, uid)]

    def _implied_with_reason(self, user, uid):
        """Every explicit grant that (explicitly or implicitly) covers *uid*.

        Enumerates the scopes that cover the object, widest first -- the
        database, its class and superclasses, the object itself, its
        generic, then every composite ancestor with *its* classes and
        generic -- and looks each up in the user's scope index: the cost
        follows the object's ancestors and superclasses, not the number
        of grants the user holds.  A scope reached two ways keeps its
        first (most direct) reason.
        """
        db = self._db
        instance = db.peek(uid)
        by_scope = self._by_scope.get(user)
        if instance is None or not by_scope:
            return
        lattice, versions = db.lattice, self._versions
        # scope -> (reason template, its subject); formatted only for the
        # scopes the user actually holds a grant on.
        covering = {DATABASE_SCOPE: ("database-wide grant", None)}
        for name in [instance.class_name] + lattice.all_superclasses(
            instance.class_name
        ):
            covering[("class", name)] = (
                "grant on class {} covers its instances", name)
        covering[("instance", uid)] = ("explicit grant on the object", None)
        generic = versions.generic_of(uid) if versions is not None else None
        if generic is not None:
            covering.setdefault(("instance", generic), (
                "grant on versionable object {} covers its version "
                "instances", generic))
        if all(scope in covering for scope in by_scope):
            ancestors = ()  # every grant already placed: skip the walk
        else:
            # Not db.ancestors_of: deciding access is not a data read a
            # history recorder should see.
            ancestors = ancestors_of(db, uid)
        for ancestor in ancestors:
            covering.setdefault(("instance", ancestor), (
                "grant on composite object {} covers its components",
                ancestor))
            owner = db.class_of(ancestor)
            for name in [owner] + lattice.all_superclasses(owner):
                covering.setdefault(("class", name), (
                    "grant on composite class {} covers components of its "
                    "instances", name))
        if versions is not None:
            for ancestor in ancestors:
                generic = versions.generic_of(ancestor)
                if generic is not None:
                    covering.setdefault(("instance", generic), (
                        "grant on versionable object {} covers components "
                        "of its version instances", generic))
        for scope, (template, subject) in covering.items():
            grants = by_scope.get(scope)
            if grants:
                why = template.format(subject)
                for grant in grants:
                    yield grant, why

    # ------------------------------------------------------------------
    # Resolution cache
    # ------------------------------------------------------------------

    def _generation(self):
        """Sum of the ``version`` counters the deduction depends on (each
        only ever grows, so the sum moves whenever one of them does)."""
        versions = self._versions
        return self._db.lattice.version + (
            versions.version if versions is not None else 0
        )

    def _forget_subject(self, subject):
        """*subject*'s grants changed: drop the entries computed from them."""
        self._cache.pop(subject, None)

    def _forget_object(self, uid):
        for resolutions in self._cache.values():
            resolutions.pop(uid, None)

    def _forget_components(self, _parent, _spec, child):
        """A composite link to *child* was added or removed: it and every
        component below it gained or lost ancestors."""
        if not self._cache:
            return
        db = self._db
        seen = set()
        pending = [child.uid]
        while pending:
            uid = pending.pop()
            if uid in seen:
                continue
            seen.add(uid)
            instance = db.peek(uid)
            if instance is not None:
                pending.extend(
                    member for _attr, member in db.iter_composite_values(instance)
                )
        for resolutions in self._cache.values():
            for uid in seen:
                resolutions.pop(uid, None)

    def _covered_objects(self, scope):
        """Objects a grant on *scope* covers (for grant-time conflict checks)."""
        kind = scope[0]
        if kind == "database":
            return [inst.uid for inst in self._db.live_instances()]
        if kind == "class":
            covered = []
            for instance in self._db.instances_of(scope[1]):
                covered.append(instance.uid)
                covered.extend(self._db.components_of(instance.uid))
            return covered
        uid = scope[1]
        if self._db.peek(uid) is None:
            return []
        covered = [uid] + self._db.components_of(uid)
        if self._versions is not None and self._versions.is_generic(uid):
            for version in self._versions.generic_info(uid).versions:
                if version not in covered:
                    covered.append(version)
                    covered.extend(self._db.components_of(version))
        return covered

    @staticmethod
    def _scope(on_class, on_instance, database):
        targets = [t for t in (on_class, on_instance, database or None) if t]
        if len(targets) != 1:
            raise ValueError(
                "grant needs exactly one of on_class, on_instance, database"
            )
        if database:
            return DATABASE_SCOPE
        if on_class is not None:
            return ("class", on_class)
        return ("instance", on_instance)
