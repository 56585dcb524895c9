"""Role-based grants ([RABI88] substrate).

[RABI88]'s authorization model grants to *roles* as well as individual
users, with a role lattice along which authorizations are implied.  This
module adds that layer on top of :class:`AuthorizationEngine`:

* roles form a DAG: a *senior* role inherits every authorization granted
  to its junior roles (standard seniority semantics — a chief designer can
  do whatever a designer can);
* users are assigned to roles; a user's *principals* are themselves plus
  every role they hold, transitively closed downwards through the
  seniority DAG;
* checks combine the atoms implied for every principal; contradictions
  arising from role combinations resolve exactly like multi-composite
  implications (strong beats weak; contradictory strongs conflict — and a
  conflicting check denies).
"""

from __future__ import annotations

from collections import deque

from ..errors import AuthorizationError
from .engine import AuthorizationEngine


class RoleManager:
    """The role DAG and user-role assignments."""

    def __init__(self):
        self._juniors = {}   # role -> set of directly junior roles
        self._members = {}   # user -> set of roles directly held
        #: Bumped by every change to the role DAG or to memberships: a
        #: user's principals may have changed, so resolutions cached by
        #: any engine sharing this manager are stale.
        self.version = 0

    # -- roles ------------------------------------------------------------

    def define_role(self, role, juniors=()):
        """Define *role*, senior to each role in *juniors*."""
        entry = self._juniors.setdefault(role, set())
        for junior in juniors:
            if junior == role or role in self.junior_closure(junior):
                raise AuthorizationError(
                    f"seniority cycle: {role} over {junior}"
                )
            self._juniors.setdefault(junior, set())
            entry.add(junior)
        self.version += 1
        return role

    def add_seniority(self, senior, junior):
        """Make *senior* inherit *junior*'s authorizations."""
        self.define_role(senior, juniors=[junior])

    def roles(self):
        return sorted(self._juniors)

    def junior_closure(self, role):
        """The role plus every transitively junior role."""
        closure = set()
        queue = deque([role])
        while queue:
            current = queue.popleft()
            if current in closure:
                continue
            closure.add(current)
            queue.extend(self._juniors.get(current, ()))
        return closure

    # -- membership ---------------------------------------------------------

    def assign(self, user, role):
        if role not in self._juniors:
            raise AuthorizationError(f"unknown role {role!r}")
        self._members.setdefault(user, set()).add(role)
        self.version += 1

    def unassign(self, user, role):
        self._members.get(user, set()).discard(role)
        self.version += 1

    def roles_of(self, user):
        """Roles directly held by *user*."""
        return sorted(self._members.get(user, ()))

    def principals(self, user):
        """The user plus every role whose grants apply to them."""
        principals = {user}
        for role in self._members.get(user, ()):
            principals |= self.junior_closure(role)
        return principals


class RoleAuthorizationEngine(AuthorizationEngine):
    """An authorization engine whose subjects may be users or roles.

    Grants name either a user or a role; checks for a user combine the
    implied authorizations of all their principals.
    """

    def __init__(self, database, role_manager=None):
        self.roles = role_manager if role_manager is not None else RoleManager()
        super().__init__(database)

    def _generation(self):
        return super()._generation() + self.roles.version

    def _forget_subject(self, subject):
        # A grant to a role reaches every user holding it through the
        # seniority DAG: no single subject's entries bound the change.
        self._cache.clear()

    def _implied_with_reason(self, user, uid):
        for principal in sorted(self.roles.principals(user)):
            if principal == user:
                yield from super()._implied_with_reason(user, uid)
            else:
                for grant, why in super()._implied_with_reason(principal, uid):
                    yield grant, f"via role {principal}: {why}"

    def audit(self, user):
        """Objects where the user's combined principals conflict.

        Role combinations can introduce contradictions no single grant
        check saw (a strong ¬W from one role against a strong W from
        another); this reports them so an administrator can repair the
        role assignment.
        """
        conflicted = []
        for instance in self._db.live_instances():
            if self.resolve(user, instance.uid).conflict:
                conflicted.append(instance.uid)
        return conflicted
