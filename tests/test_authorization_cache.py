"""The authorization engine's resolution cache never outlives the facts
it was deduced from.

A stale "permit" is an authorization bypass, so the oracle is not the
engine's own deduction but a reference written from the rules of paper
Section 6: a linear walk over ``grants_of(user)`` with no index and no
memory.  Three layers:

1. a Hypothesis state machine over random interleavings of grant, revoke,
   ``make(parents=...)``, ``insert_into``, ``remove_from``, ``delete``,
   commit, abort (the undo stream replaying each) and schema
   changes -- after every step ``resolve``/``check`` equal the reference
   on every object;
2. targeted regressions, in process and over the wire: detach -> denied
   at once, re-attach -> allowed, abort of the detach -> allowed, a
   negative grant on the root -> components denied at once;
3. the drop-everything triggers: role DAG, version registry, deferred
   schema-evolution catch-up, a replica that rebuilds in place.
"""

from __future__ import annotations

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import AttributeSpec, Database, ReproError, SetOf
from repro.authorization import FIGURE6_ATOMS, combine
from repro.authorization.engine import AuthorizationEngine
from repro.authorization.roles import RoleAuthorizationEngine, RoleManager
from repro.core.identity import UID
from repro.errors import AccessDenied
from repro.schema.evolution import SchemaEvolutionManager
from repro.txn.manager import TransactionManager

pytestmark = pytest.mark.usefixtures("owns_nothing")

USERS = ("u", "v")


def schema(db):
    """Nested assemblies (``Subs``) over shared (``Shared``) and owned
    (``Owned``) dependent parts, with a subclass for lineage grants."""
    db.make_class("Tagged")
    db.make_class("Part", attributes=[AttributeSpec("Stamp", domain="integer")])
    db.make_class("Asm", attributes=[
        AttributeSpec("Stamp", domain="integer"),
        AttributeSpec("Shared", domain=SetOf("Part"), composite=True,
                      exclusive=False, dependent=True),
        AttributeSpec("Owned", domain=SetOf("Part"), composite=True,
                      exclusive=True, dependent=True),
        AttributeSpec("Subs", domain=SetOf("Asm"), composite=True,
                      exclusive=False, dependent=False),
    ])
    db.make_class("SubAsm", superclasses=["Asm"])


def reference(engine, db, user, uid, versions=None):
    """Section 6 by the book: every grant of *user* tested against *uid*,
    nothing indexed, nothing remembered."""
    instance = db.peek(uid)
    if instance is None:
        return combine(())
    lattice = db.lattice
    ancestors = db.ancestors_of(uid)
    atoms = []
    for grant in engine.grants_of(user):
        kind = grant.scope[0]
        if kind == "database":
            covered = True
        elif kind == "class":
            covered = any(
                lattice.is_subclass(db.class_of(member), grant.scope[1])
                for member in [uid] + ancestors
            )
        else:
            target = grant.scope[1]
            covered = target == uid or target in ancestors
            if not covered and versions is not None:
                covered = any(
                    versions.generic_of(member) == target
                    for member in [uid] + ancestors
                )
        if covered:
            atoms.append(grant.atom)
    return combine(atoms)


def assert_matches_reference(engine, db, users=USERS, extra=(), versions=None):
    uids = [instance.uid for instance in db.live_instances()] + list(extra)
    for user in users:
        for uid in uids:
            expected = reference(engine, db, user, uid, versions)
            cached = engine.resolve(user, uid)
            assert cached.conflict == expected.conflict, (user, uid)
            assert cached.effective == expected.effective, (user, uid)
            for auth_type in ("R", "W"):
                assert engine.check(user, auth_type, uid) == \
                    expected.permits(auth_type), (user, auth_type, uid)


# ---------------------------------------------------------------------------
# 1. The equivalence property
# ---------------------------------------------------------------------------


class CacheEquivalence(RuleBasedStateMachine):
    """Every rule leaves the cache warm (the invariant reads every pair),
    so the next rule's change must invalidate exactly what it staled."""

    @initialize()
    def build(self):
        self.db = Database()
        schema(self.db)
        self.evolution = SchemaEvolutionManager(self.db)
        self.engine = AuthorizationEngine(self.db)
        self.tm = TransactionManager(self.db)
        self.txn = self.tm.begin()
        self.dead = []
        self.extra_classes = 0
        self.subs_composite = True
        root = self.tm.make(self.txn, "Asm", values={"Stamp": 0})
        self.tm.make(self.txn, "Part", values={"Stamp": 0},
                     parents=[(root, "Shared")])

    # -- helpers -----------------------------------------------------------

    def _pick(self, data, class_name):
        instances = self.db.instances_of(class_name)
        if not instances:
            return None
        return data.draw(st.sampled_from([i.uid for i in instances]))

    def _attempt(self, operation, *args, **kwargs):
        try:
            return operation(self.txn, *args, **kwargs)
        except ReproError:
            return None  # topology/domain refusals are part of the walk

    # -- data operations (through the transaction manager) ------------------

    @rule(data=st.data(), subclass=st.booleans(), nested=st.booleans())
    def make_assembly(self, data, subclass, nested):
        parent = self._pick(data, "Asm") if nested else None
        parents = [(parent, "Subs")] if parent is not None else []
        self._attempt(self.tm.make, "SubAsm" if subclass else "Asm",
                      values={"Stamp": 0}, parents=parents)

    @rule(data=st.data(), attribute=st.sampled_from(["Shared", "Owned"]))
    def make_part(self, data, attribute):
        parent = self._pick(data, "Asm")
        if parent is not None:
            self._attempt(self.tm.make, "Part", values={"Stamp": 0},
                          parents=[(parent, attribute)])

    @rule(data=st.data(), attribute=st.sampled_from(["Shared", "Owned"]))
    def insert_part(self, data, attribute):
        holder, part = self._pick(data, "Asm"), self._pick(data, "Part")
        if holder is not None and part is not None:
            self._attempt(self.tm.insert, holder, attribute, part)

    @rule(data=st.data())
    def insert_assembly(self, data):
        holder, member = self._pick(data, "Asm"), self._pick(data, "Asm")
        if holder is not None and holder != member:
            self._attempt(self.tm.insert, holder, "Subs", member)

    @rule(data=st.data(),
          attribute=st.sampled_from(["Shared", "Owned", "Subs"]))
    def remove_member(self, data, attribute):
        holder = self._pick(data, "Asm")
        if holder is None:
            return
        members = self.db.value(holder, attribute)
        if members:
            self._attempt(self.tm.remove, holder, attribute,
                          data.draw(st.sampled_from(members)))

    @rule(data=st.data(), class_name=st.sampled_from(["Asm", "Part"]))
    def delete(self, data, class_name):
        victim = self._pick(data, class_name)
        if victim is not None:
            report = self._attempt(self.tm.delete, victim)
            if report is not None:
                self.dead.extend(report.deleted)

    @rule(data=st.data(), stamp=st.integers(0, 9))
    def write(self, data, stamp):
        target = self._pick(data, "Part")
        if target is not None:
            self._attempt(self.tm.write, target, "Stamp", stamp)

    @rule()
    def commit(self):
        self.tm.commit(self.txn)
        self.txn = self.tm.begin()

    @rule()
    def abort(self):
        self.tm.abort(self.txn)
        self.txn = self.tm.begin()

    # -- grants ------------------------------------------------------------

    @rule(data=st.data(), user=st.sampled_from(USERS),
          atom=st.sampled_from(FIGURE6_ATOMS),
          kind=st.sampled_from(["database", "class", "instance"]))
    def grant(self, data, user, atom, kind):
        target = {}
        if kind == "database":
            target["database"] = True
        elif kind == "class":
            target["on_class"] = data.draw(
                st.sampled_from(["Asm", "SubAsm", "Part", "Tagged"]))
        else:
            uid = self._pick(data, data.draw(st.sampled_from(["Asm", "Part"])))
            if uid is None:
                return
            target["on_instance"] = uid
        try:
            self.engine.grant(user, atom, **target)
        except ReproError:
            pass  # a conflicting grant is refused and changes nothing

    @rule(data=st.data(), user=st.sampled_from(USERS))
    def revoke(self, data, user):
        grants = self.engine.grants_of(user)
        if not grants:
            return
        record = data.draw(st.sampled_from(grants))
        kind = record.scope[0]
        target = ({"database": True} if kind == "database"
                  else {"on_class": record.scope[1]} if kind == "class"
                  else {"on_instance": record.scope[1]})
        assert self.engine.revoke(user, record.atom, **target)

    # -- schema ------------------------------------------------------------

    @rule()
    def define_class(self):
        self.extra_classes += 1
        self.db.make_class(f"Extra{self.extra_classes}")

    @precondition(lambda self:
                  "Tagged" not in self.db.lattice.all_superclasses("Part"))
    @rule()
    def tag_parts(self):
        self.evolution.add_superclass("Part", "Tagged")

    @precondition(lambda self: self.subs_composite)
    @rule(mode=st.sampled_from(["immediate", "deferred"]))
    def make_subs_noncomposite(self, mode):
        # I1: nested assemblies stop being components of their holders;
        # deferred, each loses its reverse reference when next accessed.
        self.evolution.make_noncomposite("Asm", "Subs", mode=mode)
        self.subs_composite = False

    # -- the property ------------------------------------------------------

    @invariant()
    def cached_equals_reference(self):
        assert_matches_reference(self.engine, self.db, extra=self.dead[-3:])

    @invariant()
    def bookkeeping_keeps_its_meaning(self):
        total = sum(len(self.engine.grants_of(user)) for user in USERS)
        assert self.engine.stored_record_count() == total


CacheEquivalence.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestCacheEquivalence = CacheEquivalence.TestCase


# ---------------------------------------------------------------------------
# 2. Targeted regressions
# ---------------------------------------------------------------------------


def one_composite():
    db = Database()
    schema(db)
    root = db.make("Asm", values={"Stamp": 0})
    part = db.make("Part", values={"Stamp": 7}, parents=[(root, "Shared")])
    engine = AuthorizationEngine(db)
    # Weak, so a later strong prohibition can override it (Figure 6).
    engine.grant("u", "wW", on_instance=root)
    return db, engine, root, part


class TestInProcess:
    def test_detach_denies_the_very_next_check(self):
        db, engine, root, part = one_composite()
        assert engine.require("u", "R", part)
        db.remove_from(root, "Shared", part)
        with pytest.raises(AccessDenied):
            engine.require("u", "R", part)
        db.insert_into(root, "Shared", part)
        assert engine.require("u", "R", part)

    def test_abort_of_the_detach_restores_access(self):
        db, engine, root, part = one_composite()
        tm = TransactionManager(db)
        assert engine.check("u", "R", part)
        txn = tm.begin()
        tm.remove(txn, root, "Shared", part)
        assert not engine.check("u", "R", part)
        tm.abort(txn)
        assert engine.check("u", "R", part)

    def test_negative_grant_on_the_root_reaches_components_at_once(self):
        db, engine, root, part = one_composite()
        assert engine.check("u", "W", part)
        engine.grant("u", "s¬R", on_instance=root)
        assert not engine.check("u", "R", part)
        with pytest.raises(AccessDenied, match="negative"):
            engine.require("u", "R", part)
        engine.revoke("u", "s¬R", on_instance=root)
        assert engine.check("u", "W", part)

    def test_delete_then_resurrect(self):
        db, engine, root, part = one_composite()
        tm = TransactionManager(db)
        assert engine.check("u", "R", part)
        txn = tm.begin()
        tm.delete(txn, root)
        assert not engine.check("u", "R", part)  # gone with its root
        tm.abort(txn)
        assert engine.check("u", "R", part)
        assert_matches_reference(engine, db)

    def test_detach_reaches_every_level_below(self):
        db, engine, root, part = one_composite()
        sub = db.make("Asm", values={"Stamp": 0}, parents=[(root, "Subs")])
        leaf = db.make("Part", values={"Stamp": 0}, parents=[(sub, "Owned")])
        assert engine.check("u", "R", leaf)
        db.remove_from(root, "Subs", sub)
        assert not engine.check("u", "R", sub)
        assert not engine.check("u", "R", leaf)

    def test_unknown_uids_are_answered_but_not_remembered(self):
        db, engine, root, part = one_composite()
        ghost = UID(10_000, "Part")
        assert not engine.check("u", "R", ghost)
        assert ghost not in engine._cache.get("u", {})


class TestOverTheWire:
    @pytest.fixture
    def served(self):
        from repro.server import Client, ServerThread

        db, engine, root, part = one_composite()
        with ServerThread(database=db, auth=engine) as handle:
            with Client(port=handle.port, user="u") as client:
                yield handle, engine, client, root, part

    def test_detach_reattach_and_abort(self, served):
        _handle, _engine, client, root, part = served
        assert client.value(part, "Stamp") == 7
        client.remove_from(root, "Shared", part)
        with pytest.raises(AccessDenied):
            client.value(part, "Stamp")  # the very next request
        client.insert_into(root, "Shared", part)
        assert client.value(part, "Stamp") == 7
        client.begin()
        client.remove_from(root, "Shared", part)
        with pytest.raises(AccessDenied):
            client.value(part, "Stamp")
        client.abort()
        assert client.value(part, "Stamp") == 7

    def test_negative_grant_on_the_root(self, served):
        handle, engine, client, root, part = served
        assert client.value(part, "Stamp") == 7
        handle.submit(lambda: engine.grant("u", "s¬R", on_instance=root))
        with pytest.raises(AccessDenied):
            client.value(part, "Stamp")
        with pytest.raises(AccessDenied):
            client.value(root, "Stamp")


# ---------------------------------------------------------------------------
# 3. Everything-goes triggers
# ---------------------------------------------------------------------------


class TestDropEverything:
    def test_role_dag_and_membership(self):
        db = Database()
        schema(db)
        root = db.make("Asm", values={"Stamp": 0})
        roles = RoleManager()
        roles.define_role("designer")
        roles.define_role("chief")
        engine = RoleAuthorizationEngine(db, roles)
        engine.grant("designer", "sR", on_instance=root)
        assert not engine.check("erin", "R", root)
        roles.assign("erin", "chief")
        assert not engine.check("erin", "R", root)
        roles.add_seniority("chief", "designer")
        assert engine.check("erin", "R", root)
        roles.unassign("erin", "chief")
        assert not engine.check("erin", "R", root)
        roles.assign("erin", "designer")
        assert engine.check("erin", "R", root)
        engine.revoke("designer", "sR", on_instance=root)  # a role's grant
        assert not engine.check("erin", "R", root)

    def test_version_registry(self):
        from repro.versions.manager import VersionManager

        db = Database()
        db.make_class("Design", versionable=True, attributes=[
            AttributeSpec("Stamp", domain="integer")])
        manager = VersionManager(db)
        engine = AuthorizationEngine(db, version_registry=manager.registry)
        generic, first = manager.create("Design", values={"Stamp": 1})
        engine.grant("u", "sR", on_instance=generic)
        assert engine.check("u", "R", first)
        second = manager.derive(first).new_version
        assert engine.check("u", "R", second)
        assert_matches_reference(engine, db, users=("u",),
                                 versions=manager.registry)
        manager.delete_version(second)
        assert not engine.check("u", "R", second)
        assert_matches_reference(engine, db, users=("u",), extra=[second],
                                 versions=manager.registry)

    def test_deferred_evolution_catch_up(self):
        db, engine, root, part = one_composite()
        evolution = SchemaEvolutionManager(db)
        sub = db.make("Asm", values={"Stamp": 0}, parents=[(root, "Subs")])
        leaf = db.make("Part", values={"Stamp": 0}, parents=[(sub, "Owned")])
        assert engine.check("u", "R", leaf)
        evolution.make_noncomposite("Asm", "Subs", mode="deferred")
        # Nobody has touched `sub` yet: its reverse reference still stands
        # and the leaf is still reached through it ...
        assert engine.check("u", "R", leaf)
        db.resolve(sub)  # ... until the access that catches `sub` up.
        assert not engine.check("u", "R", leaf)
        assert not engine.check("u", "R", sub)
        assert_matches_reference(engine, db)

    def test_replica_apply_and_in_place_rebuild(self, tmp_path):
        from repro.mvcc import JournalFollower
        from repro.storage.durable import DurableDatabase

        primary = DurableDatabase(tmp_path, sync_policy="commit")
        schema(primary)
        root = primary.make("Asm", values={"Stamp": 0})
        part = primary.make("Part", values={"Stamp": 0},
                            parents=[(root, "Shared")])
        follower = JournalFollower(tmp_path)
        replica = follower.database
        engine = AuthorizationEngine(replica)
        engine.grant("u", "sR", on_instance=root)
        assert engine.check("u", "R", part)
        primary.remove_from(root, "Shared", part)
        follower.poll()
        assert not engine.check("u", "R", part)  # apply dropped the entry
        primary.insert_into(root, "Shared", part)
        primary.checkpoint()
        rebuilds = follower.rebuilds
        follower.poll()
        assert follower.rebuilds == rebuilds + 1
        assert follower.database is replica
        assert replica.auth_engine is engine  # re-attached after the swap
        assert engine.check("u", "R", part)
        primary.remove_from(root, "Shared", part)
        follower.poll()
        assert not engine.check("u", "R", part)
        primary.close()
