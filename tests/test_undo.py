"""One undo stream: a failed operation and an aborted transaction leave
exactly the state they started from -- both ends of every link, and
everything derived from links.

A Hypothesis state machine (the shape of ``tests/test_authorization_cache.py``)
runs ``make(parents=...)``, ``insert``, ``remove``, ``set``,
``make_part_of`` and ``delete`` inside random ``begin``/``commit``/
``abort``, with a :class:`VersionManager` and an
:class:`AuthorizationEngine` attached.  Some operations are drawn to
fail: Topology-Rule and CV-2X refusals, domain errors, and an injected
fault in the *k*-th ``on_link`` listener of the next operation.

* after a failed operation, every live instance's ``encode_instance``
  image equals its image before the operation;
* after every abort, the images and the live UID set equal those at the
  last commit, ``validate()`` and ``fsck()`` are clean (fsck recounts the
  version ref-counts) and ``AuthorizationEngine.resolve`` equals what a
  freshly built engine deduces;
* the durable variant runs the same machine on a :class:`DurableDatabase`
  (``sync_policy`` ``"always"`` and ``"commit"``) with random
  mid-transaction checkpoints (the journal's stale-batch path): after
  every commit and abort, a recovered copy of the journal directory
  holds exactly the committed images.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import AttributeSpec, Database, ReproError, SetOf
from repro.authorization.engine import AuthorizationEngine
from repro.storage.durable import DurableDatabase
from repro.storage.journal import Journal
from repro.storage.serializer import encode_instance
from repro.txn.manager import TransactionManager
from repro.versions.manager import VersionManager

USERS = ("u", "v")


class InjectedFault(ReproError):
    """Raised by the test's own ``on_link`` listener."""


def schema(db):
    db.make_class("Design", versionable=True, attributes=[
        AttributeSpec("Stamp", domain="integer")])
    db.make_class("Part", attributes=[
        AttributeSpec("Stamp", domain="integer")])
    db.make_class("Asm", attributes=[
        AttributeSpec("Stamp", domain="integer"),
        AttributeSpec("Shared", domain=SetOf("Part"), composite=True,
                      exclusive=False, dependent=True),
        AttributeSpec("Owned", domain=SetOf("Part"), composite=True,
                      exclusive=True, dependent=True),
        AttributeSpec("Subs", domain=SetOf("Asm"), composite=True,
                      exclusive=False, dependent=False),
        AttributeSpec("Designs", domain=SetOf("Design"), composite=True,
                      exclusive=False, dependent=False),
        AttributeSpec("Lead", domain="Design", composite=True,
                      exclusive=True, dependent=False),
    ])


def images(db):
    """Every live instance's serialized image, by UID."""
    return {instance.uid: encode_instance(instance)
            for instance in db.live_instances()}


class UndoStream(RuleBasedStateMachine):

    def new_database(self):
        return Database()

    @initialize()
    def build(self):
        self.db = db = self.new_database()
        schema(db)
        self.versions = VersionManager(db)
        self.engine = AuthorizationEngine(
            db, version_registry=self.versions.registry)
        self.designs = []
        for _ in range(2):
            self.designs.extend(
                self.versions.create("Design", values={"Stamp": 0}))
        self.root = db.make("Asm", values={"Stamp": 0})
        db.make("Part", values={"Stamp": 0}, parents=[(self.root, "Shared")])
        self.grants = (
            ("u", "sR", {"on_class": "Part"}),
            ("u", "sW", {"on_instance": self.root}),
            ("v", "wR", {"on_instance": self.root}),
            ("v", "s¬W", {"on_class": "Design"}),
        )
        for user, atom, target in self.grants:
            self.engine.grant(user, atom, **target)
        self.fail_in = 0
        db.on_link.append(self._fault)  # after the managers' listeners
        self.tm = TransactionManager(db)
        self.txn = self.tm.begin()
        self.committed = images(db)

    # -- helpers -------------------------------------------------------------

    def _fault(self, _parent, _spec, _child):
        if self.fail_in:
            self.fail_in -= 1
            if not self.fail_in:
                raise InjectedFault("injected on_link failure")

    def _pick(self, data, class_name):
        uids = [i.uid for i in self.db.instances_of(class_name)]
        return data.draw(st.sampled_from(uids)) if uids else None

    def _attempt(self, operation, *args, **kwargs):
        before = images(self.db)
        try:
            return operation(*args, **kwargs)
        except ReproError:
            assert images(self.db) == before, "a failed op left edits"
            return None
        finally:
            self.fail_in = 0

    # -- data operations -----------------------------------------------------

    @rule(k=st.integers(1, 3))
    def arm_fault(self, k):
        self.fail_in = k

    @rule(data=st.data(),
          attributes=st.lists(st.sampled_from(["Shared", "Owned"]),
                              max_size=2))
    def make_part(self, data, attributes):
        parents = [(self._pick(data, "Asm"), a) for a in attributes]
        self._attempt(self.tm.make, self.txn, "Part", values={"Stamp": 0},
                      parents=parents)

    @rule(data=st.data(), owned=st.integers(0, 2), nested=st.booleans(),
          lead=st.booleans())
    def make_assembly(self, data, owned, nested, lead):
        values = {"Stamp": 0}
        parts = [self._pick(data, "Part") for _ in range(owned)]
        if None not in parts and len(set(parts)) == len(parts):
            values["Owned"] = parts
        if lead:
            values["Lead"] = data.draw(st.sampled_from(self.designs))
        parent = self._pick(data, "Asm") if nested else None
        parents = [(parent, "Subs")] if parent is not None else []
        self._attempt(self.tm.make, self.txn, "Asm", values=values,
                      parents=parents)

    @rule(data=st.data(),
          pair=st.sampled_from([("Shared", "Part"), ("Owned", "Part"),
                                ("Subs", "Asm"), ("Designs", "Design")]))
    def insert(self, data, pair):
        attribute, member_class = pair
        holder = self._pick(data, "Asm")
        member = (data.draw(st.sampled_from(self.designs))
                  if member_class == "Design"
                  else self._pick(data, member_class))
        if member is not None and member != holder:
            self._attempt(self.tm.insert, self.txn, holder, attribute, member)

    @rule(data=st.data(),
          attribute=st.sampled_from(["Shared", "Owned", "Subs", "Designs"]))
    def remove(self, data, attribute):
        holder = self._pick(data, "Asm")
        members = self.db.value(holder, attribute)
        if members:
            self._attempt(self.tm.remove, self.txn, holder, attribute,
                          data.draw(st.sampled_from(members)))

    @rule(data=st.data(), clear=st.booleans())
    def set_lead(self, data, clear):
        holder = self._pick(data, "Asm")
        lead = None if clear else data.draw(st.sampled_from(self.designs))
        self._attempt(self.tm.write, self.txn, holder, "Lead", lead)

    @rule(data=st.data(), stamp=st.one_of(st.integers(0, 9), st.just("x")))
    def set_stamp(self, data, stamp):
        target = self._pick(data, data.draw(st.sampled_from(["Asm", "Part"])))
        if target is not None:
            self._attempt(self.tm.write, self.txn, target, "Stamp", stamp)

    @rule(data=st.data(), attribute=st.sampled_from(["Shared", "Owned"]))
    def make_part_of(self, data, attribute):
        child, parent = self._pick(data, "Part"), self._pick(data, "Asm")
        if child is not None:
            def bottom_up():
                with self.db.txn_context(self.txn):
                    return self.db.make_part_of(child, parent, attribute)
            self._attempt(bottom_up)

    @rule(data=st.data(), class_name=st.sampled_from(["Asm", "Part"]))
    def delete(self, data, class_name):
        victim = self._pick(data, class_name)
        if victim is not None and victim != self.root:
            self._attempt(self.tm.delete, self.txn, victim)

    # -- transaction boundaries ----------------------------------------------

    @rule()
    def commit(self):
        self.fail_in = 0  # faults are for data operations only
        self.tm.commit(self.txn)
        self.txn = self.tm.begin()
        self.committed = images(self.db)
        self.check_recovery()

    @rule()
    def abort(self):
        self.fail_in = 0
        self.tm.abort(self.txn)
        self.txn = self.tm.begin()
        assert images(self.db) == self.committed
        report = self.db.fsck()
        assert report.ok, report.render()
        assert self.resolutions(self.engine) == self.resolutions(
            self.fresh_engine())
        self.check_recovery()

    def fresh_engine(self):
        """A newly built engine with the same grants (its listeners are
        detached again at once: it only answers this one comparison)."""
        db = self.db
        hooks = (db.on_link, db.on_unlink, db.on_delete, db.on_topology_reset)
        saved = [list(hook) for hook in hooks]
        fresh = AuthorizationEngine(
            db, version_registry=self.versions.registry)
        for hook, listeners in zip(hooks, saved):
            hook[:] = listeners
        db.auth_engine = self.engine
        for user, atom, target in self.grants:
            fresh.grant(user, atom, **target)
        return fresh

    def resolutions(self, engine):
        return {
            (user, instance.uid): (resolution.effective, resolution.conflict)
            for user in USERS
            for instance in self.db.live_instances()
            for resolution in [engine.resolve(user, instance.uid)]
        }

    def check_recovery(self):
        """In-memory only: nothing to recover."""

    @invariant()
    def both_ends_agree(self):
        self.db.validate()


UndoStream.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
TestUndoStream = UndoStream.TestCase


class DurableUndoStream(UndoStream):
    """The same machine on a journaled database: the journal sees undo as
    ordinary persist events, so recovery lands on the committed state."""

    sync_policy = "always"

    def new_database(self):
        self.directory = Path(tempfile.mkdtemp(prefix="repro-undo-"))
        return DurableDatabase(self.directory / "live",
                               sync_policy=self.sync_policy)

    @rule()
    def checkpoint(self):
        self.db.checkpoint()

    def check_recovery(self):
        copy = self.directory / "copy"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(self.directory / "live", copy)
        recovered = Database()
        Journal.recover_into(recovered, copy)
        assert images(recovered) == self.committed

    def teardown(self):
        db = getattr(self, "db", None)
        if db is not None:
            db.close()
            shutil.rmtree(self.directory, ignore_errors=True)


class CommitPolicyUndoStream(DurableUndoStream):
    sync_policy = "commit"


def test_listener_failure_during_rollback_still_restores():
    """A refused ``set_value`` unlinks the old component before the new
    link is refused; replaying the re-link announces ``on_link``, and a
    listener raising there must not cut the replay short (the old
    component would lose its reverse reference)."""
    db = Database()
    schema(db)
    versions = VersionManager(db)
    first, _ = versions.create("Design", values={"Stamp": 0})
    taken, _ = versions.create("Design", values={"Stamp": 0})
    db.make("Asm", values={"Stamp": 0, "Lead": taken})
    holder = db.make("Asm", values={"Stamp": 0, "Lead": first})
    armed = []

    def fault(_parent, _spec, _child):
        if armed:
            armed.pop()
            raise InjectedFault("injected on_link failure")

    db.on_link.append(fault)
    before = images(db)
    armed.append(True)
    try:
        db.set_value(holder, "Lead", taken)
    except ReproError:
        pass
    else:
        raise AssertionError("an exclusive second parent was accepted")
    assert not armed, "the replayed re-link never reached the listener"
    assert images(db) == before
    db.validate()
    assert db.fsck().ok


for machine in (DurableUndoStream, CommitPolicyUndoStream):
    machine.TestCase.settings = settings(
        max_examples=60, stateful_step_count=30, deadline=None
    )
TestDurableUndoStream = DurableUndoStream.TestCase
TestCommitPolicyUndoStream = CommitPolicyUndoStream.TestCase
