"""The composite walk equals its reference on any schema, at any time.

``components_of`` reads each class's ``composite_slots``, which the class
lattice works out when it resolves attributes, and one breadth-first
walker serves live and snapshot reads.  The oracle is the walk as it was
before slots existed: every attribute scanned through ``is_composite`` at
every node, a spec lookup and a filter call for every child.  A Hypothesis
state machine builds random schemas and composite graphs (shared DAGs,
deletions) and applies schema changes between checks; after every step
the walk, for every live object and every filter combination, must equal
the reference list, order included.
"""

from __future__ import annotations

import itertools
from collections import deque

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import AttributeSpec, Database, ReproError, SetOf
from repro.mvcc import SnapshotManager
from repro.schema.evolution import SchemaEvolutionManager
from repro.txn.manager import TransactionManager
from repro.workloads.parts import build_assembly

# ---------------------------------------------------------------------------
# The references: the walk before composite slots
# ---------------------------------------------------------------------------


def reference_iter_composite_values(database, instance):
    classdef = database.lattice.get(instance.class_name)
    for spec in classdef.attributes():
        if not spec.is_composite:
            continue
        value = instance.get(spec.name)
        if value is None:
            continue
        if spec.is_set:
            for member in value:
                yield spec.name, member
        else:
            yield spec.name, value


def _reference_class_filter(database, list_of_classes):
    if not list_of_classes:
        return lambda uid: True
    admitted = set()
    for name in list_of_classes:
        admitted.update(database.lattice.class_hierarchy_scope(name))
    return lambda uid: database.class_of(uid) in admitted


def _reference_kind_admits(exclusive, shared, ref_is_exclusive):
    if exclusive and shared:
        return True
    if exclusive:
        return ref_is_exclusive
    if shared:
        return not ref_is_exclusive
    return True


def reference_components_of(database, uid, classes=None, exclusive=False,
                            shared=False, level=None):
    database.resolve(uid)
    admit_class = _reference_class_filter(database, classes)
    results = []
    seen = {uid}
    queue = deque([(uid, 0)])
    while queue:
        current, depth = queue.popleft()
        if level is not None and depth >= level:
            continue
        instance = database.peek(current)
        if instance is None:
            continue
        for attr, child_uid in reference_iter_composite_values(database,
                                                               instance):
            if child_uid in seen:
                continue
            child = database.peek(child_uid)
            if child is None or child.deleted:
                continue
            spec = database.lattice.get(instance.class_name).attribute(attr)
            seen.add(child_uid)
            queue.append((child_uid, depth + 1))
            if _reference_kind_admits(exclusive, shared, spec.exclusive) \
                    and admit_class(child_uid):
                results.append(child_uid)
    return results


# ---------------------------------------------------------------------------
# The property
# ---------------------------------------------------------------------------


#: What an operation or a walk may raise here: a typed refusal, nothing
#: else (a TypeError would mean a slot holds a value of the wrong shape).
_REFUSED = ReproError


def _attempt(operation, *args, **kwargs):
    try:
        operation(*args, **kwargs)
    except _REFUSED:
        pass  # refusals are part of the walk


def _outcome(walk, *args):
    """What *walk* returns, or the type of error it raises: on a state
    the walk cannot read, both walks must refuse alike."""
    try:
        return walk(*args)
    except _REFUSED as error:
        return type(error)


CLASSES = ("K0", "K1", "K2", "K3")
#: Live objects the machine stops creating at: every check walks every
#: live object under every filter combination.
MAX_OBJECTS = 12
#: (set-valued, exclusive, dependent) of one composite attribute.
_SLOT = st.tuples(st.sampled_from([True, True, False]), st.booleans(),
                  st.booleans())
SCHEMA_CHANGES = ("make_shared", "make_exclusive", "make_noncomposite",
                  "add_attribute", "rename_attribute", "drop_attribute",
                  "add_superclass", "rename_class")


class WalkEquivalence(RuleBasedStateMachine):
    """Data and schema changes in any order; the walks never drift."""

    @initialize(data=st.data())
    def build(self, data):
        self.db = Database()
        for name in CLASSES:
            attributes = [AttributeSpec("Label", domain="integer")]
            for index in range(data.draw(st.integers(1, 2))):
                attributes.append(self._composite_spec(
                    data, f"a{index}", CLASSES))
            if data.draw(st.booleans()):
                attributes.append(AttributeSpec(
                    "see", domain=data.draw(st.sampled_from(CLASSES))))
            superclasses = (["K1"] if name == "K3" and data.draw(st.booleans())
                            else [])
            self.db.make_class(name, superclasses=superclasses,
                               attributes=attributes)
        self.evolution = SchemaEvolutionManager(self.db)
        self.snapshots = SnapshotManager(self.db)
        self.serial = 0
        for _ in range(data.draw(st.integers(2, 8))):
            self._make(data, data.draw(st.booleans()))

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _composite_spec(data, name, classes):
        is_set, exclusive, dependent = data.draw(_SLOT)
        target = data.draw(st.sampled_from(classes))
        return AttributeSpec(name, domain=SetOf(target) if is_set else target,
                             composite=True, exclusive=exclusive,
                             dependent=dependent)

    def _class_names(self):
        return sorted(c.name for c in self.db.lattice if c.name != "object")

    def _live(self, domain=None):
        lattice = self.db.lattice
        return [instance.uid for instance in self.db.live_instances()
                if domain is None
                or lattice.is_subclass(instance.class_name, domain)]

    def _attribute(self, data, class_name, keep):
        specs = [spec for spec in self.db.lattice.get(class_name).attributes()
                 if keep(spec)]
        return data.draw(st.sampled_from(specs)) if specs else None

    def _new_name(self, prefix):
        self.serial += 1
        return f"{prefix}{self.serial}"

    # -- data --------------------------------------------------------------

    def _make(self, data, attach):
        """A new object, top-down under a holder when *attach*."""
        class_name = data.draw(st.sampled_from(self._class_names()))
        parents = []
        live = self._live()
        if attach and live:
            holder = data.draw(st.sampled_from(live))
            spec = self._attribute(data, self.db.class_of(holder),
                                   lambda s: s.is_composite)
            if spec is not None and spec.domain_class in self.db.lattice:
                class_name = spec.domain_class
                parents = [(holder, spec.name)]
        _attempt(self.db.make, class_name, parents=parents)

    @precondition(lambda self: len(self._live()) < MAX_OBJECTS)
    @rule(data=st.data(), attach=st.booleans())
    def make(self, data, attach):
        self._make(data, attach)

    @precondition(lambda self: self._live())
    @rule(data=st.data())
    def link(self, data):
        """An existing object becomes a component (or weak target)."""
        holder = data.draw(st.sampled_from(self._live()))
        spec = self._attribute(data, self.db.class_of(holder),
                               lambda s: s.is_reference)
        candidates = self._live(spec.domain_class) if spec else []
        if not candidates:
            return
        child = data.draw(st.sampled_from(candidates))
        _attempt(self.db.insert_into if spec.is_set else self.db.set_value,
                 holder, spec.name, child)

    @precondition(lambda self: self._live())
    @rule(data=st.data())
    def unlink(self, data):
        holder = data.draw(st.sampled_from(self._live()))
        spec = self._attribute(data, self.db.class_of(holder),
                               lambda s: s.is_composite)
        if spec is None:
            return
        if not spec.is_set:
            _attempt(self.db.set_value, holder, spec.name, None)
            return
        members = self.db.peek(holder).get(spec.name)
        if isinstance(members, list) and members:
            _attempt(self.db.remove_from, holder, spec.name,
                     data.draw(st.sampled_from(members)))

    @precondition(lambda self: self._live())
    @rule(data=st.data())
    def delete(self, data):
        _attempt(self.db.delete, data.draw(st.sampled_from(self._live())))

    # -- schema ------------------------------------------------------------

    @rule(data=st.data(), change=st.sampled_from(SCHEMA_CHANGES),
          mode=st.sampled_from(["immediate", "deferred"]))
    def evolve(self, data, change, mode):
        """One schema change (one rule, so data changes stay the common
        step and graphs grow between schema changes)."""
        evolution = self.evolution
        names = self._class_names()
        class_name = data.draw(st.sampled_from(names))
        keep = {
            "make_shared": lambda s: s.is_exclusive_composite,
            "make_exclusive": lambda s: s.is_shared_composite,
            "make_noncomposite": lambda s: s.is_composite,
            "rename_attribute": lambda s: s.defined_in == class_name,
            "drop_attribute": lambda s: s.defined_in == class_name,
        }
        try:
            if change in keep:
                spec = self._attribute(data, class_name, keep[change])
                if spec is None:
                    return
                if change == "rename_attribute":
                    evolution.rename_attribute(class_name, spec.name,
                                               self._new_name("r"))
                elif change in ("make_shared", "make_noncomposite"):
                    getattr(evolution, change)(class_name, spec.name,
                                               mode=mode)
                else:
                    getattr(evolution, change)(class_name, spec.name)
            elif change == "add_attribute":
                spec = (self._composite_spec(data, self._new_name("n"), names)
                        if data.draw(st.booleans())
                        else AttributeSpec(self._new_name("n"),
                                           domain="integer"))
                evolution.add_attribute(class_name, spec)
            elif change == "add_superclass":
                evolution.add_superclass(class_name,
                                         data.draw(st.sampled_from(names)))
            else:
                evolution.rename_class(class_name, self._new_name("C"))
        except _REFUSED:
            pass  # a refused or inapplicable change is part of the walk
        finally:
            # Schema changes are not versioned: a store checkpoints at DDL
            # and a replica rebuilds with a fresh floor.  Do the same here.
            self.snapshots.detach()
            self.snapshots = SnapshotManager(self.db)

    # -- the property --------------------------------------------------------

    @invariant()
    def walks_equal_the_reference(self):
        db = self.db
        filters = [None] + [[name] for name in self._class_names()]
        epoch = self.snapshots.current_epoch
        for uid in self._live():
            instance = db.peek(uid)
            assert _outcome(lambda: list(db.iter_composite_values(instance))) \
                == _outcome(lambda: list(
                    reference_iter_composite_values(db, instance)))
            for args in itertools.product(filters, (False, True),
                                          (False, True), (None, 1, 2)):
                assert _outcome(db.components_of, uid, *args) == _outcome(
                    reference_components_of, db, uid, *args), (uid, args)
            for args in itertools.product(filters, (False, True),
                                          (False, True)):
                assert _outcome(db.children_of, uid, *args) == _outcome(
                    reference_components_of, db, uid, *args, 1), (uid, args)
            assert _outcome(self.snapshots.components_at, uid, epoch) == \
                _outcome(db.components_of, uid)

    def teardown(self):
        self.snapshots.detach()


WalkEquivalence.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestWalkEquivalence = WalkEquivalence.TestCase


# ---------------------------------------------------------------------------
# Snapshot and locked reads return one order
# ---------------------------------------------------------------------------


def test_snapshot_read_composite_has_the_locked_order():
    db = Database()
    manager = SnapshotManager(db)
    tree = build_assembly(db, depth=2, fanout=2)
    # Write every component once so the snapshot walk reads chain images,
    # not the live objects.
    for uid in db.components_of(tree.root):
        db.set_value(uid, "Label", "written")
    tm = TransactionManager(db)
    locked = tm.begin()
    snapshot = tm.begin(snapshot=True)
    expected = tm.read_composite(locked, tree.root)
    assert expected == [uid for level in tree.levels[1:] for uid in level]
    assert tm.read_composite(snapshot, tree.root) == expected
    tm.commit(locked)
    tm.commit(snapshot)
    manager.detach()
