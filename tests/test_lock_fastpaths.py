"""The lock path's fast paths against plain references.

1. **The table** — a Hypothesis machine drives :class:`LockTable` with
   random acquire / release_all / cancel and compares it, after every
   step, with a reference that keeps only *who holds and who waits* and
   decides grant / queue / conflict straight from ``COMPATIBILITY`` plus
   the FIFO rule.
2. **Coverage** — what a transaction is answered without a table request,
   and everything it must not be.
3. **The plan cache** — step for step what walking the composite class
   hierarchy per access produces, and stale after no schema change.
4. **Identity contracts** — the hand-written hashes and equalities.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import AttributeSpec, SetOf
from repro.core.identity import UID
from repro.errors import LockConflictError
from repro.locking.modes import COMPATIBILITY, CONFLICTS, LockMode
from repro.locking.protocol import CompositeLockingProtocol
from repro.locking.table import LockTable
from repro.schema.evolution import SchemaEvolutionManager
from repro.server.protocol import decode_payload, encode_result_bytes
from repro.storage.serializer import decode_instance, encode_instance
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction
from repro.workloads.parts import build_assembly

TXNS = ("T1", "T2", "T3", "T4")
RESOURCES = ("r1", "r2", "r3")
MODES = tuple(LockMode)


def test_conflicts_is_compatibility_regrouped():
    for requested in LockMode:
        assert CONFLICTS[requested] == {
            current for current in LockMode
            if not COMPATIBILITY[(requested, current)]
        }


# ---------------------------------------------------------------------------
# 1. The table against a memory-less reference
# ---------------------------------------------------------------------------


class ReferenceTable:
    """Holders and waiters as plain lists; every decision is a scan of
    them through ``COMPATIBILITY``."""

    def __init__(self):
        self.granted = {r: [] for r in RESOURCES}   # [(txn, mode)], grant order
        self.waiting = {r: [] for r in RESOURCES}   # [(txn, mode)], FIFO
        self.queued_order = []                      # resources, first-queued

    def _compatible(self, txn, resource, mode):
        return all(COMPATIBILITY[(mode, held)]
                   for holder, held in self.granted[resource]
                   if holder != txn)

    def acquire(self, txn, resource, mode, wait):
        """'granted' | 'queued' | 'conflict'."""
        if (txn, mode) in self.granted[resource]:
            return "granted"
        if (txn, mode) in self.waiting[resource]:
            return "queued"
        converting = any(holder == txn
                         for holder, _ in self.granted[resource])
        behind = not converting and any(
            other != txn and not COMPATIBILITY[(mode, queued)]
            for other, queued in self.waiting[resource])
        if not behind and self._compatible(txn, resource, mode):
            self.granted[resource].append((txn, mode))
            return "granted"
        if not wait:
            return "conflict"
        if not self.waiting[resource]:
            self.queued_order.append(resource)
        self.waiting[resource].append((txn, mode))
        return "queued"

    def promote(self):
        promoted = []
        for resource in list(self.queued_order):
            still = []
            for txn, mode in self.waiting[resource]:
                behind = any(other != txn
                             and not COMPATIBILITY[(mode, queued)]
                             for other, queued in still)
                if not behind and self._compatible(txn, resource, mode):
                    self.granted[resource].append((txn, mode))
                    promoted.append((txn, resource, mode))
                else:
                    still.append((txn, mode))
            self.waiting[resource] = still
            if not still:
                self.queued_order.remove(resource)
        return promoted

    def _withdraw(self, resource, keep):
        before = self.waiting[resource]
        self.waiting[resource] = [entry for entry in before if keep(entry)]
        if before and not self.waiting[resource]:
            self.queued_order.remove(resource)
        return len(before) != len(self.waiting[resource])

    def release_all(self, txn):
        for resource in RESOURCES:
            self.granted[resource] = [
                entry for entry in self.granted[resource] if entry[0] != txn]
            self._withdraw(resource, lambda entry: entry[0] != txn)
        return self.promote()

    def cancel(self, txn, resource, mode):
        withdrawn = self._withdraw(
            resource,
            lambda entry: not (entry[0] == txn
                               and (mode is None or entry[1] is mode)))
        return self.promote() if withdrawn else []

    def holders(self, resource):
        return list(dict.fromkeys(t for t, _ in self.granted[resource]))

    def modes_held(self, txn, resource):
        return {m for t, m in self.granted[resource] if t == txn}

    def wait_for_edges(self):
        edges = []
        for resource in self.queued_order:
            queue = self.waiting[resource]
            for position, (txn, mode) in enumerate(queue):
                for holder in self.holders(resource):
                    if holder != txn and not all(
                            COMPATIBILITY[(mode, held)]
                            for held in self.modes_held(holder, resource)):
                        edges.append((txn, holder))
                for other, queued in queue[:position]:
                    if other != txn and not COMPATIBILITY[(mode, queued)]:
                        edges.append((txn, other))
        return edges


class TableEquivalence(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.table = LockTable()
        self.reference = ReferenceTable()

    @rule(txn=st.sampled_from(TXNS), resource=st.sampled_from(RESOURCES),
          mode=st.sampled_from(MODES), wait=st.booleans())
    def acquire(self, txn, resource, mode, wait):
        expected = self.reference.acquire(txn, resource, mode, wait)
        try:
            outcome = ("granted" if self.table.acquire(
                txn, resource, mode, wait=wait) else "queued")
        except LockConflictError:
            outcome = "conflict"
        assert outcome == expected

    @rule(txn=st.sampled_from(TXNS))
    def release_all(self, txn):
        expected = self.reference.release_all(txn)
        promoted = self.table.release_all(txn)
        assert [(r.txn, r.resource, r.mode) for r in promoted] == expected
        assert all(request.mode in self.table.modes_held(request.txn,
                                                         request.resource)
                   for request in promoted)

    @rule(txn=st.sampled_from(TXNS), resource=st.sampled_from(RESOURCES),
          mode=st.one_of(st.none(), st.sampled_from(MODES)))
    def cancel(self, txn, resource, mode):
        expected = self.reference.cancel(txn, resource, mode)
        promoted = self.table.cancel(txn, resource, mode)
        assert [(r.txn, r.resource, r.mode) for r in promoted] == expected

    @invariant()
    def same_state(self):
        table, reference = self.table, self.reference
        for resource in RESOURCES:
            assert table.holders(resource) == reference.holders(resource)
            for txn in TXNS:
                assert (table.modes_held(txn, resource)
                        == reference.modes_held(txn, resource))
                for mode in MODES:
                    assert table.is_compatible(txn, resource, mode) == \
                        reference._compatible(txn, resource, mode)
            assert [(r.txn, r.mode) for r in table.waiters(resource)] \
                == reference.waiting[resource]
        for txn in TXNS:
            assert set(table.held_resources(txn)) == {
                r for r in RESOURCES if reference.modes_held(txn, r)}
        assert table.wait_for_edges() == reference.wait_for_edges()
        assert table.lock_count() == sum(
            len(entries) for entries in reference.granted.values())

    def teardown(self):
        for txn in TXNS:
            self.table.release_all(txn)
        assert self.table.lock_count() == 0
        assert not any(self.table.waiters(r) for r in RESOURCES)


TableEquivalence.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestTableEquivalence = TableEquivalence.TestCase


# ---------------------------------------------------------------------------
# 2. Coverage is sound
# ---------------------------------------------------------------------------


class TestCoverage:
    def counts(self, protocol):
        return protocol.table.stats.requests, protocol.table.stats.covered

    def test_same_intent_is_answered_without_a_request(self, figure9_db):
        database, h = figure9_db
        protocol = CompositeLockingProtocol(database)
        assert len(protocol.lock_instance("T1", h["c1"], "write")) == 2
        assert self.counts(protocol) == (2, 0)
        assert len(protocol.lock_instance("T1", h["c1"], "write")) == 0
        assert len(protocol.lock_instance("T1", h["c1"], "read")) == 0
        assert self.counts(protocol) == (2, 2)

    def test_read_does_not_cover_write(self, figure9_db):
        database, h = figure9_db
        protocol = CompositeLockingProtocol(database)
        protocol.lock_instance("T1", h["c1"], "read")
        protocol.lock_instance("T1", h["c1"], "write")
        assert self.counts(protocol) == (4, 0)
        assert protocol.table.modes_held("T1", ("instance", h["c1"])) == {
            LockMode.S, LockMode.X}

    def test_composite_read_does_not_answer_an_instance_write(
            self, figure9_db):
        database, h = figure9_db
        protocol = CompositeLockingProtocol(database)
        protocol.lock_composite("T1", h["i1"], "read")
        before = protocol.table.stats.requests
        protocol.lock_instance("T1", h["i1"], "write")
        assert protocol.table.stats.requests == before + 2
        assert LockMode.X in protocol.table.modes_held(
            "T1", ("instance", h["i1"]))

    def test_composite_answers_the_instance_plan_on_its_root_only(
            self, figure9_db):
        database, h = figure9_db
        protocol = CompositeLockingProtocol(database)
        protocol.lock_composite("T1", h["i1"], "write")
        before = self.counts(protocol)
        protocol.lock_instance("T1", h["i1"], "read")
        assert self.counts(protocol) == (before[0], before[1] + 1)
        # ... a component is a different granule,
        assert len(protocol.lock_instance("T1", h["c1"], "read")) == 2
        protocol.release("T1")
        # ... and an instance plan never answers a composite one.
        protocol.lock_instance("T2", h["k1"], "write")
        assert len(protocol.lock_composite("T2", h["k1"], "write")) == 4

    def test_other_and_new_transactions_cover_nothing(self, figure9_db):
        database, h = figure9_db
        tm = TransactionManager(database)
        first = tm.begin()
        tm.read(first, h["c1"], "w")
        assert tm.table.stats.covered == 0
        tm.read(first, h["c1"], "w")
        assert tm.table.stats.covered == 1
        second = tm.begin()
        tm.read(second, h["c1"], "w")
        assert tm.table.stats.covered == 1
        tm.commit(first)
        tm.commit(second)
        third = tm.begin()
        requests = tm.table.stats.requests
        tm.read(third, h["c1"], "w")
        assert tm.table.stats.requests == requests + 2

    def test_a_refused_plan_is_not_covered(self, figure9_db):
        database, h = figure9_db
        protocol = CompositeLockingProtocol(database)
        protocol.lock_instance("T1", h["c1"], "write")
        with pytest.raises(LockConflictError):
            protocol.lock_instance("T2", h["c1"], "read")   # IS yes, S no
        protocol.release("T1")
        requests = protocol.table.stats.requests
        protocol.lock_instance("T2", h["c1"], "read")
        assert protocol.table.stats.requests == requests + 2
        assert protocol.table.stats.covered == 0
        assert LockMode.S in protocol.table.modes_held(
            "T2", ("instance", h["c1"]))

    def test_a_queued_or_cancelled_plan_is_not_covered(self, figure9_db):
        database, h = figure9_db
        protocol = CompositeLockingProtocol(database)
        table = protocol.table
        protocol.lock_instance("T1", h["c1"], "write")
        protocol.lock_instance("T2", h["c1"], "read", wait=True)  # S queued
        assert table.coverage("T2", h["c1"]) == 0
        table.cancel("T2", ("instance", h["c1"]))
        assert table.coverage("T2", h["c1"]) == 0
        protocol.release("T1")
        protocol.lock_instance("T2", h["c1"], "read")
        assert table.modes_held("T2", ("instance", h["c1"])) == {LockMode.S}

    def test_release_drops_coverage(self, figure9_db):
        database, h = figure9_db
        protocol = CompositeLockingProtocol(database)
        protocol.lock_composite("T1", h["i1"], "write")
        protocol.release("T1")
        assert len(protocol.lock_composite("T1", h["i1"], "write")) == 4

    def test_a_plan_granted_across_a_schema_change_is_not_covered(self, db):
        db.make_class("Leaf")
        db.make_class("Top", attributes=[
            AttributeSpec("leaf", domain="Leaf", composite=True,
                          exclusive=True, dependent=False),
        ])
        top = db.make("Top")
        protocol = CompositeLockingProtocol(db)
        plan = protocol.pending("T1", top, "read", composite=True)
        for resource, mode in plan:
            protocol.table.acquire("T1", resource, mode)
        db.make_class("Other")  # the lattice version moves mid-acquisition
        protocol.granted("T1", plan)
        assert protocol.table.coverage("T1", top) == 0

    def test_schema_change_drops_composite_coverage(self, db):
        db.make_class("Leaf")
        db.make_class("Extra")
        db.make_class("Top", attributes=[
            AttributeSpec("leaf", domain="Leaf", composite=True,
                          exclusive=True, dependent=False),
        ])
        top = db.make("Top")
        protocol = CompositeLockingProtocol(db)
        protocol.lock_composite("T1", top, "read")
        SchemaEvolutionManager(db).add_attribute("Top", AttributeSpec(
            "extra", domain="Extra", composite=True, exclusive=True,
            dependent=False))
        plan = protocol.lock_composite("T1", top, "read")
        assert (("class", "Extra"), LockMode.ISO) in list(plan)
        assert protocol.table.modes_held("T1", ("class", "Extra")) == {
            LockMode.ISO}


# ---------------------------------------------------------------------------
# 3. The plan cache
# ---------------------------------------------------------------------------


def walked_plan(db, root_uid, intent):
    """``plan_composite`` as a walk of the hierarchy on every call."""
    class_intent, instance_mode, ex_mode, sh_mode = {
        "read": (LockMode.IS, LockMode.S, LockMode.ISO, LockMode.ISOS),
        "write": (LockMode.IX, LockMode.X, LockMode.IXO, LockMode.IXOS),
    }[intent]
    class_name = db.resolve(root_uid).class_name
    steps = [(("class", class_name), class_intent),
             (("instance", root_uid), instance_mode)]
    for link in db.lattice.composite_class_hierarchy(class_name):
        step = (("class", link.component),
                ex_mode if link.exclusive else sh_mode)
        if step not in steps:
            steps.append(step)
    return steps


class TestPlanCache:
    def assert_plans_match(self, db):
        protocol = CompositeLockingProtocol(db)
        for _ in range(2):  # cold, then from the cache
            for classdef in db.lattice:
                for instance in db.instances_of(
                        classdef.name, include_subclasses=False):
                    for intent in ("read", "write"):
                        plan = protocol.plan_composite(instance.uid, intent)
                        assert plan.steps == walked_plan(
                            db, instance.uid, intent)
                        assert protocol.plan_instance(
                            instance.uid, intent).steps == plan.steps[:2]

    def test_figure9_plans_step_for_step(self, figure9_db):
        self.assert_plans_match(figure9_db[0])

    def test_mixed_links_and_assemblies_step_for_step(self, db):
        db.make_class("Leaf")
        db.make_class("Mid", attributes=[
            AttributeSpec("leafE", domain="Leaf", composite=True,
                          exclusive=True, dependent=False),
            AttributeSpec("leafS", domain=SetOf("Leaf"), composite=True,
                          exclusive=False, dependent=False),
        ])
        db.make("Mid")
        db.make("Leaf")
        build_assembly(db, depth=2, fanout=2)
        self.assert_plans_match(db)

    def test_plans_do_not_share_their_step_lists(self, figure9_db):
        database, h = figure9_db
        protocol = CompositeLockingProtocol(database)
        first = protocol.plan_composite(h["i1"], "read")
        first.add(("class", "Z"), LockMode.S)
        assert len(protocol.plan_composite(h["i1"], "read")) == 4

    def test_schema_changes_move_the_next_plan(self, db):
        db.make_class("Leaf")
        db.make_class("Extra")
        db.make_class("Top", attributes=[
            AttributeSpec("leaf", domain="Leaf", composite=True,
                          exclusive=True, dependent=False),
        ])
        top = db.make("Top")
        protocol = CompositeLockingProtocol(db)
        evolution = SchemaEvolutionManager(db)
        assert len(protocol.plan_composite(top, "write")) == 3
        evolution.add_attribute("Top", AttributeSpec(
            "extra", domain=SetOf("Extra"), composite=True,
            exclusive=False, dependent=False))
        assert protocol.plan_composite(top, "write").steps[3:] == [
            (("class", "Extra"), LockMode.IXOS)]
        evolution.drop_attribute("Top", "leaf")
        assert protocol.plan_composite(top, "write").steps[2:] == [
            (("class", "Extra"), LockMode.IXOS)]
        evolution.make_exclusive("Top", "extra")
        assert protocol.plan_composite(top, "write").steps[2:] == [
            (("class", "Extra"), LockMode.IXO)]
        assert protocol.plan_composite(top, "write").steps == walked_plan(
            db, top, "write")


# ---------------------------------------------------------------------------
# 4. Identity contracts
# ---------------------------------------------------------------------------


class TestIdentityContracts:
    def test_uid_equality_ignores_class_name(self):
        assert UID(7, "A") == UID(7, "B")
        assert hash(UID(7, "A")) == hash(UID(7, "B"))
        assert {UID(7, "A"): 1}[UID(7, "B")] == 1
        assert UID(7, "A") != UID(8, "A")

    def test_uid_is_not_its_number(self):
        assert UID(1, "A") != 1
        assert not (UID(1, "A") == 1)
        assert UID(1, "A").__eq__(1) is NotImplemented
        assert 1 not in {UID(1, "A")}

    def test_uid_orders_by_number(self):
        assert sorted([UID(3, "A"), UID(1, "C"), UID(2, "B")]) == [
            UID(1, "C"), UID(2, "B"), UID(3, "A")]
        assert UID(1, "B") <= UID(1, "A")
        with pytest.raises(TypeError):
            UID(1, "A") < 2

    def test_uid_round_trips(self, db):
        uid = UID(42, "Vehicle")
        for codec in (lambda u: decode_payload(
                          2, encode_result_bytes(2, 1, u)[4:])["result"],
                      lambda u: pickle.loads(pickle.dumps(u))):
            decoded = codec(uid)
            assert decoded == uid and decoded.class_name == "Vehicle"
        db.make_class("Leaf")
        db.make_class("Holder", attributes=[
            AttributeSpec("leaf", domain="Leaf")])
        leaf = db.make("Leaf")
        holder = db.resolve(db.make("Holder", values={"leaf": leaf}))
        decoded = decode_instance(encode_instance(holder))
        assert decoded.uid == holder.uid
        assert decoded.uid.class_name == "Holder"
        assert decoded.get("leaf") == leaf
        assert decoded.get("leaf").class_name == "Leaf"

    def test_live_transactions_never_compare_equal(self):
        first, second = Transaction(), Transaction()
        assert first != second and first == first
        assert len({first, second}) == 2
        assert first < second

    def test_lock_mode_lookup_by_value(self):
        assert {LockMode.S: 1}[LockMode("S")] == 1
        assert LockMode("IXOS") is LockMode.IXOS
        assert pickle.loads(pickle.dumps(LockMode.X)) is LockMode.X
        assert len({mode: None for mode in LockMode}) == 11
