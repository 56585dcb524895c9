"""Tests for the Deletion Rule (paper 2.2)."""

import pytest

from repro import AttributeSpec, Database, SetOf
from repro.core.deletion import would_delete


def _single_ref_db(dependent, exclusive):
    database = Database()
    database.make_class("Child")
    database.make_class("Parent", attributes=[
        AttributeSpec("kid", domain="Child", composite=True,
                      exclusive=exclusive, dependent=dependent),
    ])
    child = database.make("Child")
    parent = database.make("Parent", values={"kid": child})
    return database, parent, child


class TestFourConditions:
    """del(O') against each of the four composite reference types."""

    def test_independent_exclusive_preserves(self):
        database, parent, child = _single_ref_db(dependent=False, exclusive=True)
        report = database.delete(parent)
        assert report.deleted == [parent]
        assert database.exists(child)
        assert child in report.preserved_independent
        # The survivor is fully detached and reusable.
        assert database.resolve(child).reverse_references == []

    def test_dependent_exclusive_cascades(self):
        database, parent, child = _single_ref_db(dependent=True, exclusive=True)
        report = database.delete(parent)
        assert set(report.deleted) == {parent, child}
        assert not database.exists(child)

    def test_independent_shared_preserves(self):
        database, parent, child = _single_ref_db(dependent=False, exclusive=False)
        report = database.delete(parent)
        assert database.exists(child)
        assert child in report.preserved_independent

    def test_dependent_shared_last_parent_cascades(self):
        database, parent, child = _single_ref_db(dependent=True, exclusive=False)
        report = database.delete(parent)
        assert not database.exists(child)
        assert child in report.deleted

    def test_dependent_shared_survives_other_parents(self, db):
        db.make_class("Child")
        db.make_class("Parent", attributes=[
            AttributeSpec("kids", domain=SetOf("Child"), composite=True,
                          exclusive=False, dependent=True),
        ])
        child = db.make("Child")
        p1 = db.make("Parent", values={"kids": [child]})
        p2 = db.make("Parent", values={"kids": [child]})
        report = db.delete(p1)
        assert db.exists(child)
        assert child in report.preserved_shared
        # DS(child) lost p1: "otherwise DS(O) = DS(O) - O'".
        assert db.resolve(child).ds_parents() == [p2]
        # Deleting the last dependent parent now cascades.
        db.delete(p2)
        assert not db.exists(child)


class TestCondition3Transitivity:
    def test_cascade_through_intermediate(self, db):
        # del(root) => del(mid) => del(leaf), all dependent exclusive.
        from repro.workloads.parts import build_part_tree

        tree = build_part_tree(db, depth=3, fanout=2)
        report = db.delete(tree.root)
        assert len(report.deleted) == tree.size
        assert len(db) == 0

    def test_shared_child_of_two_dying_parents_dies(self, db):
        # Both DS parents die in the same cascade -> the child dies too.
        db.make_class("Leaf")
        db.make_class("Mid", attributes=[
            AttributeSpec("leaves", domain=SetOf("Leaf"), composite=True,
                          exclusive=False, dependent=True),
        ])
        db.make_class("Top", attributes=[
            AttributeSpec("mids", domain=SetOf("Mid"), composite=True,
                          exclusive=True, dependent=True),
        ])
        leaf = db.make("Leaf")
        m1 = db.make("Mid", values={"leaves": [leaf]})
        m2 = db.make("Mid", values={"leaves": [leaf]})
        top = db.make("Top", values={"mids": [m1, m2]})
        report = db.delete(top)
        assert set(report.deleted) == {top, m1, m2, leaf}

    def test_shared_child_survives_when_one_parent_outside_cascade(self, db):
        db.make_class("Leaf")
        db.make_class("Mid", attributes=[
            AttributeSpec("leaves", domain=SetOf("Leaf"), composite=True,
                          exclusive=False, dependent=True),
        ])
        db.make_class("Top", attributes=[
            AttributeSpec("mids", domain=SetOf("Mid"), composite=True,
                          exclusive=True, dependent=True),
        ])
        leaf = db.make("Leaf")
        m1 = db.make("Mid", values={"leaves": [leaf]})
        m2 = db.make("Mid", values={"leaves": [leaf]})
        top = db.make("Top", values={"mids": [m1]})  # m2 independent of top
        db.delete(top)
        assert db.exists(leaf) and db.exists(m2)
        db.validate()


class TestDocumentExample:
    """The paper's Example 2 semantics, end to end."""

    def test_shared_section_survives_first_deletion(self, document_db):
        database, h = document_db
        database.delete(h["doc_a"])
        # Shared section still held by doc_b; private section dies with A.
        assert database.exists(h["shared_section"])
        assert not database.exists(h["private_section"])
        assert not database.exists(h["p_private"])
        # Annotations are dependent exclusive: gone.
        assert not database.exists(h["note"])
        # Figures are independent: preserved.
        assert database.exists(h["image"])
        database.validate()

    def test_paragraph_needs_some_document(self, document_db):
        database, h = document_db
        database.delete(h["doc_a"])
        database.delete(h["doc_b"])
        # "For a paragraph to exist, there must be at least one section
        # containing it and thus a document containing it."
        assert not database.exists(h["shared_section"])
        assert not database.exists(h["p_shared"])
        assert database.exists(h["image"])


class TestDeletionHygiene:
    def test_surviving_parent_forward_ref_cleared(self, db):
        # A dying shared component is unlinked from surviving parents.
        db.make_class("Child")
        db.make_class("Anchor", attributes=[
            AttributeSpec("kids", domain=SetOf("Child"), composite=True,
                          exclusive=False, dependent=False),
        ])
        db.make_class("Owner", attributes=[
            AttributeSpec("kids", domain=SetOf("Child"), composite=True,
                          exclusive=False, dependent=True),
        ])
        child = db.make("Child")
        anchor = db.make("Anchor", values={"kids": [child]})
        owner = db.make("Owner", values={"kids": [child]})
        report = db.delete(owner)  # last DS parent -> child dies
        assert not db.exists(child)
        assert db.value(anchor, "kids") == []
        assert anchor in report.unlinked_parents
        db.validate()

    def test_deleting_component_unlinks_parent(self, vehicle_db):
        database, v = vehicle_db
        database.delete(v.body)
        assert database.value(v.vehicle, "Body") is None
        database.validate()

    def test_delete_idempotence_guard(self, vehicle_db):
        database, v = vehicle_db
        database.delete(v.vehicle)
        with pytest.raises(Exception):
            database.delete(v.vehicle)


class TestWouldDelete:
    def test_matches_engine_on_tree(self, db):
        from repro.workloads.parts import build_part_tree

        tree = build_part_tree(db, depth=2, fanout=3)
        predicted = would_delete(db, tree.root)
        report = db.delete(tree.root)
        assert predicted == set(report.deleted)

    def test_matches_engine_on_documents(self, document_db):
        database, h = document_db
        predicted = would_delete(database, h["doc_a"])
        report = database.delete(h["doc_a"])
        assert predicted == set(report.deleted)

    def test_prediction_does_not_mutate(self, document_db):
        database, h = document_db
        before = len(database)
        would_delete(database, h["doc_a"])
        assert len(database) == before
        database.validate()

    def test_cost_follows_the_cascade_not_the_database(self, document_db):
        """The prediction walks the dying objects' components only: a
        scan of every live instance made each transactional delete cost
        O(database)."""
        database, h = document_db

        def no_scan():
            raise AssertionError("would_delete scanned the object table")

        database.live_instances = no_scan
        predicted = would_delete(database, h["doc_a"])
        del database.live_instances
        assert predicted == set(database.delete(h["doc_a"]).deleted)

    def test_shared_component_dies_with_its_last_holder_only(self, db):
        """A dependent shared component is re-examined as each holder
        dies: one dying holder spares it, both dying take it along."""
        db.make_class("Leaf")
        db.make_class("Holder", attributes=[
            AttributeSpec("Items", domain=SetOf("Leaf"), composite=True,
                          exclusive=False, dependent=True)])
        db.make_class("Top", attributes=[
            AttributeSpec("Holders", domain=SetOf("Holder"), composite=True,
                          exclusive=True, dependent=True)])
        top = db.make("Top")
        first = db.make("Holder", parents=[(top, "Holders")])
        second = db.make("Holder", parents=[(top, "Holders")])
        outside = db.make("Holder")
        shared = db.make("Leaf", parents=[(first, "Items"), (second, "Items")])
        kept = db.make("Leaf", parents=[(first, "Items"), (outside, "Items")])
        assert would_delete(db, first) == {first}
        assert would_delete(db, top) == {top, first, second, shared}
        assert kept not in would_delete(db, top)
        assert would_delete(db, top) == set(db.delete(top).deleted)
