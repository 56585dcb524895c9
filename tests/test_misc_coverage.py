"""Coverage sweep: error paths and less-travelled branches."""

import pytest

from repro import AttributeSpec, Database, SetOf
from repro.query import Interpreter, QuerySyntaxError
from repro.query.index import AttributeIndex, _hashable


class TestInterpreterErrorPaths:
    @pytest.fixture
    def interp(self):
        interpreter = Interpreter()
        interpreter.run("(make-class 'Thing :attributes '((x :domain integer)))")
        return interpreter

    def test_bad_attribute_spec(self, interp):
        with pytest.raises(QuerySyntaxError):
            interp.run("(make-class 'Bad :attributes '(42))")

    def test_bad_attribute_name(self, interp):
        with pytest.raises(QuerySyntaxError):
            interp.run('(make-class \'Bad :attributes \'(("str" :domain integer)))')

    def test_bad_domain(self, interp):
        with pytest.raises(QuerySyntaxError):
            interp.run("(make-class 'Bad :attributes '((a :domain (weird x y))))")

    def test_keyword_missing_value(self, interp):
        with pytest.raises(QuerySyntaxError):
            interp.run("(make Thing :x)")

    def test_bad_parent_pair(self, interp):
        with pytest.raises(QuerySyntaxError):
            interp.run("(make Thing :parent (oops))")

    def test_setq_needs_symbol(self, interp):
        with pytest.raises(QuerySyntaxError):
            interp.run("(setq 42 1)")

    def test_make_class_needs_one_name(self, interp):
        with pytest.raises(QuerySyntaxError):
            interp.run("(make-class 'A 'B)")

    def test_apply_non_symbol(self, interp):
        with pytest.raises(QuerySyntaxError):
            interp.run("((1 2) 3)")

    def test_empty_form_is_nil(self, interp):
        assert interp.run_one("()") is None

    def test_bare_atom_evaluates(self, interp):
        assert interp.run_one("42") == 42
        assert interp.run_one('"text"') == "text"

    def test_quoted_form_returned_raw(self, interp):
        from repro.query.sexpr import Symbol

        assert interp.run_one("'(a b)") == [Symbol("a"), Symbol("b")]

    def test_bad_predicate_operator(self, interp):
        from repro.query.interpreter import QueryEvaluationError

        interp.run("(setq t1 (make Thing))")
        with pytest.raises(QueryEvaluationError):
            interp.run("(select Thing (between x 1 2))")

    def test_malformed_predicate(self, interp):
        interp.run("(make Thing)")  # a non-empty extent forces evaluation
        with pytest.raises(QuerySyntaxError):
            interp.run("(select Thing 42)")


class TestIndexInternals:
    def test_hashable_on_lists(self):
        assert _hashable([1, [2, 3]]) == (1, (2, 3))

    def test_hashable_on_unhashable(self):
        class Weird:
            __hash__ = None

        assert _hashable(Weird()) is None

    def test_index_len_and_rebuild(self):
        database = Database()
        database.make_class("T", attributes=[AttributeSpec("x", domain="integer")])
        for i in range(5):
            database.make("T", values={"x": i % 2})
        index = AttributeIndex(database, "T", "x")
        assert len(index) == 5
        assert index.rebuilds == 1
        index.rebuild()
        assert index.rebuilds == 2
        assert len(index.lookup(0)) == 3

    def test_index_ignores_other_classes(self):
        database = Database()
        database.make_class("A", attributes=[AttributeSpec("x", domain="integer")])
        database.make_class("B", attributes=[AttributeSpec("x", domain="integer")])
        database.make("A", values={"x": 1})
        database.make("B", values={"x": 1})
        index = AttributeIndex(database, "A", "x")
        assert len(index.lookup(1)) == 1


class TestExtents:
    def test_extents_track_create_and_delete(self, db):
        db.make_class("Thing")
        uids = [db.make("Thing") for _ in range(3)]
        assert len(db.instances_of("Thing")) == 3
        db.delete(uids[0])
        assert len(db.instances_of("Thing")) == 2

    def test_extents_order_by_uid(self, db):
        db.make_class("Thing")
        uids = [db.make("Thing") for _ in range(4)]
        listed = [inst.uid for inst in db.instances_of("Thing")]
        assert listed == uids

    def test_extents_rollback_on_failed_make(self, db):
        from repro import DomainError

        db.make_class("Thing", attributes=[
            AttributeSpec("n", domain="integer"),
        ])
        with pytest.raises(DomainError):
            db.make("Thing", values={"n": "nope"})
        assert db.instances_of("Thing") == []

    def test_extents_respect_subclasses(self, db):
        db.make_class("Base")
        db.make_class("Derived", superclasses=["Base"])
        base = db.make("Base")
        derived = db.make("Derived")
        assert {i.uid for i in db.instances_of("Base")} == {base, derived}
        assert {i.uid for i in db.instances_of("Base",
                                               include_subclasses=False)} == {base}


class TestJournalEdgeCases:
    def test_snapshot_with_deep_class_hierarchy(self, tmp_path):
        from repro.storage.durable import DurableDatabase

        db = DurableDatabase(tmp_path / "deep")
        db.make_class("A")
        db.make_class("B", superclasses=["A"])
        db.make_class("C", superclasses=["B", "A"])
        db.make("C")
        db.close()
        recovered = DurableDatabase.open(tmp_path / "deep")
        assert recovered.lattice.is_subclass("C", "A")
        assert len(recovered.instances_of("A")) == 1
        recovered.close()

    def test_bad_snapshot_magic_rejected(self, tmp_path):
        from repro.errors import StorageError
        from repro.storage.durable import DurableDatabase
        from repro.storage.journal import SNAPSHOT_NAME

        directory = tmp_path / "bad"
        directory.mkdir()
        (directory / SNAPSHOT_NAME).write_bytes(b"GARBAGE-FILE")
        with pytest.raises(StorageError):
            DurableDatabase.open(directory)

    def test_set_of_domain_round_trips_through_snapshot(self, tmp_path):
        from repro.storage.durable import DurableDatabase

        db = DurableDatabase(tmp_path / "sets")
        db.make_class("Leaf")
        db.make_class("Box", attributes=[
            AttributeSpec("l", domain=SetOf("Leaf"), composite=True,
                          exclusive=False, dependent=False),
        ])
        db.checkpoint()
        db.close()
        recovered = DurableDatabase.open(tmp_path / "sets")
        spec = recovered.classdef("Box").attribute("l")
        assert spec.is_set and spec.domain_class == "Leaf"
        assert spec.is_shared_composite
        recovered.close()


class TestBenchTables:
    def test_bool_rendering(self):
        from repro.bench import format_table

        text = format_table([{"ok": True, "bad": False}])
        assert "yes" in text and "no" in text

    def test_missing_column_blank(self):
        from repro.bench import format_table

        text = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert "b" in text
