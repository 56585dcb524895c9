"""Tests for schema evolution (paper Section 4)."""

import pytest

from repro import (
    AttributeSpec,
    Database,
    SetOf,
    SchemaEvolutionError,
    StateDependentChangeRejected,
)
from repro.analysis.fsck import fsck_database
from repro.schema.evolution import SchemaEvolutionManager


@pytest.fixture
def evo_db():
    database = Database()
    manager = SchemaEvolutionManager(database)
    database.make_class("Part")
    database.make_class("Widget", attributes=[
        AttributeSpec("Piece", domain="Part", composite=True,
                      exclusive=True, dependent=True),
        AttributeSpec("Ref", domain="Part"),
        AttributeSpec("Label", domain="string"),
    ])
    return database, manager


def _flags(database, uid):
    refs = database.peek(uid).reverse_references
    return [(r.exclusive, r.dependent) for r in refs]


class TestStateIndependentImmediate:
    def test_i1_composite_to_weak(self, evo_db):
        database, manager = evo_db
        part = database.make("Part")
        widget = database.make("Widget", values={"Piece": part})
        manager.make_noncomposite("Widget", "Piece")
        assert not database.compositep("Widget", "Piece")
        assert database.resolve(part).reverse_references == []
        # Forward value survives as a weak reference.
        assert database.value(widget, "Piece") == part

    def test_i2_exclusive_to_shared(self, evo_db):
        database, manager = evo_db
        part = database.make("Part")
        database.make("Widget", values={"Piece": part})
        manager.make_shared("Widget", "Piece")
        assert database.shared_compositep("Widget", "Piece")
        assert _flags(database, part) == [(False, True)]
        database.validate()

    def test_i2_enables_sharing(self, evo_db):
        database, manager = evo_db
        part = database.make("Part")
        w1 = database.make("Widget", values={"Piece": part})
        manager.make_shared("Widget", "Piece")
        w2 = database.make("Widget", values={"Piece": part})
        assert set(database.parents_of(part)) == {w1, w2}

    def test_i3_dependent_to_independent(self, evo_db):
        database, manager = evo_db
        part = database.make("Part")
        widget = database.make("Widget", values={"Piece": part})
        manager.make_independent("Widget", "Piece")
        assert _flags(database, part) == [(True, False)]
        database.delete(widget)
        assert database.exists(part)  # deletion no longer cascades

    def test_i4_independent_to_dependent(self, evo_db):
        database, manager = evo_db
        manager.make_independent("Widget", "Piece")
        part = database.make("Part")
        widget = database.make("Widget", values={"Piece": part})
        manager.make_dependent("Widget", "Piece")
        assert _flags(database, part) == [(True, True)]
        database.delete(widget)
        assert not database.exists(part)

    def test_noop_changes_rejected(self, evo_db):
        database, manager = evo_db
        with pytest.raises(SchemaEvolutionError):
            manager.make_dependent("Widget", "Piece")  # already dependent
        manager.make_shared("Widget", "Piece")
        with pytest.raises(SchemaEvolutionError):
            manager.make_shared("Widget", "Piece")

    def test_change_on_weak_attribute_rejected(self, evo_db):
        database, manager = evo_db
        with pytest.raises(SchemaEvolutionError):
            manager.make_shared("Widget", "Ref")

    def test_only_owner_attribute_flags_touched(self, evo_db):
        # Two classes share the domain; changing one leaves the other's
        # reverse references alone.
        database, manager = evo_db
        database.make_class("Crate", attributes=[
            AttributeSpec("Piece", domain="Part", composite=True,
                          exclusive=True, dependent=True),
        ])
        p1, p2 = database.make("Part"), database.make("Part")
        database.make("Widget", values={"Piece": p1})
        database.make("Crate", values={"Piece": p2})
        manager.make_independent("Widget", "Piece")
        assert _flags(database, p1) == [(True, False)]
        assert _flags(database, p2) == [(True, True)]


class TestStateIndependentDeferred:
    def test_deferred_applies_on_access(self, evo_db):
        database, manager = evo_db
        part = database.make("Part")
        database.make("Widget", values={"Piece": part})
        manager.make_independent("Widget", "Piece", mode="deferred")
        # Not yet applied...
        assert database.peek(part).reverse_references[0].dependent
        # ...until the object is accessed.
        database.resolve(part)
        assert not database.peek(part).reverse_references[0].dependent
        assert manager.deferred_applications == 1

    def test_new_instances_born_current(self, evo_db):
        # "the changes issued before the creation of the instance need not
        # be applied to this instance."
        database, manager = evo_db
        manager.make_shared("Widget", "Piece", mode="deferred")
        part = database.make("Part")
        assert part.number >= 0
        inst = database.peek(part)
        assert inst.change_count == manager.oplog.current_cc
        database.resolve(part)
        assert manager.deferred_applications == 0

    def test_multiple_deferred_changes_replay_in_order(self, evo_db):
        database, manager = evo_db
        part = database.make("Part")
        database.make("Widget", values={"Piece": part})
        manager.make_shared("Widget", "Piece", mode="deferred")
        manager.make_independent("Widget", "Piece", mode="deferred")
        database.resolve(part)
        assert _flags(database, part) == [(False, False)]
        assert manager.deferred_applications == 2

    def test_deferred_i1_drops_reverse_reference(self, evo_db):
        database, manager = evo_db
        part = database.make("Part")
        database.make("Widget", values={"Piece": part})
        manager.make_noncomposite("Widget", "Piece", mode="deferred")
        database.resolve(part)
        assert database.peek(part).reverse_references == []

    def test_catch_up_all(self, evo_db):
        database, manager = evo_db
        parts = [database.make("Part") for _ in range(5)]
        for part in parts:
            database.make("Widget", values={"Piece": part})
        manager.make_independent("Widget", "Piece", mode="deferred")
        manager.catch_up_all()
        assert manager.deferred_applications == 5
        for part in parts:
            assert _flags(database, part) == [(True, False)]

    def test_catch_up_is_idempotent(self, evo_db):
        database, manager = evo_db
        part = database.make("Part")
        database.make("Widget", values={"Piece": part})
        manager.make_shared("Widget", "Piece", mode="deferred")
        database.resolve(part)
        database.resolve(part)
        assert manager.deferred_applications == 1

    def test_unknown_mode_rejected(self, evo_db):
        database, manager = evo_db
        with pytest.raises(SchemaEvolutionError):
            manager.make_shared("Widget", "Piece", mode="lazy")

    @pytest.mark.parametrize("change", [
        "make_noncomposite", "make_shared", "make_independent",
        "make_dependent",
    ])
    def test_deferred_catch_up_matches_immediate(self, change):
        # Super.A is an exclusive composite to Part; Sub redefines A (its
        # own attribute), Heir inherits it unchanged.  Either mode must
        # patch the references held through Super's and Heir's A only.
        def run(mode):
            database = Database()
            manager = SchemaEvolutionManager(database)
            database.make_class("Part")

            def spec():
                return AttributeSpec(
                    "A", domain="Part", composite=True, exclusive=True,
                    dependent=change != "make_dependent")

            database.make_class("Super", attributes=[spec()])
            database.make_class("Sub", superclasses=["Super"],
                                attributes=[spec()])
            database.make_class("Heir", superclasses=["Super"])
            parts = []
            for owner in ("Super", "Sub", "Heir"):
                part = database.make("Part")
                database.make(owner, values={"A": part})
                parts.append(part)
            getattr(manager, change)("Super", "A", mode=mode)
            if mode == "deferred":
                manager.catch_up_all()
            report = fsck_database(database)
            assert report.ok, report.render()
            return [
                [(ref.parent, ref.attribute, ref.exclusive, ref.dependent)
                 for ref in database.peek(part).reverse_references]
                for part in parts
            ]

        assert run("deferred") == run("immediate")


class TestStateDependent:
    def test_d1_weak_to_exclusive(self, evo_db):
        database, manager = evo_db
        part = database.make("Part")
        widget = database.make("Widget", values={"Ref": part})
        manager.make_exclusive_composite("Widget", "Ref")
        assert database.exclusive_compositep("Widget", "Ref")
        assert database.parents_of(part) == [widget]
        database.validate()

    def test_d1_rejected_when_target_already_composite(self, evo_db):
        database, manager = evo_db
        part = database.make("Part")
        database.make("Widget", values={"Piece": part, "Ref": part})
        with pytest.raises(StateDependentChangeRejected) as excinfo:
            manager.make_exclusive_composite("Widget", "Ref")
        assert excinfo.value.change == "D1"
        assert excinfo.value.offending_uid == part

    def test_d1_rejected_when_two_holders(self, evo_db):
        database, manager = evo_db
        part = database.make("Part")
        database.make("Widget", values={"Ref": part})
        database.make("Widget", values={"Ref": part})
        with pytest.raises(StateDependentChangeRejected):
            manager.make_exclusive_composite("Widget", "Ref")

    def test_d2_weak_to_shared(self, evo_db):
        database, manager = evo_db
        part = database.make("Part")
        w1 = database.make("Widget", values={"Ref": part})
        w2 = database.make("Widget", values={"Ref": part})
        manager.make_shared_composite("Widget", "Ref")
        assert set(database.parents_of(part)) == {w1, w2}
        database.validate()

    def test_d2_rejected_on_exclusive_target(self, evo_db):
        database, manager = evo_db
        part = database.make("Part")
        database.make("Widget", values={"Piece": part})   # exclusive ref
        database.make("Widget", values={"Ref": part})
        with pytest.raises(StateDependentChangeRejected) as excinfo:
            manager.make_shared_composite("Widget", "Ref")
        assert excinfo.value.change == "D2"

    def test_d3_shared_to_exclusive(self, evo_db):
        database, manager = evo_db
        manager.make_shared("Widget", "Piece")
        part = database.make("Part")
        database.make("Widget", values={"Piece": part})
        manager.make_exclusive("Widget", "Piece")
        assert database.exclusive_compositep("Widget", "Piece")
        assert _flags(database, part) == [(True, True)]

    def test_d3_rejected_when_actually_shared(self, evo_db):
        database, manager = evo_db
        manager.make_shared("Widget", "Piece")
        part = database.make("Part")
        database.make("Widget", values={"Piece": part})
        database.make("Widget", values={"Piece": part})
        with pytest.raises(StateDependentChangeRejected) as excinfo:
            manager.make_exclusive("Widget", "Piece")
        assert excinfo.value.change == "D3"

    def test_d_changes_on_wrong_state_rejected(self, evo_db):
        database, manager = evo_db
        with pytest.raises(SchemaEvolutionError):
            manager.make_exclusive_composite("Widget", "Piece")  # already composite
        with pytest.raises(SchemaEvolutionError):
            manager.make_exclusive("Widget", "Piece")  # already exclusive
        with pytest.raises(SchemaEvolutionError):
            manager.make_shared_composite("Widget", "Label")  # primitive domain

    def test_rejected_change_leaves_schema_untouched(self, evo_db):
        database, manager = evo_db
        part = database.make("Part")
        database.make("Widget", values={"Piece": part, "Ref": part})
        with pytest.raises(StateDependentChangeRejected):
            manager.make_exclusive_composite("Widget", "Ref")
        assert not database.compositep("Widget", "Ref")
        database.validate()


class TestStructuralChanges:
    def test_drop_attribute_cascades_dependent(self, evo_db):
        database, manager = evo_db
        part = database.make("Part")
        widget = database.make("Widget", values={"Piece": part})
        manager.drop_attribute("Widget", "Piece")
        assert not database.exists(part)
        assert not database.classdef("Widget").has_attribute("Piece")
        assert database.exists(widget)
        database.validate()

    def test_drop_independent_attribute_preserves(self, evo_db):
        database, manager = evo_db
        manager.make_independent("Widget", "Piece")
        part = database.make("Part")
        database.make("Widget", values={"Piece": part})
        manager.drop_attribute("Widget", "Piece")
        assert database.exists(part)
        assert database.resolve(part).reverse_references == []

    def test_drop_shared_attribute_respects_ds_rule(self, evo_db):
        database, manager = evo_db
        database.make_class("Folder", attributes=[
            AttributeSpec("Docs", domain=SetOf("Part"), composite=True,
                          exclusive=False, dependent=True),
        ])
        database.make_class("Shelf", attributes=[
            AttributeSpec("Docs", domain=SetOf("Part"), composite=True,
                          exclusive=False, dependent=True),
        ])
        part = database.make("Part")
        database.make("Folder", values={"Docs": [part]})
        database.make("Shelf", values={"Docs": [part]})
        manager.drop_attribute("Folder", "Docs")
        assert database.exists(part)  # Shelf still holds it
        manager.drop_attribute("Shelf", "Docs")
        assert not database.exists(part)

    def test_drop_inherited_attribute_rejected(self, evo_db):
        database, manager = evo_db
        database.make_class("SubWidget", superclasses=["Widget"])
        with pytest.raises(SchemaEvolutionError):
            manager.drop_attribute("SubWidget", "Piece")

    def test_drop_attribute_covers_subclasses(self, evo_db):
        database, manager = evo_db
        database.make_class("SubWidget", superclasses=["Widget"])
        part = database.make("Part")
        sub = database.make("SubWidget", values={"Piece": part})
        manager.drop_attribute("Widget", "Piece")
        assert not database.exists(part)
        assert not database.classdef("SubWidget").has_attribute("Piece")
        assert database.peek(sub).get("Piece") is None

    def test_remove_superclass_drops_composite_attribute(self, evo_db):
        database, manager = evo_db
        database.make_class("Extra")
        database.make_class("Combo", superclasses=["Widget", "Extra"])
        part = database.make("Part")
        combo = database.make("Combo", values={"Piece": part})
        lost = manager.remove_superclass("Combo", "Widget")
        assert "Piece" in lost
        assert not database.exists(part)
        assert not database.classdef("Combo").has_attribute("Piece")
        assert database.exists(combo)

    def test_remove_unrelated_superclass_rejected(self, evo_db):
        database, manager = evo_db
        database.make_class("Extra")
        with pytest.raises(SchemaEvolutionError):
            manager.remove_superclass("Widget", "Extra")

    def test_drop_class_deletes_instances_and_reattaches(self, evo_db):
        database, manager = evo_db
        database.make_class("SubWidget", superclasses=["Widget"], attributes=[
            AttributeSpec("Extra", domain="string"),
        ])
        part = database.make("Part")
        widget = database.make("Widget", values={"Piece": part})
        sub = database.make("SubWidget")
        manager.drop_class("Widget")
        assert not database.exists(widget)
        assert not database.exists(part)
        assert database.exists(sub)  # subclass instances survive
        assert "Widget" not in database.lattice
        assert database.lattice.direct_superclasses("SubWidget") == ["object"]
        # Subclass loses the dropped class's attributes.
        assert not database.classdef("SubWidget").has_attribute("Piece")

    def test_change_attribute_inheritance(self, evo_db):
        database, manager = evo_db
        database.make_class("Alt", attributes=[
            AttributeSpec("Label", domain="string", init="alt"),
        ])
        database.make_class("Both", superclasses=["Widget", "Alt"])
        assert database.classdef("Both").attribute("Label").init is None
        manager.change_attribute_inheritance("Both", "Label", "Alt")
        assert database.classdef("Both").attribute("Label").init == "alt"

    def test_rename_leaves_a_subclass_redefinition_alone(self, evo_db):
        # Super.A is single-valued; Sub redefines A as a set.  Renaming
        # Super.A moves only what Super's A holds: Sub keeps its own A
        # (values and reverse references) and newly inherits B.
        database, manager = evo_db
        database.make_class("Super", attributes=[
            AttributeSpec("A", domain="Part", composite=True)])
        database.make_class("Sub", superclasses=["Super"], attributes=[
            AttributeSpec("A", domain=SetOf("Part"), composite=True)])
        inherited = database.make("Part")
        own = [database.make("Part"), database.make("Part")]
        sup = database.make("Super", values={"A": inherited})
        sub = database.make("Sub", values={"A": own})
        manager.rename_attribute("Super", "A", "B")
        assert database.value(sup, "B") == inherited
        assert database.value(sub, "A") == own
        assert database.value(sub, "B") is None
        assert database.components_of(sub) == own
        assert database.components_of(sup) == [inherited]
        assert [ref.attribute for ref in
                database.peek(inherited).reverse_references] == ["B"]
        for part in own:
            assert [ref.attribute for ref in
                    database.peek(part).reverse_references] == ["A"]
        assert fsck_database(database).ok
        database.validate()

    def test_rename_refuses_a_name_an_inheriting_subclass_defines(
            self, evo_db):
        database, manager = evo_db
        database.make_class("Sub", superclasses=["Widget"], attributes=[
            AttributeSpec("Name", domain="string")])
        with pytest.raises(SchemaEvolutionError, match="Sub already has"):
            manager.rename_attribute("Widget", "Label", "Name")
        assert database.classdef("Widget").has_attribute("Label")

    def test_change_inheritance_unknown_attribute(self, evo_db):
        database, manager = evo_db
        database.make_class("Alt")
        database.make_class("Both2", superclasses=["Widget", "Alt"])
        with pytest.raises(SchemaEvolutionError):
            manager.change_attribute_inheritance("Both2", "Label", "Alt")
