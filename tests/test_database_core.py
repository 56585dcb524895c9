"""Tests for Database creation, attribute updates, and domain checking."""

import pytest

from repro import (
    AttributeSpec,
    Database,
    DomainError,
    SetOf,
    TopologyError,
    UnknownObjectError,
)
from repro.errors import UnknownAttributeError


@pytest.fixture
def parts_db():
    database = Database()
    database.make_class("Engine", attributes=[
        AttributeSpec("Power", domain="integer", init=100),
    ])
    database.make_class("TurboEngine", superclasses=["Engine"])
    database.make_class("Car", attributes=[
        AttributeSpec("Name", domain="string"),
        AttributeSpec("Motor", domain="Engine", composite=True,
                      exclusive=True, dependent=False),
        AttributeSpec("Spares", domain=SetOf("Engine"), composite=True,
                      exclusive=True, dependent=False),
        AttributeSpec("Seats", domain="integer", init=4),
    ])
    return database


class TestMake:
    def test_init_values_applied(self, parts_db):
        car = parts_db.make("Car")
        assert parts_db.value(car, "Seats") == 4
        assert parts_db.value(car, "Name") is None
        assert parts_db.value(car, "Spares") == []

    def test_kwargs_and_values_merge(self, parts_db):
        car = parts_db.make("Car", values={"Name": "a"}, Seats=2)
        assert parts_db.value(car, "Name") == "a"
        assert parts_db.value(car, "Seats") == 2

    def test_unknown_attribute_rejected(self, parts_db):
        with pytest.raises(UnknownAttributeError):
            parts_db.make("Car", values={"Wheels": 4})

    def test_failed_make_rolls_back_links(self, parts_db):
        engine = parts_db.make("Engine")
        with pytest.raises(DomainError):
            parts_db.make("Car", values={"Motor": engine, "Seats": "four"})
        # The engine must not keep a reverse reference to the aborted car.
        assert parts_db.parents_of(engine) == []
        parts_db.validate()

    def test_failed_make_on_second_member_unlinks_the_first(self, parts_db):
        free = parts_db.make("Engine")
        owned = parts_db.make("Engine")
        owner = parts_db.make("Car", values={"Motor": owned})
        links, unlinks = [], []
        parts_db.on_link.append(lambda p, s, c: links.append((p.uid, c.uid)))
        parts_db.on_unlink.append(
            lambda p, s, c: unlinks.append((p.uid, c.uid)))
        with pytest.raises(TopologyError):
            parts_db.make("Car", values={"Spares": [free, owned]})
        assert parts_db.parents_of(free) == []
        assert parts_db.parents_of(owned) == [owner]
        assert len(links) == 1 and unlinks == links
        parts_db.validate()

    def test_make_is_atomic_object_count(self, parts_db):
        before = len(parts_db)
        with pytest.raises(DomainError):
            parts_db.make("Car", values={"Seats": "four"})
        assert len(parts_db) == before

    def test_subclass_instance_accepted_in_domain(self, parts_db):
        turbo = parts_db.make("TurboEngine")
        car = parts_db.make("Car", values={"Motor": turbo})
        assert parts_db.value(car, "Motor") == turbo

    def test_instances_of_subclasses(self, parts_db):
        parts_db.make("Engine")
        parts_db.make("TurboEngine")
        assert len(parts_db.instances_of("Engine")) == 2
        assert len(parts_db.instances_of("Engine", include_subclasses=False)) == 1


class TestDomains:
    def test_primitive_type_checked(self, parts_db):
        car = parts_db.make("Car")
        with pytest.raises(DomainError):
            parts_db.set_value(car, "Seats", "four")

    def test_reference_must_be_live(self, parts_db):
        car = parts_db.make("Car")
        engine = parts_db.make("Engine")
        parts_db.delete(engine)
        with pytest.raises(DomainError):
            parts_db.set_value(car, "Motor", engine)

    def test_reference_class_checked(self, parts_db):
        car1 = parts_db.make("Car")
        car2 = parts_db.make("Car")
        with pytest.raises(DomainError):
            parts_db.set_value(car1, "Motor", car2)

    def test_none_always_allowed(self, parts_db):
        car = parts_db.make("Car")
        parts_db.set_value(car, "Motor", None)
        parts_db.set_value(car, "Name", None)

    def test_set_duplicates_rejected(self, parts_db):
        engine = parts_db.make("Engine")
        with pytest.raises(DomainError):
            parts_db.make("Car", values={"Spares": [engine, engine]})


class TestSetValue:
    def test_replace_composite_moves_reverse_ref(self, parts_db):
        e1, e2 = parts_db.make("Engine"), parts_db.make("Engine")
        car = parts_db.make("Car", values={"Motor": e1})
        parts_db.set_value(car, "Motor", e2)
        assert parts_db.parents_of(e1) == []
        assert parts_db.parents_of(e2) == [car]
        parts_db.validate()

    def test_clear_composite(self, parts_db):
        engine = parts_db.make("Engine")
        car = parts_db.make("Car", values={"Motor": engine})
        parts_db.set_value(car, "Motor", None)
        assert parts_db.parents_of(engine) == []

    def test_set_value_on_set_attribute_rejected(self, parts_db):
        car = parts_db.make("Car")
        with pytest.raises(DomainError):
            parts_db.set_value(car, "Spares", [])

    def test_refused_set_value_keeps_the_old_link(self, parts_db):
        mine, theirs = parts_db.make("Engine"), parts_db.make("Engine")
        car = parts_db.make("Car", values={"Motor": mine})
        parts_db.make("Car", values={"Motor": theirs})
        with pytest.raises(TopologyError):
            parts_db.set_value(car, "Motor", theirs)
        assert parts_db.value(car, "Motor") == mine
        assert parts_db.parents_of(mine) == [car]
        parts_db.validate()

    def test_self_assignment_idempotent(self, parts_db):
        engine = parts_db.make("Engine")
        car = parts_db.make("Car", values={"Motor": engine})
        parts_db.set_value(car, "Motor", engine)
        assert parts_db.parents_of(engine) == [car]
        parts_db.validate()


class TestSetAttributes:
    def test_insert_and_remove(self, parts_db):
        car = parts_db.make("Car")
        e1, e2 = parts_db.make("Engine"), parts_db.make("Engine")
        assert parts_db.insert_into(car, "Spares", e1)
        assert parts_db.insert_into(car, "Spares", e2)
        assert parts_db.value(car, "Spares") == [e1, e2]
        assert parts_db.remove_from(car, "Spares", e1)
        assert parts_db.value(car, "Spares") == [e2]
        assert parts_db.parents_of(e1) == []
        parts_db.validate()

    def test_insert_duplicate_is_noop(self, parts_db):
        car = parts_db.make("Car")
        engine = parts_db.make("Engine")
        assert parts_db.insert_into(car, "Spares", engine)
        assert not parts_db.insert_into(car, "Spares", engine)
        assert parts_db.value(car, "Spares") == [engine]

    def test_remove_missing_is_noop(self, parts_db):
        car = parts_db.make("Car")
        engine = parts_db.make("Engine")
        assert not parts_db.remove_from(car, "Spares", engine)

    def test_insert_into_scalar_rejected(self, parts_db):
        car = parts_db.make("Car")
        engine = parts_db.make("Engine")
        with pytest.raises(DomainError):
            parts_db.insert_into(car, "Motor", engine)

    def test_bulk_assign_set_diffs_links(self, parts_db):
        car = parts_db.make("Car")
        e1, e2, e3 = (parts_db.make("Engine") for _ in range(3))
        parts_db._assign(parts_db.resolve(car),
                         parts_db.classdef("Car").attribute("Spares"), [e1, e2])
        parts_db._assign(parts_db.resolve(car),
                         parts_db.classdef("Car").attribute("Spares"), [e2, e3])
        assert parts_db.parents_of(e1) == []
        assert parts_db.parents_of(e2) == [car]
        assert parts_db.parents_of(e3) == [car]
        parts_db.validate()


class TestMakePartOf:
    def test_bottom_up_scalar(self, parts_db):
        engine = parts_db.make("Engine")
        car = parts_db.make("Car")
        parts_db.make_part_of(engine, car, "Motor")
        assert parts_db.parents_of(engine) == [car]

    def test_bottom_up_set(self, parts_db):
        engine = parts_db.make("Engine")
        car = parts_db.make("Car")
        parts_db.make_part_of(engine, car, "Spares")
        assert parts_db.value(car, "Spares") == [engine]

    def test_exclusive_reuse_blocked_until_detached(self, parts_db):
        engine = parts_db.make("Engine")
        car1 = parts_db.make("Car", values={"Motor": engine})
        car2 = parts_db.make("Car")
        with pytest.raises(TopologyError):
            parts_db.make_part_of(engine, car2, "Motor")
        parts_db.remove_part_of(engine, car1, "Motor")
        parts_db.make_part_of(engine, car2, "Motor")
        assert parts_db.parents_of(engine) == [car2]

    def test_remove_part_of_returns_false_when_absent(self, parts_db):
        engine = parts_db.make("Engine")
        car = parts_db.make("Car")
        assert not parts_db.remove_part_of(engine, car, "Motor")

    def test_remove_never_deletes(self, parts_db):
        # Reference removal only severs the link; existence dependency
        # fires on del() only (Deletion Rule).
        engine = parts_db.make("Engine")
        car = parts_db.make("Car", values={"Motor": engine})
        parts_db.remove_part_of(engine, car, "Motor")
        assert parts_db.exists(engine)


class TestResolveAndAccess:
    def test_unknown_uid(self, parts_db):
        from repro.core.identity import UID

        with pytest.raises(UnknownObjectError):
            parts_db.resolve(UID(9999, "Car"))

    def test_deleted_uid(self, parts_db):
        car = parts_db.make("Car")
        parts_db.delete(car)
        with pytest.raises(UnknownObjectError):
            parts_db.resolve(car)
        assert parts_db.peek(car) is None
        assert car not in parts_db

    def test_access_hook_runs(self, parts_db):
        seen = []
        parts_db.access_hooks.append(lambda inst: seen.append(inst.uid))
        car = parts_db.make("Car")
        parts_db.value(car, "Seats")
        assert car in seen

    def test_access_count(self, parts_db):
        before = parts_db.access_count
        car = parts_db.make("Car")
        parts_db.value(car, "Seats")
        assert parts_db.access_count > before
