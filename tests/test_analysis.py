"""Tests for the analysis subsystem: the static schema analyzer (Plane 1),
the offline integrity checker / fsck (Plane 2), the shared findings model,
and their wiring (Database methods, evolution pre-flight, server ``check``
op, ``repro-check`` CLI).

The seeded-corruption tests are the heart: each one injects a corruption
*bypassing the public API* and asserts fsck fires the right rule id.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import AttributeSpec, Database, SetOf
from repro.analysis import (
    Finding,
    Report,
    SchemaAnalyzer,
    Severity,
    check_query,
    fsck_database,
)
from repro.analysis.cli import main as check_main
from repro.analysis.query_check import KNOWN_MESSAGES
from repro.authorization import AuthorizationEngine
from repro.errors import SchemaEvolutionError
from repro.query.interpreter import Interpreter
from repro.schema.evolution import SchemaEvolutionManager
from repro.storage.durable import DurableDatabase
from repro.versions import VersionManager
from repro.workloads.parts import build_part_tree, define_part_schema


# ---------------------------------------------------------------------------
# Findings model
# ---------------------------------------------------------------------------


class TestFindings:
    def test_severity_ordering_and_labels(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR
        assert Severity.ERROR.label == "error"

    def test_report_partitions_by_severity(self):
        report = Report(plane="test")
        report.add(Severity.ERROR, "X-A", "here", "broken")
        report.add(Severity.WARNING, "X-B", "there", "suspect")
        report.add(Severity.INFO, "X-C", "elsewhere", "fyi")
        assert len(report.errors) == len(report.warnings) == len(report.infos) == 1
        assert not report.ok
        assert not report.clean
        assert report.rules() == {"X-A", "X-B", "X-C"}

    def test_info_only_report_is_ok_but_not_clean(self):
        report = Report()
        report.add(Severity.INFO, "X-C", "loc", "fyi")
        assert report.ok and not report.clean

    def test_json_round_trip_stringifies_detail(self):
        report = Report(plane="test")
        report.add(Severity.ERROR, "X-A", "loc", "msg", uids=[object()])
        payload = json.loads(report.to_json())
        assert payload["plane"] == "test"
        assert payload["findings"][0]["rule"] == "X-A"
        assert isinstance(payload["findings"][0]["detail"]["uids"][0], str)

    def test_finding_is_immutable(self):
        finding = Finding(Severity.ERROR, "X", "loc", "msg")
        with pytest.raises(AttributeError):
            finding.rule = "Y"


# ---------------------------------------------------------------------------
# Plane 1 — static schema analysis
# ---------------------------------------------------------------------------


def _two_exclusive_owners():
    db = Database()
    db.make_class("Wheel", attributes=[AttributeSpec("Size", domain="integer")])
    db.make_class("Car", attributes=[
        AttributeSpec("Wheels", domain=SetOf("Wheel"), composite=True,
                      exclusive=True, dependent=True),
    ])
    db.make_class("Truck", attributes=[
        AttributeSpec("Wheels", domain=SetOf("Wheel"), composite=True,
                      exclusive=True, dependent=False),
    ])
    return db


class TestSchemaAnalyzer:
    def test_clean_schema_has_no_findings(self):
        db = Database()
        db.make_class("Leaf", attributes=[AttributeSpec("V", domain="integer")])
        assert SchemaAnalyzer(db.lattice).analyze().clean

    def test_exclusive_fanin_and_mixed_dependence(self):
        db = _two_exclusive_owners()
        report = SchemaAnalyzer(db.lattice).analyze()
        assert "SCH-EXCL-FANIN" in report.rules()
        # Car.Wheels is dependent-exclusive, Truck.Wheels independent-exclusive.
        assert "SCH-MIXED-DEPENDENCE" in report.rules()
        assert report.errors == []

    def test_mixed_exclusivity(self):
        db = _two_exclusive_owners()
        db.make_class("Gallery", attributes=[
            AttributeSpec("Exhibits", domain=SetOf("Wheel"), composite=True,
                          exclusive=False, dependent=False),
        ])
        report = SchemaAnalyzer(db.lattice).analyze()
        assert "SCH-MIXED-EXCLUSIVITY" in report.rules()

    def test_self_cycle_is_informational(self):
        db = Database()
        define_part_schema(db)
        report = SchemaAnalyzer(db.lattice).analyze()
        cycles = report.by_rule("SCH-COMPOSITE-CYCLE")
        assert cycles and all(f.severity == Severity.INFO for f in cycles)

    def test_dependent_multi_class_cycle_warns(self):
        db = Database()
        db.make_class("A")
        db.make_class("B", attributes=[
            AttributeSpec("MyA", domain="A", composite=True, dependent=True),
        ])
        # Close the cycle A -> B after B exists.
        db.lattice.get("A").local["MyB"] = AttributeSpec(
            "MyB", domain="B", composite=True, dependent=True, defined_in="A"
        )
        db.lattice.reresolve_subtree("A")
        report = SchemaAnalyzer(db.lattice).analyze()
        cycle_findings = report.by_rule("SCH-COMPOSITE-CYCLE")
        assert any(f.severity == Severity.WARNING for f in cycle_findings)

    def test_unknown_domain_is_an_error(self):
        db = Database()
        db.make_class("Orphan", attributes=[
            AttributeSpec("Ref", domain="NoSuchClass"),
        ])
        report = SchemaAnalyzer(db.lattice).analyze()
        assert "SCH-UNKNOWN-DOMAIN" in {f.rule for f in report.errors}


class TestEvolutionPreflight:
    def test_drop_dependent_attribute_warns_cascade(self):
        db = Database()
        define_part_schema(db)
        report = SchemaAnalyzer(db.lattice).preflight(
            "drop_attribute", "Part", "SubParts"
        )
        assert "EVO-CASCADE-DELETES" in report.rules()

    def test_unknown_target_is_an_error(self):
        db = Database()
        report = SchemaAnalyzer(db.lattice).preflight("drop_class", "Ghost")
        assert "EVO-UNKNOWN-TARGET" in {f.rule for f in report.errors}

    def test_i1_on_dependent_attribute_warns_stranding(self):
        db = Database()
        define_part_schema(db)
        report = SchemaAnalyzer(db.lattice).preflight("I1", "Part", "SubParts")
        assert "EVO-STRANDS-COMPONENTS" in report.rules()

    def test_d3_with_competing_declarations_warns_rule1(self):
        db = _two_exclusive_owners()
        # Pretend Car.Wheels were shared and being made exclusive.
        report = SchemaAnalyzer(db.lattice).preflight("D3", "Car", "Wheels")
        assert "EVO-RULE1-RISK" in report.rules()

    def test_drop_class_warns_dangling_domains(self):
        db = _two_exclusive_owners()
        report = SchemaAnalyzer(db.lattice).preflight("drop_class", "Wheel")
        assert "EVO-DANGLING-DOMAIN" in report.rules()

    def test_manager_records_preflight_and_strict_mode_rejects(self):
        db = Database()
        define_part_schema(db)
        manager = SchemaEvolutionManager(db)
        assert db.evolution is manager
        manager.make_independent("Part", "SubParts")
        assert manager.last_preflight is not None
        assert manager.last_preflight.plane == "evolution"
        manager.strict_preflight = True
        with pytest.raises(SchemaEvolutionError):
            manager.preflight("drop_attribute", "Part", "NoSuchAttr")


# ---------------------------------------------------------------------------
# Plane 1 — static query validation
# ---------------------------------------------------------------------------


class TestQueryCheck:
    @pytest.fixture
    def lattice(self):
        db = Database()
        define_part_schema(db)
        return db.lattice

    def test_known_messages_match_interpreter(self):
        interpreter = Interpreter(Database())
        assert KNOWN_MESSAGES == set(interpreter._handlers) | {"quote"}

    def test_valid_query_is_clean(self, lattice):
        report = check_query(lattice, '(select Part (= Label "root"))')
        assert report.clean

    def test_syntax_error(self, lattice):
        assert "QRY-SYNTAX" in check_query(lattice, "(select Part").rules()

    def test_unknown_message(self, lattice):
        assert "QRY-UNKNOWN-MESSAGE" in check_query(
            lattice, "(frobnicate Part)"
        ).rules()

    def test_unknown_class(self, lattice):
        assert "QRY-UNKNOWN-CLASS" in check_query(
            lattice, "(instances-of Ghost)"
        ).rules()

    def test_unknown_attribute(self, lattice):
        report = check_query(lattice, "(select Part (= Colour 3))")
        assert "QRY-UNKNOWN-ATTRIBUTE" in report.rules()

    def test_domain_mismatch(self, lattice):
        report = check_query(lattice, "(select Part (= Label 42))")
        assert "QRY-DOMAIN-MISMATCH" in {f.rule for f in report.errors}

    def test_contains_on_single_valued(self, lattice):
        report = check_query(lattice, '(select Part (contains Label "x"))')
        assert "QRY-NOT-SET" in report.rules()

    def test_make_with_unknown_attribute(self, lattice):
        report = check_query(lattice, '(make Part :Colour "red")')
        assert "QRY-UNKNOWN-ATTRIBUTE" in report.rules()

    def test_setq_bound_names_are_opaque(self, lattice):
        report = check_query(
            lattice, '(setq p (make Part :Label "x")) (delete p)'
        )
        assert report.clean


# ---------------------------------------------------------------------------
# Plane 2 — fsck on healthy databases
# ---------------------------------------------------------------------------


class TestFsckClean:
    def test_api_built_tree_is_clean(self):
        db = Database()
        build_part_tree(db, depth=3, fanout=2)
        report = fsck_database(db)
        assert report.clean
        assert report.checked == len(db)

    def test_database_method_wiring(self):
        db = Database()
        build_part_tree(db, depth=2, fanout=2)
        assert db.fsck().clean
        assert db.check_schema().errors == []

    def test_weak_dangling_is_info_only(self):
        db = Database()
        db.make_class("Doc", attributes=[AttributeSpec("V", domain="integer")])
        db.make_class("Link", attributes=[AttributeSpec("Target", domain="Doc")])
        doc = db.make("Doc")
        db.make("Link", values={"Target": doc})
        db.delete(doc)
        report = fsck_database(db)
        assert report.ok and not report.clean
        assert report.rules() == {"FSCK-DANGLING-WEAK"}


# ---------------------------------------------------------------------------
# Plane 2 — seeded corruptions, each caught with the right rule id
# ---------------------------------------------------------------------------


def _tree(depth=2, fanout=2, flavour="dependent-exclusive"):
    db = Database()
    tree = build_part_tree(db, depth=depth, fanout=fanout, flavour=flavour)
    return db, tree


class TestFsckSeededCorruption:
    def test_dangling_forward_reference(self):
        db, tree = _tree()
        victim = tree.levels[1][0]
        # Vaporize the child behind the API's back: the parent's forward
        # reference and the extent now point at nothing.
        del db._objects[victim]
        report = fsck_database(db)
        assert "FSCK-DANGLING-FORWARD" in {f.rule for f in report.errors}
        assert "FSCK-EXTENT" in report.rules()

    def test_rule1_violation(self):
        db, tree = _tree()
        child = db.peek(tree.levels[1][0])
        other = tree.levels[1][1]
        # A second dependent-exclusive parent, injected directly.
        child.add_reverse_reference(other, True, True, "SubParts")
        report = fsck_database(db)
        rules = {f.rule for f in report.errors}
        assert "FSCK-RULE1" in rules
        finding = report.by_rule("FSCK-RULE1")[0]
        assert str(tree.root) in finding.message or finding.detail

    def test_rule2_violation(self):
        db, tree = _tree()
        child = db.peek(tree.levels[1][0])
        other = tree.levels[1][1]
        # An *independent*-exclusive parent next to the dependent one.
        child.add_reverse_reference(other, False, True, "SubParts")
        report = fsck_database(db)
        assert "FSCK-RULE2" in {f.rule for f in report.errors}

    def test_rule3_violation(self):
        db, tree = _tree()
        child = db.peek(tree.levels[1][0])
        other = tree.levels[1][1]
        # A shared parent next to the exclusive one.
        child.add_reverse_reference(other, False, False, "SubParts")
        report = fsck_database(db)
        assert "FSCK-RULE3" in {f.rule for f in report.errors}

    def test_missing_reverse_reference(self):
        db, tree = _tree()
        child = db.peek(tree.levels[1][0])
        child.remove_reverse_reference(tree.root, "SubParts")
        report = fsck_database(db)
        assert "FSCK-MISSING-REVERSE" in {f.rule for f in report.errors}

    def test_stale_reverse_reference(self):
        db, tree = _tree()
        leaf_a, leaf_b = tree.levels[2][0], tree.levels[2][1]
        instance = db.peek(leaf_a)
        real_parent = instance.reverse_references[0].parent
        instance.remove_reverse_reference(real_parent, "SubParts")
        # Claim a parent that holds no such forward reference.
        instance.add_reverse_reference(leaf_b, True, True, "SubParts")
        report = fsck_database(db)
        assert "FSCK-STALE-REVERSE" in {f.rule for f in report.errors}

    def test_flag_mismatch(self):
        db, tree = _tree()
        child = db.peek(tree.levels[1][0])
        ref = child.find_reverse_reference(tree.root, "SubParts")
        child.replace_reverse_reference(ref, ref.with_flags(dependent=False))
        report = fsck_database(db)
        assert "FSCK-FLAG-MISMATCH" in {f.rule for f in report.errors}

    def test_unknown_class(self):
        db, tree = _tree()
        db.peek(tree.levels[2][3]).class_name = "Ghost"
        report = fsck_database(db)
        assert "FSCK-UNKNOWN-CLASS" in {f.rule for f in report.errors}

    def test_extent_out_of_sync(self):
        db, tree = _tree()
        db._extents["Part"].discard(tree.levels[2][0])
        report = fsck_database(db)
        assert "FSCK-EXTENT" in {f.rule for f in report.errors}

    def test_slot_shape(self):
        db = Database()
        db.make_class("Part")
        db.make_class("Holder", attributes=[
            AttributeSpec("One", domain="Part", composite=True),
            AttributeSpec("Many", domain=SetOf("Part"), composite=True),
        ])
        parts = [db.make("Part") for _ in range(3)]
        holder = db.make("Holder", values={"One": parts[0],
                                           "Many": parts[1:]})
        assert fsck_database(db).clean
        # A list in the single-valued slot, a UID in the set-valued one:
        # the shapes rename_attribute once produced by moving a
        # subclass's own attribute into its superclass's renamed one.
        instance = db.peek(holder)
        instance.values["One"], instance.values["Many"] = parts[1:], parts[0]
        report = fsck_database(db)
        shapes = report.by_rule("FSCK-SHAPE")
        assert {f.location for f in shapes} == {f"{holder}.One",
                                                f"{holder}.Many"}
        assert all(f in report.errors for f in shapes)

    def test_dangling_reverse_reference(self):
        db, tree = _tree(flavour="independent-shared")
        parent_uid = tree.levels[1][0]
        # Remove the parent object itself but leave the child's reverse ref.
        child = db.peek(tree.levels[2][0])
        assert any(r.parent == parent_uid for r in child.reverse_references)
        db._extents["Part"].discard(parent_uid)
        del db._objects[parent_uid]
        report = fsck_database(db)
        assert "FSCK-DANGLING-REVERSE" in {f.rule for f in report.errors}


class TestFsckVersionsAndAuth:
    def _versioned(self):
        db = Database()
        manager = VersionManager(db)
        db.make_class("Design", versionable=True,
                      attributes=[AttributeSpec("Rev", domain="integer")])
        generic, v1 = manager.create("Design", values={"Rev": 1})
        v2 = manager.derive(v1).new_version
        return db, manager, generic, v1, v2

    def test_manager_registers_itself(self):
        db, manager, *_ = self._versioned()
        assert db.versions is manager

    def test_clean_version_store(self):
        db, *_ = self._versioned()
        assert fsck_database(db).clean

    def test_cyclic_derivation(self):
        db, manager, generic, v1, v2 = self._versioned()
        info = manager.registry.generic_info(generic)
        info.derived_from[v1] = v2  # v1 <- v2 <- v1
        report = fsck_database(db)
        assert "FSCK-VERSION-CYCLE" in {f.rule for f in report.errors}

    def test_dangling_version(self):
        db, manager, generic, v1, v2 = self._versioned()
        db._extents["Design"].discard(v2)
        del db._objects[v2]
        report = fsck_database(db)
        assert "FSCK-VERSION-DANGLING" in {f.rule for f in report.errors}

    def test_refcount_drift(self):
        db, manager, generic, v1, v2 = self._versioned()
        db.make_class("Product", attributes=[
            AttributeSpec("Core", domain="Design", composite=True,
                          exclusive=True, dependent=False),
        ])
        db.make("Product", values={"Core": generic})
        assert fsck_database(db).clean
        key = next(iter(manager._counts))
        manager._counts[key] += 1  # phantom reference
        report = fsck_database(db)
        assert "FSCK-REFCOUNT" in {f.rule for f in report.errors}

    def test_auth_dangling_grant(self):
        db = Database()
        db.make_class("Doc", attributes=[AttributeSpec("V", domain="integer")])
        doc = db.make("Doc")
        engine = AuthorizationEngine(db)
        assert db.auth_engine is engine
        engine.grant("alice", "sW", on_instance=doc)
        assert fsck_database(db).clean
        db.delete(doc)
        report = fsck_database(db)
        assert "FSCK-AUTH-DANGLING" in report.rules()


# ---------------------------------------------------------------------------
# Property: any API-built database passes fsck clean
# ---------------------------------------------------------------------------


class TestFsckProperty:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_api_built_databases_pass_fsck(self, data):
        db = Database()
        define_part_schema(db, flavour=data.draw(st.sampled_from(
            ["dependent-exclusive", "independent-exclusive",
             "dependent-shared", "independent-shared"]
        )))
        uids = [db.make("Part", values={"Label": "root"})]
        for step in range(data.draw(st.integers(min_value=1, max_value=25))):
            action = data.draw(st.sampled_from(["make", "link", "delete"]))
            if action == "make":
                parent = data.draw(st.sampled_from(uids))
                if db.exists(parent):
                    uids.append(db.make(
                        "Part", values={"Label": f"n{step}"},
                        parents=[(parent, "SubParts")],
                    ))
            elif action == "link":
                child = db.make("Part", values={"Label": f"n{step}"})
                parent = data.draw(st.sampled_from(uids))
                if db.exists(parent):
                    try:
                        db.make_part_of(child, parent, "SubParts")
                    except Exception:
                        pass
                uids.append(child)
            else:
                victim = data.draw(st.sampled_from(uids))
                if db.exists(victim):
                    db.delete(victim)
        report = fsck_database(db)
        assert report.clean, report.render()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_self_test_passes(self, capsys):
        assert check_main(["--self-test"]) == 0
        out = capsys.readouterr().out
        assert "all seed scenarios pass" in out

    def test_fsck_and_schema_on_durable_store(self, tmp_path, capsys):
        directory = tmp_path / "store"
        db = DurableDatabase(directory)
        build_part_tree(db, depth=2, fanout=2)
        db.close()
        assert check_main(["fsck", str(directory)]) == 0
        capsys.readouterr()
        assert check_main(["--json", "schema", str(directory)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plane"] == "schema"
        assert payload["counts"]["error"] == 0

    def test_query_command(self, tmp_path):
        directory = tmp_path / "store"
        db = DurableDatabase(directory)
        build_part_tree(db, depth=1, fanout=1)
        db.close()
        good = tmp_path / "good.sx"
        good.write_text('(select Part (= Label "root"))')
        bad = tmp_path / "bad.sx"
        bad.write_text("(select Part (= Colour 3))")
        assert check_main(["query", str(directory), str(good)]) == 0
        assert check_main(["query", str(directory), str(bad)]) == 1

    def test_missing_store_is_usage_error(self, tmp_path):
        code = check_main(["fsck", str(tmp_path / "nope")])
        assert code == 2


# ---------------------------------------------------------------------------
# Server op
# ---------------------------------------------------------------------------


class TestServerCheckOp:
    def test_check_op_reports_both_planes(self):
        from repro.server import Client, ServerThread

        db = Database()
        build_part_tree(db, depth=2, fanout=2)
        with ServerThread(database=db) as handle:
            with Client(port=handle.port, timeout=20.0) as client:
                result = client.check()
                assert result["ok"] is True
                assert result["fsck"]["counts"]["error"] == 0
                assert result["schema"]["ok"] in (True, False)
                fsck_only = client.check("fsck")
                assert "schema" not in fsck_only
