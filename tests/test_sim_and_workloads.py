"""Tests for the concurrency simulator and the workload generators."""

import pytest

from repro import Database, LegacyDatabase
from repro.sim import ConcurrencySimulator, Step
from repro.workloads import (
    build_corpus,
    build_design_bench,
    build_fleet,
    build_part_tree,
    build_vehicle,
    composite_mix,
    disjoint_writers,
)
from repro.workloads.parts import build_assembly


class TestVehicleWorkload:
    def test_vehicle_shape(self, db):
        handle = build_vehicle(db, tire_count=4)
        assert len(db.components_of(handle.vehicle)) == 6
        db.validate()

    def test_fleet(self, db):
        fleet = build_fleet(db, 3)
        assert len(fleet) == 3
        assert len({h.vehicle for h in fleet}) == 3

    def test_parts_reusable_after_dismantle(self, db):
        handle = build_vehicle(db)
        db.delete(handle.vehicle)
        assert db.exists(handle.body)
        other = build_vehicle(db)
        db.set_value(other.vehicle, "Body", handle.body)  # reuse
        db.validate()


class TestPartTreeWorkload:
    def test_size(self, db):
        tree = build_part_tree(db, depth=3, fanout=2)
        assert tree.size == 1 + 2 + 4 + 8
        assert len(tree.levels) == 4

    def test_bottom_up_equivalent(self, db):
        td = build_part_tree(db, depth=2, fanout=2, class_prefix="TD")
        bu = build_part_tree(db, depth=2, fanout=2, class_prefix="BU",
                             top_down=False)
        assert len(db.components_of(td.root)) == len(db.components_of(bu.root))
        db.validate()

    def test_works_on_legacy_database(self):
        legacy = LegacyDatabase()
        tree = build_part_tree(legacy, depth=2, fanout=2)
        assert len(legacy.components_of(tree.root)) == 6

    def test_assembly_has_distinct_root_class(self, db):
        tree = build_assembly(db, depth=1, fanout=2)
        assert tree.root.class_name == "Assembly"
        assert tree.levels[1][0].class_name == "Part"


class TestDocumentWorkload:
    def test_sharing_happens(self, db):
        corpus = build_corpus(db, documents=10, share_ratio=0.5, seed=7)
        assert corpus.shared_sections
        for section in corpus.shared_sections:
            assert len(db.parents_of(section)) > 1
        db.validate()

    def test_no_sharing_when_ratio_zero(self, db):
        corpus = build_corpus(db, documents=5, share_ratio=0.0)
        assert corpus.shared_sections == []

    def test_deterministic_by_seed(self):
        db1, db2 = Database(), Database()
        c1 = build_corpus(db1, documents=6, share_ratio=0.4, seed=3)
        c2 = build_corpus(db2, documents=6, share_ratio=0.4, seed=3)
        assert len(c1.shared_sections) == len(c2.shared_sections)
        assert c1.size == c2.size


class TestCadWorkload:
    def test_bench_shape(self, db):
        from repro.versions import VersionManager

        manager = VersionManager(db)
        bench = build_design_bench(db, manager, designs=2,
                                   modules_per_design=3, derivations=2)
        assert len(bench.designs) == 2
        assert len(bench.modules) == 6
        for chain in bench.derived.values():
            assert len(chain) == 2


class TestTransactionMixes:
    def test_composite_mix_shape(self, db):
        trees = [build_assembly(db, depth=1, fanout=2) for _ in range(3)]
        roots = [t.root for t in trees]
        scripts = composite_mix(roots, transactions=7, steps_per_txn=4, seed=1)
        assert len(scripts) == 7
        assert all(len(s) == 4 for s in scripts)

    def test_mix_deterministic(self, db):
        trees = [build_assembly(db, depth=1, fanout=2) for _ in range(3)]
        roots = [t.root for t in trees]
        a = composite_mix(roots, transactions=5, seed=9)
        b = composite_mix(roots, transactions=5, seed=9)
        assert [(s.action, s.target) for script in a for s in script] == \
               [(s.action, s.target) for script in b for s in script]

    def test_disjoint_writers(self, db):
        trees = [build_assembly(db, depth=1, fanout=2) for _ in range(4)]
        scripts = disjoint_writers([t.root for t in trees], writers_per_root=2)
        assert len(scripts) == 8


class TestSimulator:
    @pytest.fixture
    def sim_env(self):
        database = Database()
        trees = [build_assembly(database, depth=1, fanout=3) for _ in range(4)]
        return database, trees

    def test_all_transactions_commit(self, sim_env):
        database, trees = sim_env
        roots = [t.root for t in trees]
        sim = ConcurrencySimulator(database, "composite")
        result = sim.run(composite_mix(roots, transactions=10, seed=5))
        assert result.committed == 10
        assert result.ticks > 0

    def test_disjoint_writers_composite_never_block(self, sim_env):
        database, trees = sim_env
        sim = ConcurrencySimulator(database, "composite")
        result = sim.run(disjoint_writers([t.root for t in trees]))
        assert result.lock_blocks == 0
        assert result.deadlock_aborts == 0

    def test_disjoint_writers_class_lock_serializes(self, sim_env):
        database, trees = sim_env
        sim = ConcurrencySimulator(database, "class")
        result = sim.run(disjoint_writers([t.root for t in trees]))
        assert result.lock_blocks > 0

    def test_instance_discipline_many_more_lock_calls(self, sim_env):
        database, trees = sim_env
        roots = [t.root for t in trees]
        scripts = disjoint_writers(roots)
        composite = ConcurrencySimulator(database, "composite").run(scripts)
        instance = ConcurrencySimulator(database, "instance").run(scripts)
        assert instance.lock_requests > composite.lock_requests

    def test_unknown_discipline_rejected(self, sim_env):
        database, _ = sim_env
        with pytest.raises(ValueError):
            ConcurrencySimulator(database, "optimistic")

    def test_deterministic_runs(self, sim_env):
        database, trees = sim_env
        roots = [t.root for t in trees]
        scripts = composite_mix(roots, transactions=8, seed=11)
        r1 = ConcurrencySimulator(database, "composite").run(scripts)
        scripts = composite_mix(roots, transactions=8, seed=11)
        r2 = ConcurrencySimulator(database, "composite").run(scripts)
        assert r1.ticks == r2.ticks
        assert r1.lock_blocks == r2.lock_blocks

    def test_conflicting_writers_serialize_but_finish(self, sim_env):
        database, trees = sim_env
        root = trees[0].root
        # work=3 keeps each writer's locks held across ticks so the
        # contention is observable.
        scripts = [[Step("update_composite", root, work=3)] for _ in range(5)]
        result = ConcurrencySimulator(database, "composite").run(scripts)
        assert result.committed == 5
        assert result.lock_blocks > 0


class TestBenchUtils:
    def test_format_table(self):
        from repro.bench import format_table

        text = format_table(
            [{"name": "a", "value": 1.23456}, {"name": "b", "value": 10}],
            title="demo",
        )
        assert "demo" in text and "1.235" in text and "name" in text

    def test_format_empty(self):
        from repro.bench import format_table

        assert "(no rows)" in format_table([])


class TestFigureBuilders:
    def test_figure4_shape(self, db):
        from repro.workloads import build_figure4

        fig = build_figure4(db)
        assert set(db.components_of(fig.i)) == set(fig.components)
        assert db.children_of(fig.i) == [fig.j, fig.k]
        assert db.components_of(fig.k) == [fig.n, fig.o]
        db.validate()

    def test_figure4_deletion_cascades(self, db):
        from repro.workloads import build_figure4

        fig = build_figure4(db)
        report = db.delete(fig.i)
        assert report.deleted_count == 6

    def test_figure5_shape(self, db):
        from repro.workloads import build_figure5

        fig = build_figure5(db)
        assert set(db.parents_of(fig.o_prime)) == {fig.j, fig.k}
        assert db.parents_of(fig.p) == [fig.j]
        assert db.parents_of(fig.q) == [fig.k]
        db.validate()

    def test_figure9_protocol_plans(self, db):
        from repro.locking import CompositeLockingProtocol, LockMode as M
        from repro.workloads import build_figure9

        fig = build_figure9(db)
        protocol = CompositeLockingProtocol(db)
        plan = dict(protocol.plan_composite(fig.k1, "read"))
        assert plan[("class", "C")] is M.ISOS
        assert plan[("class", "W")] is M.ISO

    def test_figure_builders_idempotent_schema(self, db):
        from repro.workloads import build_figure5, build_figure9

        build_figure5(db)
        build_figure5(db)   # second call reuses the schema
        build_figure9(db)
        build_figure9(db)
        db.validate()
