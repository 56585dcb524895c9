"""Edge-case sweep across subsystems: version-aware authorization, the
operation-log registry, simulator internals, lock stats."""

import pytest

from repro import AttributeSpec, AuthorizationConflict, Database, SetOf
from repro.authorization import AuthorizationEngine
from repro.versions import VersionManager


class TestVersionAwareAuthorization:
    @pytest.fixture
    def env(self):
        database = Database()
        database.make_class("Part2")
        database.make_class("Design", versionable=True, attributes=[
            AttributeSpec("Secret", domain="string"),
            AttributeSpec("Parts", domain=SetOf("Part2"), composite=True,
                          exclusive=True, dependent=True),
        ])
        manager = VersionManager(database)
        engine = AuthorizationEngine(database,
                                     version_registry=manager.registry)
        return database, manager, engine

    def test_grant_on_generic_covers_versions(self, env):
        database, manager, engine = env
        generic, v0 = manager.create("Design", values={"Secret": "x"})
        v1 = manager.derive(v0).new_version
        engine.grant("alice", "sR", on_instance=generic)
        assert engine.check("alice", "R", v0)
        assert engine.check("alice", "R", v1)
        # Future versions are covered too (implicit, not stored).
        v2 = manager.derive(v1).new_version
        assert engine.check("alice", "R", v2)
        assert engine.stored_record_count() == 1

    def test_grant_on_one_version_does_not_cover_others(self, env):
        database, manager, engine = env
        generic, v0 = manager.create("Design")
        v1 = manager.derive(v0).new_version
        engine.grant("bob", "sR", on_instance=v0)
        assert engine.check("bob", "R", v0)
        assert not engine.check("bob", "R", v1)
        assert not engine.check("bob", "R", generic)

    def test_generic_grant_covers_version_components(self, env):
        database, manager, engine = env
        part = database.make("Part2")
        generic, v0 = manager.create("Design", values={"Parts": [part]})
        engine.grant("carol", "sW", on_instance=generic)
        # Component of a covered version: covered via the composite walk
        # from the version instance.
        assert engine.check("carol", "W", v0)
        assert engine.check("carol", "W", part)

    def test_grant_conflict_checked_across_versions(self, env):
        database, manager, engine = env
        generic, v0 = manager.create("Design")
        engine.grant("dave", "s¬W", on_instance=v0)
        with pytest.raises(AuthorizationConflict):
            engine.grant("dave", "sW", on_instance=generic)

    def test_without_registry_generics_grant_nothing_extra(self):
        database = Database()
        database.make_class("Design", versionable=True)
        manager = VersionManager(database)
        engine = AuthorizationEngine(database)  # no registry wired
        generic, v0 = manager.create("Design")
        engine.grant("erin", "sR", on_instance=generic)
        assert not engine.check("erin", "R", v0)


class TestOperationLogRegistry:
    def test_prune_everything(self):
        from repro.schema.oplog import OperationLogRegistry

        registry = OperationLogRegistry()
        registry.append("I2", "Widget", "Piece", "Part")
        registry.append("I3", "Widget", "Piece", "Part")
        assert registry.log_sizes() == {"Part": 2}
        registry.prune()
        assert registry.log_sizes() == {}
        # CC keeps counting monotonically after a prune.
        entry = registry.append("I4", "Widget", "Piece", "Part")
        assert entry.cc == 3

    def test_prune_older_than(self):
        from repro.schema.oplog import OperationLogRegistry

        registry = OperationLogRegistry()
        first = registry.append("I2", "W", "A", "P")
        second = registry.append("I3", "W", "A", "P")
        registry.prune(older_than=first.cc)
        assert registry.log_sizes() == {"P": 1}
        remaining = registry.entries_for(["P"], newer_than=0)
        assert remaining == [second]

    def test_entries_for_merges_lineage_in_cc_order(self):
        from repro.schema.oplog import OperationLogRegistry

        registry = OperationLogRegistry()
        a = registry.append("I2", "W", "A", "Base")
        b = registry.append("I3", "W", "A", "Derived")
        c = registry.append("I4", "W", "A", "Base")
        merged = registry.entries_for(["Derived", "Base"], newer_than=0)
        assert [e.cc for e in merged] == [a.cc, b.cc, c.cc]


class TestLockStatsAndRecorder:
    def test_lock_stats_reset(self):
        from repro.locking.modes import LockMode
        from repro.locking.table import LockTable

        table = LockTable()
        table.acquire("T", "r", LockMode.S)
        assert table.stats.requests == 1
        table.stats.reset()
        assert table.stats.requests == 0 and table.stats.grants == 0

    def test_io_stats_snapshot_delta(self):
        from repro.storage.stats import IOStats

        stats = IOStats()
        before = stats.snapshot()
        stats.page_faults += 3
        stats.buffer_hits += 7
        delta = before.delta(stats.snapshot())
        assert delta.page_faults == 3 and delta.buffer_hits == 7


class TestSimulatorInternals:
    def test_step_work_spreads_over_ticks(self):
        from repro.sim import ConcurrencySimulator, Step
        from repro.workloads.parts import build_assembly

        database = Database()
        tree = build_assembly(database, depth=1, fanout=2)
        sim = ConcurrencySimulator(database, "composite")
        result = sim.run([[Step("read_composite", tree.root, work=5)]])
        assert result.ticks == 5

    def test_two_writers_same_composite_serialize(self):
        from repro.sim import ConcurrencySimulator, Step
        from repro.workloads.parts import build_assembly

        database = Database()
        tree = build_assembly(database, depth=1, fanout=2)
        sim = ConcurrencySimulator(database, "composite")
        scripts = [[Step("update_composite", tree.root, work=2)]
                   for _ in range(2)]
        result = sim.run(scripts)
        assert result.committed == 2
        # Strictly serialized: the second writer blocks until the first
        # releases (one overlap tick thanks to within-tick promotion).
        assert result.ticks == 3
        assert result.lock_blocks >= 1

    def test_max_ticks_guard(self):
        from repro.sim import ConcurrencySimulator, Step
        from repro.workloads.parts import build_assembly

        database = Database()
        tree = build_assembly(database, depth=1, fanout=2)
        sim = ConcurrencySimulator(database, "composite")
        with pytest.raises(RuntimeError):
            sim.run([[Step("read_composite", tree.root, work=10)]],
                    max_ticks=3)


class TestDatabaseMisc:
    def test_len_and_contains(self, db):
        db.make_class("Thing")
        uid = db.make("Thing")
        assert len(db) == 1 and uid in db
        db.delete(uid)
        assert len(db) == 0 and uid not in db

    def test_class_of_falls_back_for_dead_objects(self, db):
        db.make_class("Thing")
        uid = db.make("Thing")
        db.delete(uid)
        assert db.class_of(uid) == "Thing"  # from the UID

    def test_validate_detects_planted_corruption(self, db):
        from repro import TopologyError

        db.make_class("Leaf")
        db.make_class("Box", attributes=[
            AttributeSpec("l", domain="Leaf", composite=True),
        ])
        leaf = db.make("Leaf")
        box = db.make("Box", values={"l": leaf})
        # Corrupt: drop the reverse reference behind the database's back.
        db.peek(leaf).reverse_references.clear()
        with pytest.raises(TopologyError):
            db.validate()

    def test_validate_detects_stale_reverse_ref(self, db):
        from repro import TopologyError

        db.make_class("Leaf")
        db.make_class("Box", attributes=[
            AttributeSpec("l", domain="Leaf", composite=True),
        ])
        leaf = db.make("Leaf")
        box = db.make("Box", values={"l": leaf})
        db.peek(box).values["l"] = None  # forward side vanishes
        with pytest.raises(TopologyError):
            db.validate()
