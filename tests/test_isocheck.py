"""Analysis plane 5: the history recorder and the isolation checker.

Four layers:

1. **Event/History** — JSONL round-trips, torn-tail tolerance, corrupt
   line rejection, boot-marker epochs.
2. **Recorder** — version counters, transaction attribution, auto-txn
   sealing, abort rewind (undo writes must not look like new installs),
   detach idempotence.
3. **Checker** — every ISO-* rule on hand-built event lists where the
   expected DSG is computable by eye, then live seeded anomalies through
   real transaction managers, then hypothesis properties (serial and
   strict-2PL histories are anomaly-free; the seeded lost update never
   escapes).
4. **Wiring** — the plane registry / CLI / server stay five-wide in
   lockstep, the server records and checks over TCP, and codelint's
   CODE-HOOK-LEAK catches recorder-style hook leaks.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import AttributeSpec, Database, SetOf
from repro.analysis.codelint import lint_source
from repro.analysis.findings import PLANES, Severity, plane_for_rule
from repro.analysis.history import (
    EVENT_KINDS,
    Event,
    History,
    HistoryRecorder,
)
from repro.analysis.isocheck import build_dsg, check_history, predict_isolation
from repro.analysis.locklint import TransactionTemplate
from repro.errors import LockConflictError
from repro.locking.table import LockTable
from repro.txn.manager import TransactionManager


def _account_db():
    db = Database()
    db.make_class("Account", attributes=[
        AttributeSpec("Balance", domain="integer"),
    ])
    x = db.make("Account", values={"Balance": 100})
    y = db.make("Account", values={"Balance": 100})
    return db, x, y


def _broken_pair(db):
    """Two managers with private lock tables: real undo/hook paths, no
    mutual lock visibility — anomalies can actually happen."""
    return (
        TransactionManager(db, LockTable()),
        TransactionManager(db, LockTable()),
    )


# ---------------------------------------------------------------------------
# Event / History serialization
# ---------------------------------------------------------------------------


class TestHistorySerialization:
    def test_event_round_trip_drops_defaults(self):
        event = Event(kind="read", txn="t1", uid="Account#1",
                      attribute="Balance", version=3, installer="t2")
        assert Event.from_dict(event.to_dict()) == event
        bare = Event(kind="boot")
        assert bare.to_dict() == {"k": "boot"}
        assert Event.from_dict({"k": "boot"}) == bare

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            Event.from_dict({"k": "observe"})

    def test_history_jsonl_round_trip(self, tmp_path):
        history = History([
            Event(kind="boot"),
            Event(kind="write", txn="t1", uid="X", attribute="A", version=1),
            Event(kind="commit", txn="t1"),
        ])
        assert History.loads(history.dumps()).events == history.events
        path = tmp_path / "h.jsonl"
        history.dump(path)
        assert History.load(path).events == history.events

    def test_torn_final_line_tolerated(self):
        text = History([Event(kind="boot"),
                        Event(kind="commit", txn="t1")]).dumps()
        torn = History.loads(text + '{"k":"wri')
        assert len(torn) == 2

    def test_corrupt_interior_line_raises(self):
        text = '{"k":"boot"}\nnot json at all\n{"k":"commit","t":"t1"}\n'
        with pytest.raises(ValueError, match="history line 2 is corrupt"):
            History.loads(text)

    def test_epochs_split_on_boot(self):
        history = History([
            Event(kind="boot"),
            Event(kind="commit", txn="t1"),
            Event(kind="boot"),
            Event(kind="commit", txn="t2"),
        ])
        epochs = history.epochs()
        assert [len(epoch) for epoch in epochs] == [1, 1]
        assert epochs[0][0].txn == "t1"
        assert epochs[1][0].txn == "t2"


# ---------------------------------------------------------------------------
# The recorder
# ---------------------------------------------------------------------------


class TestHistoryRecorder:
    def test_versions_count_up_and_reads_observe_installer(self):
        db, x, _y = _account_db()
        tm = TransactionManager(db)
        with HistoryRecorder(db) as recorder:
            t1 = tm.begin()
            tm.write(t1, x, "Balance", 110)
            tm.commit(t1)
            t2 = tm.begin()
            assert tm.read(t2, x, "Balance") == 110
            tm.commit(t2)
        events = recorder.history.events
        writes = [e for e in events if e.kind == "write"]
        assert [e.version for e in writes] == [1]
        reads = [e for e in events if e.kind == "read" and e.txn == f"t{t2.txn_id}"]
        assert reads and reads[-1].version == 1
        assert reads[-1].installer == f"t{t1.txn_id}"

    def test_abort_rewinds_versions_and_suppresses_undo_writes(self):
        db, x, _y = _account_db()
        tm = TransactionManager(db)
        with HistoryRecorder(db) as recorder:
            t1 = tm.begin()
            tm.write(t1, x, "Balance", 999)
            tm.abort(t1)
            t2 = tm.begin()
            assert tm.read(t2, x, "Balance") == 100
            tm.commit(t2)
        events = recorder.history.events
        # The undo write-back is not an event: only the original install
        # and the abort (a write is blind -- the database records its
        # inverse, so the manager no longer reads the old value).
        t1_key = f"t{t1.txn_id}"
        assert [e.kind for e in events
                if e.txn == t1_key] == ["write", "abort"]
        # After the rewind t2 observes the initial version again.
        read = [e for e in events
                if e.kind == "read" and e.txn == f"t{t2.txn_id}"][-1]
        assert read.version == 0 and read.installer is None
        assert check_history(recorder.history).clean

    def test_bare_ops_get_auto_txns(self):
        db, x, _y = _account_db()
        with HistoryRecorder(db) as recorder:
            db.set_value(x, "Balance", 150)
            db.value(x, "Balance")
        events = recorder.history.events
        auto = {e.txn for e in events if e.txn.startswith("b")}
        assert len(auto) == 2  # one auto-txn per bare op
        assert [e.kind for e in events if e.kind == "commit"] == ["commit"] * 2
        assert check_history(recorder.history).clean

    def test_detach_is_idempotent_and_stops_recording(self):
        db, x, _y = _account_db()
        recorder = HistoryRecorder(db)
        assert recorder.attached
        recorder.detach()
        recorder.detach()
        assert not recorder.attached
        before = len(recorder.history)
        db.set_value(x, "Balance", 1)
        assert len(recorder.history) == before
        assert not db.on_read and not db.on_update

    def test_streaming_path_and_stats(self, tmp_path):
        db, x, _y = _account_db()
        path = tmp_path / "live.jsonl"
        recorder = HistoryRecorder(db, path=str(path))
        db.set_value(x, "Balance", 7)
        recorder.close()
        loaded = History.load(path)
        assert loaded.events == recorder.history.events
        assert loaded.events[0].kind == "boot"
        row = recorder.stats_row()
        assert row["attached"] is False
        assert row["events"] == len(recorder.history)
        assert row["writes"] == 1


# ---------------------------------------------------------------------------
# The checker on hand-built histories
# ---------------------------------------------------------------------------


def _committed(*txns):
    return [Event(kind="commit", txn=txn) for txn in txns]


class TestCheckerRules:
    def test_serial_history_is_clean(self):
        report = check_history([
            Event(kind="write", txn="t1", uid="X", version=1),
            Event(kind="commit", txn="t1"),
            Event(kind="read", txn="t2", uid="X", version=1, installer="t1"),
            Event(kind="write", txn="t2", uid="X", version=2),
            Event(kind="commit", txn="t2"),
        ])
        assert report.clean
        assert report.checked == 5

    def test_g0_pure_write_cycle(self):
        report = check_history([
            Event(kind="write", txn="t1", uid="X", version=1),
            Event(kind="write", txn="t2", uid="X", version=2),
            Event(kind="write", txn="t2", uid="Y", version=1),
            Event(kind="write", txn="t1", uid="Y", version=2),
        ] + _committed("t1", "t2"))
        assert report.by_rule("ISO-G0")
        assert not report.by_rule("ISO-G2")

    def test_g1a_aborted_writer_is_error(self):
        report = check_history([
            Event(kind="write", txn="t1", uid="X", version=1),
            Event(kind="read", txn="t2", uid="X", version=1, installer="t1"),
            Event(kind="abort", txn="t1"),
            Event(kind="commit", txn="t2"),
        ])
        (finding,) = report.by_rule("ISO-G1A")
        assert finding.severity is Severity.ERROR
        assert finding.detail["status"] == "aborted"

    def test_g1a_unfinished_writer_is_warning(self):
        report = check_history([
            Event(kind="write", txn="t1", uid="X", version=1),
            Event(kind="read", txn="t2", uid="X", version=1, installer="t1"),
            Event(kind="commit", txn="t2"),
        ])
        (finding,) = report.by_rule("ISO-G1A")
        assert finding.severity is Severity.WARNING
        assert finding.detail["status"] == "unfinished"
        assert report.ok is False and not report.errors

    def test_g1b_intermediate_read(self):
        report = check_history([
            Event(kind="write", txn="t1", uid="X", version=1),
            Event(kind="read", txn="t2", uid="X", version=1, installer="t1"),
            Event(kind="write", txn="t1", uid="X", version=2),
        ] + _committed("t1", "t2"))
        (finding,) = report.by_rule("ISO-G1B")
        assert finding.detail["final_version"] == 2

    def test_g1c_wr_cycle(self):
        report = check_history([
            Event(kind="write", txn="t1", uid="X", version=1),
            Event(kind="read", txn="t2", uid="X", version=1, installer="t1"),
            Event(kind="write", txn="t2", uid="Y", version=1),
            Event(kind="read", txn="t1", uid="Y", version=1, installer="t2"),
        ] + _committed("t1", "t2"))
        assert report.by_rule("ISO-G1C")
        assert not report.by_rule("ISO-G0")

    def test_g2_write_skew_shape(self):
        report = check_history([
            Event(kind="read", txn="t1", uid="X", version=0),
            Event(kind="read", txn="t2", uid="Y", version=0),
            Event(kind="write", txn="t1", uid="Y", version=1),
            Event(kind="write", txn="t2", uid="X", version=1),
        ] + _committed("t1", "t2"))
        assert report.by_rule("ISO-G2")
        (skew,) = report.by_rule("ISO-WRITE-SKEW")
        assert set(skew.detail["cycle"]) == {"t1", "t2"}

    def test_g2_lost_update_shape(self):
        report = check_history([
            Event(kind="read", txn="t1", uid="X", version=0),
            Event(kind="read", txn="t2", uid="X", version=0),
            Event(kind="write", txn="t2", uid="X", version=1),
            Event(kind="commit", txn="t2"),
            Event(kind="write", txn="t1", uid="X", version=2),
            Event(kind="commit", txn="t1"),
        ])
        cycles = report.by_rule("ISO-G2")
        assert cycles and len(cycles[0].detail["cycle"]) == 2
        (lost,) = report.by_rule("ISO-LOST-UPDATE")
        assert "lost update on X" in lost.message

    def test_aborted_writers_leave_no_dsg_edges(self):
        edges = build_dsg([
            Event(kind="write", txn="t1", uid="X", version=1),
            Event(kind="abort", txn="t1"),
            Event(kind="write", txn="t2", uid="X", version=2),
            Event(kind="commit", txn="t2"),
        ])
        assert edges == []

    def test_boot_marker_isolates_epochs(self):
        # The same skew events as above, split across a crash: no edge
        # crosses the boot marker, so the cycle disappears.
        split = [
            Event(kind="boot"),
            Event(kind="read", txn="t1", uid="X", version=0),
            Event(kind="write", txn="t1", uid="Y", version=1),
            Event(kind="commit", txn="t1"),
            Event(kind="boot"),
            Event(kind="read", txn="t2", uid="Y", version=0),
            Event(kind="write", txn="t2", uid="X", version=1),
            Event(kind="commit", txn="t2"),
        ]
        assert check_history(split).clean
        merged = [event for event in split if event.kind != "boot"]
        assert check_history(merged).by_rule("ISO-G2")


# ---------------------------------------------------------------------------
# Live seeded anomalies through real managers
# ---------------------------------------------------------------------------


class TestLiveAnomalies:
    def test_lost_update_detected_with_minimal_witness(self):
        db, x, _y = _account_db()
        tm1, tm2 = _broken_pair(db)
        with HistoryRecorder(db) as recorder:
            t1, t2 = tm1.begin(), tm2.begin()
            stale_1 = tm1.read(t1, x, "Balance")
            stale_2 = tm2.read(t2, x, "Balance")
            tm1.write(t1, x, "Balance", stale_1 + 10)
            tm2.write(t2, x, "Balance", stale_2 + 25)
            tm1.commit(t1)
            tm2.commit(t2)
        report = check_history(recorder.history)
        (cycle,) = report.by_rule("ISO-G2")
        assert set(cycle.detail["cycle"]) == {f"t{t1.txn_id}", f"t{t2.txn_id}"}
        assert report.by_rule("ISO-LOST-UPDATE")

    def test_shared_lock_table_prevents_the_same_interleaving(self):
        db, x, _y = _account_db()
        table = LockTable()
        tm1 = TransactionManager(db, table)
        tm2 = TransactionManager(db, table)
        with HistoryRecorder(db) as recorder:
            t1, t2 = tm1.begin(), tm2.begin()
            tm1.read(t1, x, "Balance")
            with pytest.raises(LockConflictError):
                tm2.write(t2, x, "Balance", 125)
            tm2.abort(t2)
            tm1.write(t1, x, "Balance", 110)
            tm1.commit(t1)
        assert check_history(recorder.history).clean

    def test_dirty_read_from_aborted_writer(self):
        db, x, _y = _account_db()
        tm1, tm2 = _broken_pair(db)
        with HistoryRecorder(db) as recorder:
            t1, t2 = tm1.begin(), tm2.begin()
            tm1.write(t1, x, "Balance", 999)
            tm2.read(t2, x, "Balance")
            tm1.abort(t1)
            tm2.commit(t2)
        report = check_history(recorder.history)
        assert any(f.severity is Severity.ERROR
                   for f in report.by_rule("ISO-G1A"))


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------


_mix_settings = settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestProperties:
    @given(
        script=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),   # 0 read, 1 write
                st.integers(min_value=0, max_value=1),   # which account
                st.integers(min_value=-50, max_value=50),
            ),
            max_size=12,
        ),
        chunks=st.lists(st.integers(min_value=1, max_value=4), max_size=5),
    )
    @_mix_settings
    def test_serial_histories_are_clean(self, script, chunks):
        """Any serial transaction sequence records an anomaly-free
        history — each transaction commits before the next begins."""
        db, x, y = _account_db()
        tm = TransactionManager(db)
        accounts = (x, y)
        steps = iter(script)
        with HistoryRecorder(db) as recorder:
            for size in chunks:
                txn = tm.begin()
                for _ in range(size):
                    step = next(steps, None)
                    if step is None:
                        break
                    action, which, delta = step
                    if action == 0:
                        tm.read(txn, accounts[which], "Balance")
                    else:
                        tm.write(txn, accounts[which], "Balance", 100 + delta)
                tm.commit(txn)
        assert check_history(recorder.history).clean

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @_mix_settings
    def test_strict_2pl_interleavings_never_yield_iso_errors(self, seed):
        from repro.workloads.txmix import (
            composite_mix,
            memory_fixture,
            run_tm_mix,
        )

        db = Database()
        roots, components = memory_fixture(db, roots=3, parts_per_root=2)
        scripts = composite_mix(
            roots, transactions=6, steps_per_txn=3,
            components_by_root=components, seed=seed,
        )
        with HistoryRecorder(db) as recorder:
            run_tm_mix(db, scripts)
        report = check_history(recorder.history)
        assert not report.errors, report.summary()

    @given(
        delta_1=st.integers(min_value=1, max_value=100),
        delta_2=st.integers(min_value=1, max_value=100),
        first_committer=st.integers(min_value=0, max_value=1),
    )
    @_mix_settings
    def test_seeded_lost_update_always_classified(
        self, delta_1, delta_2, first_committer
    ):
        db, x, _y = _account_db()
        tm1, tm2 = _broken_pair(db)
        with HistoryRecorder(db) as recorder:
            t1, t2 = tm1.begin(), tm2.begin()
            stale_1 = tm1.read(t1, x, "Balance")
            stale_2 = tm2.read(t2, x, "Balance")
            tm1.write(t1, x, "Balance", stale_1 + delta_1)
            tm2.write(t2, x, "Balance", stale_2 + delta_2)
            order = [(tm1, t1), (tm2, t2)]
            if first_committer:
                order.reverse()
            for manager, txn in order:
                manager.commit(txn)
        report = check_history(recorder.history)
        assert report.by_rule("ISO-LOST-UPDATE"), report.summary()


# ---------------------------------------------------------------------------
# Static half: template predictions
# ---------------------------------------------------------------------------


class TestPredictIsolation:
    @pytest.fixture()
    def assembly(self):
        from repro.workloads.parts import build_assembly

        db = Database()
        roots = [build_assembly(db, depth=2, fanout=2).root
                 for _ in range(2)]
        return db, roots

    def test_read_modify_write_predicts_lost_update(self, assembly):
        db, roots = assembly
        racy = TransactionTemplate("increment", [
            ("read_instance", roots[0]), ("update_instance", roots[0]),
        ])
        report = predict_isolation(db, [racy])
        (finding,) = report.by_rule("ISO-TEMPLATE-LOST-UPDATE")
        assert finding.severity is Severity.WARNING
        assert "second concurrent instance" in finding.message

    def test_mutual_pair_predicts_skew(self, assembly):
        db, roots = assembly
        left = TransactionTemplate("left", [
            ("read_instance", roots[0]), ("update_instance", roots[1]),
        ])
        right = TransactionTemplate("right", [
            ("read_instance", roots[1]), ("update_instance", roots[0]),
        ])
        report = predict_isolation(db, [left, right])
        (finding,) = report.by_rule("ISO-TEMPLATE-SKEW")
        assert set(finding.detail["templates"]) == {"left", "right"}

    def test_read_only_templates_are_clean(self, assembly):
        db, roots = assembly
        audit = TransactionTemplate("audit", [
            ("read_composite", roots[0]), ("read_composite", roots[1]),
        ])
        assert predict_isolation(db, [audit]).clean

    def test_three_template_hazard_ring(self, assembly):
        db, roots = assembly
        from repro.workloads.parts import build_assembly

        roots = roots + [build_assembly(db, depth=2, fanout=2).root]
        ring = [
            TransactionTemplate(f"hop{i}", [
                ("read_instance", roots[i]),
                ("update_instance", roots[(i + 1) % 3]),
            ])
            for i in range(3)
        ]
        report = predict_isolation(db, ring)
        (finding,) = report.by_rule("ISO-TEMPLATE-CYCLE")
        assert len(finding.detail["cycle"]) == 3


# ---------------------------------------------------------------------------
# Wiring: plane registry drift, server recording, hook-leak lint
# ---------------------------------------------------------------------------


class TestPlaneWiring:
    def test_registry_cli_and_server_stay_in_lockstep(self):
        from repro.analysis import cli
        from repro.server import dispatch

        registry_cli = {name for spec in PLANES for name in spec.cli}
        assert registry_cli | {"self-test"} == set(cli.SUBCOMMANDS)
        registry_server = {name for spec in PLANES for name in spec.server}
        assert registry_server | {"all"} == set(dispatch.CHECK_PLANES)
        assert len(PLANES) == 5

    def test_every_iso_rule_maps_to_the_iso_plane(self):
        for rule in ("ISO-G0", "ISO-G1A", "ISO-G2", "ISO-LOST-UPDATE",
                     "ISO-TEMPLATE-SKEW"):
            assert plane_for_rule(rule).name == "iso"
        assert plane_for_rule("CODE-HOOK-LEAK").name == "concurrency"

    def test_event_kinds_is_the_wire_vocabulary(self):
        assert EVENT_KINDS == {"read", "write", "delete", "commit",
                               "abort", "boot"}


class TestServerRecording:
    def test_server_records_and_checks_over_tcp(self, tmp_path):
        from repro.server import Client, ServerThread

        path = tmp_path / "server.jsonl"
        with ServerThread(record_history=str(path)) as handle:
            with Client(port=handle.port) as client:
                client.make_class("Doc", attributes=[
                    {"name": "Title", "domain": "string"},
                ])
                doc = client.make("Doc", values={"Title": "a"})
                client.begin()
                client.set_value(doc, "Title", "b")
                client.commit()
                assert client.value(doc, "Title") == "b"
                verdict = client.check("iso")
                assert verdict["iso"]["counts"]["error"] == 0
                stats = client.stats()
                assert stats["history"]["attached"] is True
                assert stats["history"]["events"] > 0
        # The streamed file is the same history, offline.
        offline = History.load(path)
        assert offline.events[0].kind == "boot"
        assert not check_history(offline).errors

    @staticmethod
    def _chain(target):
        """``root`` -> ``mid`` -> ``leaf`` through a shared composite, made
        through a ``Client`` or a ``Database`` alike."""
        target.make_class("Node", attributes=[AttributeSpec(
            "Kids", domain=SetOf("Node"), composite=True, exclusive=False,
            dependent=False)])
        root = target.make("Node")
        mid = target.make("Node", parents=[(root, "Kids")])
        leaf = target.make("Node", parents=[(mid, "Kids")])
        return root, mid, leaf

    @staticmethod
    def _navigation_reads(target, root, mid, leaf):
        """Run the five reads; returns the UIDs they must record: the
        object, plus the children returned or every ancestor whose
        reverse references were read."""
        target.resolve(leaf)
        assert target.children_of(root) == [mid]
        assert target.parents_of(leaf) == [mid]
        assert target.ancestors_of(leaf) == [mid, root]
        assert target.roots_of(leaf) == [root]
        return [str(uid) for uid in (leaf, root, mid, leaf, leaf, mid, root,
                                     leaf, mid, root)]

    def test_wire_resolve_and_navigation_record_their_reads(self):
        from repro.server import Client, ServerThread

        with ServerThread(record_history=True) as handle:
            with Client(port=handle.port) as client:
                root, mid, leaf = self._chain(client)
                txn = client.begin()
                expected = self._navigation_reads(client, root, mid, leaf)
                client.commit()
                history = handle.server.history.history
        reads = [event.uid for event in history
                 if event.kind == "read" and event.txn == f"t{txn}"]
        assert reads == expected
        assert not check_history(history).errors

    def test_embedded_navigation_records_its_reads(self):
        db = Database()
        root, mid, leaf = self._chain(db)
        with HistoryRecorder(db) as recorder:
            tm = TransactionManager(db)
            txn = tm.begin()
            with db.txn_context(txn):
                expected = self._navigation_reads(db, root, mid, leaf)
            tm.commit(txn)
        reads = [event.uid for event in recorder.history
                 if event.kind == "read" and event.txn == f"t{txn.txn_id}"]
        # The embedded resolve is the access path of every operation and
        # records nothing; the four navigation reads record as on the wire.
        assert reads == expected[1:]

    def test_navigation_reads_lock_what_they_record(self):
        # A navigation op records whole-object reads of the children (or
        # ancestors) it read, so it must hold them: a writer of one waits
        # for the reader's commit instead of slipping in between.
        import threading

        from repro.server import Client, ServerThread
        from repro.workloads.txmix import STAMP_ATTRIBUTE, tcp_fixture

        with ServerThread(record_history=True) as handle, \
                Client(port=handle.port) as reader, \
                Client(port=handle.port) as writer:
            roots, components = tcp_fixture(reader, roots=1,
                                            parts_per_root=1)
            root = roots[0]
            part = components[root][0]
            for op, target, written in (("children_of", root, part),
                                        ("ancestors_of", part, root),
                                        ("roots_of", part, root)):
                reader.begin()
                getattr(reader, op)(target)
                done = threading.Event()

                def write():
                    writer.set_value(written, STAMP_ATTRIBUTE, 1)
                    done.set()

                thread = threading.Thread(target=write)
                thread.start()
                assert not done.wait(0.3), f"{op} left {written} unlocked"
                reader.commit()
                thread.join(10)
                assert done.is_set()
            history = handle.server.history.history
        report = check_history(history)
        assert not report.errors and not report.warnings

    def test_concurrent_wire_navigation_mix_checks_strict_clean(self):
        from repro.server import Client, ServerThread
        from repro.workloads.txmix import (
            NAVIGATION_ACTIONS, navigation_mix, run_tcp_clients, tcp_fixture)

        with ServerThread(record_history=True) as handle:
            with Client(port=handle.port) as client:
                roots, components = tcp_fixture(client, roots=4,
                                                parts_per_root=2)
            scripts = navigation_mix(roots, components, transactions=40,
                                     seed=20260807)
            stats = run_tcp_clients(handle.port, scripts, clients=2)
            history = handle.server.history.history
        assert stats["transactions"] == len(scripts)
        assert {step.action for steps in scripts for step in steps} \
            >= set(NAVIGATION_ACTIONS)
        report = check_history(history)
        assert not report.errors and not report.warnings
        assert any(event.kind == "read" for event in history)

    def test_unrecorded_resolve_enters_no_txn_context(self):
        from repro.server import Client, ServerThread

        db = Database()
        entered = []
        original = db.txn_context

        def counting(txn):
            entered.append(txn)
            return original(txn)

        db.txn_context = counting
        with ServerThread(database=db) as handle:
            with Client(port=handle.port) as client:
                _root, _mid, leaf = self._chain(client)
                entered.clear()
                assert client.resolve(leaf)["uid"] == leaf
        assert entered == []

    def test_iso_plane_refused_without_a_recorder(self):
        from repro.server import Client, ServerThread

        with ServerThread() as handle:
            with Client(port=handle.port) as client:
                report = client.check()  # "all" simply omits the plane
                assert "iso" not in report
                with pytest.raises(Exception, match="disabled"):
                    client.check("iso")


class TestHookLeakLint:
    LEAKY = '''
class Watcher:
    def __init__(self, db):
        self.db = db
        db.on_op_end.append(self._tick)

    def _tick(self):
        pass
'''

    FIXED = '''
class Watcher:
    def __init__(self, db):
        self.db = db
        db.on_op_end.append(self._tick)

    def close(self):
        self.db.on_op_end.remove(self._tick)

    def _tick(self):
        pass
'''

    def test_leaky_hook_attachment_flagged(self):
        report = lint_source(self.LEAKY, "watcher.py")
        assert report.by_rule("CODE-HOOK-LEAK")

    def test_detach_in_close_passes(self):
        report = lint_source(self.FIXED, "watcher.py")
        assert not report.by_rule("CODE-HOOK-LEAK")

    def test_real_package_has_no_hook_leaks(self):
        from repro.analysis.codelint import lint_package

        report = lint_package()
        assert not report.by_rule("CODE-HOOK-LEAK"), [
            f.location for f in report.by_rule("CODE-HOOK-LEAK")
        ]


# ---------------------------------------------------------------------------
# CrashSim / sweep integration
# ---------------------------------------------------------------------------


class TestCrashSimHistories:
    def test_crash_plan_history_checks_clean(self, tmp_path):
        from repro.faults.crashsim import CrashSim
        from repro.faults.plan import random_plan

        plan = random_plan(20260807)
        path = tmp_path / "plan.jsonl"
        report = CrashSim(plan, tmp_path / "scratch",
                          record_history=path).run()
        assert report.ok, report.summary()
        assert report.history is not None
        assert report.facts["iso_summary"].startswith("iso:")
        streamed = History.load(path)
        assert [e.to_dict() for e in streamed] == [
            e.to_dict() for e in report.history
        ]
        assert not check_history(streamed).errors

    def test_cli_checks_a_recorded_history_file(self, tmp_path, capsys):
        from repro.analysis.cli import main

        db, x, _y = _account_db()
        tm1, tm2 = _broken_pair(db)
        path = tmp_path / "anomaly.jsonl"
        with HistoryRecorder(db, path=str(path)):
            t1, t2 = tm1.begin(), tm2.begin()
            stale_1 = tm1.read(t1, x, "Balance")
            stale_2 = tm2.read(t2, x, "Balance")
            tm1.write(t1, x, "Balance", stale_1 + 1)
            tm2.write(t2, x, "Balance", stale_2 + 2)
            tm1.commit(t1)
            tm2.commit(t2)
        code = main(["iso", str(path), "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert any(f["rule"] == "ISO-LOST-UPDATE"
                   for f in payload["findings"])
