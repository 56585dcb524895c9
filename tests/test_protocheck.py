"""The protocol plane (analysis plane 4): 2PC model checker + lints.

Three layers under test: the pure state machine and its explorer
(seeded protocol bugs must yield minimal counterexamples and the
faithful model must sweep clean); trace refinement (durable traces from the *real*
journal/recovery stack must be linearizations the model allows); and
the drift lints that keep the model honest against the implementation
(failpoint sites, and the wire-op table against its handlers).
"""

from __future__ import annotations

import json

from repro.analysis import protocheck
from repro.analysis.cli import main as cli_main
from repro.analysis.findings import Report
from repro.analysis.proto_model import (
    CRASH_SITES,
    SUBSUMED_SITES,
    Scope,
    commit_possible,
    initial_state,
    successors,
)


# ---------------------------------------------------------------------------
# The model and its explorer
# ---------------------------------------------------------------------------


class TestModelExploration:
    def test_faithful_model_sweeps_clean(self):
        for scope in (Scope(1, 1, 1), Scope(2, 1, 1), Scope(2, 2, 1)):
            result = protocheck.explore(scope)
            assert result.ok, result.summary()
            assert result.terminals > 0
            assert result.states > 0

    def test_seeded_presumed_commit_minimal_counterexample(self):
        result = protocheck.explore(Scope(1, 1, 1), bug="presumed-commit")
        witnesses = [
            c for c in result.counterexamples
            if c.rule == "PROTO-CONSISTENCY"
        ]
        assert witnesses, "seeded bug not found"
        # BFS guarantees the first counterexample is shortest: prepare,
        # crash at twopc.prepared, restart, presume (wrongly) commit.
        assert len(witnesses[0].trace) == 4
        assert "presume_abort" in witnesses[0].trace[-1]

    def test_grace_guard_needs_spontaneous_crashes_to_falsify(self):
        scope = Scope(2, 1, 1)
        # Dropping the guard is harmless under site-only crashes: a
        # doubted participant with every vote in implies the log line.
        assert protocheck.explore(scope, bug="presume-eager").ok
        # Under spontaneous crashes the premature presume-abort races
        # a coordinator that still can (and does) decide commit.
        eager = protocheck.explore(
            scope, bug="presume-eager", spontaneous=True
        )
        assert not eager.ok
        assert any(
            c.rule in ("PROTO-CONSISTENCY", "PROTO-ATOMICITY")
            for c in eager.counterexamples
        )
        # The guarded (faithful) model stays clean on the same space.
        assert protocheck.explore(scope, spontaneous=True).ok

    def test_check_protocol_folds_into_report(self):
        report, result = protocheck.check_protocol(
            Scope(1, 1, 1), bug="presumed-commit"
        )
        assert report.checked == result.states
        assert report.errors
        finding = report.errors[0]
        assert finding.rule == "PROTO-CONSISTENCY"
        assert finding.detail["trace"]  # the counterexample rides along
        assert finding.detail["scope"] == "1w/1t/1c"

    def test_crash_budget_is_respected(self):
        seen_crashes = set()
        scope = Scope(1, 1, 2)
        state = initial_state(scope)
        frontier, visited = [state], {state}
        while frontier:
            state = frontier.pop()
            seen_crashes.add(scope.max_crashes - state.crashes_left)
            for _, successor in successors(state, scope):
                if successor not in visited:
                    visited.add(successor)
                    frontier.append(successor)
        assert seen_crashes == {0, 1, 2}

    def test_commit_possible_tracks_coordinator_fate(self):
        scope = Scope(1, 1, 1)
        state = initial_state(scope)
        assert commit_possible(state, 0)
        dead = state._replace(coord_alive=False, phases=("dead",))
        assert not commit_possible(dead, 0)
        failed = state._replace(votes=(("fail",),))
        assert not commit_possible(failed, 0)
        # A crashed participant that never voted can no longer say yes.
        crashed = state._replace(
            workers_alive=(False,), parts=(("lost",),)
        )
        assert not commit_possible(crashed, 0)


# ---------------------------------------------------------------------------
# Trace refinement (PROTO-REFINE)
# ---------------------------------------------------------------------------


def _trace(decisions, markers):
    return {
        "root": "test",
        "decisions": decisions,
        "shards": {"0": markers},
    }


class TestTraceRefinement:
    def test_clean_commit_trace(self):
        report = protocheck.conform_trace(_trace(
            {"g1": "commit"},
            [{"kind": "P", "gtid": "g1"},
             {"kind": "R", "gtid": "g1", "commit": True}],
        ))
        assert report.clean

    def test_presumed_abort_without_decision_is_legal(self):
        report = protocheck.conform_trace(_trace(
            {},
            [{"kind": "P", "gtid": "g1"},
             {"kind": "R", "gtid": "g1", "commit": False}],
        ))
        assert report.clean

    def test_commit_without_logged_decision_is_flagged(self):
        report = protocheck.conform_trace(_trace(
            {},
            [{"kind": "P", "gtid": "g1"},
             {"kind": "R", "gtid": "g1", "commit": True}],
        ))
        assert [f.rule for f in report.errors] == ["PROTO-REFINE"]
        assert "never be presumed" in report.errors[0].message

    def test_abort_against_logged_commit_is_flagged(self):
        report = protocheck.conform_trace(_trace(
            {"g1": "commit"},
            [{"kind": "P", "gtid": "g1"},
             {"kind": "R", "gtid": "g1", "commit": False}],
        ))
        assert report.errors
        assert "durable commit" in report.errors[0].message

    def test_resolution_without_prepare_is_flagged(self):
        report = protocheck.conform_trace(_trace(
            {"g1": "commit"},
            [{"kind": "R", "gtid": "g1", "commit": True}],
        ))
        assert report.errors
        assert "without a preceding P" in report.errors[0].message

    def test_double_prepare_and_double_resolve_are_flagged(self):
        report = protocheck.conform_trace(_trace(
            {"g1": "abort"},
            [{"kind": "P", "gtid": "g1"},
             {"kind": "P", "gtid": "g1"},
             {"kind": "R", "gtid": "g1", "commit": False},
             {"kind": "R", "gtid": "g1", "commit": False}],
        ))
        messages = " / ".join(f.message for f in report.errors)
        assert "second P" in messages
        assert "second resolution" in messages

    def test_dangling_prepare_is_a_warning_not_an_error(self):
        report = protocheck.conform_trace(_trace(
            {}, [{"kind": "P", "gtid": "g1"}],
        ))
        assert not report.errors
        assert report.warnings
        assert "in doubt" in report.warnings[0].message

    def test_conform_traces_reads_files_and_directories(self, tmp_path):
        good = _trace({"g1": "commit"}, [
            {"kind": "P", "gtid": "g1"},
            {"kind": "R", "gtid": "g1", "commit": True},
        ])
        (tmp_path / "a.json").write_text(json.dumps(good))
        (tmp_path / "b.json").write_text(json.dumps(good))
        report, count = protocheck.conform_traces([tmp_path])
        assert count == 2
        assert report.clean


class TestImplementationRefinement:
    def test_100_live_journal_traces_refine_the_model(self, tmp_path):
        """The acceptance gate: 100 seeded 2PC rounds through the real
        journal + recovery stack, every durable trace a legal model
        linearization."""
        traces = protocheck.gather_impl_traces(tmp_path, runs=100)
        assert len(traces) == 100
        report = Report(plane="proto")
        for trace in traces:
            protocheck.conform_trace(trace, report)
        assert report.clean, report.render()
        # The seeded fates actually exercised the protocol: decisions
        # were logged and prepares journaled across the corpus.
        assert any(trace["decisions"] for trace in traces)
        assert any(
            marker["kind"] == "P"
            for trace in traces
            for markers in trace["shards"].values()
            for marker in markers
        )

    def test_extract_trace_on_empty_root_is_empty(self, tmp_path):
        trace = protocheck.extract_trace(tmp_path)
        assert trace["decisions"] == {}
        assert trace["shards"] == {}


# ---------------------------------------------------------------------------
# Drift lints
# ---------------------------------------------------------------------------


class TestDriftLints:
    def test_protocol_sites_clean_on_live_tree(self):
        report = protocheck.lint_protocol_sites()
        assert report.clean, report.render()
        assert report.checked == len(protocheck.SCANNED_FILES)

    def test_site_universe_is_disjoint_and_cataloged(self):
        from repro.faults.registry import FAILPOINTS

        assert not set(CRASH_SITES) & set(SUBSUMED_SITES)
        for site in (*CRASH_SITES, *SUBSUMED_SITES):
            assert site in FAILPOINTS

    def test_missing_scanned_file_is_drift(self, tmp_path):
        report = protocheck.lint_protocol_sites(package_root=tmp_path)
        assert any(
            "missing" in f.message for f in report.errors
        )

    def test_unknown_fired_site_is_drift(self, tmp_path):
        for relative in protocheck.SCANNED_FILES:
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("")
        (tmp_path / "shard" / "twopc.py").write_text(
            'fire_or_die("bogus.site")\n'
        )
        report = protocheck.lint_protocol_sites(package_root=tmp_path)
        messages = " / ".join(f.message for f in report.errors)
        assert "bogus.site" in messages
        # And the reverse direction: model universe sites now unfired.
        assert "fired nowhere" in messages

    def test_wire_ops_clean_on_live_tree(self):
        report = protocheck.lint_wire_ops()
        assert report.clean, report.render()
        assert report.checked > 20

    def test_dropped_handler_is_op_drift(self, monkeypatch):
        from repro.server import dispatch

        monkeypatch.delitem(dispatch.COMMANDS, "describe")
        report = protocheck.lint_wire_ops()
        assert [(f.rule, f.location) for f in report.errors] == [
            ("PROTO-OP-DRIFT", "describe")
        ]


# ---------------------------------------------------------------------------
# CLI and server plane
# ---------------------------------------------------------------------------


class TestProtoCli:
    def test_self_test_passes(self, capsys):
        assert cli_main(["proto", "--self-test"]) == 0
        out = capsys.readouterr().out
        assert "proto self-test: pass" in out

    def test_small_scope_run_exits_clean(self, capsys):
        assert cli_main(
            ["proto", "--workers", "1", "--txns", "1", "-q"]
        ) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_replay_gates_on_bad_trace(self, tmp_path, capsys):
        bad = _trace({}, [
            {"kind": "P", "gtid": "g1"},
            {"kind": "R", "gtid": "g1", "commit": True},
        ])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert cli_main([
            "proto", "--workers", "1", "--txns", "1",
            "--replay", str(path), "--json",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert any(
            finding["rule"] == "PROTO-REFINE"
            for finding in payload["findings"]
        )


class TestProtoOverTheWire:
    def test_proto_plane_over_live_server(self):
        from repro.server import Client, ServerThread

        with ServerThread() as handle:
            with Client(port=handle.port) as client:
                report = client.check(plane="proto")
                assert set(report) == {"proto", "ok"}
                assert report["ok"], report
                assert report["proto"]["checked"] > 40

    def test_all_plane_skips_the_exploration(self):
        from repro.server import Client, ServerThread

        with ServerThread() as handle:
            with Client(port=handle.port) as client:
                report = client.check()
                assert "proto" not in report
