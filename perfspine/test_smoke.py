"""Plumbing checks for the performance spine (``pytest perfspine/``).

Two smoke passes (1/100 op counts, untraced and traced, one seed) of all
four workloads: they check that every metric is reported, that the traced
waterfall adds up, that each workload isolates what it claims to, and that
the exact-count metrics repeat.  They check nothing about speed.
"""

from __future__ import annotations

import io
import json
import re
import time

import pytest

from perfspine import compare, report, trace
from perfspine.run import ROOT, _children, run_workload
from perfspine.workloads import RUN_SECONDS, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SINGLE_CONNECTION = ("embedded_design", "wire_point_ops", "durable_ingest")
#: Counts that must repeat exactly for a seed on one connection (fsync and
#: batch counts under ``group`` depend on arrival timing and do not).
EXACT = ("protocol.bytes_in_per_op", "protocol.bytes_out_per_op",
         "locking.requests_per_op", "authorization.calls_per_op",
         "journal.bytes_per_op", "journal.stored_bytes_per_user_byte")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``passes[i][(workload, traced)]`` for two passes of one seed, and
    the duration of the first."""
    passes, elapsed = [], []
    for index in range(2):
        workroot = tmp_path_factory.mktemp(f"pass{index}")
        start = time.monotonic()
        passes.append({
            (name, traced): run_workload(
                name, 7, RUN_SECONDS, traced, True, workroot)
            for name in WORKLOADS for traced in (False, True)
        })
        elapsed.append(time.monotonic() - start)
    return passes, elapsed


def test_benchmark_json_names_what_the_code_measures():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfspine"]
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["end_to_end"]] == list(report.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == list(report.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, cls.why) for name, cls in WORKLOADS.items()]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])


def test_every_metric_is_reported_once_with_its_unit(smoke):
    for results in smoke[0]:
        for (workload, traced), result in results.items():
            expected = report.PER_LAYER if traced else report.END_TO_END
            assert list(result["metrics"]) == [m[0] for m in expected]
            for name, unit, _better in expected:
                assert result["metrics"][name]["unit"] == unit
            if not traced:
                # The issue's other three end-to-end metrics.
                assert list(result["also_gated"]) == [
                    name for name, _, _, _, where in report.ALSO_GATED
                    if where is None or workload in where]


def test_every_workload_is_correct(smoke):
    for results in smoke[0]:
        for result in results.values():
            assert result["failed_checks"] == []
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            if not result["traced"]:
                assert result["also_gated"]["failed_share"]["value"] == 0


def test_smoke_is_quick_and_leaves_nothing_behind(smoke):
    assert smoke[1][0] < 15.0
    assert _children() == []


def test_every_span_point_resolves(monkeypatch):
    tracer = trace.Tracer()
    tracer.install()
    assert tracer.installed
    tracer.uninstall()
    monkeypatch.setattr(trace, "SPAN_POINTS", trace.SPAN_POINTS + (
        trace.SpanPoint("core", "core.op", "repro.core.database",
                        "Database.renamed_away"),))
    with pytest.raises(LookupError, match="renamed_away"):
        tracer.install()
    assert not tracer.installed  # nothing stays wrapped after a failure


def test_the_waterfall_adds_up(smoke):
    """Per-layer self times + server.transport_us make up the traced
    mean latency, measured independently by the driver's own clock."""
    for name in WORKLOADS:
        metrics = smoke[0][0][(name, True)]["metrics"]
        assert abs(metrics["trace.unattributed_share"]["value"]) < 0.05
        assert metrics["trace.latency_us"]["value"] > 0


def test_each_workload_isolates_what_it_claims(smoke):
    layers = {name: {key: entry["value"] for key, entry in
                     smoke[0][0][(name, True)]["metrics"].items()}
              for name in WORKLOADS}
    off_the_wire = ("client.", "protocol.", "server.", "dispatch.",
                    "serializer.", "image_cache.", "journal.", "mvcc.")
    assert all(value == 0 for key, value in
               layers["embedded_design"].items()
               if key.startswith(off_the_wire))
    for name in ("wire_point_ops", "contended_txn_mix"):
        assert all(value == 0 for key, value in layers[name].items()
                   if key.startswith("journal."))
    for name in SINGLE_CONNECTION:
        assert layers[name]["locking.block_share"] == 0
    assert layers["contended_txn_mix"]["locking.block_share"] > 0
    assert layers["durable_ingest"]["image_cache.cold_hit_share"] < 0.1
    assert layers["durable_ingest"]["image_cache.hot_hit_share"] > 0.9
    assert layers["durable_ingest"]["journal.fsyncs"] > 0


def test_exact_counts_repeat(smoke):
    first, second = smoke[0]
    for name in SINGLE_CONNECTION:
        for metric in EXACT:
            assert (first[(name, True)]["metrics"][metric]["value"]
                    == second[(name, True)]["metrics"][metric]["value"])


def test_compare_verdicts(tmp_path):
    def result_file(path, ops_s, recovery_s=1.0, failed_share=0.0):
        runs = []
        for workload in WORKLOADS:
            for i in range(len(ops_s)):
                also = {"failed_share": failed_share if i == 0 else 0.0}
                if workload == "durable_ingest":
                    also["recovery_s"] = recovery_s + i / 100
                    also["stored_bytes_per_user_byte"] = 23.5
                runs.append({
                    "workload": workload, "traced": False,
                    "metrics": {
                        name: {"value": ops_s[i] if name == "ops_s"
                               else 100 + i / 100, "unit": unit}
                        for name, unit, _ in report.END_TO_END},
                    "also_gated": report.with_units(also)})
        path.write_text(json.dumps({"runs": runs}))
        return path

    steady = result_file(tmp_path / "a.json", [1000, 1001, 1002, 1003, 1004])
    slower = result_file(tmp_path / "b.json", [700, 701, 702, 703, 704])
    noisy = result_file(tmp_path / "c.json", [600, 900, 1000, 1100, 1500])
    out = io.StringIO()
    assert compare.compare(steady, steady, out) == 0
    assert "regressed" not in out.getvalue()
    assert out.getvalue().count("recovery_s") == 1  # durable_ingest only
    assert compare.compare(steady, slower, out) == len(WORKLOADS)
    assert compare.main([str(steady), str(slower)]) == 1
    out = io.StringIO()
    assert compare.compare(steady, noisy, out) == 0
    assert out.getvalue().count("unresolved") >= len(WORKLOADS)
    # A twice slower recovery and a side with failed units both regress.
    slow_recovery = result_file(tmp_path / "d.json", [1000, 1001, 1002],
                                recovery_s=2.0)
    assert compare.compare(steady, slow_recovery, io.StringIO()) == 1
    failing = result_file(tmp_path / "e.json", [1000, 1001, 1002],
                          failed_share=0.001)
    assert compare.compare(steady, failing, io.StringIO()) == len(WORKLOADS)
    assert compare.compare(failing, steady, io.StringIO()) == len(WORKLOADS)
