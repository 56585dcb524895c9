"""Experiment B16 (extension): lock-order recording overhead.

ISSUE 4's lockdep pass only earns its keep if it can stay attached to a
live workload: docs/ANALYSIS.md promises the recorder is cheap enough to
run in tests and staging by default.  This benchmark replays the B9-style
composite mixed workload through the deterministic simulator four ways —
no recorder, recorder with acquisition-stack capture disabled, the
recorder exactly as ``ReproServer`` attaches it to every served database
by default, and the full default (library) recorder — and measures
wall-clock per run plus the per-lock cost the observer adds.

Asserted shape:

* recording changes no outcomes (same commits, same lock decisions),
* the full recorder stays within 3x of the bare run (stack capture is
  the expensive part; the no-stack mode must be cheaper than full),
* the server's always-on recorder costs what the stack-less one does
  (within 1.10x): it reads the transaction's site labels, it walks no
  frames — the per-grant stack walk it used to do was ~20% of a served
  request's CPU (EXPERIMENTS.md, BENCH_13), and
* the analysis itself (graph fold + cycle scan) is milliseconds, not
  seconds, at this scale.
"""

import time

from repro import Database
from repro.analysis.lockdep import LockOrderRecorder
from repro.bench import print_table
from repro.sim import ConcurrencySimulator
from repro.workloads import composite_mix
from repro.workloads.parts import build_assembly

TRANSACTIONS = 40
ROUNDS = 5
MODES = ("off", "nostacks", "server", "stacks")


def _env(composites=6, fanout=4):
    db = Database()
    trees = [build_assembly(db, depth=2, fanout=fanout) for _ in range(composites)]
    roots = [tree.root for tree in trees]
    components = {tree.root: tree.all_uids[1:] for tree in trees}
    return db, roots, components


def _scripts(roots, components):
    return composite_mix(
        roots, transactions=TRANSACTIONS, steps_per_txn=3, read_ratio=0.6,
        instance_access_ratio=0.2, components_by_root=components, seed=1016,
    )


def _attach(db, table, mode):
    """Attach the recorder *mode* names to *table* (None for "off")."""
    if mode == "off":
        return None
    if mode == "server":
        # Built by the server's own constructor (never started), then
        # pointed at *table*: whatever ReproServer attaches by default
        # is what this row measures.
        from repro.server.server import ReproServer

        recorder = ReproServer(database=db, mvcc=False).lockdep
        recorder.detach()
        recorder.attach(table)
        return recorder
    return LockOrderRecorder(table, capture_stacks=(mode == "stacks"))


def _run(db, roots, components, mode):
    """One simulator run; returns (seconds, result, recorder or None)."""
    simulator = ConcurrencySimulator(db, "composite")
    recorder = _attach(db, simulator.table, mode)
    scripts = _scripts(roots, components)
    start = time.perf_counter()
    result = simulator.run(scripts)
    elapsed = time.perf_counter() - start
    return elapsed, result, recorder


def test_b16_recorder_overhead(benchmark, recorder):
    db, roots, components = _env()
    best = {}
    outcomes = {}
    edges = {}
    recorders = {}
    for mode in MODES:
        times = []
        for _ in range(ROUNDS):
            elapsed, result, order_recorder = _run(db, roots, components, mode)
            times.append(elapsed)
        best[mode] = min(times)
        outcomes[mode] = (result.committed, result.lock_requests)
        if order_recorder is not None:
            edges[mode] = order_recorder.stats_row()
            recorders[mode] = order_recorder

    # Observation must not change behaviour: identical commits and lock
    # traffic whether or not the observer is attached.
    assert all(outcomes[mode] == outcomes["off"] for mode in MODES)
    assert outcomes["off"][0] == TRANSACTIONS

    # The analysis fold itself, timed separately from recording.
    _, _, full = _run(db, roots, components, "stacks")
    start = time.perf_counter()
    report = full.analyze()
    analyze_seconds = time.perf_counter() - start
    # The mixed workload's instance accesses really do interleave with
    # class-granular composite locks in both orders — the Section 7
    # trade-off B9 measures is a latent-deadlock hazard lockdep surfaces.
    assert report.by_rule("LOCKDEP-INVERSION")
    # ... and the server's recorder finds it too, from the same orders.
    assert recorders["server"].analyze().by_rule("LOCKDEP-INVERSION")
    assert edges["server"] == edges["nostacks"]

    locks = outcomes["off"][1]
    rows = [
        {
            "mode": mode,
            "seconds": round(best[mode], 4),
            "overhead_vs_off": round(best[mode] / best["off"], 2),
            "ns_per_lock": round(
                (best[mode] - best["off"]) / locks * 1e9
            ) if mode != "off" else 0,
            "order_edges": edges.get(mode, {}).get("order_edges", 0),
        }
        for mode in MODES
    ]

    # Overhead bound: generous 3x so CI noise cannot flake it, but tight
    # enough to catch an accidental O(held^2)-per-grant regression.
    assert best["stacks"] <= best["off"] * 3.0, (
        f"full recorder overhead {best['stacks'] / best['off']:.2f}x "
        "exceeds the 3x budget"
    )
    assert best["server"] <= best["nostacks"] * 1.10, (
        f"the server's recorder costs {best['server'] / best['nostacks']:.2f}x "
        "the stack-less recorder: it must do constant work per grant"
    )
    assert analyze_seconds < 0.5

    benchmark.pedantic(
        lambda: _run(db, roots, components, "stacks")[1].committed,
        rounds=3, iterations=1,
    )

    print_table(rows, title="B16 — lock-order recorder overhead "
                            f"({TRANSACTIONS}-txn composite mix)")
    rows.append({
        "mode": "analyze",
        "seconds": round(analyze_seconds, 4),
        "overhead_vs_off": 0,
        "ns_per_lock": 0,
        "order_edges": edges["stacks"]["order_edges"],
    })
    recorder.record(
        "B16", "lockdep recorder overhead on the B9 composite mix", rows,
        ["observer changes no outcomes (same commits and lock calls)",
         "full recording stays within 3x of the bare run",
         "the recorder ReproServer attaches by default stays within 1.10x "
         "of the stack-less recorder",
         "graph analysis is sub-second and surfaces the mixed-access "
         "inversion hazard of Section 7"],
    )

