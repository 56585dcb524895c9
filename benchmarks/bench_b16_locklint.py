"""Experiment B16 (extension): lock-order recording overhead.

ISSUE 4's lockdep pass only earns its keep if it can stay attached to a
live workload: docs/ANALYSIS.md promises the recorder is cheap enough to
run in tests and staging by default.  This benchmark runs the B9-style
composite mixed workload through the deterministic simulator four ways —
no recorder, recorder with acquisition-stack capture disabled, the
recorder exactly as ``ReproServer`` attaches it to every served database
by default, and the full default (library) recorder — and measures what
the observer adds per lock.

The recorder's cost is timed on an input that does not vary: the
simulator's grant/release callback sequence is recorded once and
replayed ``REPLAYS`` times per round into fresh recorders of each mode,
the modes alternating replay by replay (best of ``ROUNDS`` rounds, the
collector paused), less the same replay into an observer that does
nothing.  Timing whole simulator runs instead put the
recorder's cost inside the simulator's run-to-run noise: at 40
transactions ``ns_per_lock`` read anywhere from -2 141 to +9 913.

Asserted shape:

* recording changes no outcomes (same commits, same lock decisions),
  and a replayed recorder ends in the state the live one did,
* the full recorder stays within 3x of the bare run (the bare run plus
  the recorder's replayed cost per run; stack capture is the expensive
  part),
* the server's always-on recorder costs what the stack-less one does
  (within 1.10x, recorder cost against recorder cost): it reads the
  transaction's site labels, it walks no frames — the per-grant stack
  walk it used to do was ~20% of a served request's CPU (EXPERIMENTS.md,
  BENCH_13), and
* the analysis itself (graph fold + cycle scan) is milliseconds, not
  seconds, at this scale.
"""

import gc
import time

from repro import Database
from repro.analysis.lockdep import LockOrderRecorder
from repro.bench import print_table
from repro.locking.table import LockObserver
from repro.sim import ConcurrencySimulator
from repro.workloads import composite_mix
from repro.workloads.parts import build_assembly

TRANSACTIONS = 40
ROUNDS = 8
#: Replays of the recorded callback sequence per mode and round (~1 ms
#: each for the server-shaped recorder on the reference host): enough
#: that a round's total stands well above the timer's and the host's
#: noise.
REPLAYS = 40
MODES = ("off", "nostacks", "server", "stacks")


class _Tape(LockObserver):
    """The simulator's grant and release callbacks, in order."""

    def __init__(self):
        self.events = []

    def on_grant(self, txn, resource, mode):
        self.events.append((txn, resource, mode))

    def on_release(self, txn):
        self.events.append((txn,))


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


def _server_recorder(db):
    """The recorder the server's own constructor attaches by default
    (the server is never started), detached from its table."""
    from repro.server.server import ReproServer

    recorder = ReproServer(database=db, mvcc=False).lockdep
    recorder.detach()
    return recorder


def _factories(db):
    """Mode -> a callable making a fresh, unattached recorder of that
    mode ("off": an observer that does nothing).  A "server" one is the
    class ReproServer attaches with its stack setting, so that timing it
    does not also time a server's construction garbage."""
    server = _server_recorder(db)
    return {
        "off": LockObserver,
        "nostacks": lambda: LockOrderRecorder(capture_stacks=False),
        "server": lambda: type(server)(capture_stacks=server.capture_stacks),
        "stacks": lambda: LockOrderRecorder(capture_stacks=True),
    }


def _run(db, roots, components, observer):
    """One simulator run with *observer* on its lock table; returns
    (seconds, result)."""
    simulator = ConcurrencySimulator(db, "composite")
    simulator.table.observers.append(observer)
    scripts = _scripts(roots, components)
    start = time.perf_counter()
    result = simulator.run(scripts)
    elapsed = time.perf_counter() - start
    return elapsed, result


def _replay(events, observer):
    """Feed *events* into *observer*; the seconds it took."""
    grant, release = observer.on_grant, observer.on_release
    start = time.perf_counter()
    for event in events:
        if len(event) == 3:
            grant(*event)
        else:
            release(event[0])
    return time.perf_counter() - start


def test_b16_recorder_overhead(benchmark):
    db, roots, components = _env()
    outcomes = {}
    edges = {}
    recorders = {}
    off_times = []
    for _ in range(ROUNDS):
        elapsed, result = _run(db, roots, components, LockObserver())
        off_times.append(elapsed)
    outcomes["off"] = (result.committed, result.lock_requests)
    factories = _factories(db)
    for mode in MODES[1:]:
        order_recorder = (_server_recorder(db) if mode == "server"
                          else factories[mode]())
        _, result = _run(db, roots, components, order_recorder)
        outcomes[mode] = (result.committed, result.lock_requests)
        edges[mode] = order_recorder.stats_row()
        recorders[mode] = order_recorder

    # Observation must not change behaviour: identical commits and lock
    # traffic whether or not the observer is attached.
    assert all(outcomes[mode] == outcomes["off"] for mode in MODES)
    assert outcomes["off"][0] == TRANSACTIONS

    # The recorder's own cost, on one recorded callback sequence.
    tape = _Tape()
    _, result = _run(db, roots, components, tape)
    assert (result.committed, result.lock_requests) == outcomes["off"]
    events = tape.events
    grants = sum(len(event) == 3 for event in events)
    best = {mode: float("inf") for mode in MODES}
    for round_ in range(ROUNDS):
        fresh = {mode: [factories[mode]() for _ in range(REPLAYS)]
                 for mode in MODES}
        spent = dict.fromkeys(MODES, 0.0)
        # Replays of the modes alternate, each mode taking each place in
        # turn, so a slow stretch of the host is shared by all of them;
        # the collector is paused, as ``timeit`` does, so a collection
        # does not charge one mode for the whole heap.
        order = MODES[round_ % len(MODES):] + MODES[:round_ % len(MODES)]
        gc.collect()
        gc.disable()
        try:
            for index in range(REPLAYS):
                for mode in order:
                    spent[mode] += _replay(events, fresh[mode][index])
        finally:
            gc.enable()
        for mode in MODES:
            best[mode] = min(best[mode], spent[mode] / REPLAYS)
            if mode != "off":
                # The replay ends where the live run did.
                assert fresh[mode][0].stats_row() == edges[mode]
    cost = {mode: max(0.0, best[mode] - best["off"]) for mode in MODES}
    bare = min(off_times)

    # The analysis fold itself, timed separately from recording.
    full = recorders["stacks"]
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

    rows = [
        {
            "mode": mode,
            "seconds": round(bare + cost[mode], 4),
            "overhead_vs_off": round((bare + cost[mode]) / bare, 2),
            "recorder_us_per_run": round(cost[mode] * 1e6, 1),
            "ns_per_lock": round(cost[mode] / grants * 1e9),
            "order_edges": edges.get(mode, {}).get("order_edges", 0),
        }
        for mode in MODES
    ]

    # Overhead bound: generous 3x so CI noise cannot flake it, but tight
    # enough to catch an accidental O(held^2)-per-grant regression.
    assert bare + cost["stacks"] <= bare * 3.0, (
        f"full recorder overhead {(bare + cost['stacks']) / bare:.2f}x "
        "exceeds the 3x budget"
    )
    assert cost["server"] <= cost["nostacks"] * 1.10, (
        f"the server's recorder costs {cost['server'] / cost['nostacks']:.2f}x "
        "the stack-less recorder: it must do constant work per grant"
    )
    assert analyze_seconds < 0.5

    benchmark.pedantic(
        lambda: _run(db, roots, components,
                     factories["stacks"]())[1].committed,
        rounds=3, iterations=1,
    )

    print_table(rows, title="B16 — lock-order recorder overhead "
                            f"({TRANSACTIONS}-txn composite mix, {grants} "
                            f"grants replayed {REPLAYS}x per round)")
