"""Experiment B21 (extension): isolation-checker cost model.

Analysis plane 5 has two price tags worth publishing:

* **Recorder overhead** — the :class:`HistoryRecorder` rides the
  database's observer hooks on every read, write, delete, and
  transaction boundary.  Its contract is that watching a workload is
  nearly free.  Every recorder callback is wrapped with a timer during
  one attached run; the asserted number is the *cost of one hook call*,
  in units of the same timed wrapper around a callback that does
  nothing (``_noop_unit``) — a ratio of two in-process timings, so the
  host's speed cancels, and a number about the recorder alone.  Budget:
  6.5 units (5.3-5.9 measured before the lock path was shortened in
  PR 20, ~4.5 after).  The recorder's *in-run share* (its time over that same
  run's total) was the asserted number until then; it is still printed,
  but it is a statement about the mix as much as about the recorder:
  PR 20 made the recorder cheaper and the mix 2x shorter, and the
  share read 3.9% -> 6.6-7%.  A cross-run attached-vs-detached ratio on a
  shared container swings ±10% run to run (the A/B timings are
  reported, as context).  The wrapper's two timer calls are charged to
  the recorder in both numbers.
* **Checker throughput** — ``check_history`` builds the Adya DSG and
  hunts cycles; CI feeds it multi-thousand-event histories from the
  crash sweep, so events/second is the number that bounds gate latency.
  Measured on seeded synthetic histories at 10k and 100k events.
"""

import gc
import random
import statistics
import time

from repro import Database
from repro.analysis.history import Event, History, HistoryRecorder
from repro.analysis.isocheck import check_history
from repro.bench import print_table
from repro.workloads.txmix import composite_mix, memory_fixture, run_tm_mix

ROUNDS = 5
MODES = ("detached", "attached")
MIX = dict(transactions=160, steps_per_txn=3, seed=2026)


def _mix_run(attached):
    """One B9-style composite mix; returns (elapsed, events_recorded)."""
    db = Database()
    roots, components = memory_fixture(db, roots=12, parts_per_root=3)
    scripts = composite_mix(roots, components_by_root=components, **MIX)
    recorder = HistoryRecorder(db) if attached else None
    gc.collect()
    start = time.perf_counter()
    run_tm_mix(db, scripts)
    elapsed = time.perf_counter() - start
    if recorder is None:
        return elapsed, 0
    recorder.close()
    return elapsed, len(recorder.history)


def _timed(callback, spent, clock=time.perf_counter_ns):
    """*callback* with its time (and call count) added to *spent*."""
    def timed(*args):
        start = clock()
        callback(*args)
        spent[0] += clock() - start
        spent[1] += 1
    return timed


def _noop_unit(calls=20000):
    """Nanoseconds per call of the timed wrapper around a callback that
    does nothing: the unit the recorder's hook cost is stated in."""
    spent = [0, 0]
    timed = _timed(lambda *args: None, spent)
    for _ in range(calls):
        timed(None, None)
    return spent[0] / spent[1]


def _instrumented_run():
    """One attached mix with every recorder callback wrapped in a
    timer; returns (recorder_share, ns_per_hook_call, events_recorded).

    Both numbers charge the wrapper's own clock calls to the recorder,
    so they overestimate slightly — fine for asserting an upper bound.
    """
    db = Database()
    roots, components = memory_fixture(db, roots=12, parts_per_root=3)
    scripts = composite_mix(roots, components_by_root=components, **MIX)
    recorder = HistoryRecorder(db)
    clock = time.perf_counter_ns
    spent = [0, 0]
    hooks = [
        (db.on_read, recorder._record_read),
        (db.on_update, recorder._record_update),
        (db.on_delete, recorder._record_delete),
        (db.on_op_end, recorder._record_op_end),
        (db.on_txn_commit, recorder._record_commit),
        (db.on_txn_abort, recorder._record_abort),
    ]
    swapped = []
    for hook_list, callback in hooks:
        timed = _timed(callback, spent)
        hook_list[hook_list.index(callback)] = timed
        swapped.append((hook_list, callback, timed))
    gc.collect()
    start = clock()
    run_tm_mix(db, scripts)
    total = clock() - start
    for hook_list, callback, timed in swapped:
        hook_list[hook_list.index(timed)] = callback
    events = len(recorder.history)
    recorder.close()
    return spent[0] / total, spent[0] / spent[1], events


def _synthetic_history(events, seed=2026):
    """A committed, serializable history of ~*events* events.

    Transactions of 2-6 operations run serially over a pool of objects;
    versions and installers are tracked exactly as the recorder would,
    so the checker does full-price DSG construction with no findings.
    """
    rng = random.Random(seed)
    uids = [f"Doc#{index}" for index in range(max(16, events // 64))]
    version = dict.fromkeys(uids, 0)
    installer = dict.fromkeys(uids)
    out = [Event(kind="boot")]
    txn_id = 0
    while len(out) < events:
        txn_id += 1
        txn = f"t{txn_id}"
        for _ in range(rng.randint(2, 6)):
            uid = rng.choice(uids)
            if rng.random() < 0.6:
                out.append(Event(kind="read", txn=txn, uid=uid,
                                 attribute="Text", version=version[uid],
                                 installer=installer[uid]))
            else:
                version[uid] += 1
                installer[uid] = txn
                out.append(Event(kind="write", txn=txn, uid=uid,
                                 attribute="Text", version=version[uid]))
        out.append(Event(kind="commit", txn=txn))
    return History(out)


def test_b21_recorder_overhead(benchmark):
    # Asserted: the cost of one recorder hook call in no-op units (see
    # module docstring).  Reported alongside: the in-run share, and a
    # plain attached-vs-detached wall comparison interleaved per round
    # — context, not gates: the share moves with the mix, and cross-run
    # noise on a shared box dwarfs the budget.
    samples = {mode: [] for mode in MODES}
    shares = []
    hook_units = []
    events_recorded = 0
    for round_index in range(ROUNDS):
        order = MODES if round_index % 2 == 0 else MODES[::-1]
        for mode in order:
            elapsed, events = _mix_run(attached=(mode == "attached"))
            samples[mode].append(elapsed)
            events_recorded = max(events_recorded, events)
        share, hook_ns, events = _instrumented_run()
        shares.append(share)
        hook_units.append(hook_ns / _noop_unit())
        events_recorded = max(events_recorded, events)
    typical = {mode: statistics.median(samples[mode]) for mode in MODES}
    recorder_share = statistics.median(shares)
    hook_cost = statistics.median(hook_units)

    # The attached runs really observed the workload.
    assert events_recorded > MIX["transactions"]

    rows = [
        {
            "mode": mode,
            "median_seconds": round(typical[mode], 4),
            "vs_detached": round(typical[mode] / typical["detached"], 3),
        }
        for mode in MODES
    ]
    rows[1]["events_recorded"] = events_recorded
    rows.append({"mode": "recorder share (context)",
                 "vs_detached": round(recorder_share, 4)})
    rows.append({"mode": "hook call / timed no-op (asserted)",
                 "vs_detached": round(hook_cost, 2)})
    print_table(rows, title="B21 — history recorder overhead on the B9 "
                            "composite mix")

    assert hook_cost <= 6.5, (
        f"one recorder hook call costs {hook_cost:.2f} timed no-op "
        f"callbacks (budget 6.5)"
    )

    benchmark.pedantic(lambda: _mix_run(attached=True), rounds=3,
                       iterations=1)


def test_b21_checker_throughput(benchmark):
    rows = []
    histories = {size: _synthetic_history(size) for size in (10_000, 100_000)}
    for size, history in histories.items():
        best = float("inf")
        for _round in range(3):
            start = time.perf_counter()
            report = check_history(history)
            best = min(best, time.perf_counter() - start)
        assert report.clean, report.summary()
        rows.append({
            "events": len(history),
            "seconds": round(best, 4),
            "events_per_sec": round(len(history) / best),
        })
    print_table(rows, title="B21 — check_history throughput (serializable "
                            "synthetic histories)")

    # Big enough for the CI gates: a 100k-event history checks in
    # seconds, and throughput does not collapse with scale (the DSG
    # passes are near-linear in events).
    assert rows[-1]["events_per_sec"] > 10_000
    assert rows[-1]["events_per_sec"] > rows[0]["events_per_sec"] / 10

    benchmark.pedantic(lambda: check_history(histories[10_000]),
                       rounds=3, iterations=1)
