"""Experiment B17 (extension): failpoint instrumentation overhead.

The fault-injection layer threads named failpoints through the
journal's hottest write paths (``journal.write_record``,
``journal.fsync``).  Its contract is that production pays ~nothing:
a disarmed :func:`repro.faults.fire` is one module-global read and a
``None`` check.  This benchmark times the same journaled workload three
ways —

* **absent** — the original uninstrumented methods patched back in
  (what the code looked like before the failpoints existed),
* **disarmed** — the shipped code with no registry armed (production),
* **armed** — a registry whose benign ``count`` rules match every hit
  (the worst case short of actually injecting failures),

interleaving the modes across rounds so drift hits all three equally,
and asserts the disarmed tax stays inside the 5% budget the ISSUE sets.
"""

import itertools
import os
import time

from repro import AttributeSpec
from repro.bench import print_table
from repro.faults import fault_scope
from repro.storage.durable import DurableDatabase
from repro.storage.journal import Journal, _frame

OPS = 400
ROUNDS = 7
MODES = ("absent", "disarmed", "armed")


def _plain_write_record(self, kind, payload):
    # Byte-for-byte the shipped _write_record minus the fire() shim.
    self._journal_file.write(_frame(kind, payload))
    self.records_written += 1
    self.records_since_checkpoint += 1


def _plain_fsync(self):
    os.fsync(self._journal_file.fileno())
    self.fsyncs += 1
    self._dirty = False
    self._unsynced_seals = 0


def _workload(root):
    """Journal-heavy kernel: OPS creates + OPS attribute writes under
    the CPU-bound ``none`` policy (per-op seal + flush, no fsync — real
    fsyncs would drown the nanoseconds this experiment is after)."""
    db = DurableDatabase(root, sync_policy="none")
    db.make_class("Paragraph", attributes=[
        AttributeSpec("Text", domain="string"),
    ])
    start = time.perf_counter()
    uids = [
        db.make("Paragraph", values={"Text": f"p{i}"}) for i in range(OPS)
    ]
    for index, uid in enumerate(uids):
        db.set_value(uid, "Text", f"q{index}")
    elapsed = time.perf_counter() - start
    db.close()
    return elapsed


def _measure(mode, root):
    if mode == "absent":
        originals = (Journal._write_record, Journal._fsync)
        Journal._write_record = _plain_write_record
        Journal._fsync = _plain_fsync
        try:
            return _workload(root), None
        finally:
            Journal._write_record, Journal._fsync = originals
    if mode == "armed":
        with fault_scope() as faults:
            faults.add("journal.write_record", "count", count=None)
            faults.add("journal.fsync", "count", count=None)
            return _workload(root), faults
    return _workload(root), None


def test_b17_failpoint_overhead(benchmark, tmp_path):
    best = dict.fromkeys(MODES, float("inf"))
    armed_hits = 0
    for round_index in range(ROUNDS):
        for mode in MODES:
            elapsed, faults = _measure(
                mode, tmp_path / f"{mode}-{round_index}"
            )
            best[mode] = min(best[mode], elapsed)
            if faults is not None:
                armed_hits = faults.hit_count("journal.write_record")

    # The armed counting rules really did ride the hot path.
    assert armed_hits >= OPS

    records = OPS * 2  # one image per make, one per set_value
    rows = [
        {
            "mode": mode,
            "seconds": round(best[mode], 4),
            "overhead_vs_absent": round(best[mode] / best["absent"], 3),
            "ns_per_record": round(
                (best[mode] - best["absent"]) / records * 1e9
            ) if mode != "absent" else 0,
        }
        for mode in MODES
    ]
    print_table(rows, title=f"B17 — failpoint overhead ({OPS}x2 journaled "
                            "ops, sync_policy=none)")

    # The acceptance bound: shipping the instrumentation costs production
    # (disarmed) at most 5% over not having it at all.
    assert best["disarmed"] <= best["absent"] * 1.05, (
        f"disarmed failpoints cost "
        f"{best['disarmed'] / best['absent']:.3f}x over absent "
        f"(budget 1.05x)"
    )

    fresh = itertools.count()
    benchmark.pedantic(
        lambda: _workload(tmp_path / f"bench-{next(fresh)}"),
        rounds=3, iterations=1,
    )
