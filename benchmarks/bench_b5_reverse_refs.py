"""Experiment B5: in-object reverse composite references.

Paper 2.4 weighs the design: keeping reverse references inside each
component "allows us to avoid a level of indirection in accessing the
parents of a given component, and simplifies deletion and migration of
objects; however, it causes the object size to increase."

Two measurements:

* **B5a** — `parents-of` latency: served from in-object reverse references
  (O(parents)) vs the no-reverse-reference alternative, a full scan of all
  candidate holders (O(database)).
* **B5b** — the storage price: object size vs composite fan-in.
"""

import time

from repro import AttributeSpec, Database, SetOf
from repro.bench import print_table


def _shared_db(holders, target_fan_in=5):
    """A database of *holders* folders; the probe doc keeps a constant
    fan-in of *target_fan_in* so only the scan cost varies with size."""
    db = Database()
    db.make_class("Doc")
    db.make_class("Folder", attributes=[
        AttributeSpec("docs", domain=SetOf("Doc"), composite=True,
                      exclusive=False, dependent=False),
    ])
    probe = db.make("Doc")
    for index in range(holders):
        own_doc = db.make("Doc")
        members = [own_doc] + ([probe] if index < target_fan_in else [])
        db.make("Folder", values={"docs": members})
    return db, probe


def _parents_by_scan(db, uid):
    """The 'separate structure / no reverse refs' alternative: scan every
    live instance's composite values."""
    parents = []
    for instance in db.live_instances():
        for _attr, child in db.iter_composite_values(instance):
            if child == uid:
                parents.append(instance.uid)
                break
    return parents


def test_b5_parents_of_latency(benchmark):
    rows = []
    for holders in (100, 400, 1600):
        db, target = _shared_db(holders)
        start = time.perf_counter()
        for _ in range(50):
            fast = db.parents_of(target)
        reverse_time = (time.perf_counter() - start) / 50
        start = time.perf_counter()
        for _ in range(10):
            slow = _parents_by_scan(db, target)
        scan_time = (time.perf_counter() - start) / 10
        assert set(fast) == set(slow)
        rows.append({
            "database_objects": len(db),
            "reverse_ref_us": reverse_time * 1e6,
            "scan_us": scan_time * 1e6,
            "speedup": scan_time / max(reverse_time, 1e-9),
        })
    # Shape: the scan grows with the database; reverse refs do not.
    assert rows[-1]["speedup"] > rows[0]["speedup"]
    assert rows[-1]["speedup"] > 10
    print_table(rows, title="B5a — parents-of via reverse references vs "
                            "full scan")

    db, target = _shared_db(400)

    def kernel():
        return db.parents_of(target)

    benchmark(kernel)


def test_b5_object_size_overhead(benchmark):
    def build(fan_in):
        db = Database()
        db.make_class("Doc")
        db.make_class("Folder", attributes=[
            AttributeSpec("docs", domain=SetOf("Doc"), composite=True,
                          exclusive=False, dependent=False),
        ])
        doc = db.make("Doc")
        for _ in range(fan_in):
            db.make("Folder", values={"docs": [doc]})
        return db.resolve(doc).storage_size()

    rows = []
    baseline = build(0)
    for fan_in in (0, 1, 4, 16, 64):
        size = build(fan_in)
        rows.append({
            "composite_parents": fan_in,
            "object_bytes": size,
            "overhead_bytes": size - baseline,
            "overhead_pct": 100.0 * (size - baseline) / baseline,
        })
    # Shape: linear growth with fan-in — "it causes the object size to
    # increase".
    assert rows[0]["overhead_bytes"] == 0
    per_ref = (rows[-1]["object_bytes"] - rows[1]["object_bytes"]) / 63
    assert per_ref > 0
    deltas = [rows[i + 1]["overhead_bytes"] / max(rows[i + 1]["composite_parents"], 1)
              for i in range(len(rows) - 1)]
    assert max(deltas) - min(deltas) < 1e-9  # exactly linear
    print_table(rows, title="B5b — component object size vs composite fan-in")

    benchmark(lambda: build(16))
