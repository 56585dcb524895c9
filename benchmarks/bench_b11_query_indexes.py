"""Experiment B11 (extension): associative access over class extents.

ORION supports associative queries over class extents; the reproduction's
``select`` message can run as an extent scan or through an attribute hash
index.  Expected shape: the scan grows linearly with the extent, the
indexed lookup stays flat, and both return identical results.
"""

import time

from repro.bench import print_table
from repro.query import Interpreter


def _fleet(n):
    interp = Interpreter()
    interp.run("""
      (make-class 'Vehicle
        :attributes '((Color :domain string) (Doors :domain integer)))
    """)
    colors = ("red", "blue", "green", "white")
    for i in range(n):
        interp.db.make("Vehicle", values={"Color": colors[i % 4],
                                          "Doors": 2 + (i % 3)})
    return interp


def test_b11_index_vs_scan(benchmark):
    rows = []
    for extent in (200, 800, 3200):
        interp = _fleet(extent)
        query = '(select Vehicle (= Color "red"))'
        start = time.perf_counter()
        for _ in range(10):
            scanned = interp.run_one(query)
        scan_time = (time.perf_counter() - start) / 10
        interp.run("(create-index Vehicle Color)")
        start = time.perf_counter()
        for _ in range(10):
            indexed = interp.run_one(query)
        index_time = (time.perf_counter() - start) / 10
        assert set(indexed) == set(scanned)
        rows.append({
            "extent": extent,
            "matches": len(indexed),
            "scan_us": scan_time * 1e6,
            "index_us": index_time * 1e6,
            "speedup": scan_time / max(index_time, 1e-9),
        })
    # Shape: indexed select advantage grows with the extent... but the
    # result set grows proportionally too (validation is O(matches)), so
    # assert the scan grows strictly faster than the indexed path.
    scan_growth = rows[-1]["scan_us"] / max(rows[0]["scan_us"], 1e-9)
    index_growth = rows[-1]["index_us"] / max(rows[0]["index_us"], 1e-9)
    assert scan_growth > index_growth
    assert rows[-1]["speedup"] > 1.5
    print_table(rows, title="B11 — select via extent scan vs attribute index")

    interp = _fleet(800)
    interp.run("(create-index Vehicle Color)")
    benchmark(lambda: interp.run_one('(select Vehicle (= Color "red"))'))


def test_b11_index_maintenance_overhead(benchmark):
    """The flip side: updates pay an index-maintenance tax."""
    plain = _fleet(400)
    indexed = _fleet(400)
    indexed.run("(create-index Vehicle Color)")
    targets_plain = [i.uid for i in plain.db.instances_of("Vehicle")][:200]
    targets_indexed = [i.uid for i in indexed.db.instances_of("Vehicle")][:200]

    start = time.perf_counter()
    for uid in targets_plain:
        plain.db.set_value(uid, "Color", "black")
    plain_time = time.perf_counter() - start
    start = time.perf_counter()
    for uid in targets_indexed:
        indexed.db.set_value(uid, "Color", "black")
    indexed_time = time.perf_counter() - start
    rows = [{
        "updates": 200,
        "no_index_ms": plain_time * 1e3,
        "with_index_ms": indexed_time * 1e3,
        "overhead_pct": 100 * (indexed_time - plain_time) / max(plain_time, 1e-9),
    }]
    print_table(rows, title="B11b — update cost with and without an index")
    # The index still answers correctly after the churn.
    assert len(indexed.run_one('(select Vehicle (= Color "black"))')) == 200

    def kernel():
        uid = targets_indexed[0]
        indexed.db.set_value(uid, "Color", "red")
        indexed.db.set_value(uid, "Color", "black")

    benchmark(kernel)
