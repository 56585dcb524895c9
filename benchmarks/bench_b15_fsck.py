"""Experiment B15 (extension): offline integrity-checker throughput.

The ROADMAP's production north star needs an fsck that can audit a real
store in bounded time.  This benchmark measures the scan rate of
:func:`repro.analysis.fsck.fsck_database` (objects/second) over the
B-workload part hierarchies at three sizes — about 1k, 10k, and 100k
objects — and asserts the two properties that make fsck usable:

* every audit of an API-built database is clean (no findings), and
* throughput does not collapse with size (the walk is O(objects + refs):
  the largest tree must stay within 5x of the smallest's per-object rate,
  i.e. no super-linear blowup).
"""

import time

from repro.analysis.fsck import fsck_database
from repro.core.database import Database
from repro.workloads.parts import build_part_tree
from repro.bench import print_table

#: (label, depth, fanout): sizes (fanout^(depth+1) - 1) / (fanout - 1).
SIZES = [
    ("1k", 6, 3),     # 1,093 parts
    ("10k", 8, 3),    # 9,841 parts
    ("100k", 8, 4),   # 87,381 parts
]


def _scan_rate(db):
    start = time.perf_counter()
    report = fsck_database(db)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_b15_fsck_scan_throughput(benchmark):
    rows = []
    rates = {}
    databases = {}
    for label, depth, fanout in SIZES:
        db = Database()
        build_part_tree(db, depth=depth, fanout=fanout)
        databases[label] = db
        report, elapsed = _scan_rate(db)
        objects = report.checked
        assert report.clean, (
            f"fsck found {len(report)} problem(s) in an API-built tree"
        )
        rates[label] = objects / elapsed
        rows.append({
            "size": label,
            "objects": objects,
            "seconds": round(elapsed, 4),
            "objects_per_sec": round(rates[label]),
        })

    # The timed kernel pytest-benchmark reports: the mid-size scan.
    benchmark(lambda: fsck_database(databases["10k"]))

    # No super-linear blowup: per-object cost at 100k within 5x of 1k.
    assert rates["100k"] * 5 >= rates["1k"], (
        f"fsck rate collapsed with size: {rates['1k']:.0f} -> "
        f"{rates['100k']:.0f} objects/sec"
    )
    print_table(rows, title="B15 — fsck scan throughput (part hierarchies)")
