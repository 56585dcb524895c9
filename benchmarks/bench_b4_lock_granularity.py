"""Experiment B4: the composite object as a single lockable granule.

[KIM87b]'s contribution, carried forward in Section 7: locking a whole
composite object takes a constant number of lock calls (root class + root
instance + one per component class), while per-instance granularity
locking takes one call per component.

Expected shape: composite-protocol lock calls are flat in composite size;
the instance baseline grows linearly; GARZ88 root locking is also flat for
exclusive hierarchies (one root lock per access).
"""

import time

from repro import Database
from repro.bench import print_table
from repro.locking import (
    CompositeLockingProtocol,
    InstanceLockingBaseline,
    LockTable,
    RootLockingAlgorithm,
)
from repro.workloads.parts import build_assembly


def test_b4_lock_calls_vs_composite_size(benchmark):
    rows = []
    previous_composite = None
    for fanout in (2, 4, 8, 16):
        db = Database()
        tree = build_assembly(db, depth=2, fanout=fanout)
        protocol = CompositeLockingProtocol(db)
        baseline = InstanceLockingBaseline(db)
        composite_calls = len(protocol.plan_composite(tree.root, "write"))
        instance_calls = len(baseline.plan_composite(tree.root, "write"))
        garz = RootLockingAlgorithm(db)
        roots = garz.lock_component("GT", tree.levels[-1][0], "read")
        rows.append({
            "composite_size": tree.size,
            "composite_protocol_calls": composite_calls,
            "instance_locking_calls": instance_calls,
            "garz88_root_locks": len(roots),
        })
        if previous_composite is not None:
            assert composite_calls == previous_composite  # flat
        previous_composite = composite_calls
    assert rows[-1]["instance_locking_calls"] > rows[0]["instance_locking_calls"]
    assert rows[-1]["instance_locking_calls"] == rows[-1]["composite_size"] + 2
    assert all(r["garz88_root_locks"] == 1 for r in rows)
    print_table(rows, title="B4a — lock calls to update one whole composite")

    db = Database()
    tree = build_assembly(db, depth=2, fanout=8)
    table = LockTable()
    protocol = CompositeLockingProtocol(db, table)

    def kernel():
        protocol.lock_composite("T", tree.root, "write")
        protocol.release("T")

    benchmark(kernel)


def test_b4_acquire_time_vs_size(benchmark):
    rows = []
    for fanout in (4, 8, 16):
        db = Database()
        tree = build_assembly(db, depth=2, fanout=fanout)
        table_c = LockTable()
        protocol = CompositeLockingProtocol(db, table_c)
        start = time.perf_counter()
        for _ in range(20):
            protocol.lock_composite("T", tree.root, "write")
            protocol.release("T")
        composite_time = (time.perf_counter() - start) / 20
        table_i = LockTable()
        baseline = InstanceLockingBaseline(db, table_i)
        start = time.perf_counter()
        for _ in range(20):
            baseline.lock_composite("T", tree.root, "write")
            baseline.release("T")
        instance_time = (time.perf_counter() - start) / 20
        rows.append({
            "composite_size": tree.size,
            "composite_ms": composite_time * 1e3,
            "instance_ms": instance_time * 1e3,
            "speedup": instance_time / max(composite_time, 1e-9),
        })
    # Shape: the advantage widens with composite size.
    assert rows[-1]["speedup"] > rows[0]["speedup"]
    assert rows[-1]["speedup"] > 2.0
    print_table(rows, title="B4b — wall-clock to lock+release one composite "
                            "(mean of 20)")

    db = Database()
    tree = build_assembly(db, depth=2, fanout=8)
    baseline = InstanceLockingBaseline(db, LockTable())

    def kernel():
        baseline.lock_composite("T", tree.root, "write")
        baseline.release("T")

    benchmark(kernel)
