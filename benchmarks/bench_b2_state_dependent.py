"""Experiment B2: the cost asymmetry of state-dependent changes.

Paper 4.3 on D2 (weak -> shared composite): "Step 2 above may be very
expensive, since there is no reverse reference corresponding to a weak
reference" — the system must scan every instance of the *owning* class to
find the referenced objects.  D3 (shared -> exclusive), by contrast, reads
the reverse composite references already stored in the referenced objects.

Expected shape: D2's cost grows with the owning-class population even when
the number of *referenced* objects is fixed; D3's grows only with the
referenced population.
"""

import time

from repro import AttributeSpec, Database
from repro.bench import print_table
from repro.schema.evolution import SchemaEvolutionManager


def _weak_db(owners, referenced=50):
    """'owners' Widget instances, only the first 'referenced' hold a ref."""
    db = Database()
    manager = SchemaEvolutionManager(db)
    db.make_class("Part")
    db.make_class("Widget", attributes=[
        AttributeSpec("Ref", domain="Part"),
    ])
    parts = [db.make("Part") for _ in range(referenced)]
    for index in range(owners):
        value = parts[index] if index < referenced else None
        db.make("Widget", values={"Ref": value})
    return db, manager


def _shared_db(referenced):
    db = Database()
    manager = SchemaEvolutionManager(db)
    db.make_class("Part")
    db.make_class("Widget", attributes=[
        AttributeSpec("Piece", domain="Part", composite=True,
                      exclusive=False, dependent=True),
    ])
    for _ in range(referenced):
        part = db.make("Part")
        db.make("Widget", values={"Piece": part})
    return db, manager


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best_of(build, change, attempts=3):
    """Best-of-N timing over fresh databases (robust to scheduler noise)."""
    best = float("inf")
    for _ in range(attempts):
        db, manager = build()
        best = min(best, _timed(lambda: change(manager)))
    return best


def test_b2_d2_scan_cost_vs_d3(benchmark):
    rows = []
    for owners in (200, 800, 3200):
        d2_time = _best_of(
            lambda owners=owners: _weak_db(owners),
            lambda mgr: mgr.make_shared_composite("Widget", "Ref"),
        )
        d3_time = _best_of(
            lambda: _shared_db(50),
            lambda mgr: mgr.make_exclusive("Widget", "Piece"),
        )
        rows.append({
            "owner_instances": owners,
            "referenced": 50,
            "d2_ms": d2_time * 1e3,
            "d3_ms": d3_time * 1e3,
        })
    # Shape: D2 grows with the owner population (the full scan of step 1),
    # D3 does not (its population is fixed at 50 referenced objects).
    d2_growth = rows[-1]["d2_ms"] / max(rows[0]["d2_ms"], 1e-9)
    d3_growth = rows[-1]["d3_ms"] / max(rows[0]["d3_ms"], 1e-9)
    assert d2_growth > 3.0, f"D2 should scale with owners ({d2_growth=})"
    assert d3_growth < d2_growth
    print_table(rows, title="B2 — D2 (weak->shared: full scan) vs D3 "
                            "(shared->exclusive: reverse refs), 50 targets")

    def kernel():
        db, manager = _weak_db(200)
        manager.make_shared_composite("Widget", "Ref")

    benchmark.pedantic(kernel, rounds=3, iterations=1)
