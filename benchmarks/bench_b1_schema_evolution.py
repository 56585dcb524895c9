"""Experiment B1: immediate vs deferred state-independent schema evolution.

Paper 4.3 offers two implementations for changes I1-I4: 'immediate'
(patch every instance of the domain class now) and 'deferred' (log the
change; patch each instance when it is next accessed).

Expected shape: the cost of *issuing* a deferred change is O(1) regardless
of population, while immediate is O(N); the deferred cost is paid back
per-access, so when only a fraction of instances is ever touched again the
deferred total stays below the immediate total, crossing over as the
touched fraction approaches 1 (plus the per-access CC-check overhead).
"""

import functools
import time

from repro import AttributeSpec, Database
from repro.bench import print_table
from repro.schema.evolution import SchemaEvolutionManager


def _populated(n):
    db = Database()
    manager = SchemaEvolutionManager(db)
    db.make_class("Part")
    db.make_class("Widget", attributes=[
        AttributeSpec("Piece", domain="Part", composite=True,
                      exclusive=True, dependent=True),
    ])
    parts = []
    for _ in range(n):
        part = db.make("Part")
        db.make("Widget", values={"Piece": part})
        parts.append(part)
    return db, manager, parts


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _issue_cost(n, **mode):
    """The fastest of three timings of one I3 change issued on a fresh
    population of *n*, and the manager of the last.  One timing is not
    enough: the first patch in a process runs cold, ~20x a warm one."""
    best = float("inf")
    for _ in range(3):
        _db, manager, _ = _populated(n)
        best = min(best, _timed(functools.partial(
            manager.make_independent, "Widget", "Piece", **mode)))
    return best, manager


def test_b1_issue_cost_scaling(benchmark):
    """Issuing a deferred change is population-independent."""
    rows = []
    for n in (100, 400, 1600):
        immediate, mgr_i = _issue_cost(n)
        deferred, _mgr_d = _issue_cost(n, mode="deferred")
        rows.append({
            "instances": n,
            "immediate_ms": immediate * 1e3,
            "deferred_issue_ms": deferred * 1e3,
            "immediate_patches": mgr_i.immediate_applications,
        })
    # Shape: immediate patch count scales with N; the deferred issue cost
    # does not grow anywhere near linearly with N.
    assert rows[-1]["immediate_patches"] == 1600
    assert rows[0]["immediate_patches"] == 100
    growth_immediate = rows[-1]["immediate_ms"] / max(rows[0]["immediate_ms"], 1e-9)
    growth_deferred = (
        rows[-1]["deferred_issue_ms"] / max(rows[0]["deferred_issue_ms"], 1e-9)
    )
    assert growth_immediate > growth_deferred * 2
    print_table(rows, title="B1a — cost of ISSUING an I3 change "
                            "(immediate O(N) vs deferred O(1))")

    # Give pytest-benchmark a representative kernel to time.
    db_b, mgr_b, _ = _populated(200)

    def kernel():
        mgr_b.make_independent("Widget", "Piece", mode="deferred")
        mgr_b.make_dependent("Widget", "Piece", mode="deferred")

    benchmark(kernel)


def test_b1_total_cost_vs_access_fraction(benchmark):
    """Total work (patches applied) vs fraction of instances re-accessed."""
    n = 800
    rows = []
    for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
        touched = int(n * fraction)
        db, manager, parts = _populated(n)
        manager.make_independent("Widget", "Piece", mode="deferred")
        for part in parts[:touched]:
            db.resolve(part)
        rows.append({
            "access_fraction": fraction,
            "deferred_patches": manager.deferred_applications,
            "immediate_patches": n,
            "deferred_wins": manager.deferred_applications < n,
        })
    # Shape: deferred work is proportional to the touched fraction and
    # only reaches the immediate cost at 100% access.
    assert rows[0]["deferred_patches"] == 0
    assert rows[2]["deferred_patches"] == n // 2
    assert rows[-1]["deferred_patches"] == n
    assert all(r["deferred_wins"] for r in rows[:-1])
    print_table(rows, title="B1b — instance patches performed vs fraction "
                            "of instances later accessed (N=800)")

    def kernel():
        db, manager, parts = _populated(100)
        manager.make_independent("Widget", "Piece", mode="deferred")
        for part in parts[:50]:
            db.resolve(part)
        return manager.deferred_applications

    assert benchmark(kernel) == 50
