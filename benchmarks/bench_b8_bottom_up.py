"""Experiment B8: bottom-up creation of composite objects.

Paper Section 1, shortcoming 2: the [KIM87b] model "prevents a bottom-up
creation of objects by assembling already existing objects."

Two measurements:

* **B8a** — capability: the assemble-existing-objects workflow succeeds in
  the extended model and raises in the baseline.
* **B8b** — cost: bottom-up assembly is the same O(parts) work as
  top-down creation (the generality is free).
"""

import time

import pytest

from repro import AttributeSpec, Database, LegacyDatabase, LegacyModelError, SetOf
from repro.bench import print_table
from repro.workloads.parts import build_part_tree


def test_b8_capability_matrix(benchmark):
    def extended_workflow():
        db = Database()
        db.make_class("Comp")
        db.make_class("Agg", attributes=[
            AttributeSpec("kids", domain=SetOf("Comp"), composite=True,
                          exclusive=True, dependent=False),
        ])
        inventory = [db.make("Comp") for _ in range(10)]  # parts exist first
        aggregate = db.make("Agg")
        for item in inventory:
            db.make_part_of(item, aggregate, "kids")
        return db, aggregate, inventory

    db, aggregate, inventory = benchmark(extended_workflow)
    assert set(db.components_of(aggregate)) == set(inventory)

    legacy = LegacyDatabase()
    legacy.make_class("Comp")
    legacy.make_class("Agg", attributes=[
        AttributeSpec("kids", domain=SetOf("Comp"), composite=True),
    ])
    item = legacy.make("Comp")
    target = legacy.make("Agg")
    with pytest.raises(LegacyModelError):
        legacy.make_part_of(item, target, "kids")

    rows = [
        {"workflow": "assemble pre-existing parts", "extended": "OK",
         "kim87b": "LegacyModelError"},
        {"workflow": "create components via :parent", "extended": "OK",
         "kim87b": "OK"},
        {"workflow": "root change (object becomes a component later)",
         "extended": "OK", "kim87b": "rejected"},
    ]
    print_table(rows, title="B8a — creation-order capability matrix")


def test_b8_bottom_up_cost_parity(benchmark):
    rows = []
    for size in (50, 200, 800):
        db = Database()
        depth, fanout = 1, size
        start = time.perf_counter()
        build_part_tree(db, depth, fanout, class_prefix="TD", top_down=True)
        top_down = time.perf_counter() - start
        start = time.perf_counter()
        build_part_tree(db, depth, fanout, class_prefix="BU", top_down=False)
        bottom_up = time.perf_counter() - start
        rows.append({
            "parts": size,
            "top_down_ms": top_down * 1e3,
            "bottom_up_ms": bottom_up * 1e3,
            "ratio": bottom_up / max(top_down, 1e-9),
        })
    # Shape: same order of magnitude — generality costs no asymptotics.
    assert all(0.2 < r["ratio"] < 5.0 for r in rows)
    print_table(rows, title="B8b — top-down vs bottom-up construction cost")

    def kernel():
        db = Database()
        build_part_tree(db, 1, 50, class_prefix="K", top_down=False)

    benchmark.pedantic(kernel, rounds=5, iterations=1)
