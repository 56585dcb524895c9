"""Experiment B3: composite objects as a unit of authorization.

Paper Section 6: "the user ... needs to grant authorization on the
composite object as a single unit, rather than on each of the component
objects. Further, when a composite object is accessed, the system needs to
check only one authorization (for the entire composite object), rather
than authorizations on all component objects."

Expected shape: with implicit authorization the number of *stored* records
per composite is 1 regardless of composite size; the explicit per-object
baseline stores one record per component.  Grant time scales accordingly.
"""

import time

from repro import Database
from repro.authorization import AuthorizationEngine
from repro.bench import print_table
from repro.workloads.parts import build_assembly


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_b3_storage_and_grant_cost(benchmark):
    rows = []
    for fanout in (2, 4, 8):
        db = Database()
        tree = build_assembly(db, depth=2, fanout=fanout)
        size = tree.size

        implicit = AuthorizationEngine(db)
        implicit_time = _timed(
            lambda: implicit.grant("user", "sR", on_instance=tree.root)
        )

        explicit = AuthorizationEngine(db)

        def grant_each():
            for uid in tree.all_uids:
                explicit.grant("user", "sR", on_instance=uid)

        explicit_time = _timed(grant_each)
        rows.append({
            "composite_size": size,
            "implicit_records": implicit.stored_record_count(),
            "explicit_records": explicit.stored_record_count(),
            "implicit_grant_ms": implicit_time * 1e3,
            "explicit_grant_ms": explicit_time * 1e3,
        })
        # Both engines authorize every component identically.
        for uid in tree.all_uids:
            assert implicit.check("user", "R", uid)
            assert explicit.check("user", "R", uid)

    assert all(r["implicit_records"] == 1 for r in rows)
    assert all(r["explicit_records"] == r["composite_size"] for r in rows)
    print_table(rows, title="B3 — implicit (composite unit) vs explicit "
                            "(per object) authorization")

    db = Database()
    tree = build_assembly(db, depth=2, fanout=4)
    engine = AuthorizationEngine(db)
    engine.grant("user", "sR", on_instance=tree.root)
    leaf = tree.levels[-1][0]

    def check_kernel():
        return engine.check("user", "R", leaf)

    assert benchmark(check_kernel)
