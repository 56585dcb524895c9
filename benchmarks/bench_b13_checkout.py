"""Experiment B13 (extension): long-duration transactions.

The paper's closing Section 7 remark: the composite protocols "may not be
suitable for long-duration transactions. For long-duration transactions,
it may be better to lock individual component objects as needed."  The
check-out model sidesteps the question: one persistent composite lock,
then *zero* lock traffic per edit (the workspace is private), and abandon
needs no undo log.

Measured against strict 2PL on the shared objects:

* lock decisions per edit (checkout: 0 after the plan; 2PL: one per
  edit -- the first plans and enters the lock table, the rest are
  answered from the transaction's coverage);
* abandon/abort cost: destroying a workspace vs replaying an undo log.
"""

import time

from repro import AttributeSpec, Database, SetOf
from repro.bench import print_table
from repro.txn import CheckoutManager, TransactionManager


def _design_db():
    db = Database()
    db.make_class("Pin", attributes=[AttributeSpec("Signal", domain="string")])
    db.make_class("Cell", attributes=[
        AttributeSpec("Name", domain="string"),
        AttributeSpec("Pins", domain=SetOf("Pin"), composite=True,
                      exclusive=True, dependent=True),
    ])
    pins = [db.make("Pin", values={"Signal": f"s{i}"}) for i in range(8)]
    cell = db.make("Cell", values={"Name": "c", "Pins": pins})
    return db, cell, pins


def test_b13_lock_traffic_per_edit(benchmark):
    edits = 50

    # Check-out model: one plan, then lock-free private edits.
    db1, cell1, pins1 = _design_db()
    manager = CheckoutManager(db1)
    checkout = manager.checkout("alice", cell1)
    after_plan = manager.table.stats.requests
    working = checkout.workspace_of(cell1)
    for i in range(edits):
        db1.set_value(working, "Name", f"n{i}")
    checkout_requests = manager.table.stats.requests - after_plan
    manager.checkin(checkout)

    # Strict 2PL: every edit goes through the lock table.
    db2, cell2, pins2 = _design_db()
    txn_manager = TransactionManager(db2)
    txn = txn_manager.begin()
    stats = txn_manager.table.stats
    before, before_covered = stats.requests, stats.covered
    for i in range(edits):
        txn_manager.write(txn, cell2, "Name", f"n{i}")
    tpl_requests = stats.requests - before
    tpl_covered = stats.covered - before_covered
    txn_manager.commit(txn)

    rows = [
        {"model": "check-out workspace", "edits": edits,
         "lock_requests_during_edits": checkout_requests,
         "covered_answers": 0},
        {"model": "strict 2PL", "edits": edits,
         "lock_requests_during_edits": tpl_requests,
         "covered_answers": tpl_covered},
    ]
    assert checkout_requests == 0
    # Every 2PL edit still asks the lock protocol: the first enters the
    # table (class IX + instance X), the other 49 are covered answers.
    assert (tpl_requests, tpl_covered) == (2, edits - 1)
    assert tpl_requests + tpl_covered >= edits
    print_table(rows, title="B13a — lock traffic while editing "
                            "(long transaction)")

    db3, cell3, _ = _design_db()
    manager3 = CheckoutManager(db3)

    def kernel():
        handle = manager3.checkout("u", cell3)
        db3.set_value(handle.workspace_of(cell3), "Name", "x")
        manager3.checkin(handle)

    benchmark.pedantic(kernel, rounds=10, iterations=1)


def test_b13_abandon_vs_abort_cost(benchmark):
    """Abandoning a big edited workspace vs aborting a big 2PL txn."""
    rows = []
    for edits in (50, 200):
        db1, cell1, pins1 = _design_db()
        manager = CheckoutManager(db1)
        checkout = manager.checkout("alice", cell1)
        working = checkout.workspace_of(cell1)
        for i in range(edits):
            db1.set_value(working, "Name", f"n{i}")
        start = time.perf_counter()
        manager.abandon(checkout)
        abandon_time = time.perf_counter() - start
        assert db1.value(cell1, "Name") == "c"

        db2, cell2, pins2 = _design_db()
        txn_manager = TransactionManager(db2)
        txn = txn_manager.begin()
        for i in range(edits):
            txn_manager.write(txn, cell2, "Name", f"n{i}")
        start = time.perf_counter()
        txn_manager.abort(txn)
        abort_time = time.perf_counter() - start
        assert db2.value(cell2, "Name") == "c"

        rows.append({
            "edits": edits,
            "abandon_ms": abandon_time * 1e3,
            "abort_undo_ms": abort_time * 1e3,
        })
    # Both are correct roll-backs; abandon cost tracks workspace size,
    # abort cost tracks undo-log length.
    print_table(rows, title="B13b — rolling back a long transaction: "
                            "workspace abandon vs undo replay")

    db3, cell3, _ = _design_db()
    manager3 = CheckoutManager(db3)

    def kernel():
        handle = manager3.checkout("u", cell3)
        manager3.abandon(handle)

    benchmark.pedantic(kernel, rounds=10, iterations=1)
