"""Experiments F7-F9: Figures 7-9 (locking).

* **F7** (Figure 7): the 8x8 compatibility matrix over
  IS IX S SIX X ISO IXO SIXO, derived from the claims model and checked
  against every constraint the paper states in prose.
* **F8** (Figure 8): the 11x11 matrix adding ISOS IXOS SIXOS.
* **F9** (Figure 9): the protocol walk-through — Examples 1 and 2 are
  compatible, Example 3 conflicts with both — plus the GARZ88 root-locking
  anomaly under shared references.
"""

from repro import AttributeSpec, Database, LockConflictError, SetOf
from repro.bench import print_table
from repro.locking import (
    CompositeLockingProtocol,
    FIGURE7_MATRIX,
    FIGURE7_MODES,
    FIGURE8_MATRIX,
    FIGURE8_MODES,
    LockMode,
    LockTable,
    MODE_CLAIMS,
    RootLockingAlgorithm,
    derive_matrix,
    render_matrix,
)

M = LockMode


def test_fig7_matrix(benchmark):
    matrix = benchmark(lambda: derive_matrix(MODE_CLAIMS))
    fig7 = {pair: ok for pair, ok in matrix.items()
            if pair[0] in FIGURE7_MODES and pair[1] in FIGURE7_MODES}
    assert fig7 == FIGURE7_MATRIX
    # The paper's prose constraints.
    assert fig7[(M.IS, M.IX)]
    assert not fig7[(M.ISO, M.IX)]
    assert not fig7[(M.IXO, M.IS)] and not fig7[(M.IXO, M.IX)]
    assert not fig7[(M.SIXO, M.IS)] and not fig7[(M.SIXO, M.IX)]
    assert fig7[(M.ISO, M.IXO)] and fig7[(M.IXO, M.IXO)]
    print()
    print("F7 / Figure 7 — compatibility matrix (granularity + exclusive "
          "composite locking)")
    print(render_matrix(FIGURE7_MODES, FIGURE7_MATRIX))


def test_fig8_matrix(benchmark):
    matrix = benchmark(lambda: derive_matrix(MODE_CLAIMS))
    assert matrix == FIGURE8_MATRIX
    # Shared-reference constraints: readers XOR one writer.
    assert matrix[(M.ISOS, M.ISOS)]
    assert not matrix[(M.ISOS, M.IXOS)]
    assert not matrix[(M.IXOS, M.IXOS)]
    # Cross-family constraints behind the Figure 9 examples.
    assert matrix[(M.IXO, M.ISOS)]
    assert not matrix[(M.IXOS, M.IXO)]
    print()
    print("F8 / Figure 8 — compatibility matrix (with shared composite "
          "modes)")
    print(render_matrix(FIGURE8_MODES, FIGURE8_MATRIX))


def _figure9_db():
    db = Database()
    db.make_class("W")
    db.make_class("C", attributes=[
        AttributeSpec("w", domain="W", composite=True, exclusive=True,
                      dependent=True)])
    db.make_class("I", attributes=[
        AttributeSpec("c", domain="C", composite=True, exclusive=True,
                      dependent=True)])
    db.make_class("K", attributes=[
        AttributeSpec("cs", domain=SetOf("C"), composite=True,
                      exclusive=False, dependent=False)])
    w1 = db.make("W"); c1 = db.make("C", values={"w": w1})
    i1 = db.make("I", values={"c": c1})
    w2 = db.make("W"); c2 = db.make("C", values={"w": w2})
    k1 = db.make("K", values={"cs": [c2]})
    k2 = db.make("K", values={"cs": [c2]})
    return db, i1, k1, k2


def test_fig9_protocol_examples(benchmark):
    def scenario():
        db, i1, k1, k2 = _figure9_db()
        table = LockTable()
        protocol = CompositeLockingProtocol(db, table)
        plan1 = protocol.lock_composite("T1", i1, "write")   # Example 1
        plan2 = protocol.lock_composite("T2", k1, "read")    # Example 2
        blocked = None
        try:
            protocol.lock_composite("T3", k2, "write", wait=False)
        except LockConflictError as error:
            blocked = error.resource
        return plan1, plan2, blocked

    plan1, plan2, blocked = benchmark(scenario)
    assert blocked == ("class", "C")  # Example 3 blocks on IXOS vs IXO/ISOS
    rows = (
        [{"example": 1, "resource": str(r), "mode": str(m)} for r, m in plan1]
        + [{"example": 2, "resource": str(r), "mode": str(m)} for r, m in plan2]
        + [{"example": 3, "resource": str(blocked), "mode": "IXOS (BLOCKED)"}]
    )
    print_table(rows, title="F9 / Figure 9 — protocol examples 1-3 "
                            "(1 and 2 coexist; 3 blocks)")


def test_fig9_garz88_anomaly(benchmark):
    def scenario():
        db = Database()
        db.make_class("Obj")
        db.make_class("Root", attributes=[
            AttributeSpec("kids", domain=SetOf("Obj"), composite=True,
                          exclusive=False, dependent=False)])
        shared = db.make("Obj")
        p, q = db.make("Obj"), db.make("Obj")
        db.make("Root", values={"kids": [shared, p]})
        db.make("Root", values={"kids": [shared, q]})
        algorithm = RootLockingAlgorithm(db)
        algorithm.lock_component("T1", p, "read")
        algorithm.lock_component("T2", q, "write")
        return shared, algorithm.detect_implicit_conflicts()

    shared, conflicts = benchmark(scenario)
    assert any(c.instance == shared for c in conflicts)
    rows = [{"instance": str(c.instance), "txn_a": c.txn_a,
             "mode_a": str(c.mode_a), "txn_b": c.txn_b,
             "mode_b": str(c.mode_b)} for c in conflicts]
    print_table(rows, title="F9b — GARZ88 root locking misses this conflict "
                            "under shared references")
