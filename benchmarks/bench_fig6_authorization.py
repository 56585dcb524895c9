"""Experiments F4-F6: Figures 4-6 (composite objects as a unit of
authorization).

* **F4** (Figure 4): a Read grant on a composite root implicitly covers
  every component.
* **F5** (Figure 5): a component shared by two composites receives an
  implied authorization from each.
* **F6** (Figure 6): the full 8x8 matrix of resulting authorizations /
  conflicts on the shared component, over {strong,weak} x {+,¬} x {R,W}.
"""

from repro import AttributeSpec, Database, SetOf
from repro.authorization import (
    AuthorizationEngine,
    FIGURE6_ATOMS,
    combine,
    figure6_matrix,
    render_figure6,
)
from repro.bench import print_table


def _figure5_db():
    db = Database()
    db.make_class("Thing")
    db.make_class("Root", attributes=[
        AttributeSpec("kids", domain=SetOf("Thing"), composite=True,
                      exclusive=False, dependent=False)])
    o_prime = db.make("Thing")
    p, q = db.make("Thing"), db.make("Thing")
    j = db.make("Root", values={"kids": [o_prime, p]})
    k = db.make("Root", values={"kids": [o_prime, q]})
    return db, j, k, o_prime, p, q


def _figure4_db():
    # Figure 4's strict tree: i -> {j, k}; j -> m; k -> n; n -> o.
    db = Database()
    db.make_class("Node", attributes=[
        AttributeSpec("kids", domain=SetOf("Node"), composite=True,
                      exclusive=True, dependent=True)])
    o = db.make("Node")
    n = db.make("Node", values={"kids": [o]})
    m = db.make("Node")
    j = db.make("Node", values={"kids": [m]})
    k = db.make("Node", values={"kids": [n]})
    i = db.make("Node", values={"kids": [j, k]})
    return db, i, [j, k, m, n, o]


def test_fig4_implicit_read_on_components(benchmark):
    def scenario():
        db, root, components = _figure4_db()
        engine = AuthorizationEngine(db)
        engine.grant("user", "sR", on_instance=root)
        return engine, root, components

    engine, root, components = benchmark(scenario)
    assert engine.check("user", "R", root)
    for component in components:
        assert engine.check("user", "R", component)
    rows = [{"object": str(uid), "implicit_read": True}
            for uid in [root] + components]
    print_table(rows, title="F4 / Figure 4 — one grant covers the composite")


def test_fig5_shared_component(benchmark):
    def scenario():
        db, j, k, o_prime, p, q = _figure5_db()
        engine = AuthorizationEngine(db)
        engine.grant("user", "sR", on_instance=j)
        engine.grant("user", "sR", on_instance=k)
        return engine, o_prime

    engine, o_prime = benchmark(scenario)
    reasons = engine.explain("user", o_prime)
    assert len(reasons) == 2  # one implied authorization per composite
    assert engine.check("user", "R", o_prime)
    rows = [{"source": str(grant.scope), "atom": str(grant.atom)}
            for grant, _why in reasons]
    print_table(rows, title="F5 / Figure 5 — two implied authorizations on "
                            "the shared component")


def test_fig6_matrix(benchmark):
    matrix = benchmark(figure6_matrix)
    assert len(matrix) == 64

    # The paper's worked examples.
    atom = {str(a): a for a in FIGURE6_ATOMS}
    assert matrix[(atom["sR"], atom["sW"])].render() == "sW"
    assert matrix[(atom["s¬R"], atom["s¬W"])].render() == "s¬R"
    assert matrix[(atom["sR"], atom["s¬R"])].conflict
    assert matrix[(atom["sW"], atom["s¬R"])].conflict
    # Strong overrides weak; the s¬R row dominates its weak column cells.
    assert matrix[(atom["s¬R"], atom["wR"])].render() == "s¬R"
    # Symmetry and diagonal sanity.
    for row in FIGURE6_ATOMS:
        assert not matrix[(row, row)].conflict
        for col in FIGURE6_ATOMS:
            assert matrix[(row, col)].conflict == matrix[(col, row)].conflict

    print()
    print("F6 / Figure 6 — resulting authorization on the shared component")
    print("(rows: grant on composite j; columns: grant on composite k)")
    print()
    print(render_figure6())
    print()


def test_fig6_combine_microbenchmark(benchmark):
    atoms = [str(a) for a in FIGURE6_ATOMS]

    def kernel():
        total_conflicts = 0
        for a in atoms:
            for b in atoms:
                if combine([a, b]).conflict:
                    total_conflicts += 1
        return total_conflicts

    assert benchmark(kernel) == 12
