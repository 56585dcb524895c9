"""Experiments F1-F3: Figures 1-3 (versions of composite objects).

* **F1** (Figure 1): deriving a new version rebinds independent exclusive
  static references to the generic instance; dependent references go Nil.
* **F2** (Figure 2): different version instances of one generic reference
  different version instances of another generic, within CV-1X/2X.
* **F3** (Figure 3): reverse composite generic references carry ref-counts
  (3 and 2 in the paper's sub-figures); decrements remove the generic
  reference at zero; parents-of on the generic still answers.
"""

from repro import AttributeSpec, Database
from repro.bench import print_table
from repro.versions import VersionManager


def _fig_db():
    db = Database()
    db.make_class("B", versionable=True)
    db.make_class("A", versionable=True, attributes=[
        AttributeSpec("b", domain="B", composite=True, exclusive=True,
                      dependent=False),
        AttributeSpec("bdep", domain="B", composite=True, exclusive=True,
                      dependent=True),
    ])
    return db, VersionManager(db)


def test_fig1_derivation(benchmark):
    def scenario():
        db, vm = _fig_db()
        gb, b0 = vm.create("B")
        gb2, b2_0 = vm.create("B")
        ga, a0 = vm.create("A", values={"b": b0, "bdep": b2_0})
        report = vm.derive(a0)
        return db, vm, gb, b0, report

    db, vm, gb, b0, report = benchmark(scenario)
    # Independent exclusive static reference -> rebound to the generic.
    assert report.rebound["b"] == [(b0, gb)]
    assert db.value(report.new_version, "b") == gb
    # Dependent reference -> Nil.
    assert db.value(report.new_version, "bdep") is None
    rows = [
        {"reference": "independent exclusive (static)",
         "paper": "rebound to generic g-d", "measured": "rebound to generic"},
        {"reference": "dependent (any)",
         "paper": "set to Nil", "measured": "set to Nil"},
    ]
    print_table(rows, title="F1 / Figure 1 — derivation of a composite version")


def test_fig2_version_topology(benchmark):
    def scenario():
        db, vm = _fig_db()
        gb, b0 = vm.create("B")
        b1 = vm.derive(b0).new_version
        ga, a0 = vm.create("A", values={"b": b0})
        a1 = vm.derive(a0).new_version     # dynamic to gb
        db.set_value(a1, "b", b1)          # re-bind statically to b1
        return db, vm, (a0, a1), (b0, b1)

    db, vm, (a0, a1), (b0, b1) = benchmark(scenario)
    # Different versions of g-c reference different versions of g-d, each
    # version instance of g-d carrying at most one exclusive reference.
    assert db.value(a0, "b") == b0
    assert db.value(a1, "b") == b1
    assert len(db.peek(b0).reverse_references) == 1
    assert len(db.peek(b1).reverse_references) == 1
    rows = [{"version_of_A": str(a0), "references": str(b0)},
            {"version_of_A": str(a1), "references": str(b1)}]
    print_table(rows, title="F2 / Figure 2 — versioned composite objects")


def test_fig3_refcounts(benchmark):
    def scenario():
        db, vm = _fig_db()
        gb, b0 = vm.create("B")
        ga, a0 = vm.create("A", values={"b": b0})
        a1 = vm.derive(a0).new_version     # dynamic ref to gb
        a2 = vm.derive(a1).new_version     # dynamic ref to gb
        counts = [vm.ref_count(ga, "b", gb)]
        parents_before = vm.generic_parents(gb)
        db.set_value(a0, "b", None)
        counts.append(vm.ref_count(ga, "b", gb))
        db.set_value(a1, "b", None)
        counts.append(vm.ref_count(ga, "b", gb))
        db.set_value(a2, "b", None)
        counts.append(vm.ref_count(ga, "b", gb))
        parents_after = vm.generic_parents(gb)
        return counts, parents_before, parents_after, ga

    counts, parents_before, parents_after, ga = benchmark(scenario)
    # Figure 3.a: three version-level references -> ref-count 3; each
    # removal decrements; at zero the generic reverse reference is gone.
    assert counts == [3, 2, 1, 0]
    # "the result would be the instance a1, even if all composite
    # references are statically bound"
    assert parents_before == [ga]
    assert parents_after == []
    rows = [{"step": "initial (3 refs)", "ref_count": counts[0]},
            {"step": "remove a0.b", "ref_count": counts[1]},
            {"step": "remove a1.b", "ref_count": counts[2]},
            {"step": "remove a2.b", "ref_count": counts[3]}]
    print_table(rows, title="F3 / Figure 3 — reverse composite generic "
                            "reference ref-counts")
