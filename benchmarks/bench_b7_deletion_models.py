"""Experiment B7: deletion semantics — extended model vs [KIM87b].

Paper Section 1, shortcoming 3: mandatory existence dependency "impedes
reuse of objects in a complex design environment".

Scenario: a fleet of assemblies built from parts, repeatedly dismantled
and rebuilt.  Under the extended model (independent exclusive references)
dismantling preserves the parts for reuse; under the baseline every
rebuild must re-manufacture every part.

Expected shape: objects created per rebuild cycle — extended: 1 (just the
new assembly); baseline: 1 + parts.  Deleted per cycle similarly.
"""

from repro import AttributeSpec, Database, LegacyDatabase, SetOf
from repro.bench import print_table


def _extended_db():
    db = Database()
    db.make_class("PartX")
    db.make_class("AssemblyX", attributes=[
        AttributeSpec("Parts", domain=SetOf("PartX"), composite=True,
                      exclusive=True, dependent=False),
    ])
    return db


def _legacy_db():
    db = LegacyDatabase()
    db.make_class("PartX")
    db.make_class("AssemblyX", attributes=[
        AttributeSpec("Parts", domain=SetOf("PartX"), composite=True,
                      exclusive=True, dependent=True),
    ])
    return db


def _extended_cycle(db, parts_per_assembly, cycles):
    """Build, dismantle, rebuild — reusing parts after the first build."""
    made = deleted = 0
    parts = [db.make("PartX") for _ in range(parts_per_assembly)]
    made += parts_per_assembly
    for _ in range(cycles):
        assembly = db.make("AssemblyX", values={"Parts": parts})
        made += 1
        report = db.delete(assembly)
        deleted += report.deleted_count
        assert all(db.exists(part) for part in parts)  # preserved for reuse
    return made, deleted


def _legacy_cycle(db, parts_per_assembly, cycles):
    made = deleted = 0
    for _ in range(cycles):
        assembly = db.make("AssemblyX")
        made += 1
        for _ in range(parts_per_assembly):
            db.make("PartX", parents=[(assembly, "Parts")])
            made += 1
        report = db.delete(assembly)
        deleted += report.deleted_count
    return made, deleted


def test_b7_reuse_vs_cascade(benchmark):
    parts_per_assembly, cycles = 20, 10
    extended_made, extended_deleted = _extended_cycle(
        _extended_db(), parts_per_assembly, cycles)
    legacy_made, legacy_deleted = _legacy_cycle(
        _legacy_db(), parts_per_assembly, cycles)
    rows = [
        {"model": "extended (independent exclusive)",
         "objects_created": extended_made, "objects_deleted": extended_deleted},
        {"model": "KIM87b (dependent exclusive)",
         "objects_created": legacy_made, "objects_deleted": legacy_deleted},
    ]
    # Shape: the baseline re-manufactures everything each cycle.
    assert extended_made == parts_per_assembly + cycles
    assert legacy_made == cycles * (parts_per_assembly + 1)
    assert legacy_deleted == cycles * (parts_per_assembly + 1)
    assert extended_deleted == cycles
    print_table(rows, title=f"B7a — {cycles} dismantle/rebuild cycles of a "
                            f"{parts_per_assembly}-part assembly")

    def kernel():
        _extended_cycle(_extended_db(), 10, 3)

    benchmark.pedantic(kernel, rounds=5, iterations=1)


def test_b7_shared_deletion_semantics(benchmark):
    """The document scenario: shared components survive until the last
    dependent parent goes (impossible to express in the baseline)."""
    from repro.workloads.documents import build_corpus

    def scenario():
        db = Database()
        corpus = build_corpus(db, documents=10, share_ratio=0.5, seed=17)
        survived_steps = []
        for document in corpus.documents:
            if db.exists(document):
                db.delete(document)
            alive = sum(1 for s in corpus.sections if db.exists(s))
            survived_steps.append(alive)
        return corpus, survived_steps

    corpus, survived_steps = benchmark.pedantic(scenario, rounds=3, iterations=1)
    # Shape: sections drain gradually (shared sections outlive their first
    # holder) and reach zero only after the last document is gone.
    assert survived_steps[-1] == 0
    assert any(count > 0 for count in survived_steps[:-1])
    rows = [{"documents_deleted": i + 1, "sections_alive": alive}
            for i, alive in enumerate(survived_steps)]
    print_table(rows, title="B7b — shared sections alive while documents "
                            "are deleted one by one")
