"""Experiment B6: physical clustering with the first parent.

Paper 2.3: a new object is "clustered with the first specified parent"
when their classes share a segment.  Composite objects were proposed as a
unit of physical clustering and retrieval precisely so a whole-composite
traversal touches few pages.

Setup: many composite objects are created interleaved (round-robin across
composites), the pattern that scatters components without a clustering
hint.  We then traverse one composite with a cold buffer pool and count
page faults, for the paper's policy vs clustering disabled, across buffer
sizes.

Expected shape: parent clustering needs several-fold fewer page faults,
and the gap persists at small buffer sizes.
"""

from repro import AttributeSpec, Database, SetOf
from repro.bench import print_table
from repro.storage.clustering import shared_segment


def _interleaved_fleet(clustering, composites=12, parts=24, buffer_capacity=8):
    db = Database(paged=True, buffer_capacity=buffer_capacity,
                  clustering=clustering)
    db.make_class("Part2", segment="seg:fleet", attributes=[
        AttributeSpec("Payload", domain="string"),
    ])
    db.make_class("Machine", segment="seg:fleet", attributes=[
        AttributeSpec("Parts", domain=SetOf("Part2"), composite=True,
                      exclusive=True, dependent=True),
    ])
    machines = [db.make("Machine") for _ in range(composites)]
    # Round-robin creation: machine 0 part 0, machine 1 part 0, ... — the
    # access pattern that interleaves composites on disk without hints.
    for _part_index in range(parts):
        for machine in machines:
            db.make("Part2",
                    values={"Payload": "x" * 64},
                    parents=[(machine, "Parts")])
    return db, machines


def _traverse_faults(db, machine):
    db.store.drop_cache()
    db.store.stats.reset()
    for component in db.components_of(machine):
        db.store.read(component)
    return db.store.stats.page_faults


def test_b6_page_faults_clustered_vs_scattered(benchmark):
    rows = []
    for buffer_capacity in (4, 8, 32):
        clustered_db, clustered_machines = _interleaved_fleet(
            "parent", buffer_capacity=buffer_capacity)
        scattered_db, scattered_machines = _interleaved_fleet(
            "none", buffer_capacity=buffer_capacity)
        clustered = _traverse_faults(clustered_db, clustered_machines[0])
        scattered = _traverse_faults(scattered_db, scattered_machines[0])
        rows.append({
            "buffer_pages": buffer_capacity,
            "clustered_faults": clustered,
            "scattered_faults": scattered,
            "fault_ratio": scattered / max(clustered, 1),
        })
    # Shape: clustering wins at every buffer size.
    assert all(r["clustered_faults"] < r["scattered_faults"] for r in rows)
    assert rows[0]["fault_ratio"] > 2.0
    print_table(rows, title="B6 — page faults for one whole-composite "
                            "traversal (cold cache, 12 interleaved "
                            "composites x 24 parts)")

    db, machines = _interleaved_fleet("parent")

    def kernel():
        return _traverse_faults(db, machines[0])

    benchmark.pedantic(kernel, rounds=5, iterations=1)


def test_b6_cross_segment_hint_is_ignored(benchmark):
    """Clustering applies 'only if the classes ... are stored in the same
    physical segment' — with distinct segments the hint must be a no-op."""
    db = Database(paged=True, clustering="parent")
    db.make_class("Leaf3")          # default segment seg:Leaf3
    db.make_class("Holder3", attributes=[
        AttributeSpec("l", domain="Leaf3", composite=True),
    ])                               # default segment seg:Holder3
    holder = db.make("Holder3")
    leaf = db.make("Leaf3", parents=[(holder, "l")])
    assert db.store.page_of(leaf) != db.store.page_of(holder)
    # Sharing a segment re-enables clustering for new objects.
    shared_segment(db.lattice, ["Leaf3", "Holder3"], "seg:together")
    holder2 = db.make("Holder3")
    leaf2 = db.make("Leaf3", parents=[(holder2, "l")])
    assert db.store.page_of(leaf2) == db.store.page_of(holder2)

    def kernel():
        h = db.make("Holder3")
        return db.make("Leaf3", parents=[(h, "l")])

    benchmark(kernel)
