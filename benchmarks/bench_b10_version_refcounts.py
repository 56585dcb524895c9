"""Experiment B10: maintenance cost of reverse composite generic references.

Paper 5.3 replicates reverse references in generic instances with a
ref-count so that (a) parents-of works on generics and (b) legality checks
for new references need not scan all version instances.  The alternative
it rejects: keep nothing at the generic level and scan version instances
on demand.

Two measurements:

* **B10a** — per-link maintenance overhead: constant-time count updates on
  link/unlink (flat in the number of versions).
* **B10b** — the payoff: generic-parents lookup via counts vs scanning
  every version instance of every candidate holder.
"""

import time

from repro import AttributeSpec, Database, SetOf
from repro.bench import print_table
from repro.versions import VersionManager


def _cad(versions_per_design):
    db = Database()
    db.make_class("Module", versionable=True)
    db.make_class("Design", versionable=True, attributes=[
        AttributeSpec("mods", domain=SetOf("Module"), composite=True,
                      exclusive=True, dependent=False),
    ])
    vm = VersionManager(db)
    g_mod, mod_v0 = vm.create("Module")
    g_des, des_v0 = vm.create("Design", values={"mods": [mod_v0]})
    chain = des_v0
    for _ in range(versions_per_design - 1):
        chain = vm.derive(chain).new_version
    return db, vm, g_mod, g_des


def _generic_parents_by_scan(db, vm, generic_uid):
    """The rejected design: derive generic parents by scanning every
    version instance's composite values."""
    parents = []
    targets = {generic_uid}
    targets.update(vm.registry.generic_info(generic_uid).versions)
    for instance in db.live_instances():
        for _attr, child in db.iter_composite_values(instance):
            if child in targets:
                key = vm.registry.hierarchy_key(instance.uid)
                if key not in parents:
                    parents.append(key)
    return parents


def test_b10_maintenance_is_constant_per_link(benchmark):
    rows = []
    for versions in (4, 16, 64):
        db, vm, g_mod, g_des = _cad(versions)
        ops_before = vm.count_operations
        start = time.perf_counter()
        extra = vm.derive(vm.registry.default_version(g_des)).new_version
        derive_time = time.perf_counter() - start
        rows.append({
            "existing_versions": versions,
            "derive_ms": derive_time * 1e3,
            "count_ops_for_derive": vm.count_operations - ops_before,
        })
    # Shape: one derivation performs a constant number of count updates
    # regardless of how many versions already exist.
    assert len({r["count_ops_for_derive"] for r in rows}) == 1
    print_table(rows, title="B10a — ref-count operations per derivation vs "
                            "existing version population")

    db, vm, g_mod, g_des = _cad(8)

    def kernel():
        return vm.derive(vm.registry.default_version(g_des)).new_version

    benchmark.pedantic(kernel, rounds=5, iterations=1)


def test_b10_lookup_payoff(benchmark):
    rows = []
    for versions in (8, 32, 128):
        db, vm, g_mod, g_des = _cad(versions)
        start = time.perf_counter()
        for _ in range(200):
            fast = vm.generic_parents(g_mod)
        counted = (time.perf_counter() - start) / 200
        start = time.perf_counter()
        for _ in range(10):
            scanned = _generic_parents_by_scan(db, vm, g_mod)
        scan = (time.perf_counter() - start) / 10
        assert set(fast) == set(scanned) == {g_des}
        rows.append({
            "version_instances": versions,
            "refcount_us": counted * 1e6,
            "scan_us": scan * 1e6,
            "speedup": scan / max(counted, 1e-9),
        })
    # Shape: scanning grows with version population; counts do not.
    assert rows[-1]["scan_us"] > rows[0]["scan_us"] * 4
    assert rows[-1]["speedup"] > rows[0]["speedup"]
    print_table(rows, title="B10b — generic-parents via ref-counts vs "
                            "version-instance scan")

    db, vm, g_mod, g_des = _cad(32)
    benchmark(lambda: vm.generic_parents(g_mod))
