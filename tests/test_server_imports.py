"""The server process imports only the code it runs.

``repro.analysis``, ``repro.mvcc``, ``repro.workloads`` and
``repro.server`` export lazily, so a process that makes the imports of
the benchmark's server launcher (``perfspine/serve.py``, read here) and
builds its server loads exactly the modules pinned below: no analysis
plane but lockdep, no replica, drill, client or workload generator.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Every ``repro`` module such a process holds.
SERVED_MODULES = frozenset({
    "repro", "repro.errors",
    "repro.analysis", "repro.analysis.findings", "repro.analysis.lockdep",
    "repro.authorization", "repro.authorization.atoms",
    "repro.authorization.combine", "repro.authorization.engine",
    "repro.core", "repro.core.compose", "repro.core.database",
    "repro.core.deletion", "repro.core.identity", "repro.core.instance",
    "repro.core.legacy", "repro.core.operations", "repro.core.references",
    "repro.core.topology",
    "repro.faults", "repro.faults.registry", "repro.graph",
    "repro.locking", "repro.locking.claims", "repro.locking.deadlock",
    "repro.locking.modes", "repro.locking.protocol", "repro.locking.table",
    "repro.mvcc", "repro.mvcc.manager",
    "repro.schema", "repro.schema.attribute", "repro.schema.classdef",
    "repro.schema.lattice",
    "repro.server", "repro.server.dispatch", "repro.server.protocol",
    "repro.server.server",
    "repro.sim", "repro.sim.eventsim",
    "repro.storage", "repro.storage.buffer", "repro.storage.clustering",
    "repro.storage.durable", "repro.storage.journal", "repro.storage.page",
    "repro.storage.segment", "repro.storage.serializer",
    "repro.storage.stats", "repro.storage.store",
    "repro.txn", "repro.txn.checkout", "repro.txn.manager",
    "repro.txn.transaction",
    "repro.workloads", "repro.workloads.txmix",
})

#: Builds the launcher's server once its imports are made.
BUILD = """
import json, sys, tempfile
with tempfile.TemporaryDirectory() as data_dir:
    database = DurableDatabase(data_dir, sync_policy="group")
    memory_fixture(database, roots=0)
    auth = AuthorizationEngine(database)
    auth.grant("designer", "sW", on_class="MixRoot")
    server = ReproServer(database, auth=auth)
    database.close()
print(json.dumps(sorted(name for name in sys.modules
                        if name.split(".")[0] == "repro")))
"""


def _launcher_imports():
    """The ``from repro... import`` statements of serve.py's server."""
    tree = ast.parse((ROOT / "perfspine" / "serve.py").read_text())
    (serve,) = [node for node in tree.body
                if isinstance(node, ast.AsyncFunctionDef)
                and node.name == "_serve"]
    return [ast.unparse(node) for node in ast.walk(serve)
            if isinstance(node, ast.ImportFrom)
            and node.module.split(".")[0] == "repro"]


def test_the_served_process_loads_only_what_it_runs():
    imports = _launcher_imports()
    assert any("ReproServer" in line for line in imports)
    source = "\n".join(imports) + BUILD
    result = subprocess.run(
        [sys.executable, "-c", source], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, cwd=ROOT,
        check=True,
    )
    loaded = frozenset(json.loads(result.stdout.splitlines()[-1]))
    assert loaded == SERVED_MODULES, (
        f"newly loaded: {sorted(loaded - SERVED_MODULES)}; "
        f"no longer loaded: {sorted(SERVED_MODULES - loaded)}"
    )


def test_lazy_exports_resolve():
    import repro.analysis
    import repro.mvcc
    import repro.server
    import repro.workloads

    for package in (repro.analysis, repro.mvcc, repro.server,
                    repro.workloads):
        assert set(package._LAZY) == set(package.__all__)
        for name in package.__all__:
            assert getattr(package, name) is not None
