"""The layer rule: top-level imports between ``repro`` modules stay acyclic.

Every module of ``src/repro`` is read as source, and each ``import`` /
``from`` statement it runs at import time -- at module level or under a
module-level ``if``/``try``, never inside a function -- is an edge to the
``repro`` module it names.  ``from pkg import sub``, where ``sub`` is a
module, is an edge to ``pkg.sub`` only; a name defined in a package's
``__init__`` is an edge to the package.  :func:`repro.graph.scc` must
then find no component spanning more than one module.  (Imports inside
functions run late and are not edges: the ``proto`` check plane and the
server import each other that way.)
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

from repro.graph import scc

SRC = Path(__file__).resolve().parent.parent / "src"


def _modules():
    """Module name -> (path, is a package), for every module in repro."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        package = parts[-1] == "__init__"
        if package:
            parts.pop()
        found[".".join(parts)] = (path, package)
    return found


def _load_time_imports(body):
    """The import statements of *body* that run when the module loads."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            yield from _load_time_imports(node.body)
            yield from _load_time_imports(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody,
                          *(handler.body for handler in node.handlers)):
                yield from _load_time_imports(block)


def _edges(name, path, package, modules):
    """The repro modules *name* imports at load time."""
    here = name if package else name.rpartition(".")[0]
    targets = set()
    for node in _load_time_imports(ast.parse(path.read_text()).body):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
            continue
        base = here
        for _ in range(node.level - 1):
            base = base.rpartition(".")[0]
        if node.level:
            base = ".".join(filter(None, (base, node.module)))
        else:
            base = node.module
        for alias in node.names:
            sub = f"{base}.{alias.name}"
            targets.add(sub if sub in modules else base)
    return sorted(target for target in targets if target in modules)


def _import_graph():
    modules = _modules()
    return {name: _edges(name, path, package, modules)
            for name, (path, package) in modules.items()}


def test_the_walk_sees_every_module_and_known_edges():
    graph = _import_graph()
    assert len(graph) > 90
    # A relative import of a module, of names from a package's
    # __init__, and an import under a module-level ``if`` are all edges.
    assert "repro.locking.table" in graph["repro.server.server"]
    assert "repro.core" in graph["repro"]
    assert "repro.faults.drill" in graph["repro.faults.drill"]


def test_load_time_imports_form_no_cycle():
    members = defaultdict(list)
    for module, component in scc(_import_graph()).items():
        members[component].append(module)
    cycles = sorted(sorted(group) for group in members.values()
                    if len(group) > 1)
    assert cycles == []
