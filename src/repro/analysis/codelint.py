"""AST discipline linter over ``src/repro`` itself (concurrency plane, part 3).

The durability pipeline and the locking protocol rest on conventions no
runtime check sees: every mutating ``Database`` method runs inside
``self._operation()`` (one journal batch and one rollback scope per
operation), the transaction manager wraps data operations in
``self._db.txn_context(...)`` (redo records land in the commit batch),
every grant goes through the lock table's compatibility matrix, and only
the module that owns a format (journal records, wire framing) touches
its internals.  A violation passes most tests and corrupts batching or
grants only under crashes and contention, so CI checks the package's own
AST.

Six rules are rows of two tables that one visitor walks: an
:data:`OWNERSHIP` row says "these names belong to these modules" (a row
may sanction a non-owner for one form of use: the history recorder and
the MVCC manager may ``append``/``remove`` journal hooks, never replace
them), a :data:`BRACKETS` row "these calls must sit inside this
``with``".  Four rules stay code: ``CODE-EDIT-FUNNEL`` (in ``core/``, a
raw edit outside the ``Database`` edit funnels, which alone record
inverses on the undo stream), ``CODE-HOOK-LEAK`` (an observer attached
but never removed in a :data:`DETACH_CONTEXTS` method or ``finally``
block), ``CODE-BARE-EXCEPT`` and ``CODE-SYNTAX``.  :data:`RULES` gives
each id one line, docs/ANALYSIS.md the full table.  Every finding has a
``file:line`` location and ``file``/``line`` detail keys.

The linter is deliberately syntactic: aliasing a primitive through a
local variable evades it — and fails review, the second defense.
"""

from __future__ import annotations

import ast
from itertools import product
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Union

from .findings import Report, Severity

__all__ = [
    "BRACKETS", "DETACH_CONTEXTS", "EDIT_FUNNELS", "LEAK_HOOKS", "OWNERSHIP",
    "RAW_EDIT_CALLS", "RULES", "lint_package", "lint_paths", "lint_source",
]


class Owned(NamedTuple):
    """One "these names belong to these modules" rule row."""

    rule: str
    #: Package-relative path prefixes of the modules that own the names.
    owners: tuple[str, ...]
    #: Where a name is matched: ``attribute`` (``x.name``), ``method
    #: call`` (``x.name()``), ``call`` (``name()`` or ``x.name()``),
    #: ``getattr`` (``getattr(x, "name")``), ``from <module> import``
    #: (dotted relative to ``repro``), ``hook mutator`` (``x.name.pop()``
    #: or another list mutator) or ``hook assignment`` (``x.name = …``).
    site: str
    #: The owned names; :data:`ANY_PRIVATE` admits every ``_name``.
    names: frozenset[str]
    #: The finding message, formatted with ``name``, ``use`` and ``form``.
    message: str
    #: Detail keys: the first carries ``use``, a second ``form``.
    detail: tuple[str, ...]
    #: What was used, formatted with ``name``.
    use: str = "{name}"
    #: ``(module, form)`` pairs a non-owner may use; the form is a hook
    #: mutator's method, or ``replaced`` / ``extended in place``.
    sanctioned: frozenset[tuple[str, str]] = frozenset()
    #: Whether uses on ``self`` (an object's own state) are exempt.
    self_exempt: bool = False


class Bracket(NamedTuple):
    """One "these calls must sit inside this ``with``" rule row."""

    rule: str
    #: The module and class whose public methods are checked.
    module: str
    cls: str
    #: The bracket call as written in the ``with`` statement.
    bracket: str
    #: The guarded calls, as dotted ``self.…`` names.
    guarded: frozenset[str]
    #: What goes wrong when a guarded call runs outside the bracket.
    consequence: str


#: In an :class:`Owned` row's names: every underscore name.
ANY_PRIVATE = "_*"

#: Mutating list-method names (on a hook list or an edited container).
_LIST_MUTATORS = frozenset({"append", "remove", "extend", "insert", "clear", "pop"})

#: Hook lists only the storage layer may rewire.
_JOURNAL_HOOKS = frozenset({"on_persist", "on_op_end", "on_txn_commit", "on_txn_abort"})

_WIRE = "{use} outside server/protocol.py — read the wire through FrameBuffer / WireProtocol"

OWNERSHIP = (
    Owned("CODE-LOCK-STATE", ("locking/",), "attribute",
          frozenset({"_granted", "_held", "_waiting", "_covered"}),
          "private LockTable state '{name}' touched outside locking/ — "
          "use holders()/waiters()/modes_held()", ("attribute",)),
    Owned("CODE-LOCK-STATE", ("locking/",), "method call",
          frozenset({"_grant", "_promote"}),
          "call of private LockTable method {name}() outside locking/ — "
          "grants must go through acquire()/release_all()", ("call",)),
    # Only the session loop and the clients listen, connect or read
    # frames off a stream, both on WireProtocol.
    Owned("CODE-WIRE-FORMAT", ("server/protocol.py", "server/server.py", "server/client.py"),
          "call", frozenset({"create_server", "start_server", "create_connection",
                             "open_connection", "read_frames"}),
          "{use} outside server/client.py and server/server.py — serve "
          "through WireServer, read a peer through AsyncClient", ("use",), use="{name}()"),
    Owned("CODE-WIRE-FORMAT", ("server/protocol.py",), "method call",
          frozenset({"readexactly"}), _WIRE, ("use",), use="{name}()"),
    Owned("CODE-WIRE-FORMAT", ("server/protocol.py",), "attribute",
          frozenset({"_buffer"}), _WIRE, ("use",),
          use="another object's .{name}", self_exempt=True),
    Owned("CODE-WIRE-FORMAT", ("server/protocol.py",), "getattr",
          frozenset({"_buffer"}), _WIRE, ("use",),
          use="getattr(..., '{name}')", self_exempt=True),
    Owned("CODE-WIRE-FORMAT", ("server/protocol.py",),
          "from server.protocol import", frozenset({ANY_PRIVATE}), _WIRE,
          ("use",), use="'{name}' imported from repro.server.protocol"),
    Owned("CODE-JOURNAL-FORMAT", ("storage/",), "from storage.journal import",
          frozenset({ANY_PRIVATE, "JOURNAL_HEADER_SIZE", "JOURNAL_MAGIC"}),
          "'{name}' imported from repro.storage.journal outside storage/ — "
          "read the journal through iter_frames/BatchReplayer/install_batch", ("name",)),
    Owned("CODE-JOURNAL-HOOKS", ("storage/",), "hook mutator", _JOURNAL_HOOKS,
          "journal hook list '{name}' mutated via .{form}() outside storage/ — "
          "only the journal may attach or detach durability hooks", ("hook", "mutator"),
          sanctioned=frozenset(product(("analysis/history.py", "mvcc/manager.py"),
                                       ("append", "remove")))),
    Owned("CODE-JOURNAL-HOOKS", ("storage/",), "hook assignment", _JOURNAL_HOOKS,
          "journal hook list '{name}' {form} outside storage/ — only the "
          "journal may rewire durability hooks", ("hook",),
          sanctioned=frozenset({("core/database.py", "replaced")})),
)

BRACKETS = (
    Bracket("CODE-OP-BRACKET", "core/database.py", "Database",
            "self._operation()", frozenset({
                "self._make", "self._assign", "self._attach_child",
                "self._add_member", "self._link_component",
                "self._unlink_component", "self._put", "self._replay",
                "self._deletion.delete",
            }),
            "the journal never sees the operation-end seal for this mutation"),
    Bracket("CODE-TXN-CONTEXT", "txn/manager.py", "TransactionManager",
            "self._db.txn_context(...)", frozenset({
                "self._db.set_value", "self._db.insert_into",
                "self._db.remove_from", "self._db.make", "self._db.delete",
            }),
            "its redo records bypass the transaction's commit batch"),
)

#: The ``Database`` methods that may edit instances and the object
#: table directly: each records its inverse on the undo stream.
EDIT_FUNNELS = frozenset({
    "_put", "_add_reference", "_remove_reference", "_restore_reference",
    "_install", "discard",
})

#: Instance primitives that edit state without recording an inverse.
RAW_EDIT_CALLS = frozenset({
    "set", "add_reverse_reference", "remove_reverse_reference",
    "replace_reverse_reference", "drop_value",
})

#: Containers whose in-place change is a raw edit.
_EDITED_CONTAINERS = frozenset({"_objects", "reverse_references"})

#: Observer hooks whose attachments must be paired with a detach.
LEAK_HOOKS = frozenset({"on_op_end", "on_txn_commit", "on_txn_abort", "observers"})

#: Method names that count as a sanctioned detach site.
DETACH_CONTEXTS = frozenset({"close", "detach", "stop", "__exit__"})

#: rule id -> one-line description (the linter's own documentation).
RULES = {
    "CODE-SYNTAX": "file does not parse",
    "CODE-BARE-EXCEPT": "bare 'except:' swallows SystemExit and bugs alike",
    "CODE-OP-BRACKET": "public Database method mutates outside 'with self._operation():'",
    "CODE-EDIT-FUNNEL": "raw instance/object-table edit in core/ outside "
                        "the Database edit funnels",
    "CODE-TXN-CONTEXT": "public TransactionManager method mutates outside "
                        "'with self._db.txn_context(...):'",
    "CODE-LOCK-STATE": "private LockTable state touched outside locking/",
    "CODE-JOURNAL-FORMAT": "journal format internals imported outside storage/",
    "CODE-WIRE-FORMAT": "wire framing internals used outside server/protocol.py, or a "
                        "listener or frame reader outside server/server.py and server/client.py",
    "CODE-JOURNAL-HOOKS": "journal hook lists rewired outside storage/",
    "CODE-HOOK-LEAK": "observer hook attached without a detach in a "
                      "close()/detach()/stop()/__exit__() or finally path",
}


def _dotted(node: Optional[ast.expr]) -> Optional[str]:
    """``a.b.c`` -> ``"a.b.c"`` for attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _imported_module(node: ast.ImportFrom, rel_path: str) -> str:
    """The module an ``import from`` names, dotted and relative to the
    ``repro`` package (``"storage.journal"``); ``""`` outside it."""
    module = node.module or ""
    if node.level == 0:
        return module[len("repro."):] if module.startswith("repro.") else ""
    package = rel_path.split("/")[:-1]
    if node.level - 1 > len(package):
        return ""
    base = package[:len(package) - (node.level - 1)]
    return ".".join([*base, module] if module else base)


class _FileLinter(ast.NodeVisitor):
    """One file's traversal state."""

    def __init__(self, rel_path: str, report: Report) -> None:
        self.rel_path = rel_path
        self.report = report
        self.in_storage = rel_path.startswith("storage/")
        self.is_database_module = rel_path == "core/database.py"
        self.checks_edits = rel_path.startswith("core/") and rel_path != "core/instance.py"
        #: site -> the OWNERSHIP rows this file does not own.
        self._owned: dict[str, list[Owned]] = {}
        for row in OWNERSHIP:
            if not rel_path.startswith(row.owners):
                self._owned.setdefault(row.site, []).append(row)
        self._brackets = [row for row in BRACKETS if row.module == rel_path]
        #: rule -> nesting inside that row's bracket.
        self._bracket_depth = {row.rule: 0 for row in self._brackets}
        self._class_stack: list[str] = []
        self._method: Optional[str] = None
        #: Nesting inside a sanctioned detach context (a function named
        #: in DETACH_CONTEXTS, or a ``finally`` block).
        self._detach_depth = 0
        #: hook attr -> (line, mutator) of the first attachment.
        self._hook_attaches: dict[str, tuple[int, str]] = {}
        #: hook attrs with a sanctioned ``.remove`` somewhere.
        self._hook_detaches: set[str] = set()

    def _add(self, rule: str, line: int, message: str, **detail: object) -> None:
        self.report.add(Severity.ERROR, rule, f"{self.rel_path}:{line}",
                        message, file=self.rel_path, line=line, **detail)

    # -- the tables --------------------------------------------------------

    def _own(self, site: str, line: int, name: object,
             receiver: Optional[ast.expr] = None, form: str = "") -> None:
        """Check one use of *name* at *site* against the OWNERSHIP rows."""
        for row in self._owned.get(site, ()):
            if not (
                name in row.names
                or ANY_PRIVATE in row.names and str(name).startswith("_")
            ) or (self.rel_path, form) in row.sanctioned or (
                row.self_exempt and _dotted(receiver) == "self"
            ):
                continue
            use = row.use.format(name=name)
            self._add(row.rule, line,
                      row.message.format(name=name, use=use, form=form),
                      **dict(zip(row.detail, (use, form))))

    def _check_brackets(self, node: ast.Call) -> None:
        method = self._method
        for row in self._brackets:
            call = _dotted(node.func)
            if (
                self._class_stack[-1:] == [row.cls]
                and method is not None and not method.startswith("_")
                and not self._bracket_depth[row.rule]
                and call in row.guarded
            ):
                self._add(row.rule, node.lineno,
                          f"{row.cls}.{method} calls {call}() outside "
                          f"'with {row.bracket}:' — {row.consequence}",
                          method=method, call=call)

    # -- structure ---------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_FunctionDef(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        outer = self._method
        # Nested defs inherit the enclosing method's identity: a closure
        # inside a public method still runs under (or outside) its bracket.
        if outer is None:
            self._method = node.name
        is_detach = node.name in DETACH_CONTEXTS
        self._detach_depth += is_detach
        self.generic_visit(node)
        self._detach_depth -= is_detach
        self._method = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_With(self, node: ast.With) -> None:
        called = {
            _dotted(item.context_expr.func) for item in node.items
            if isinstance(item.context_expr, ast.Call)
        }
        entered = [
            row.rule for row in self._brackets
            if row.bracket.partition("(")[0] in called
        ]
        for rule in entered:
            self._bracket_depth[rule] += 1
        self.generic_visit(node)
        for rule in entered:
            self._bracket_depth[rule] -= 1

    def visit_Try(self, node: ast.Try) -> None:
        # A ``finally`` block is a sanctioned detach context.
        for child in (*node.body, *node.handlers, *node.orelse):
            self.visit(child)
        self._detach_depth += 1
        for child in node.finalbody:
            self.visit(child)
        self._detach_depth -= 1

    # -- sites -------------------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._add("CODE-BARE-EXCEPT", node.lineno,
                      "bare 'except:' — name the exception "
                      "(it also catches SystemExit and KeyboardInterrupt)")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._check_brackets(node)
        self._check_raw_edit(node)
        func, line = node.func, node.lineno
        if isinstance(func, ast.Attribute):
            self._own("method call", line, func.attr, func.value)
            self._own("call", line, func.attr, func.value)
            if isinstance(func.value, ast.Attribute):
                if func.attr in _LIST_MUTATORS:
                    self._own("hook mutator", line, func.value.attr,
                              form=func.attr)
                self._check_hook_leak(line, func.value.attr, func.attr)
        elif isinstance(func, ast.Name):
            self._own("call", line, func.id)
            if (
                func.id == "getattr" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                self._own("getattr", line, node.args[1].value, node.args[0])
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._own("attribute", node.lineno, node.attr, node.value)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        site = f"from {_imported_module(node, self.rel_path)} import"
        for alias in node.names:
            self._own(site, node.lineno, alias.name)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Attribute):
                self._own("hook assignment", node.lineno, target.attr,
                          form="replaced")
        for target in node.targets:
            self._check_raw_edit(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Attribute):
            self._own("hook assignment", node.lineno, node.target.attr,
                      form="extended in place")
        self._check_raw_edit(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_raw_edit(target)
        self.generic_visit(node)

    # -- the rules that stay code -----------------------------------------

    def _check_raw_edit(self, node: ast.expr) -> None:
        """CODE-EDIT-FUNNEL for one call or assignment/``del`` target."""
        if not self.checks_edits or (
            self.is_database_module
            and self._class_stack[-1:] == ["Database"]
            and self._method in EDIT_FUNNELS
        ):
            return
        edit: Optional[str] = None
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name, owner = node.func.attr, node.func.value
            if name in RAW_EDIT_CALLS:
                edit = f".{name}()"
            elif (
                name in _LIST_MUTATORS | {"setdefault", "update"}
                and isinstance(owner, ast.Attribute)
                and owner.attr in _EDITED_CONTAINERS
            ):
                edit = f".{owner.attr}.{name}()"
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr in _EDITED_CONTAINERS
        ):
            edit = f".{node.value.attr}[...]"
        elif isinstance(node, ast.Attribute) and node.attr == "deleted":
            edit = ".deleted ="
        if edit is not None:
            self._add("CODE-EDIT-FUNNEL", node.lineno,
                      f"raw edit {edit} outside the Database edit funnels — the undo stream "
                      f"never sees it, so neither a failed operation nor an abort can undo it",
                      edit=edit)

    def _check_hook_leak(self, line: int, hook: str, method: str) -> None:
        # The storage layer owns the durability wiring for the life of
        # the database — permanent subscription is its job, not a leak.
        if self.in_storage or hook not in LEAK_HOOKS:
            return
        if method in ("append", "extend", "insert"):
            self._hook_attaches.setdefault(hook, (line, method))
        elif method == "remove" and self._detach_depth:
            self._hook_detaches.add(hook)

    def finish(self) -> None:
        """Module-level checks that need the whole file seen first."""
        for hook, (line, mutator) in sorted(self._hook_attaches.items()):
            if hook not in self._hook_detaches:
                self._add("CODE-HOOK-LEAK", line,
                          f"observer hook '{hook}' attached via .{mutator}() but never "
                          f".remove()d inside a close()/detach()/stop()/__exit__() method "
                          f"or finally block — the observer outlives its owner and keeps "
                          f"firing on a dead object", hook=hook, mutator=mutator)


def lint_source(source: str, rel_path: str, report: Optional[Report] = None) -> Report:
    """Lint one module's *source* as if at *rel_path* inside ``repro``.

    *rel_path* is the path relative to the package root with ``/``
    separators (e.g. ``"core/database.py"``) — it selects which rules
    apply.  Used directly by tests to check seeded violations without
    touching the real tree.
    """
    if report is None:
        report = Report(plane="code")
    rel_path = rel_path.replace("\\", "/")
    try:
        tree = ast.parse(source, filename=rel_path)
    except SyntaxError as error:
        line = error.lineno or 0
        report.add(Severity.ERROR, "CODE-SYNTAX", f"{rel_path}:{line}",
                   f"file does not parse: {error.msg}",
                   file=rel_path, line=line)
    else:
        linter = _FileLinter(rel_path, report)
        linter.visit(tree)
        linter.finish()
    report.checked += 1
    return report


def lint_paths(paths: Iterable[Path], root: Path, report: Optional[Report] = None) -> Report:
    """Lint *paths* (absolute) with rule applicability relative to *root*."""
    if report is None:
        report = Report(plane="code")
    for path in sorted(paths):
        rel_path = path.relative_to(root).as_posix()
        lint_source(path.read_text(encoding="utf-8"), rel_path, report)
    return report


def lint_package(root: Union[str, Path, None] = None) -> Report:
    """Lint the ``repro`` package tree (default: the installed package).

    This is what ``repro-check code`` and the server's
    ``check(plane="code")`` run; CI requires it clean.
    """
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    root = Path(root)
    paths = [path for path in root.rglob("*.py") if "__pycache__" not in path.parts]
    return lint_paths(paths, root)
