"""AST discipline linter over ``src/repro`` itself (concurrency plane, part 3).

PR 3's durability pipeline rests on conventions no runtime check can
see: every mutating :class:`repro.core.database.Database` method must
run inside the ``_operation()`` bracket (so ``on_op_end`` seals exactly
one journal batch per operation), the transaction manager must wrap data
operations in ``txn_context`` (so redo records land in the right commit
batch), lock-table internals must stay inside ``locking/``, and journal
hooks must only be attached or detached by the storage layer.  A
violation compiles, imports, and passes most tests — it just corrupts
batching semantics under exactly the crash/concurrency conditions the
tests for *other* features never exercise.  So the conventions are
enforced statically, over the package's own AST, in CI.

Rule ids (all carry ``file:line`` anchors in ``location`` and
machine-readable ``file``/``line`` keys in ``detail``):

``CODE-BARE-EXCEPT``
    (error) a bare ``except:`` — swallows ``KeyboardInterrupt`` /
    ``SystemExit`` and hides programming errors; name the exception.
``CODE-OP-BRACKET``
    (error) in ``core/database.py``, a public ``Database`` method calls
    a mutation primitive (:data:`MUTATION_PRIMITIVES`, or
    ``_deletion.delete``) outside ``with self._operation():`` — the
    journal would never see the operation-end seal, and a failure could
    not roll the mutation back.
``CODE-EDIT-FUNNEL``
    (error) in ``core/`` (but ``core/instance.py``, which defines the
    primitives), a raw edit — a :data:`RAW_EDIT_CALLS` call such as
    ``Instance.set``, an in-place change of ``_objects`` or
    ``reverse_references``, or a ``.deleted`` assignment — outside the
    ``Database`` edit funnels (:data:`EDIT_FUNNELS`).  Only the funnels
    record inverses on the undo stream; any other edit survives a failed
    operation and a transaction abort.
``CODE-TXN-CONTEXT``
    (error) in ``txn/manager.py``, a public ``TransactionManager``
    method calls a mutating database op (``set_value``, ``insert_into``,
    ``remove_from``, ``make``, ``delete``) outside
    ``with self._db.txn_context(...):`` — redo records would bypass the
    transaction's commit batch.
``CODE-LOCK-STATE``
    (error) outside ``locking/``, code touches private
    :class:`~repro.locking.table.LockTable` state (``_granted`` /
    ``_waiting``) or calls its internal ``_grant`` / ``_promote`` —
    bypassing compatibility checks, FIFO fairness, stats, and observers.
``CODE-JOURNAL-FORMAT``
    (error) outside ``storage/``, code imports an underscore name (the
    record kinds, the framing structs, the header and snapshot readers)
    or a header constant (:data:`JOURNAL_FORMAT_NAMES`) from
    ``repro.storage.journal``.  That module is the one owner of the
    on-disk format; everything else reads it through
    ``iter_frames`` / ``BatchReplayer`` / ``install_batch``, so a format
    change is made once.
``CODE-WIRE-FORMAT``
    (error) outside ``server/protocol.py``, code calls ``readexactly``,
    touches another object's ``_buffer`` (``reader._buffer``, or
    ``getattr(reader, "_buffer")``), or imports an underscore name from
    ``repro.server.protocol``.  That module owns the framing (the value
    codec is :mod:`repro.storage.serializer`'s); every endpoint reads
    the wire through ``FrameBuffer``, so a
    framing change is made once and nobody probes a stream's private
    state.  Outside the two wire endpoints (:data:`WIRE_ENDPOINTS`:
    ``server/server.py`` and ``server/client.py``) it also flags the
    calls that listen, connect or read frames off a stream
    (``create_server``, ``start_server``, ``create_connection``,
    ``open_connection``, ``read_frames``): every frontend serves through
    ``WireServer``'s session loop and every upstream reads through
    ``AsyncClient``, both on ``WireProtocol``, so a third listener,
    connection or frame reader cannot come back.
``CODE-JOURNAL-HOOKS``
    (error) outside ``storage/``, code attaches, detaches, or replaces
    the journal hook lists (``on_persist``, ``on_op_end``,
    ``on_txn_commit``, ``on_txn_abort``).  Reading/iterating them is
    fine; only the storage layer may rewire durability.  The isolation-
    history recorder (``analysis/history.py``) is the one sanctioned
    non-storage subscriber: it may ``append``/``remove`` (never replace)
    — and ``CODE-HOOK-LEAK`` below holds it to the detach discipline.
``CODE-HOOK-LEAK``
    (error) a module attaches an observer to ``Database.on_op_end`` /
    ``on_txn_commit`` / ``on_txn_abort`` or ``LockTable.observers``
    (via ``.append``/``.extend``/``.insert``) but never ``.remove``\\ s
    from the same hook inside a ``close()``/``detach()``/``stop()``/
    ``__exit__()`` method or a ``finally`` block.  A leaked observer
    outlives its owner: every later operation still calls it, keeping
    dead recorders alive and double-counting their statistics.
    ``storage/`` is exempt — the durability wiring is a permanent
    subscription owned by the database itself.

The linter is deliberately syntactic: it matches the discipline as
written (``self._operation()``, ``self._db.txn_context(...)``), not a
dataflow analysis.  Aliasing a primitive through a local variable evades
it — and fails review, which is the second line of defense.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Optional, Union

from .findings import Report, Severity

__all__ = [
    "DB_MUTATORS",
    "DETACH_CONTEXTS",
    "EDIT_FUNNELS",
    "HOOK_ATTACH_MODULES",
    "JOURNAL_FORMAT_NAMES",
    "JOURNAL_HOOKS",
    "LEAK_HOOKS",
    "LOCK_PRIVATE_ATTRS",
    "LOCK_PRIVATE_CALLS",
    "MUTATION_PRIMITIVES",
    "RAW_EDIT_CALLS",
    "RULES",
    "WIRE_ENDPOINTS",
    "WIRE_MODULE",
    "lint_package",
    "lint_paths",
    "lint_source",
]

#: Database-internal mutation primitives that must be bracketed.
MUTATION_PRIMITIVES = frozenset({
    "_make", "_assign", "_attach_child", "_add_member", "_link_component",
    "_unlink_component", "_put", "_replay",
})

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

#: Mutating Database entry points the transaction manager must wrap.
DB_MUTATORS = frozenset({
    "set_value", "insert_into", "remove_from", "make", "delete",
})

#: Private LockTable state nobody outside locking/ may read or write.
LOCK_PRIVATE_ATTRS = frozenset(
    {"_granted", "_held", "_waiting", "_covered"}
)

#: Private LockTable methods nobody outside locking/ may call.
LOCK_PRIVATE_CALLS = frozenset({"_grant", "_promote"})

#: Public journal-header constants nobody outside storage/ may import
#: (underscore names are refused as well).
JOURNAL_FORMAT_NAMES = frozenset({"JOURNAL_HEADER_SIZE", "JOURNAL_MAGIC"})

#: The one module that may read the wire below ``FrameBuffer``.
WIRE_MODULE = "server/protocol.py"

#: The only modules that may listen, connect or read frames off a
#: stream: the server's session loop and the clients.
WIRE_ENDPOINTS = frozenset({"server/server.py", "server/client.py"})

#: Calls that open a listener, a connection or a frame reader.
_WIRE_ENDPOINT_CALLS = frozenset({
    "create_server", "start_server", "create_connection",
    "open_connection", "read_frames",
})

#: Hook lists only the storage layer may attach/detach/replace.
JOURNAL_HOOKS = frozenset({
    "on_persist", "on_op_end", "on_txn_commit", "on_txn_abort",
})

#: Mutating list-method names on a hook attribute.
_LIST_MUTATORS = frozenset({
    "append", "remove", "extend", "insert", "clear", "pop",
})

#: Non-storage modules sanctioned to ``append``/``remove`` (never
#: replace) journal hook lists: the passive isolation-history recorder
#: and the MVCC snapshot manager (which stamps version chains at the
#: same commit/op-end boundaries the journal seals batches at).
HOOK_ATTACH_MODULES = frozenset({"analysis/history.py", "mvcc/manager.py"})

#: Observer hooks whose attachments must be paired with a detach
#: (the CODE-HOOK-LEAK rule).
LEAK_HOOKS = frozenset({
    "on_op_end", "on_txn_commit", "on_txn_abort", "observers",
})

#: Method names that count as a sanctioned detach site.
DETACH_CONTEXTS = frozenset({"close", "detach", "stop", "__exit__"})

#: rule id -> one-line description (the linter's own documentation).
RULES = {
    "CODE-SYNTAX": "file does not parse",
    "CODE-BARE-EXCEPT": "bare 'except:' swallows SystemExit and bugs alike",
    "CODE-OP-BRACKET": "public Database method mutates outside "
                       "'with self._operation():'",
    "CODE-EDIT-FUNNEL": "raw instance/object-table edit in core/ outside "
                        "the Database edit funnels",
    "CODE-TXN-CONTEXT": "public TransactionManager method mutates outside "
                        "'with self._db.txn_context(...):'",
    "CODE-LOCK-STATE": "private LockTable state touched outside locking/",
    "CODE-JOURNAL-FORMAT": "journal format internals imported outside "
                           "storage/",
    "CODE-WIRE-FORMAT": "wire framing internals used outside "
                        "server/protocol.py, or a listener or frame "
                        "reader outside server/server.py and "
                        "server/client.py",
    "CODE-JOURNAL-HOOKS": "journal hook lists rewired outside storage/",
    "CODE-HOOK-LEAK": "observer hook attached without a detach in a "
                      "close()/detach()/stop()/__exit__() or finally path",
}


def _is_self_attr(node: ast.expr, attr: str) -> bool:
    """True for the expression ``self.<attr>``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _self_call_name(node: ast.Call) -> Optional[str]:
    """``self.<name>(...)`` -> name, else None."""
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    ):
        return func.attr
    return None


def _self_chain_call(node: ast.Call, middle: str) -> Optional[str]:
    """``self.<middle>.<name>(...)`` -> name, else None."""
    func = node.func
    if isinstance(func, ast.Attribute) and _is_self_attr(func.value, middle):
        return func.attr
    return None


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


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


def _is_operation_with(node: ast.With) -> bool:
    """True for ``with self._operation():`` (possibly among other items)."""
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call) and _self_call_name(expr) == "_operation":
            return True
    return False


def _is_txn_context_with(node: ast.With) -> bool:
    """True for ``with self._db.txn_context(...):``."""
    for item in node.items:
        expr = item.context_expr
        if (
            isinstance(expr, ast.Call)
            and _self_chain_call(expr, "_db") == "txn_context"
        ):
            return True
    return False


class _FileLinter(ast.NodeVisitor):
    """One file's traversal state."""

    def __init__(self, rel_path: str, report: Report) -> None:
        self.rel_path = rel_path
        self.report = report
        self.in_locking = rel_path.startswith("locking/")
        self.in_storage = rel_path.startswith("storage/")
        self.is_database_module = rel_path == "core/database.py"
        self.checks_edits = rel_path.startswith("core/") and rel_path != "core/instance.py"
        self.is_txn_manager_module = rel_path == "txn/manager.py"
        self.is_wire_module = rel_path == WIRE_MODULE
        self.is_wire_endpoint = self.is_wire_module or rel_path in WIRE_ENDPOINTS
        self._class_stack: list[str] = []
        self._method: Optional[str] = None
        self._op_bracket_depth = 0
        self._txn_context_depth = 0
        #: Nesting inside a sanctioned detach context (a function named
        #: in DETACH_CONTEXTS, or a ``finally`` block).
        self._detach_depth = 0
        #: hook attr -> (line, mutator) of the first attachment.
        self._hook_attaches: dict[str, tuple[int, str]] = {}
        #: hook attrs with a sanctioned ``.remove`` somewhere.
        self._hook_detaches: set[str] = set()

    # -- helpers -----------------------------------------------------------

    def _add(self, rule: str, line: int, message: str, **detail: object) -> None:
        self.report.add(
            Severity.ERROR,
            rule,
            f"{self.rel_path}:{line}",
            message,
            file=self.rel_path,
            line=line,
            **detail,
        )

    @property
    def _in_public_database_method(self) -> bool:
        return (
            self.is_database_module
            and bool(self._class_stack)
            and self._class_stack[-1] == "Database"
            and self._method is not None
            and not self._method.startswith("_")
        )

    @property
    def _in_public_manager_method(self) -> bool:
        return (
            self.is_txn_manager_module
            and bool(self._class_stack)
            and self._class_stack[-1] == "TransactionManager"
            and self._method is not None
            and not self._method.startswith("_")
        )

    # -- structure ---------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(
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

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_With(self, node: ast.With) -> None:
        is_op = _is_operation_with(node)
        is_txn = _is_txn_context_with(node)
        self._op_bracket_depth += is_op
        self._txn_context_depth += is_txn
        self.generic_visit(node)
        self._op_bracket_depth -= is_op
        self._txn_context_depth -= is_txn

    def visit_Try(self, node: ast.Try) -> None:
        # A ``finally`` block is a sanctioned detach context.
        for child in node.body:
            self.visit(child)
        for handler in node.handlers:
            self.visit(handler)
        for child in node.orelse:
            self.visit(child)
        self._detach_depth += 1
        for child in node.finalbody:
            self.visit(child)
        self._detach_depth -= 1

    # -- rules -------------------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._add(
                "CODE-BARE-EXCEPT",
                node.lineno,
                "bare 'except:' — name the exception "
                "(it also catches SystemExit and KeyboardInterrupt)",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._check_op_bracket(node)
        self._check_raw_edit(node)
        self._check_txn_context(node)
        self._check_lock_private_call(node)
        self._check_hook_mutation_call(node)
        self._check_hook_leak(node)
        self._check_wire_read(node)
        self.generic_visit(node)

    def _check_op_bracket(self, node: ast.Call) -> None:
        if not self._in_public_database_method or self._op_bracket_depth:
            return
        name = _self_call_name(node)
        primitive: Optional[str] = None
        if name in MUTATION_PRIMITIVES:
            primitive = f"self.{name}"
        elif _self_chain_call(node, "_deletion") == "delete":
            primitive = "self._deletion.delete"
        if primitive is not None:
            self._add(
                "CODE-OP-BRACKET",
                node.lineno,
                f"Database.{self._method} calls {primitive}() outside "
                f"'with self._operation():' — the journal never sees the "
                f"operation-end seal for this mutation",
                method=self._method,
                call=primitive,
            )

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
            self._add(
                "CODE-EDIT-FUNNEL",
                node.lineno,
                f"raw edit {edit} outside the Database edit funnels — the "
                f"undo stream never sees it, so neither a failed operation "
                f"nor an abort can undo it",
                edit=edit,
            )

    def _check_txn_context(self, node: ast.Call) -> None:
        if not self._in_public_manager_method or self._txn_context_depth:
            return
        name = _self_chain_call(node, "_db")
        if name in DB_MUTATORS:
            self._add(
                "CODE-TXN-CONTEXT",
                node.lineno,
                f"TransactionManager.{self._method} calls "
                f"self._db.{name}() outside "
                f"'with self._db.txn_context(...):' — its redo records "
                f"bypass the transaction's commit batch",
                method=self._method,
                call=f"self._db.{name}",
            )

    def _check_lock_private_call(self, node: ast.Call) -> None:
        if self.in_locking:
            return
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in LOCK_PRIVATE_CALLS
        ):
            self._add(
                "CODE-LOCK-STATE",
                node.lineno,
                f"call of private LockTable method {func.attr}() outside "
                f"locking/ — grants must go through acquire()/release_all()",
                call=func.attr,
            )

    def _check_hook_mutation_call(self, node: ast.Call) -> None:
        if self.in_storage:
            return
        func = node.func
        if not (
            isinstance(func, ast.Attribute) and func.attr in _LIST_MUTATORS
        ):
            return
        target = func.value
        if isinstance(target, ast.Attribute) and target.attr in JOURNAL_HOOKS:
            # The isolation-history recorder subscribes/unsubscribes —
            # but only with the paired append/remove the HOOK-LEAK rule
            # verifies; wholesale rewiring stays forbidden even there.
            if (
                self.rel_path in HOOK_ATTACH_MODULES
                and func.attr in ("append", "remove")
            ):
                return
            self._add(
                "CODE-JOURNAL-HOOKS",
                node.lineno,
                f"journal hook list '{target.attr}' mutated via "
                f".{func.attr}() outside storage/ — only the journal may "
                f"attach or detach durability hooks",
                hook=target.attr,
                mutator=func.attr,
            )

    def _check_hook_leak(self, node: ast.Call) -> None:
        # The storage layer owns the durability wiring for the life of
        # the database — permanent subscription is its job, not a leak.
        if self.in_storage:
            return
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        target = func.value
        if not (
            isinstance(target, ast.Attribute) and target.attr in LEAK_HOOKS
        ):
            return
        if func.attr in ("append", "extend", "insert"):
            self._hook_attaches.setdefault(
                target.attr, (node.lineno, func.attr)
            )
        elif func.attr == "remove" and self._detach_depth:
            self._hook_detaches.add(target.attr)

    def _add_wire(self, line: int, what: str) -> None:
        self._add(
            "CODE-WIRE-FORMAT",
            line,
            f"{what} outside {WIRE_MODULE} — read the wire through "
            f"FrameBuffer / WireProtocol",
            use=what,
        )

    def _check_wire_read(self, node: ast.Call) -> None:
        func = node.func
        name = getattr(func, "attr", None) or getattr(func, "id", None)
        if name in _WIRE_ENDPOINT_CALLS and not self.is_wire_endpoint:
            self._add(
                "CODE-WIRE-FORMAT",
                node.lineno,
                f"{name}() outside {' and '.join(sorted(WIRE_ENDPOINTS))}"
                f" — serve through WireServer, read a peer through "
                f"AsyncClient",
                use=f"{name}()",
            )
        if self.is_wire_module:
            return
        if isinstance(func, ast.Attribute) and func.attr == "readexactly":
            self._add_wire(node.lineno, "readexactly()")
        elif (
            isinstance(func, ast.Name)
            and func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "_buffer"
            and not _is_self(node.args[0])
        ):
            self._add_wire(node.lineno, "getattr(..., '_buffer')")

    def finish(self) -> None:
        """Module-level checks that need the whole file seen first."""
        for attr, (line, mutator) in sorted(self._hook_attaches.items()):
            if attr in self._hook_detaches:
                continue
            self._add(
                "CODE-HOOK-LEAK",
                line,
                f"observer hook '{attr}' attached via .{mutator}() but "
                f"never .remove()d inside a close()/detach()/stop()/"
                f"__exit__() method or finally block — the observer "
                f"outlives its owner and keeps firing on a dead object",
                hook=attr,
                mutator=mutator,
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = _imported_module(node, self.rel_path)
        if module == "server.protocol" and not self.is_wire_module:
            for alias in node.names:
                if alias.name.startswith("_"):
                    self._add_wire(
                        node.lineno,
                        f"'{alias.name}' imported from repro.server.protocol",
                    )
        if module == "storage.journal" and not self.in_storage:
            for alias in node.names:
                if (
                    alias.name.startswith("_")
                    or alias.name in JOURNAL_FORMAT_NAMES
                ):
                    self._add(
                        "CODE-JOURNAL-FORMAT",
                        node.lineno,
                        f"'{alias.name}' imported from repro.storage.journal "
                        f"outside storage/ — read the journal through "
                        f"iter_frames/BatchReplayer/install_batch",
                        name=alias.name,
                    )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not self.in_locking and node.attr in LOCK_PRIVATE_ATTRS:
            self._add(
                "CODE-LOCK-STATE",
                node.lineno,
                f"private LockTable state '{node.attr}' touched outside "
                f"locking/ — use holders()/waiters()/modes_held()",
                attribute=node.attr,
            )
        if (
            node.attr == "_buffer"
            and not self.is_wire_module
            and not _is_self(node.value)
        ):
            self._add_wire(node.lineno, "another object's ._buffer")
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_hook_assignment(node.targets, node.lineno)
        for target in node.targets:
            self._check_raw_edit(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_hook_assignment([node.target], node.lineno, augmented=True)
        self._check_raw_edit(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_raw_edit(target)
        self.generic_visit(node)

    def _check_hook_assignment(
        self,
        targets: Iterable[ast.expr],
        line: int,
        augmented: bool = False,
    ) -> None:
        if self.in_storage:
            return
        for target in targets:
            if not (
                isinstance(target, ast.Attribute)
                and target.attr in JOURNAL_HOOKS
            ):
                continue
            # The Database constructor *defines* the hook lists; that
            # single site is the one legitimate assignment outside
            # storage/.
            if self.is_database_module and not augmented:
                continue
            self._add(
                "CODE-JOURNAL-HOOKS",
                line,
                f"journal hook list '{target.attr}' "
                f"{'extended in place' if augmented else 'replaced'} "
                f"outside storage/ — only the journal may rewire "
                f"durability hooks",
                hook=target.attr,
            )


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
        report.add(
            Severity.ERROR,
            "CODE-SYNTAX",
            f"{rel_path}:{error.lineno or 0}",
            f"file does not parse: {error.msg}",
            file=rel_path,
            line=error.lineno or 0,
        )
        report.checked += 1
        return report
    linter = _FileLinter(rel_path, report)
    linter.visit(tree)
    linter.finish()
    report.checked += 1
    return report


def lint_paths(
    paths: Iterable[Path], root: Path, report: Optional[Report] = None
) -> Report:
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
    paths = [
        path for path in root.rglob("*.py")
        if "__pycache__" not in path.parts
    ]
    return lint_paths(paths, root)
