"""The concurrency analysis pass (analysis plane 3).

Three surfaces under test:

* ``repro.analysis.lockdep`` — the runtime lock-order recorder must
  report a seeded lock-order inversion *from a run that never
  deadlocked* (the lockdep premise), with both witnesses' acquisition
  stacks, and must stay silent for compatible or consistently-ordered
  workloads.
* ``repro.analysis.locklint`` — the static template analyzer must
  predict the same hazards from declarative transaction templates
  without executing anything.
* ``repro.analysis.codelint`` — the AST discipline linter must flag
  seeded violations of the ``_operation()``/``txn_context``/lock-state/
  journal-hook conventions (with ``file:line`` anchors) and must pass
  clean over the real ``src/repro`` tree.

Plus direct unit tests for the wait-for-graph machinery in
``repro.locking.deadlock`` and the server's ``check`` op extension.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis.codelint import (
    BRACKETS,
    OWNERSHIP,
    RULES,
    lint_package,
    lint_source,
)
from repro.analysis.lockdep import (
    Acquisition,
    LockOrderGraph,
    LockOrderRecorder,
    conflicts_with_any,
)
from repro.analysis.locklint import (
    TransactionTemplate,
    analyze_templates,
    plan_template,
    resolve_target,
)
from repro.core.database import Database
from repro.errors import DeadlockError
from repro.graph import first_cycle
from repro.locking.deadlock import DeadlockDetector, choose_victim
from repro.locking.modes import LockMode
from repro.locking.protocol import CompositeLockingProtocol
from repro.locking.table import LockTable
from repro.txn.transaction import Transaction
from repro.workloads.parts import build_assembly
from repro.workloads.txmix import disjoint_writers


def _assembly_db(composites=3):
    db = Database()
    roots = [
        build_assembly(db, depth=2, fanout=2).root for _ in range(composites)
    ]
    return db, roots


# ---------------------------------------------------------------------------
# Lockdep: the runtime recorder
# ---------------------------------------------------------------------------


class TestLockOrderRecorder:
    def test_seeded_inversion_without_deadlock_is_reported(self):
        """The acceptance scenario: two transactions lock two composites
        in opposite orders but never overlap in time — zero blocks, zero
        deadlocks — and lockdep still reports the latent inversion with
        both witnesses' stacks."""
        db, roots = _assembly_db()
        table = LockTable()
        recorder = LockOrderRecorder(table)
        protocol = CompositeLockingProtocol(db, table)
        for ordering in ((roots[0], roots[1]), (roots[1], roots[0])):
            txn = Transaction()
            for root in ordering:
                # wait=False raises on any conflict: this run provably
                # never blocks, so no runtime deadlock was possible.
                for resource, mode in protocol.plan_composite(root, "write"):
                    table.acquire(txn, resource, mode, wait=False)
            table.release_all(txn)

        assert table.stats.blocks == 0
        assert table.stats.denials == 0
        report = recorder.analyze()
        inversions = report.by_rule("LOCKDEP-INVERSION")
        assert len(inversions) == 1
        finding = inversions[0]
        forward = finding.detail["witness_forward"]
        reverse = finding.detail["witness_reverse"]
        assert forward["txn"] != reverse["txn"]
        # Witness acquisition stacks point at this test, not the lock
        # machinery.
        assert forward["acquire_stack"]
        assert reverse["acquire_stack"]
        assert any(
            "test_concurrency_analysis" in frame
            for frame in forward["acquire_stack"]
        )

    def test_shared_opposite_order_is_not_an_inversion(self):
        """S/S in opposite orders cannot deadlock: no finding."""
        table = LockTable()
        recorder = LockOrderRecorder(table)
        for name, order in (("T1", ("a", "b")), ("T2", ("b", "a"))):
            for resource in order:
                table.acquire(name, resource, LockMode.S)
            table.release_all(name)
        assert recorder.analyze().clean

    def test_conflicting_opposite_order_is_reported(self):
        table = LockTable()
        recorder = LockOrderRecorder(table)
        table.acquire("T1", "a", LockMode.X)
        table.acquire("T1", "b", LockMode.X)
        table.release_all("T1")
        table.acquire("T2", "b", LockMode.X)
        table.acquire("T2", "a", LockMode.X)
        table.release_all("T2")
        report = recorder.analyze()
        assert [f.rule for f in report.errors] == ["LOCKDEP-INVERSION"]

    def test_upgrade_hazard_is_reported(self):
        """S then X on the same resource: two concurrent instances of the
        pattern deadlock on the upgrade."""
        table = LockTable()
        recorder = LockOrderRecorder(table)
        table.acquire("T1", "a", LockMode.S)
        table.acquire("T1", "a", LockMode.X)
        table.release_all("T1")
        report = recorder.analyze()
        upgrades = report.by_rule("LOCKDEP-UPGRADE")
        assert len(upgrades) == 1
        assert upgrades[0].detail["holds"] == ["S"]
        assert upgrades[0].detail["acquires"] == "X"

    def test_long_cycle_is_reported_as_warning(self):
        graph = LockOrderGraph()
        trace = 0
        for order in (("a", "b"), ("b", "c"), ("c", "a")):
            trace += 1
            graph.add_trace(
                f"T{trace}",
                [
                    Acquisition(resource=order[0], mode=LockMode.X, order=0),
                    Acquisition(resource=order[1], mode=LockMode.X, order=1),
                ],
            )
        report = graph.analyze()
        assert report.by_rule("LOCKDEP-CYCLE")
        assert not report.errors  # conservative: warning, not error

    def test_open_traces_analyzed_non_destructively(self):
        """analyze() during a transaction sees its acquisitions, and the
        final analyze() after release is identical — no double fold."""
        table = LockTable()
        recorder = LockOrderRecorder(table)
        table.acquire("T1", "a", LockMode.X)
        table.acquire("T1", "b", LockMode.X)
        table.release_all("T1")
        table.acquire("T2", "b", LockMode.X)
        table.acquire("T2", "a", LockMode.X)
        mid = recorder.analyze()  # T2 still open
        assert mid.by_rule("LOCKDEP-INVERSION")
        assert recorder.graph.traces == 1  # open trace not folded
        table.release_all("T2")
        final = recorder.analyze()
        assert len(final.by_rule("LOCKDEP-INVERSION")) == 1
        assert recorder.graph.traces == 2

    def test_detach_stops_recording(self):
        table = LockTable()
        recorder = LockOrderRecorder(table)
        recorder.detach()
        assert recorder not in table.observers
        table.acquire("T1", "a", LockMode.X)
        table.release_all("T1")
        assert recorder.transactions_recorded == 0

    def test_stack_capture_can_be_disabled(self):
        table = LockTable()
        recorder = LockOrderRecorder(table, capture_stacks=False)
        table.acquire("T1", "a", LockMode.X)
        table.acquire("T1", "b", LockMode.X)
        table.release_all("T1")
        table.acquire("T2", "b", LockMode.X)
        table.acquire("T2", "a", LockMode.X)
        table.release_all("T2")
        finding = recorder.analyze().by_rule("LOCKDEP-INVERSION")[0]
        assert finding.detail["witness_forward"]["acquire_stack"] == []

    def test_conflicts_with_any_matches_matrix(self):
        assert conflicts_with_any(LockMode.X, {LockMode.S})
        assert not conflicts_with_any(LockMode.S, {LockMode.S})
        assert not conflicts_with_any(LockMode.IS, {LockMode.IX})
        assert conflicts_with_any(LockMode.IXO, {LockMode.IS})


# ---------------------------------------------------------------------------
# Locklint: static template analysis
# ---------------------------------------------------------------------------


class TestTemplateAnalysis:
    def test_opposite_order_templates_predicted_as_inversion(self):
        db, roots = _assembly_db()
        templates = [
            TransactionTemplate("fwd", [
                ("update_composite", roots[0]),
                ("update_composite", roots[1]),
            ]),
            TransactionTemplate("rev", [
                ("update_composite", roots[1]),
                ("update_composite", roots[0]),
            ]),
        ]
        report = analyze_templates(db, templates)
        assert report.checked == 2
        inversions = report.by_rule("LOCK-INVERSION")
        assert len(inversions) == 1
        txns = {
            inversions[0].detail["witness_forward"]["txn"],
            inversions[0].detail["witness_reverse"]["txn"],
        }
        assert txns == {"fwd", "rev"}

    def test_disjoint_writers_are_clean(self):
        """The paper's headline concurrency claim survives the analyzer:
        writers of different composites have no ordering hazard."""
        db, roots = _assembly_db()
        report = analyze_templates(db, disjoint_writers(roots))
        assert report.clean
        assert report.checked == len(roots)

    def test_read_then_update_same_root_is_an_upgrade(self):
        db, roots = _assembly_db()
        template = TransactionTemplate("rw", [
            ("read_composite", roots[0]),
            ("update_composite", roots[0]),
        ])
        report = analyze_templates(db, [template])
        upgrades = report.by_rule("LOCK-UPGRADE")
        assert upgrades
        assert upgrades[0].detail["acquires"] == "X"

    def test_unknown_action_and_target_are_template_errors(self):
        db, roots = _assembly_db()
        report = analyze_templates(
            db,
            [[("frobnicate", roots[0]), ("read_composite", "NoSuchClass")]],
        )
        rules = [f.rule for f in report.findings]
        assert rules == ["LOCK-TEMPLATE", "LOCK-TEMPLATE"]
        assert report.findings[0].detail["step"] == 0
        assert report.findings[1].detail["step"] == 1

    def test_target_resolution_forms(self):
        db, roots = _assembly_db()
        root = roots[0]
        assert resolve_target(db, root) == root
        assert resolve_target(db, root.number) == root
        assert resolve_target(db, str(root)) == root
        representative = resolve_target(db, root.class_name)
        assert representative.class_name == root.class_name
        with pytest.raises(LookupError):
            resolve_target(db, "NoSuchClass")
        with pytest.raises(LookupError):
            resolve_target(db, 10**9)

    def test_plan_includes_component_class_intention_locks(self):
        """The predicted trace covers the implicit ISO/IXO-family locks
        on composite component classes, not just the root."""
        db, roots = _assembly_db()
        template = TransactionTemplate(
            "w", [("update_composite", roots[0])]
        )
        acquisitions = plan_template(db, template, "composite")
        modes = {acq.mode for acq in acquisitions}
        assert LockMode.X in modes  # the root instance
        assert modes & {LockMode.IXO, LockMode.IXOS}  # component classes

    def test_step_dict_and_json_shapes_accepted(self):
        db, roots = _assembly_db()
        report = analyze_templates(db, [
            {"name": "json-form", "steps": [
                {"action": "read_composite", "target": str(roots[0])},
            ]},
        ])
        assert report.clean
        assert report.checked == 1


# ---------------------------------------------------------------------------
# Codelint: the AST discipline linter
# ---------------------------------------------------------------------------


class TestCodeLint:
    def test_real_tree_is_clean(self):
        """The acceptance criterion CI enforces: the shipped package obeys
        its own discipline."""
        report = lint_package()
        assert report.checked > 50
        assert report.clean, report.render()

    def test_unbracketed_database_mutation_is_flagged(self):
        source = (
            "class Database:\n"
            "    def delete(self, uid):\n"
            "        self._deletion.delete(uid)\n"
            "    def set_value(self, uid, attr, value):\n"
            "        with self._operation():\n"
            "            self._assign(uid, attr, value)\n"
        )
        report = lint_source(source, "core/database.py")
        findings = report.by_rule("CODE-OP-BRACKET")
        assert len(findings) == 1
        assert findings[0].location == "core/database.py:3"
        assert findings[0].detail["file"] == "core/database.py"
        assert findings[0].detail["line"] == 3

    def test_private_methods_and_other_files_exempt_from_bracket(self):
        source = (
            "class Database:\n"
            "    def _undo(self, uid):\n"
            "        self._assign(uid, 'x', 1)\n"
        )
        assert lint_source(source, "core/database.py").clean
        # Same code outside core/database.py: the rule does not apply.
        public = source.replace("_undo", "undo")
        assert lint_source(public, "other/module.py").clean

    def test_raw_edits_outside_the_funnels_are_flagged(self):
        source = (
            "class Database:\n"
            "    def _put(self, instance, attribute, value):\n"
            "        instance.set(attribute, value)\n"
            "    def _install(self, instance):\n"
            "        self._objects[instance.uid] = instance\n"
            "    def _shortcut(self, instance, child):\n"
            "        instance.set('x', 1)\n"
            "        child.remove_reverse_reference(instance.uid, 'x')\n"
            "        child.reverse_references.append(None)\n"
            "        del self._objects[instance.uid]\n"
            "        instance.deleted = True\n"
        )
        report = lint_source(source, "core/database.py")
        findings = report.by_rule("CODE-EDIT-FUNNEL")
        assert [f.detail["line"] for f in findings] == [7, 8, 9, 10, 11]
        assert findings[0].detail["edit"] == ".set()"
        # The same edits elsewhere in core/ are flagged too (no funnel
        # outside Database), but not in instance.py or outside core/.
        assert lint_source(source, "core/deletion.py").by_rule(
            "CODE-EDIT-FUNNEL")
        assert lint_source(source, "core/instance.py").clean
        assert lint_source(source, "schema/evolution.py").clean

    def test_unwrapped_manager_mutation_is_flagged(self):
        source = (
            "class TransactionManager:\n"
            "    def write(self, txn, uid, attr, value):\n"
            "        self._db.set_value(uid, attr, value)\n"
            "    def make(self, txn, cls):\n"
            "        with self._db.txn_context(txn):\n"
            "            return self._db.make(cls)\n"
        )
        report = lint_source(source, "txn/manager.py")
        findings = report.by_rule("CODE-TXN-CONTEXT")
        assert [f.detail["line"] for f in findings] == [3]

    def test_bare_except_is_flagged_everywhere(self):
        source = (
            "def risky():\n"
            "    try:\n"
            "        pass\n"
            "    except:\n"
            "        pass\n"
        )
        report = lint_source(source, "query/interpreter.py")
        findings = report.by_rule("CODE-BARE-EXCEPT")
        assert findings and findings[0].detail["line"] == 4

    def test_lock_state_touch_outside_locking_is_flagged(self):
        source = (
            "def hack(table, txn):\n"
            "    table._granted.clear()\n"
            "    table._grant(txn, 'r', None)\n"
        )
        report = lint_source(source, "server/dispatch.py")
        assert len(report.by_rule("CODE-LOCK-STATE")) == 2
        # The identical code inside locking/ is the implementation itself.
        assert lint_source(source, "locking/table.py").clean

    def test_journal_hook_mutation_outside_storage_is_flagged(self):
        source = (
            "def wire(db, cb):\n"
            "    db.on_op_end.append(cb)\n"
            "    db.on_txn_commit = []\n"
        )
        report = lint_source(source, "server/server.py")
        assert len(report.by_rule("CODE-JOURNAL-HOOKS")) == 2
        assert lint_source(source, "storage/journal.py").clean

    def test_journal_format_import_outside_storage_is_flagged(self):
        source = (
            "from ..storage.journal import JOURNAL_NAME, _U32\n"
            "from repro.storage.journal import JOURNAL_HEADER_SIZE\n"
            "from ..storage.journal import BatchReplayer, iter_frames\n"
            "from .journal import _frame\n"
        )
        report = lint_source(source, "mvcc/replica.py")
        findings = report.by_rule("CODE-JOURNAL-FORMAT")
        assert [(f.detail["line"], f.detail["name"]) for f in findings] \
            == [(1, "_U32"), (2, "JOURNAL_HEADER_SIZE")]
        # The storage layer owns the format.
        assert lint_source(source, "storage/durable.py").clean

    def test_wire_internals_outside_protocol_are_flagged(self):
        source = (
            "from ..server.protocol import FrameBuffer, _V2_ERROR\n"
            "from .protocol import _u32_at\n"
            "from repro.server.protocol import _LENGTH, read_frames\n"
            "from .journal import _frame\n"
            "async def probe(self, reader):\n"
            "    prefix = await reader.readexactly(4)\n"
            "    return reader._buffer, getattr(reader, '_buffer'), "
            "self._buffer\n"
        )
        report = lint_source(source, "shard/router.py")
        findings = report.by_rule("CODE-WIRE-FORMAT")
        # Line 2 is shard.protocol, line 4 shard.journal: not the wire
        # module; an object's own _buffer is its own business.
        assert [f.detail["line"] for f in findings] == [1, 3, 6, 7, 7]
        inside = lint_source(source.replace("..server.", "."),
                             "server/client.py")
        assert [f.detail["line"] for f in
                inside.by_rule("CODE-WIRE-FORMAT")] == [1, 2, 3, 6, 7, 7]
        # The wire module owns the framing.
        assert lint_source(source, "server/protocol.py").clean

    def test_third_listener_or_frame_reader_is_flagged(self):
        source = (
            "import asyncio\n"
            "from ..server import protocol\n"
            "from ..server.protocol import read_frames\n"
            "async def serve(handler, reader, frames):\n"
            "    await asyncio.start_server(handler, '127.0.0.1', 0)\n"
            "    await protocol.read_frames(reader, frames, 1)\n"
            "    return await read_frames(reader, frames, 1)\n"
            "async def dial(loop, factory):\n"
            "    await loop.create_server(factory, '127.0.0.1', 0)\n"
            "    await loop.create_connection(factory, '127.0.0.1', 1)\n"
            "    await asyncio.open_connection('127.0.0.1', 1)\n"
        )
        findings = lint_source(source, "shard/router.py").by_rule(
            "CODE-WIRE-FORMAT"
        )
        assert [(f.detail["line"], f.detail["use"]) for f in findings] == [
            (5, "start_server()"), (6, "read_frames()"),
            (7, "read_frames()"), (9, "create_server()"),
            (10, "create_connection()"), (11, "open_connection()"),
        ]
        # The server's session loop and the clients are the endpoints.
        for owner in ("server/server.py", "server/client.py",
                      "server/protocol.py"):
            assert lint_source(source, owner).clean

    def test_hook_definition_site_in_database_is_allowed(self):
        source = (
            "class Database:\n"
            "    def __init__(self):\n"
            "        self.on_persist = []\n"
            "        self.on_op_end = []\n"
        )
        assert lint_source(source, "core/database.py").clean

    def test_syntax_error_reported_not_raised(self):
        report = lint_source("def broken(:\n", "x/y.py")
        assert report.by_rule("CODE-SYNTAX")

    def test_every_emitted_rule_is_documented(self):
        code_rules = {
            "CODE-EDIT-FUNNEL", "CODE-HOOK-LEAK", "CODE-BARE-EXCEPT",
            "CODE-SYNTAX",
        }
        table_rules = {row.rule for row in (*OWNERSHIP, *BRACKETS)}
        assert table_rules | code_rules == set(RULES)

    def test_analysis_doc_table_lists_exactly_the_rules(self):
        doc = (Path(__file__).resolve().parent.parent / "docs"
               / "ANALYSIS.md").read_text(encoding="utf-8")
        section = doc.split("### `code`", 1)[1].split("\n## ", 1)[0]
        assert set(re.findall(r"^\| `(CODE-[A-Z-]+)` \|", section,
                              re.MULTILINE)) == set(RULES)


#: One seeded violation per table row, in table order (OWNERSHIP, then
#: BRACKETS): (source, path, the whole expected finding).  The expected
#: findings were taken from the hand-written rule checks the tables
#: replaced, so a row that drifts in message, detail or key order fails.
TABLE_ROW_CASES = [
    ("def f(table):\n    return table._held\n", "server/dispatch.py",
     ("CODE-LOCK-STATE", "server/dispatch.py:2",
      "private LockTable state '_held' touched outside locking/ — use "
      "holders()/waiters()/modes_held()",
      {"file": "server/dispatch.py", "line": 2, "attribute": "_held"})),
    ("def f(table, txn):\n    table._promote(txn, 'r')\n", "txn/manager.py",
     ("CODE-LOCK-STATE", "txn/manager.py:2",
      "call of private LockTable method _promote() outside locking/ — "
      "grants must go through acquire()/release_all()",
      {"file": "txn/manager.py", "line": 2, "call": "_promote"})),
    ("async def f(loop, factory):\n"
     "    await loop.create_connection(factory, 'h', 1)\n",
     "shard/router.py",
     ("CODE-WIRE-FORMAT", "shard/router.py:2",
      "create_connection() outside server/client.py and server/server.py "
      "— serve through WireServer, read a peer through AsyncClient",
      {"file": "shard/router.py", "line": 2,
       "use": "create_connection()"})),
    ("async def f(reader):\n    return await reader.readexactly(4)\n",
     "mvcc/replica.py",
     ("CODE-WIRE-FORMAT", "mvcc/replica.py:2",
      "readexactly() outside server/protocol.py — read the wire through "
      "FrameBuffer / WireProtocol",
      {"file": "mvcc/replica.py", "line": 2, "use": "readexactly()"})),
    ("def f(reader):\n    return reader._buffer\n", "server/server.py",
     ("CODE-WIRE-FORMAT", "server/server.py:2",
      "another object's ._buffer outside server/protocol.py — read the "
      "wire through FrameBuffer / WireProtocol",
      {"file": "server/server.py", "line": 2,
       "use": "another object's ._buffer"})),
    ("def f(reader):\n    return getattr(reader, '_buffer')\n",
     "server/client.py",
     ("CODE-WIRE-FORMAT", "server/client.py:2",
      "getattr(..., '_buffer') outside server/protocol.py — read the wire "
      "through FrameBuffer / WireProtocol",
      {"file": "server/client.py", "line": 2,
       "use": "getattr(..., '_buffer')"})),
    ("from .protocol import FrameBuffer, _u32_at\n", "server/dispatch.py",
     ("CODE-WIRE-FORMAT", "server/dispatch.py:1",
      "'_u32_at' imported from repro.server.protocol outside "
      "server/protocol.py — read the wire through FrameBuffer / "
      "WireProtocol",
      {"file": "server/dispatch.py", "line": 1,
       "use": "'_u32_at' imported from repro.server.protocol"})),
    ("from ..storage.journal import iter_frames, JOURNAL_MAGIC\n",
     "mvcc/replica.py",
     ("CODE-JOURNAL-FORMAT", "mvcc/replica.py:1",
      "'JOURNAL_MAGIC' imported from repro.storage.journal outside "
      "storage/ — read the journal through "
      "iter_frames/BatchReplayer/install_batch",
      {"file": "mvcc/replica.py", "line": 1, "name": "JOURNAL_MAGIC"})),
    # The history recorder may append/remove, never clear.
    ("def f(db, cb):\n    db.on_txn_abort.clear()\n"
     "    db.on_op_end.append(cb)\n"
     "def close(db, cb):\n    db.on_op_end.remove(cb)\n",
     "analysis/history.py",
     ("CODE-JOURNAL-HOOKS", "analysis/history.py:2",
      "journal hook list 'on_txn_abort' mutated via .clear() outside "
      "storage/ — only the journal may attach or detach durability hooks",
      {"file": "analysis/history.py", "line": 2, "hook": "on_txn_abort",
       "mutator": "clear"})),
    # Database.__init__ may define a hook list, never extend it in place.
    ("class Database:\n    def __init__(self):\n"
     "        self.on_persist = []\n        self.on_txn_commit += []\n",
     "core/database.py",
     ("CODE-JOURNAL-HOOKS", "core/database.py:4",
      "journal hook list 'on_txn_commit' extended in place outside "
      "storage/ — only the journal may rewire durability hooks",
      {"file": "core/database.py", "line": 4, "hook": "on_txn_commit"})),
    ("class Database:\n    def insert_into(self, uid, attr, value):\n"
     "        self._add_member(uid, attr, value)\n",
     "core/database.py",
     ("CODE-OP-BRACKET", "core/database.py:3",
      "Database.insert_into calls self._add_member() outside "
      "'with self._operation():' — the journal never sees the "
      "operation-end seal for this mutation",
      {"file": "core/database.py", "line": 3, "method": "insert_into",
       "call": "self._add_member"})),
    ("class TransactionManager:\n"
     "    def remove(self, txn, uid, attr, value):\n"
     "        return self._db.remove_from(uid, attr, value)\n",
     "txn/manager.py",
     ("CODE-TXN-CONTEXT", "txn/manager.py:3",
      "TransactionManager.remove calls self._db.remove_from() outside "
      "'with self._db.txn_context(...):' — its redo records bypass the "
      "transaction's commit batch",
      {"file": "txn/manager.py", "line": 3, "method": "remove",
       "call": "self._db.remove_from"})),
]


def test_every_table_row_has_one_case():
    assert [case[2][0] for case in TABLE_ROW_CASES] == [
        row.rule for row in (*OWNERSHIP, *BRACKETS)
    ]


@pytest.mark.parametrize(
    "source, path, expected", TABLE_ROW_CASES,
    ids=[f"{i}-{case[2][0]}" for i, case in enumerate(TABLE_ROW_CASES)],
)
def test_table_row_finding_is_pinned(source, path, expected):
    findings = lint_source(source, path).findings
    assert [
        (f.rule, f.location, f.message, list(f.detail.items()))
        for f in findings
    ] == [(*expected[:3], list(expected[3].items()))]


# ---------------------------------------------------------------------------
# Deadlock machinery: first_cycle / choose_victim / DeadlockDetector
# ---------------------------------------------------------------------------


class TestDeadlockMachinery:
    def test_find_cycle_returns_none_on_dag(self):
        assert first_cycle([("a", "b"), ("b", "c"), ("a", "c")]) is None
        assert first_cycle([]) is None

    def test_find_cycle_finds_two_cycle(self):
        cycle = first_cycle([("a", "b"), ("b", "a")])
        assert cycle is not None
        assert set(cycle) == {"a", "b"}

    def test_choose_victim_picks_youngest(self):
        t1, t2, t3 = Transaction(), Transaction(), Transaction()
        assert choose_victim([t2, t3, t1]) is t3
        assert choose_victim([3, 1, 2]) is 3

    def test_detector_on_real_wait_for_cycle(self):
        """Build an actual deadlock in the table: T1 holds a, wants b;
        T2 holds b, wants a."""
        table = LockTable()
        t1, t2 = Transaction(), Transaction()
        assert table.acquire(t1, "a", LockMode.X)
        assert table.acquire(t2, "b", LockMode.X)
        assert not table.acquire(t1, "b", LockMode.X)  # queued
        assert not table.acquire(t2, "a", LockMode.X)  # closes the cycle
        detector = DeadlockDetector(table)
        victim = detector.check(raise_on_deadlock=False)
        assert victim is t2  # youngest (higher txn_id)
        assert detector.detections == 1

    def test_detector_raises_with_cycle_payload(self):
        table = LockTable()
        t1, t2 = Transaction(), Transaction()
        table.acquire(t1, "a", LockMode.X)
        table.acquire(t2, "b", LockMode.X)
        table.acquire(t1, "b", LockMode.X)
        table.acquire(t2, "a", LockMode.X)
        detector = DeadlockDetector(table)
        with pytest.raises(DeadlockError) as raised:
            detector.check()
        assert raised.value.victim is t2
        assert t1 in raised.value.cycle and t2 in raised.value.cycle

    def test_detector_no_cycle_returns_none(self):
        table = LockTable()
        t1, t2 = Transaction(), Transaction()
        table.acquire(t1, "a", LockMode.X)
        table.acquire(t2, "a", LockMode.X)  # waits; no cycle
        detector = DeadlockDetector(table)
        assert detector.check(raise_on_deadlock=False) is None
        assert detector.detections == 0

    def test_simulator_aborts_victim_and_recovers(self):
        """Opposite-order writers in the event simulator deadlock for
        real; the victim aborts, restarts, and everything commits —
        while an attached recorder reports the same pair as an
        inversion."""
        from repro.sim.eventsim import ConcurrencySimulator, Step

        db, roots = _assembly_db()
        simulator = ConcurrencySimulator(db, discipline="composite")
        recorder = LockOrderRecorder(simulator.table)
        scripts = [
            [Step("update_composite", roots[0]),
             Step("update_composite", roots[1])],
            [Step("update_composite", roots[1]),
             Step("update_composite", roots[0])],
        ]
        result = simulator.run(scripts)
        assert result.committed == 2
        assert result.deadlock_aborts >= 1
        assert recorder.analyze().by_rule("LOCKDEP-INVERSION")


# ---------------------------------------------------------------------------
# The wire: server check op + stats
# ---------------------------------------------------------------------------


class TestCheckOverTheWire:
    def test_lockdep_and_code_planes_over_live_server(self):
        from repro.server import Client, ServerThread

        db = Database()
        root_a = build_assembly(db, depth=1, fanout=2).root
        root_b = build_assembly(db, depth=1, fanout=2).root
        with ServerThread(database=db) as handle:
            with Client(port=handle.port) as client:
                # Two sequential transactions, opposite composite order:
                # interleaved over one connection, never deadlocked.
                for ordering in ((root_a, root_b), (root_b, root_a)):
                    client.begin()
                    for root in ordering:
                        client.set_value(root, "Label", str(ordering))
                    client.commit()

                report = client.check(plane="lockdep")
                assert set(report) == {"lockdep", "ok"}
                assert not report["ok"]
                rules = {
                    finding["rule"]
                    for finding in report["lockdep"]["findings"]
                }
                assert "LOCKDEP-INVERSION" in rules
                inversion = next(
                    finding
                    for finding in report["lockdep"]["findings"]
                    if finding["rule"] == "LOCKDEP-INVERSION"
                )
                assert inversion["detail"]["witness_forward"]["acquire_stack"]

                code = client.check(plane="code")
                assert code["ok"]
                assert code["code"]["checked"] > 50

                stats = client.stats()
                assert stats["lockdep"]["transactions_recorded"] >= 2

    def test_all_plane_includes_lockdep_when_recording(self):
        from repro.server import Client, ServerThread

        with ServerThread() as handle:
            with Client(port=handle.port) as client:
                report = client.check()
                assert "lockdep" in report
                assert report["lockdep"]["ok"]

    def test_lockdep_plane_errors_when_disabled(self):
        from repro.server import Client, ServerThread

        with ServerThread(lockdep=False) as handle:
            with Client(port=handle.port) as client:
                report = client.check()  # "all" simply omits the plane
                assert "lockdep" not in report
                with pytest.raises(Exception, match="disabled"):
                    client.check(plane="lockdep")


# ---------------------------------------------------------------------------
# The CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_lockdep_self_test_passes(self, capsys):
        from repro.analysis.cli import main

        assert main(["lockdep", "--self-test"]) == 0
        out = capsys.readouterr().out
        assert "lockdep self-test: pass" in out

    def test_code_subcommand_clean_on_tree(self, capsys):
        from repro.analysis.cli import main

        assert main(["code", "-q"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_code_subcommand_flags_seeded_fixture(self, tmp_path, capsys):
        from repro.analysis.cli import main

        package = tmp_path / "core"
        package.mkdir()
        (package / "database.py").write_text(
            "class Database:\n"
            "    def delete(self, uid):\n"
            "        self._deletion.delete(uid)\n"
        )
        assert main(["code", str(tmp_path), "--json"]) == 1
        import json

        payload = json.loads(capsys.readouterr().out)
        (finding,) = payload["findings"]
        assert finding["rule"] == "CODE-OP-BRACKET"
        assert finding["location"] == "core/database.py:3"

    def test_locklint_subcommand_reports_template_inversion(
        self, tmp_path, capsys
    ):
        import json

        from repro.analysis.cli import main
        from repro.storage.durable import DurableDatabase

        store = tmp_path / "store"
        db = DurableDatabase(str(store))
        root_a = build_assembly(db, depth=1, fanout=2).root
        root_b = build_assembly(db, depth=1, fanout=2).root
        db.close()
        templates = tmp_path / "templates.json"
        templates.write_text(json.dumps({"templates": [
            {"name": "fwd", "steps": [
                {"action": "update_composite", "target": str(root_a)},
                {"action": "update_composite", "target": str(root_b)},
            ]},
            {"name": "rev", "steps": [
                {"action": "update_composite", "target": str(root_b)},
                {"action": "update_composite", "target": str(root_a)},
            ]},
        ]}))
        assert main(["locklint", str(store), str(templates), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["plane"] == "locklint"
        assert payload["checked"] == 2
        rules = {finding["rule"] for finding in payload["findings"]}
        assert rules == {"LOCK-INVERSION"}
