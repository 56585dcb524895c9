"""``repro-check`` — the command-line front end of :mod:`repro.analysis`.

Nine commands, all reporting through the shared findings model:

``repro-check schema DIR``
    Recover the class lattice of a durable store (read-only) and run the
    static schema analyzer over it.

``repro-check fsck DIR``
    Recover a durable store (read-only) and audit every invariant: the
    offline integrity checker.

``repro-check query DIR FILE...``
    Statically validate s-expression query files against a store's
    schema, without executing anything.

``repro-check lockdep [--self-test]``
    Run the seeded concurrency workload under the discrete-event
    simulator with the lock-order recorder attached and report latent
    deadlocks (lock-order inversions that never happened to collide).
    ``--self-test`` instead verifies the detector itself: a seeded
    opposite-order pair that runs without ever blocking *must* be
    reported, and a uniform-order workload must come back clean — CI
    runs this form.

``repro-check locklint DIR FILE...``
    Statically predict lock-order hazards of declarative transaction
    templates (JSON) against a durable store, using the pure Section 7
    lock planners: nothing executes, no lock is taken.

``repro-check code [PATH]``
    AST-lint the ``repro`` package itself (or a source tree at PATH) for
    the codebase's concurrency/durability discipline: ``_operation()``
    bracketing, ``txn_context`` wrapping, lock-table encapsulation,
    journal-hook hygiene, no bare ``except``.  CI requires this clean.

``repro-check proto [--self-test]``
    Exhaustively model-check the 2PC coordinator/worker state machines
    (message delivery, crash-at-failpoint-site, restart/recovery) for a
    small scope and report invariant violations as minimal
    counterexample traces; then run the implementation-conformance
    lints (``PROTO-SITE-DRIFT``, ``PROTO-OP-DRIFT``).  ``--replay`` and
    ``--impl-traces`` additionally check recorded/live durable traces
    as refinements of the model.  ``--self-test`` verifies the checker
    itself: a seeded presumed-*commit* bug must yield a shortest
    counterexample and the clean model must explore violation-free —
    CI runs this form.

``repro-check iso [HISTORY...] [--templates FILE... --store DIR]``
    Check recorded transaction histories (JSONL files written by
    ``repro-server --record-history``, ``repro-sweep
    --record-histories``, or shard workers) for isolation anomalies:
    Adya's Direct Serialization Graph with typed G0/G1/G2 findings,
    each cycle carrying a minimal witness.  With ``--templates`` the
    same anomalies are *predicted* statically from transaction-template
    lock plans — what breaks the day reads stop taking shared locks.
    ``--self-test`` verifies the checker itself: seeded non-serializable
    interleavings (lost update, write skew, dirty read) must be
    detected with minimal witnesses, a strict-2PL transaction mix and a
    50-plan CrashSim history sweep must check clean, and the JSONL
    round-trip must tolerate a torn final line — CI runs this form.

``repro-check self-test`` (also reachable as ``repro-check --self-test``)
    Build every seed workload and figure scenario in memory, run the
    schema analyzer over each lattice (no errors allowed) and fsck over
    each database (no findings allowed).  CI runs this so schema
    regressions fail the build.

Exit codes: 0 — no errors (``--strict``: no warnings either); 1 —
findings at the gating severity; 2 — usage or I/O problems.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Iterator, Optional, Sequence

from .codelint import lint_package
from .findings import Report
from .fsck import fsck_database
from .query_check import check_query
from .schema_check import SchemaAnalyzer

#: Every subcommand the parser accepts.  The drift test keeps this set
#: consistent with the :data:`repro.analysis.findings.PLANES` registry.
SUBCOMMANDS = frozenset({
    "schema", "fsck", "query", "lockdep", "locklint", "code", "proto",
    "iso", "self-test",
})


def _open_store(directory: str) -> Any:
    """Recover a durable store read-only (no journal is created/appended)."""
    from pathlib import Path

    from ..core.database import Database
    from ..storage.journal import Journal

    if not Path(directory).is_dir():
        raise OSError(f"no store directory at {directory}")
    db = Database()
    Journal.recover_into(db, directory)
    return db


def _emit(report: Report, options: argparse.Namespace) -> None:
    if options.json:
        print(report.to_json())
    elif options.quiet:
        print(report.summary())
    else:
        print(report.render())


def _exit_code(report: Report, options: argparse.Namespace) -> int:
    if report.errors:
        return 1
    if options.strict and report.warnings:
        return 1
    return 0


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def _cmd_schema(options: argparse.Namespace) -> int:
    db = _open_store(options.directory)
    report = SchemaAnalyzer(db.lattice).analyze()
    _emit(report, options)
    return _exit_code(report, options)


def _cmd_fsck(options: argparse.Namespace) -> int:
    db = _open_store(options.directory)
    report = fsck_database(db)
    _emit(report, options)
    return _exit_code(report, options)


def _cmd_query(options: argparse.Namespace) -> int:
    db = _open_store(options.directory)
    report = Report(plane="query")
    for path in options.files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            print(f"repro-check: cannot read {path}: {error}", file=sys.stderr)
            return 2
        partial = check_query(db.lattice, text)
        for finding in partial:
            report.findings.append(finding)
        report.checked += partial.checked
    _emit(report, options)
    return _exit_code(report, options)


# ----------------------------------------------------------------------
# Concurrency plane: lockdep / locklint / code
# ----------------------------------------------------------------------

def _concurrency_scenario() -> tuple[Any, list[Any]]:
    """An in-memory part-assembly database plus its composite roots."""
    from ..core.database import Database
    from ..workloads.parts import build_assembly

    db = Database()
    roots = [build_assembly(db, depth=2, fanout=2).root for _ in range(4)]
    return db, roots


def _record_inversion_seed(db: Any, roots: list[Any]) -> tuple[Any, Any]:
    """Two serialized opposite-order composite writers.

    Each transaction runs to completion before the next starts —
    ``wait=False`` proves no request ever even blocks, let alone
    deadlocks — yet the recorder's order graph contains the latent
    inversion.  This is the lockdep premise in one function.
    """
    from ..locking.protocol import CompositeLockingProtocol
    from ..locking.table import LockTable
    from ..txn.transaction import Transaction
    from .lockdep import LockOrderRecorder

    table = LockTable()
    recorder = LockOrderRecorder(table)
    protocol = CompositeLockingProtocol(db, table)
    for ordering in ((roots[0], roots[1]), (roots[1], roots[0])):
        txn = Transaction()
        for root in ordering:
            for resource, mode in protocol.plan_composite(root, "write"):
                table.acquire(txn, resource, mode, wait=False)
        table.release_all(txn)
    return recorder, table.stats


def _record_simulation(db: Any, scripts: list[Any]) -> tuple[Any, Any]:
    """Run *scripts* in the event simulator with a recorder attached."""
    from ..sim.eventsim import ConcurrencySimulator
    from .lockdep import LockOrderRecorder

    simulator = ConcurrencySimulator(db, discipline="composite")
    recorder = LockOrderRecorder(simulator.table)
    result = simulator.run(scripts)
    return recorder, result


def _cmd_lockdep(options: argparse.Namespace) -> int:
    from ..workloads.txmix import composite_mix

    db, roots = _concurrency_scenario()
    if options.self_test:
        return _lockdep_self_test(db, roots, options)
    recorder, result = _record_simulation(
        db,
        composite_mix(roots, transactions=options.transactions, seed=42),
    )
    report = recorder.analyze()
    _emit(report, options)
    if not options.quiet and not options.json:
        print(
            f"simulated {result.committed} commit(s), "
            f"{result.deadlock_aborts} runtime deadlock abort(s); "
            f"{recorder.transactions_recorded} trace(s) recorded"
        )
    return _exit_code(report, options)


def _lockdep_self_test(
    db: Any, roots: list[Any], options: argparse.Namespace
) -> int:
    """CI gate: the detector must fire on a seed and stay quiet on order.

    Two checks, both required:

    1. the serialized opposite-order seed (which never blocks) is
       reported as ``LOCKDEP-INVERSION`` with both witness stacks;
    2. a uniform-order workload (every transaction takes composites in
       the same global order) runs deadlock-free *and* analyzes clean.
    """
    from ..sim.eventsim import Step

    failures = []

    recorder, stats = _record_inversion_seed(db, roots)
    report = recorder.analyze()
    inversions = [
        finding for finding in report.errors
        if finding.rule == "LOCKDEP-INVERSION"
    ]
    if stats.blocks or stats.denials:
        failures.append(
            f"seed run was supposed to never block "
            f"(blocks={stats.blocks}, denials={stats.denials})"
        )
    if not inversions:
        failures.append(
            "seeded opposite-order writers were NOT reported as an "
            "inversion"
        )
    elif not (
        inversions[0].detail["witness_forward"]["acquire_stack"]
        and inversions[0].detail["witness_reverse"]["acquire_stack"]
    ):
        failures.append("inversion finding is missing witness stacks")
    if not options.quiet:
        status = "ok  " if not failures else "FAIL"
        print(
            f"{status} seeded inversion: {len(inversions)} reported, "
            f"0 runtime blocks [{report.summary()}]"
        )

    uniform = [
        [
            Step(action=action, target=roots[0]),
            Step(action=action, target=roots[1]),
        ]
        for action in (
            "update_composite", "update_composite", "read_composite"
        )
    ]
    recorder, result = _record_simulation(db, uniform)
    clean_report = recorder.analyze()
    ordered_failures = []
    if result.deadlock_aborts:
        ordered_failures.append(
            f"uniform-order workload hit {result.deadlock_aborts} "
            f"runtime deadlock(s)"
        )
    if not clean_report.clean:
        ordered_failures.append(
            f"uniform-order workload analyzed dirty "
            f"[{clean_report.summary()}]"
        )
    if not options.quiet:
        status = "ok  " if not ordered_failures else "FAIL"
        print(
            f"{status} uniform order: {result.committed} commit(s), "
            f"[{clean_report.summary()}]"
        )
    failures.extend(ordered_failures)

    for failure in failures:
        print(f"lockdep self-test: {failure}", file=sys.stderr)
    print(
        "lockdep self-test: pass"
        if not failures
        else f"lockdep self-test: {len(failures)} check(s) FAILED"
    )
    return 1 if failures else 0


def _cmd_locklint(options: argparse.Namespace) -> int:
    import json

    from .locklint import analyze_templates, coerce_template

    db = _open_store(options.directory)
    templates = []
    for path in options.files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as error:
            print(f"repro-check: cannot read {path}: {error}", file=sys.stderr)
            return 2
        except ValueError as error:
            print(f"repro-check: {path}: {error}", file=sys.stderr)
            return 2
        if isinstance(payload, dict):
            payload = payload.get("templates", [payload])
        for item in payload:
            templates.append(coerce_template(item, len(templates)))
    report = analyze_templates(db, templates, discipline=options.discipline)
    _emit(report, options)
    return _exit_code(report, options)


def _cmd_code(options: argparse.Namespace) -> int:
    report = lint_package(options.path)
    _emit(report, options)
    return _exit_code(report, options)


# ----------------------------------------------------------------------
# Protocol plane: the 2PC model checker + conformance lints
# ----------------------------------------------------------------------

def _cmd_proto(options: argparse.Namespace) -> int:
    from . import protocheck
    from .proto_model import Scope

    if options.self_test:
        return _proto_self_test(options)
    scope = Scope(
        workers=options.workers,
        txns=options.txns,
        max_crashes=options.max_crashes,
    )
    report, result = protocheck.check_protocol(
        scope, spontaneous=options.spontaneous
    )
    notes = [result.summary()]
    if options.replay:
        before = len(report.findings)
        report, replayed = protocheck.conform_traces(options.replay, report)
        notes.append(
            f"replayed {replayed} recorded trace(s), "
            f"{len(report.findings) - before} finding(s)"
        )
    if options.impl_traces:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="proto-impl-") as scratch:
            traces = protocheck.gather_impl_traces(
                scratch, runs=options.impl_traces
            )
            for trace in traces:
                protocheck.conform_trace(trace, report)
        notes.append(f"refined {len(traces)} live implementation trace(s)")
    protocheck.lint_protocol_sites(report=report)
    protocheck.lint_wire_ops(report)
    _emit(report, options)
    if not options.quiet and not options.json:
        for note in notes:
            print(note)
    return _exit_code(report, options)


def _proto_self_test(options: argparse.Namespace) -> int:
    """CI gate: the model checker must find a seeded protocol bug and
    stay quiet on the faithful model.

    Three checks, all required:

    1. the seeded presumed-*commit* bug (an in-doubt participant that
       commits instead of aborting when the coordinator log is silent)
       is reported as ``PROTO-CONSISTENCY`` with a shortest (4-step)
       counterexample trace;
    2. the faithful model explores violation-free at two scopes;
    3. the seeded guard-drop bug (``presume-eager``: presuming abort
       while the coordinator could still decide commit) is caught once
       spontaneous crashes are enabled — and the faithful model stays
       clean under the same spontaneous-crash schedule, which is what
       justifies the grace-period guard in ``shard/worker.py``.
    """
    from . import protocheck
    from .proto_model import Scope

    failures: list[str] = []

    def note(ok: bool, text: str) -> None:
        if not options.quiet:
            print(f"{'ok  ' if ok else 'FAIL'} {text}")

    tiny = Scope(workers=1, txns=1, max_crashes=1)
    small = Scope(workers=2, txns=1, max_crashes=1)

    seeded, result = protocheck.check_protocol(tiny, bug="presumed-commit")
    witnesses = [
        example for example in result.counterexamples
        if example.rule == "PROTO-CONSISTENCY"
    ]
    if not witnesses:
        failures.append(
            "seeded presumed-commit bug was NOT reported as "
            "PROTO-CONSISTENCY"
        )
    elif len(witnesses[0].trace) != 4:
        failures.append(
            f"presumed-commit counterexample is not minimal: "
            f"{len(witnesses[0].trace)} steps, expected 4 "
            f"({' -> '.join(witnesses[0].trace)})"
        )
    note(
        not failures,
        f"seeded presumed-commit: {len(witnesses)} counterexample(s), "
        f"shortest {len(witnesses[0].trace) if witnesses else 0} step(s) "
        f"[{result.summary()}]",
    )

    for scope in (tiny, small):
        _, clean = protocheck.check_protocol(scope)
        ok = clean.ok
        if not ok:
            failures.append(
                f"faithful model has violation(s) at {clean.summary()}"
            )
        note(ok, f"clean model: {clean.summary()}")

    eager = protocheck.explore(small, bug="presume-eager", spontaneous=True)
    guarded = protocheck.explore(small, spontaneous=True)
    if eager.ok:
        failures.append(
            "dropping the presume-abort grace guard was NOT caught "
            "under spontaneous crashes"
        )
    if not guarded.ok:
        failures.append(
            f"guarded model is dirty under spontaneous crashes: "
            f"{guarded.summary()}"
        )
    note(
        not eager.ok and guarded.ok,
        f"grace guard: eager={len(eager.counterexamples)} violation(s), "
        f"guarded={len(guarded.counterexamples)}",
    )

    for failure in failures:
        print(f"proto self-test: {failure}", file=sys.stderr)
    print(
        "proto self-test: pass"
        if not failures
        else f"proto self-test: {len(failures)} check(s) FAILED"
    )
    return 1 if failures else 0


# ----------------------------------------------------------------------
# Isolation plane: history checking + template-mode prediction
# ----------------------------------------------------------------------

def _cmd_iso(options: argparse.Namespace) -> int:
    import json

    from .history import History
    from .isocheck import check_history, predict_isolation
    from .locklint import coerce_template

    if options.self_test:
        return _iso_self_test(options)
    if not options.histories and not options.templates:
        print(
            "repro-check iso: nothing to check — give history files, "
            "--templates FILE (with --store DIR), or --self-test",
            file=sys.stderr,
        )
        return 2
    report = Report(plane="iso")
    for path in options.histories:
        try:
            history = History.load(path)
        except OSError as error:
            print(f"repro-check: cannot read {path}: {error}",
                  file=sys.stderr)
            return 2
        except ValueError as error:
            print(f"repro-check: {path}: {error}", file=sys.stderr)
            return 2
        check_history(history, report)
    if options.templates:
        if not options.store:
            print(
                "repro-check iso: --templates needs --store DIR to "
                "resolve template targets against",
                file=sys.stderr,
            )
            return 2
        db = _open_store(options.store)
        templates = []
        for path in options.templates:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except OSError as error:
                print(f"repro-check: cannot read {path}: {error}",
                      file=sys.stderr)
                return 2
            except ValueError as error:
                print(f"repro-check: {path}: {error}", file=sys.stderr)
                return 2
            if isinstance(payload, dict):
                payload = payload.get("templates", [payload])
            for item in payload:
                templates.append(coerce_template(item, len(templates)))
        report.extend(
            predict_isolation(db, templates, discipline=options.discipline)
        )
    _emit(report, options)
    return _exit_code(report, options)


def _iso_seed_db() -> tuple[Any, Any, Any]:
    """A two-account database for the seeded anomaly interleavings."""
    from ..core.database import Database
    from ..schema.attribute import AttributeSpec

    db = Database()
    db.make_class("Account", attributes=[
        AttributeSpec("Balance", domain="integer"),
    ])
    x = db.make("Account", values={"Balance": 100})
    y = db.make("Account", values={"Balance": 100})
    return db, x, y


def _iso_broken_pair(db: Any) -> tuple[Any, Any]:
    """Two transaction managers with *private* lock tables over one
    database: every operation still runs the real manager paths (undo
    logging, hooks, txn attribution), but neither manager sees the
    other's locks — the no-discipline baseline the seeded anomalies
    need."""
    from ..locking.table import LockTable
    from ..txn.manager import TransactionManager

    return (
        TransactionManager(db, LockTable()),
        TransactionManager(db, LockTable()),
    )


def _iso_self_test(options: argparse.Namespace) -> int:
    """CI gate: the isolation checker must detect seeded anomalies with
    minimal witnesses and stay quiet on disciplined executions.

    Six checks, all required:

    1. the seeded lost-update interleaving (both read, both write, both
       commit — under private lock tables) is reported as ``ISO-G2``
       with the minimal 2-transaction witness cycle *and* classified
       ``ISO-LOST-UPDATE``;
    2. the seeded write-skew interleaving (each reads what the other
       writes) is reported as ``ISO-WRITE-SKEW``;
    3. the seeded dirty read (read from a transaction that later
       aborts) is reported as ``ISO-G1A`` at ERROR severity;
    4. the B9 composite mix run through a *shared* strict-2PL
       transaction manager records a history with no findings at all;
    5. a 50-plan CrashSim sweep with history recording reports no
       isolation errors (single-threaded strict execution — any error
       is a recorder/undo bug) and every history round-trips through
       JSONL, torn final line included;
    6. template mode: a read-modify-write template is predicted as
       ``ISO-TEMPLATE-LOST-UPDATE``, a mutual read/write pair as
       ``ISO-TEMPLATE-SKEW``, and read-only templates come back clean.
    """
    import tempfile

    from ..core.database import Database
    from ..faults.drill import run_sweep
    from ..workloads.txmix import composite_mix, memory_fixture, run_tm_mix
    from .history import History, HistoryRecorder
    from .isocheck import check_history, predict_isolation
    from .locklint import TransactionTemplate

    failures: list[str] = []

    def note(ok: bool, text: str) -> None:
        if not options.quiet:
            print(f"{'ok  ' if ok else 'FAIL'} {text}")

    # 1. Lost update: minimal G2 cycle + classifier.
    db, x, _y = _iso_seed_db()
    tm1, tm2 = _iso_broken_pair(db)
    with HistoryRecorder(db) as recorder:
        t1, t2 = tm1.begin(), tm2.begin()
        stale_1 = tm1.read(t1, x, "Balance")
        stale_2 = tm2.read(t2, x, "Balance")
        tm1.write(t1, x, "Balance", stale_1 + 10)
        tm2.write(t2, x, "Balance", stale_2 + 25)
        tm1.commit(t1)
        tm2.commit(t2)
    lost_history = recorder.history
    report = check_history(lost_history)
    cycles = report.by_rule("ISO-G2")
    lost = report.by_rule("ISO-LOST-UPDATE")
    expected = {f"t{t1.txn_id}", f"t{t2.txn_id}"}
    witness_ok = bool(cycles) and (
        len(cycles[0].detail["cycle"]) == 2
        and set(cycles[0].detail["cycle"]) == expected
    )
    if not cycles:
        failures.append(
            "seeded lost-update interleaving was NOT reported as ISO-G2"
        )
    elif not witness_ok:
        failures.append(
            f"ISO-G2 witness is not the minimal 2-transaction cycle: "
            f"{cycles[0].detail['cycle']}"
        )
    if not lost:
        failures.append(
            "seeded lost update was NOT classified as ISO-LOST-UPDATE"
        )
    note(
        bool(cycles) and witness_ok and bool(lost),
        f"seeded lost update: {len(cycles)} G2 cycle(s), "
        f"{len(lost)} classifier(s) [{report.summary()}]",
    )

    # 2. Write skew: each transaction reads what the other writes.
    db, x, y = _iso_seed_db()
    tm1, tm2 = _iso_broken_pair(db)
    with HistoryRecorder(db) as recorder:
        t1, t2 = tm1.begin(), tm2.begin()
        tm1.read(t1, y, "Balance")
        tm2.read(t2, x, "Balance")
        tm1.write(t1, x, "Balance", 0)
        tm2.write(t2, y, "Balance", 0)
        tm1.commit(t1)
        tm2.commit(t2)
    report = check_history(recorder.history)
    skew = report.by_rule("ISO-WRITE-SKEW")
    if not skew:
        failures.append(
            "seeded write-skew interleaving was NOT reported as "
            "ISO-WRITE-SKEW"
        )
    note(bool(skew),
         f"seeded write skew: {len(skew)} finding(s) [{report.summary()}]")

    # 3. Dirty read: a read from a transaction that goes on to abort.
    db, x, _y = _iso_seed_db()
    tm1, tm2 = _iso_broken_pair(db)
    with HistoryRecorder(db) as recorder:
        t1, t2 = tm1.begin(), tm2.begin()
        tm1.write(t1, x, "Balance", -1)
        tm2.read(t2, x, "Balance")
        tm1.abort(t1)
        tm2.commit(t2)
    report = check_history(recorder.history)
    dirty = [f for f in report.errors if f.rule == "ISO-G1A"]
    if not dirty:
        failures.append(
            "seeded dirty read of an aborted transaction was NOT "
            "reported as an ISO-G1A error"
        )
    note(bool(dirty),
         f"seeded dirty read: {len(dirty)} G1A error(s) "
         f"[{report.summary()}]")

    # 4. Strict 2PL must check clean: the B9 mix through one shared
    # manager/lock table, genuinely interleaved round-robin.
    db = Database()
    roots, components = memory_fixture(db, roots=4, parts_per_root=2)
    with HistoryRecorder(db) as recorder:
        stats = run_tm_mix(db, composite_mix(
            roots, transactions=12, steps_per_txn=3,
            components_by_root=components, seed=9,
        ))
    clean_report = check_history(recorder.history)
    if not clean_report.clean:
        failures.append(
            f"strict-2PL transaction mix analyzed dirty "
            f"[{clean_report.summary()}]"
        )
    note(
        clean_report.clean,
        f"strict-2PL mix: {stats['transactions']} txn(s), "
        f"{stats['conflict_retries']} retry(s), "
        f"[{clean_report.summary()}]",
    )

    # 5. CrashSim sweep: 50 seeded fault plans, each recording its
    # history; no isolation errors allowed, and every history must
    # survive the JSONL round-trip (torn tail included).
    sweep_problems: list[str] = []
    events_checked = 0
    with tempfile.TemporaryDirectory(prefix="iso-crashsim-") as scratch:
        drills = run_sweep("crash", 20260807, 50, record_histories=scratch)
    for crash in drills:
        plan = crash.plan
        iso_problems = [
            problem for problem in crash.problems
            if problem.startswith("isolation:")
        ]
        if iso_problems:
            sweep_problems.append(
                f"plan {plan.describe()}: {'; '.join(iso_problems)}"
            )
        if crash.history is not None:
            events_checked += len(crash.history)
            text = crash.history.dumps()
            reloaded = History.loads(text + '{"k":"wri')
            if reloaded.events != crash.history.events:
                sweep_problems.append(
                    f"plan {plan.describe()}: JSONL round-trip with a "
                    f"torn tail did not reproduce the history"
                )
    failures.extend(sweep_problems)
    note(
        not sweep_problems,
        f"CrashSim sweep: 50 plans, {events_checked} event(s) recorded, "
        f"{len(sweep_problems)} problem(s)",
    )

    # 6. Template mode: predicted anomalies and a clean baseline.
    db, troots = _concurrency_scenario()
    racy = TransactionTemplate("increment", [
        ("read_instance", troots[0]), ("update_instance", troots[0]),
    ])
    left = TransactionTemplate("left", [
        ("read_instance", troots[0]), ("update_instance", troots[1]),
    ])
    right = TransactionTemplate("right", [
        ("read_instance", troots[1]), ("update_instance", troots[0]),
    ])
    audit = TransactionTemplate("audit", [
        ("read_composite", troots[0]), ("read_composite", troots[1]),
    ])
    predicted = predict_isolation(db, [racy])
    if not predicted.by_rule("ISO-TEMPLATE-LOST-UPDATE"):
        failures.append(
            "read-modify-write template was NOT predicted as "
            "ISO-TEMPLATE-LOST-UPDATE"
        )
    skew_predicted = predict_isolation(db, [left, right])
    if not skew_predicted.by_rule("ISO-TEMPLATE-SKEW"):
        failures.append(
            "mutual read/write template pair was NOT predicted as "
            "ISO-TEMPLATE-SKEW"
        )
    audit_report = predict_isolation(db, [audit])
    if not audit_report.clean:
        failures.append(
            f"read-only templates predicted dirty "
            f"[{audit_report.summary()}]"
        )
    note(
        bool(predicted.by_rule("ISO-TEMPLATE-LOST-UPDATE"))
        and bool(skew_predicted.by_rule("ISO-TEMPLATE-SKEW"))
        and audit_report.clean,
        f"template mode: {len(predicted)} + {len(skew_predicted)} "
        f"prediction(s), read-only clean={audit_report.clean}",
    )

    for failure in failures:
        print(f"iso self-test: {failure}", file=sys.stderr)
    print(
        "iso self-test: pass"
        if not failures
        else f"iso self-test: {len(failures)} check(s) FAILED"
    )
    return 1 if failures else 0


# ----------------------------------------------------------------------
# Self-test: the seed workloads and figures, analyzed and fsck'd
# ----------------------------------------------------------------------

def _seed_scenarios() -> Iterator[tuple[str, Any]]:
    """Yield ``(name, database, managers)`` for every seed scenario.

    Each scenario is built through the public API, so the analyzer must
    find no schema errors and fsck must find nothing at all.
    """
    from ..core.database import Database
    from ..versions.manager import VersionManager
    from ..workloads.cad import build_design_bench
    from ..workloads.documents import build_corpus, define_document_schema
    from ..workloads.figures import build_figure4, build_figure5, build_figure9
    from ..workloads.parts import (
        build_assembly,
        build_fleet,
        build_part_tree,
        define_vehicle_schema,
    )

    db = Database()
    define_vehicle_schema(db)
    build_fleet(db, 5)
    yield "vehicle-fleet", db

    db = Database()
    build_part_tree(db, depth=3, fanout=3)
    yield "part-tree", db

    db = Database()
    build_assembly(db, depth=2, fanout=3)
    yield "assembly", db

    for name, builder in (
        ("figure4", build_figure4),
        ("figure5", build_figure5),
        ("figure9", build_figure9),
    ):
        db = Database()
        builder(db)
        yield name, db

    db = Database()
    define_document_schema(db)
    build_corpus(db, documents=4)
    yield "documents", db

    db = Database()
    versions = VersionManager(db)
    build_design_bench(db, versions)
    yield "cad-versions", db


def _cmd_self_test(options: argparse.Namespace) -> int:
    failed = 0
    for name, db in _seed_scenarios():
        schema_report = SchemaAnalyzer(db.lattice).analyze()
        fsck_report = fsck_database(db)
        problems = []
        if schema_report.errors:
            problems.append(f"{len(schema_report.errors)} schema error(s)")
        if not fsck_report.clean:
            problems.append(f"{len(fsck_report)} fsck finding(s)")
        status = "FAIL" if problems else "ok"
        if problems:
            failed += 1
        if not options.quiet or problems:
            print(
                f"{status:4s} {name}: "
                f"schema [{schema_report.summary()}], "
                f"fsck [{fsck_report.summary()}]"
            )
        if problems and not options.json:
            for finding in schema_report.errors:
                print(f"     {finding}")
            for finding in fsck_report:
                print(f"     {finding}")
    print(
        "self-test: all seed scenarios pass"
        if not failed
        else f"self-test: {failed} scenario(s) FAILED"
    )
    return 1 if failed else 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def _add_output_flags(
    parser: argparse.ArgumentParser, subcommand: bool = False
) -> None:
    """The output/gating flags, accepted both before and after the
    subcommand.  The subcommand copies default to SUPPRESS so an
    absent flag never clobbers one given before the subcommand."""
    extra = {"default": argparse.SUPPRESS} if subcommand else {}
    parser.add_argument(
        "--json", action="store_true", help="emit findings as JSON", **extra
    )
    parser.add_argument(
        "--quiet", "-q", action="store_true", help="summaries only", **extra
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings, not just errors",
        **extra,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="Static schema analyzer and database integrity checker "
        "for the composite-object database.",
    )
    _add_output_flags(parser)
    commands = parser.add_subparsers(dest="command", required=True)

    schema = commands.add_parser(
        "schema", help="static schema/topology analysis of a durable store"
    )
    schema.add_argument("directory", help="durable store directory")
    _add_output_flags(schema, subcommand=True)
    schema.set_defaults(run=_cmd_schema)

    fsck = commands.add_parser(
        "fsck", help="offline integrity check of a durable store"
    )
    fsck.add_argument("directory", help="durable store directory")
    _add_output_flags(fsck, subcommand=True)
    fsck.set_defaults(run=_cmd_fsck)

    query = commands.add_parser(
        "query", help="statically validate s-expression query files"
    )
    query.add_argument("directory", help="durable store directory")
    query.add_argument("files", nargs="+", help="query files to validate")
    _add_output_flags(query, subcommand=True)
    query.set_defaults(run=_cmd_query)

    lockdep = commands.add_parser(
        "lockdep",
        help="record a seeded concurrent workload and report latent "
        "deadlocks (lock-order inversions)",
    )
    lockdep.add_argument(
        "--self-test",
        action="store_true",
        help="verify the detector: seeded inversion must be reported, "
        "uniform order must be clean (CI gate)",
    )
    lockdep.add_argument(
        "--transactions",
        type=int,
        default=20,
        help="simulated transactions in the recorded mix (default 20)",
    )
    _add_output_flags(lockdep, subcommand=True)
    lockdep.set_defaults(run=_cmd_lockdep)

    locklint = commands.add_parser(
        "locklint",
        help="statically predict lock-order hazards of transaction "
        "template files against a durable store",
    )
    locklint.add_argument("directory", help="durable store directory")
    locklint.add_argument(
        "files", nargs="+", help="JSON transaction-template files"
    )
    locklint.add_argument(
        "--discipline",
        default="composite",
        choices=("composite", "instance", "class"),
        help="locking discipline to plan under (default composite)",
    )
    _add_output_flags(locklint, subcommand=True)
    locklint.set_defaults(run=_cmd_locklint)

    code = commands.add_parser(
        "code",
        help="AST-lint the repro package for concurrency/durability "
        "discipline (CI requires this clean)",
    )
    code.add_argument(
        "path",
        nargs="?",
        default=None,
        help="package root to lint (default: the installed repro package)",
    )
    _add_output_flags(code, subcommand=True)
    code.set_defaults(run=_cmd_code)

    proto = commands.add_parser(
        "proto",
        help="exhaustively model-check the 2PC protocol and lint the "
        "implementation for drift against the model",
    )
    proto.add_argument(
        "--self-test",
        action="store_true",
        help="verify the checker: seeded presumed-commit bug must yield "
        "a minimal counterexample, the faithful model must be clean, "
        "DFS reduction must agree with BFS (CI gate)",
    )
    proto.add_argument(
        "--workers", type=int, default=2,
        help="participant shards in the model scope (default 2)",
    )
    proto.add_argument(
        "--txns", type=int, default=2,
        help="concurrent cross-shard transactions (default 2)",
    )
    proto.add_argument(
        "--max-crashes", type=int, default=1,
        help="crash budget per schedule (default 1)",
    )
    proto.add_argument(
        "--spontaneous",
        action="store_true",
        help="also crash between protocol steps, not only at failpoint "
        "sites (larger state space)",
    )
    proto.add_argument(
        "--replay",
        nargs="+",
        metavar="TRACE",
        help="recorded trace files (or directories of *.json) to check "
        "as refinements of the model",
    )
    proto.add_argument(
        "--impl-traces",
        type=int,
        default=0,
        metavar="N",
        help="drive N seeded 2PC rounds through the real journal/"
        "recovery stack and refine the durable traces (default 0)",
    )
    _add_output_flags(proto, subcommand=True)
    proto.set_defaults(run=_cmd_proto)

    iso = commands.add_parser(
        "iso",
        help="check recorded transaction histories (or predict from "
        "templates) for Adya-style isolation anomalies",
    )
    iso.add_argument(
        "histories",
        nargs="*",
        help="JSONL history files (repro-server --record-history, the "
        "crash sweep's --record-histories, shard workers)",
    )
    iso.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="durable store to resolve --templates targets against",
    )
    iso.add_argument(
        "--templates",
        nargs="+",
        metavar="FILE",
        help="JSON transaction-template files to predict anomalies "
        "from (needs --store)",
    )
    iso.add_argument(
        "--discipline",
        default="composite",
        choices=("composite", "instance", "class"),
        help="locking discipline templates plan under (default composite)",
    )
    iso.add_argument(
        "--self-test",
        action="store_true",
        help="verify the checker: seeded anomalies must be detected "
        "with minimal witnesses, strict-2PL and CrashSim histories "
        "must be clean (CI gate)",
    )
    _add_output_flags(iso, subcommand=True)
    iso.set_defaults(run=_cmd_iso)

    self_test = commands.add_parser(
        "self-test",
        help="analyze and fsck every seed workload/figure scenario",
    )
    _add_output_flags(self_test, subcommand=True)
    self_test.set_defaults(run=_cmd_self_test)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # ``repro-check --self-test`` is the documented CI spelling — but
    # only when no subcommand was named (``lockdep --self-test`` is that
    # subcommand's own flag).
    if not any(arg in SUBCOMMANDS for arg in argv):
        argv = ["self-test" if arg == "--self-test" else arg for arg in argv]
    parser = build_parser()
    options = parser.parse_args(argv)
    try:
        return options.run(options)
    except OSError as error:
        print(f"repro-check: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
