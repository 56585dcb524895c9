"""``repro-check`` — the command-line front end of :mod:`repro.analysis`.

Every command is one row of :data:`COMMANDS`: ``repro-check --help``
lists them, and docs/ANALYSIS.md describes the plane behind each.  A
command returns one findings report, which :func:`main` renders and
gates once.  The ``--self-test`` ladders that prove each detector still
fires (and the ``self-test`` command over the seed scenarios, also
spelled ``repro-check --self-test``) go through one runner.

Exit codes: 0 — no errors (``--strict``: no warnings either); 1 —
findings at the gating severity, or a failed self-test; 2 — usage, I/O,
or an unreadable or malformed input file.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Sequence,
    TypeVar,
)

from .codelint import lint_package
from .findings import Report
from .fsck import fsck_database
from .query_check import check_query
from .schema_check import SchemaAnalyzer

T = TypeVar("T")
#: What a command's ``run`` returns: the report, plus note lines printed
#: after a terminal rendering.
Outcome = tuple[Report, list[str]]
#: One self-test step: its status text and its failure strings.
StepResult = tuple[str, list[str]]
#: One ``add_argument`` call: its flags and its keyword arguments.
Arg = tuple[tuple[str, ...], dict[str, Any]]

#: The command over the seed scenarios; ``repro-check --self-test`` with
#: no command named runs it.
SEED_SELF_TEST = "self-test"


class InputError(Exception):
    """Bad command input: ``repro-check: <message>`` and exit 2."""


def _read(path: str, parse: Callable[[str], T]) -> T:
    """Read *path* and parse it; an unreadable or malformed file is an
    :class:`InputError` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(handle.read())
    except (OSError, ValueError, TypeError) as error:
        raise InputError(f"{path}: {error}") from None


def _load_templates(paths: Sequence[str]) -> list[Any]:
    """Every transaction template in the JSON files at *paths*: a list,
    one template object, or ``{"templates": [...]}`` per file."""
    from .locklint import coerce_template

    templates: list[Any] = []

    def parse(text: str) -> None:
        payload = json.loads(text)
        if isinstance(payload, dict):
            payload = payload.get("templates", [payload])
        for item in payload:
            templates.append(coerce_template(item, len(templates)))

    for path in paths:
        _read(path, parse)
    return templates


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


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def _run_schema(options: argparse.Namespace) -> Outcome:
    return SchemaAnalyzer(_open_store(options.directory).lattice).analyze(), []


def _run_fsck(options: argparse.Namespace) -> Outcome:
    return fsck_database(_open_store(options.directory)), []


def _run_query(options: argparse.Namespace) -> Outcome:
    db = _open_store(options.directory)
    report = Report(plane=options.command)
    for path in options.files:
        report.extend(check_query(db.lattice, _read(path, str)))
    return report, []


def _run_lockdep(options: argparse.Namespace) -> Outcome:
    from ..workloads.txmix import composite_mix

    db, roots = _concurrency_scenario()
    recorder, result = _record_simulation(
        db,
        composite_mix(roots, transactions=options.transactions, seed=42),
    )
    return recorder.analyze(), [
        f"simulated {result.committed} commit(s), "
        f"{result.deadlock_aborts} runtime deadlock abort(s); "
        f"{recorder.transactions_recorded} trace(s) recorded"
    ]


def _run_locklint(options: argparse.Namespace) -> Outcome:
    from .locklint import analyze_templates

    db = _open_store(options.directory)
    templates = _load_templates(options.files)
    return analyze_templates(db, templates, discipline=options.discipline), []


def _run_code(options: argparse.Namespace) -> Outcome:
    return lint_package(options.path), []


def _run_proto(options: argparse.Namespace) -> Outcome:
    from . import protocheck
    from .proto_model import Scope

    scope = Scope(
        workers=options.workers,
        txns=options.txns,
        max_crashes=options.max_crashes,
    )
    report, result = protocheck.audit_protocol(
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
    return report, notes


def _run_iso(options: argparse.Namespace) -> Outcome:
    from .history import History
    from .isocheck import check_history, predict_isolation

    if not options.histories and not options.templates:
        raise InputError(
            "nothing to check — give history files, --templates FILE "
            "(with --store DIR), or --self-test"
        )
    if options.templates and not options.store:
        raise InputError(
            "--templates needs --store DIR to resolve template targets "
            "against"
        )
    report = Report(plane=options.command)
    for path in options.histories:
        check_history(_read(path, History.loads), report)
    if options.templates:
        db = _open_store(options.store)
        templates = _load_templates(options.templates)
        report.extend(
            predict_isolation(db, templates, discipline=options.discipline)
        )
    return report, []


# ----------------------------------------------------------------------
# Self-test ladders: each yields one StepResult per step
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


def _lockdep_ladder() -> Iterator[StepResult]:
    """The detector must fire on a seed and stay quiet on order:

    1. the serialized opposite-order seed (which never blocks) is
       reported as ``LOCKDEP-INVERSION`` with both witness stacks;
    2. a uniform-order workload (every transaction takes composites in
       the same global order) runs deadlock-free *and* analyzes clean.
    """
    from ..sim.eventsim import Step

    db, roots = _concurrency_scenario()
    recorder, stats = _record_inversion_seed(db, roots)
    report = recorder.analyze()
    inversions = report.by_rule("LOCKDEP-INVERSION")
    yield (
        f"seeded inversion: {len(inversions)} reported, "
        f"0 runtime blocks [{report.summary()}]",
        _failed(
            (not (stats.blocks or stats.denials),
             f"seed run was supposed to never block "
             f"(blocks={stats.blocks}, denials={stats.denials})"),
            (bool(inversions),
             "seeded opposite-order writers were NOT reported as an "
             "inversion"),
            (all(
                finding.detail[side]["acquire_stack"]
                for finding in inversions[:1]
                for side in ("witness_forward", "witness_reverse")
            ), "inversion finding is missing witness stacks"),
        ),
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
    report = recorder.analyze()
    yield (
        f"uniform order: {result.committed} commit(s), [{report.summary()}]",
        _failed(
            (not result.deadlock_aborts,
             f"uniform-order workload hit {result.deadlock_aborts} "
             f"runtime deadlock(s)"),
            (report.clean,
             f"uniform-order workload analyzed dirty [{report.summary()}]"),
        ),
    )


def _proto_ladder() -> Iterator[StepResult]:
    """The model checker must find seeded protocol bugs and stay quiet
    on the faithful model:

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
    from .protocheck import explore
    from .proto_model import Scope

    tiny = Scope(workers=1, txns=1, max_crashes=1)
    small = Scope(workers=2, txns=1, max_crashes=1)

    result = explore(tiny, bug="presumed-commit")
    witnesses = [
        example.trace for example in result.counterexamples
        if example.rule == "PROTO-CONSISTENCY"
    ]
    trace = witnesses[0] if witnesses else ()
    yield (
        f"seeded presumed-commit: {len(witnesses)} counterexample(s), "
        f"shortest {len(trace)} step(s) [{result.summary()}]",
        _failed(
            (bool(witnesses),
             "seeded presumed-commit bug was NOT reported as "
             "PROTO-CONSISTENCY"),
            (not witnesses or len(trace) == 4,
             f"presumed-commit counterexample is not minimal: "
             f"{len(trace)} steps, expected 4 ({' -> '.join(trace)})"),
        ),
    )

    for scope in (tiny, small):
        clean = explore(scope)
        summary = clean.summary()
        yield f"clean model: {summary}", _failed(
            (clean.ok, f"faithful model has violation(s) at {summary}"),
        )

    eager = explore(small, bug="presume-eager", spontaneous=True)
    guarded = explore(small, spontaneous=True)
    yield (
        f"grace guard: eager={len(eager.counterexamples)} violation(s), "
        f"guarded={len(guarded.counterexamples)}",
        _failed(
            (not eager.ok,
             "dropping the presume-abort grace guard was NOT caught "
             "under spontaneous crashes"),
            (guarded.ok,
             f"guarded model is dirty under spontaneous crashes: "
             f"{guarded.summary()}"),
        ),
    )


def _iso_seeded(script: Callable[..., Any]) -> tuple[Any, Any]:
    """Run *script(tm1, tm2, x, y)* over a two-account database whose two
    transaction managers have *private* lock tables; returns the recorded
    history and what *script* returned.

    Every operation still runs the real manager paths (undo logging,
    hooks, txn attribution), but neither manager sees the other's locks
    — the no-discipline baseline the seeded anomalies need.
    """
    from ..core.database import Database
    from ..locking.table import LockTable
    from ..schema.attribute import AttributeSpec
    from ..txn.manager import TransactionManager
    from .history import HistoryRecorder

    db = Database()
    db.make_class("Account", attributes=[
        AttributeSpec("Balance", domain="integer"),
    ])
    x = db.make("Account", values={"Balance": 100})
    y = db.make("Account", values={"Balance": 100})
    tm1 = TransactionManager(db, LockTable())
    tm2 = TransactionManager(db, LockTable())
    with HistoryRecorder(db) as recorder:
        result = script(tm1, tm2, x, y)
    return recorder.history, result


def _iso_ladder() -> Iterator[StepResult]:
    """The isolation checker must detect seeded anomalies with minimal
    witnesses and stay quiet on disciplined executions:

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

    # 1. Lost update: minimal G2 cycle + classifier.
    def lost_update(tm1: Any, tm2: Any, x: Any, y: Any) -> set[str]:
        t1, t2 = tm1.begin(), tm2.begin()
        stale_1 = tm1.read(t1, x, "Balance")
        stale_2 = tm2.read(t2, x, "Balance")
        tm1.write(t1, x, "Balance", stale_1 + 10)
        tm2.write(t2, x, "Balance", stale_2 + 25)
        tm1.commit(t1)
        tm2.commit(t2)
        return {f"t{t1.txn_id}", f"t{t2.txn_id}"}

    history, expected = _iso_seeded(lost_update)
    report = check_history(history)
    cycles = report.by_rule("ISO-G2")
    lost = report.by_rule("ISO-LOST-UPDATE")
    cycle = cycles[0].detail["cycle"] if cycles else []
    yield (
        f"seeded lost update: {len(cycles)} G2 cycle(s), "
        f"{len(lost)} classifier(s) [{report.summary()}]",
        _failed(
            (bool(cycles),
             "seeded lost-update interleaving was NOT reported as ISO-G2"),
            (not cycles or (len(cycle) == 2 and set(cycle) == expected),
             f"ISO-G2 witness is not the minimal 2-transaction cycle: "
             f"{cycle}"),
            (bool(lost),
             "seeded lost update was NOT classified as ISO-LOST-UPDATE"),
        ),
    )

    # 2. Write skew: each transaction reads what the other writes.
    def write_skew(tm1: Any, tm2: Any, x: Any, y: Any) -> None:
        t1, t2 = tm1.begin(), tm2.begin()
        tm1.read(t1, y, "Balance")
        tm2.read(t2, x, "Balance")
        tm1.write(t1, x, "Balance", 0)
        tm2.write(t2, y, "Balance", 0)
        tm1.commit(t1)
        tm2.commit(t2)

    report = check_history(_iso_seeded(write_skew)[0])
    skew = report.by_rule("ISO-WRITE-SKEW")
    yield (
        f"seeded write skew: {len(skew)} finding(s) [{report.summary()}]",
        _failed((bool(skew), "seeded write-skew interleaving was NOT "
                 "reported as ISO-WRITE-SKEW")),
    )

    # 3. Dirty read: a read from a transaction that goes on to abort.
    def dirty_read(tm1: Any, tm2: Any, x: Any, y: Any) -> None:
        t1, t2 = tm1.begin(), tm2.begin()
        tm1.write(t1, x, "Balance", -1)
        tm2.read(t2, x, "Balance")
        tm1.abort(t1)
        tm2.commit(t2)

    report = check_history(_iso_seeded(dirty_read)[0])
    dirty = [f for f in report.errors if f.rule == "ISO-G1A"]
    yield (
        f"seeded dirty read: {len(dirty)} G1A error(s) "
        f"[{report.summary()}]",
        _failed((bool(dirty), "seeded dirty read of an aborted "
                 "transaction was NOT reported as an ISO-G1A error")),
    )

    # 4. Strict 2PL must check clean: the B9 mix through one shared
    # manager/lock table, genuinely interleaved round-robin.
    db = Database()
    roots, components = memory_fixture(db, roots=4, parts_per_root=2)
    with HistoryRecorder(db) as recorder:
        stats = run_tm_mix(db, composite_mix(
            roots, transactions=12, steps_per_txn=3,
            components_by_root=components, seed=9,
        ))
    report = check_history(recorder.history)
    yield (
        f"strict-2PL mix: {stats['transactions']} txn(s), "
        f"{stats['conflict_retries']} retry(s), [{report.summary()}]",
        _failed((report.clean, f"strict-2PL transaction mix analyzed "
                 f"dirty [{report.summary()}]")),
    )

    # 5. CrashSim sweep: 50 seeded fault plans, each recording its
    # history; no isolation errors allowed, and every history must
    # survive the JSONL round-trip (torn tail included).
    failures = []
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
            failures.append(
                f"plan {plan.describe()}: {'; '.join(iso_problems)}"
            )
        if crash.history is not None:
            events_checked += len(crash.history)
            text = crash.history.dumps()
            reloaded = History.loads(text + '{"k":"wri')
            if reloaded.events != crash.history.events:
                failures.append(
                    f"plan {plan.describe()}: JSONL round-trip with a "
                    f"torn tail did not reproduce the history"
                )
    yield (
        f"CrashSim sweep: 50 plans, {events_checked} event(s) recorded, "
        f"{len(failures)} problem(s)",
        failures,
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
    skew_predicted = predict_isolation(db, [left, right])
    audit_report = predict_isolation(db, [audit])
    yield (
        f"template mode: {len(predicted)} + {len(skew_predicted)} "
        f"prediction(s), read-only clean={audit_report.clean}",
        _failed(
            (bool(predicted.by_rule("ISO-TEMPLATE-LOST-UPDATE")),
             "read-modify-write template was NOT predicted as "
             "ISO-TEMPLATE-LOST-UPDATE"),
            (bool(skew_predicted.by_rule("ISO-TEMPLATE-SKEW")),
             "mutual read/write template pair was NOT predicted as "
             "ISO-TEMPLATE-SKEW"),
            (audit_report.clean,
             f"read-only templates predicted dirty "
             f"[{audit_report.summary()}]"),
        ),
    )


def _seed_ladder() -> Iterator[StepResult]:
    """Every seed workload and figure scenario, built in memory through
    the public API, analyzes without schema errors and fscks without any
    finding; each offending finding is one failure."""
    from ..core.database import Database
    from ..versions.manager import VersionManager
    from ..workloads.cad import build_design_bench
    from ..workloads.documents import build_corpus
    from ..workloads.figures import build_figure4, build_figure5, build_figure9
    from ..workloads.parts import build_assembly, build_fleet, build_part_tree

    scenarios: tuple[tuple[str, Callable[[Any], Any]], ...] = (
        ("vehicle-fleet", lambda db: build_fleet(db, 5)),
        ("part-tree", lambda db: build_part_tree(db, depth=3, fanout=3)),
        ("assembly", lambda db: build_assembly(db, depth=2, fanout=3)),
        ("figure4", build_figure4),
        ("figure5", build_figure5),
        ("figure9", build_figure9),
        ("documents", lambda db: build_corpus(db, documents=4)),
        ("cad-versions",
         lambda db: build_design_bench(db, VersionManager(db))),
    )
    for name, build in scenarios:
        db = Database()
        build(db)
        schema_report = SchemaAnalyzer(db.lattice).analyze()
        fsck_report = fsck_database(db)
        yield (
            f"{name}: schema [{schema_report.summary()}], "
            f"fsck [{fsck_report.summary()}]",
            [f"{name}: {finding}"
             for finding in [*schema_report.errors, *fsck_report]],
        )


def _failed(*checks: tuple[bool, str]) -> list[str]:
    """The failure strings of the ``(passed, failure)`` checks that did
    not pass."""
    return [failure for passed, failure in checks if not passed]


def _run_ladder(
    title: str, steps: Iterable[StepResult], quiet: bool, verdict: str
) -> int:
    """Print each step's ``ok``/``FAIL`` line (unless *quiet*), send the
    failures to stderr, print the final line; 0 when nothing failed."""
    failures: list[str] = []
    for text, failed in steps:
        if not quiet:
            print(f"{'FAIL' if failed else 'ok  '} {text}")
        failures.extend(failed)
    for failure in failures:
        print(f"{title}: {failure}", file=sys.stderr)
    print(
        f"{title}: {len(failures)} check(s) FAILED" if failures
        else f"{title}: {verdict}"
    )
    return 1 if failures else 0


# ----------------------------------------------------------------------
# The command table
# ----------------------------------------------------------------------

class Ladder(NamedTuple):
    """A self-test: its steps, the ``--self-test`` help, and the word the
    final line ends with when every step passes."""

    steps: Callable[[], Iterable[StepResult]]
    help: str = ""
    verdict: str = "pass"


class Command(NamedTuple):
    """One ``repro-check`` command.

    ``run`` is None for a command that only runs its ladder; a command
    with both gets a ``--self-test`` flag that runs the ladder instead.
    """

    name: str
    help: str
    args: tuple[Arg, ...]
    run: Optional[Callable[[argparse.Namespace], Outcome]]
    ladder: Optional[Ladder] = None


def _arg(*flags: str, **options: Any) -> Arg:
    return flags, options


_STORE = _arg("directory", help="durable store directory")
_DISCIPLINE = _arg(
    "--discipline",
    default="composite",
    choices=("composite", "instance", "class"),
    help="locking discipline to plan templates under (default composite)",
)

COMMANDS: tuple[Command, ...] = (
    Command(
        "schema", "static schema/topology analysis of a durable store",
        (_STORE,), _run_schema,
    ),
    Command(
        "fsck", "offline integrity check of a durable store",
        (_STORE,), _run_fsck,
    ),
    Command(
        "query", "statically validate s-expression query files",
        (_STORE, _arg("files", nargs="+", help="query files to validate")),
        _run_query,
    ),
    Command(
        "lockdep",
        "record a seeded concurrent workload and report latent "
        "deadlocks (lock-order inversions)",
        (_arg(
            "--transactions", type=int, default=20,
            help="simulated transactions in the recorded mix (default 20)",
        ),),
        _run_lockdep,
        Ladder(
            _lockdep_ladder,
            "verify the detector: seeded inversion must be reported, "
            "uniform order must be clean (CI gate)",
        ),
    ),
    Command(
        "locklint",
        "statically predict lock-order hazards of transaction "
        "template files against a durable store",
        (
            _STORE,
            _arg("files", nargs="+", help="JSON transaction-template files"),
            _DISCIPLINE,
        ),
        _run_locklint,
    ),
    Command(
        "code",
        "AST-lint the repro package for concurrency/durability "
        "discipline (CI requires this clean)",
        (_arg(
            "path", nargs="?", default=None,
            help="package root to lint (default: the installed repro "
            "package)",
        ),),
        _run_code,
    ),
    Command(
        "proto",
        "exhaustively model-check the 2PC protocol and lint the "
        "implementation for drift against the model",
        (
            _arg(
                "--workers", type=int, default=2,
                help="participant shards in the model scope (default 2)",
            ),
            _arg(
                "--txns", type=int, default=2,
                help="concurrent cross-shard transactions (default 2)",
            ),
            _arg(
                "--max-crashes", type=int, default=1,
                help="crash budget per schedule (default 1)",
            ),
            _arg(
                "--spontaneous", action="store_true",
                help="also crash between protocol steps, not only at "
                "failpoint sites (larger state space)",
            ),
            _arg(
                "--replay", nargs="+", metavar="TRACE",
                help="recorded trace files (or directories of *.json) to "
                "check as refinements of the model",
            ),
            _arg(
                "--impl-traces", type=int, default=0, metavar="N",
                help="drive N seeded 2PC rounds through the real journal/"
                "recovery stack and refine the durable traces (default 0)",
            ),
        ),
        _run_proto,
        Ladder(
            _proto_ladder,
            "verify the checker: a seeded presumed-commit bug must yield "
            "a minimal counterexample, the faithful model must be clean, "
            "and dropping the presume-abort grace guard must be caught "
            "under spontaneous crashes (CI gate)",
        ),
    ),
    Command(
        "iso",
        "check recorded transaction histories (or predict from "
        "templates) for Adya-style isolation anomalies",
        (
            _arg(
                "histories", nargs="*",
                help="JSONL history files (repro-server --record-history, "
                "the crash sweep's --record-histories, shard workers)",
            ),
            _arg(
                "--store", metavar="DIR", default=None,
                help="durable store to resolve --templates targets against",
            ),
            _arg(
                "--templates", nargs="+", metavar="FILE",
                help="JSON transaction-template files to predict anomalies "
                "from (needs --store)",
            ),
            _DISCIPLINE,
        ),
        _run_iso,
        Ladder(
            _iso_ladder,
            "verify the checker: seeded anomalies must be detected "
            "with minimal witnesses, strict-2PL and CrashSim histories "
            "must be clean (CI gate)",
        ),
    ),
    Command(
        SEED_SELF_TEST,
        "analyze and fsck every seed workload/figure scenario",
        (), None,
        Ladder(_seed_ladder, verdict="all seed scenarios pass"),
    ),
)

#: Every command the parser accepts.
SUBCOMMANDS = frozenset(command.name for command in COMMANDS)


def _output_flags(default: Any) -> argparse.ArgumentParser:
    """The output/gating flags as a parent parser.  The copy each
    command gets defaults to SUPPRESS, so an absent flag never clobbers
    one given before the command."""
    flags = argparse.ArgumentParser(add_help=False)
    for names, text in (
        (("--json",), "emit findings as JSON"),
        (("--quiet", "-q"), "summaries only"),
        (("--strict",), "exit non-zero on warnings, not just errors"),
    ):
        flags.add_argument(
            *names, action="store_true", default=default, help=text
        )
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="Static schema analyzer and database integrity checker "
        "for the composite-object database.",
        parents=[_output_flags(False)],
    )
    commands = parser.add_subparsers(dest="command", required=True)
    flags = _output_flags(argparse.SUPPRESS)
    for command in COMMANDS:
        sub = commands.add_parser(
            command.name, help=command.help, parents=[flags]
        )
        for names, options in command.args:
            sub.add_argument(*names, **options)
        if command.run is not None and command.ladder is not None:
            sub.add_argument(
                "--self-test", action="store_true", help=command.ladder.help
            )
        sub.set_defaults(spec=command, self_test=False)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # ``repro-check --self-test`` is the documented CI spelling — but
    # only when no command was named (``lockdep --self-test`` is that
    # command's own flag).
    if not any(arg in SUBCOMMANDS for arg in argv):
        argv = [SEED_SELF_TEST if arg == "--self-test" else arg
                for arg in argv]
    options = build_parser().parse_args(argv)
    command: Command = options.spec
    try:
        if command.run is None or options.self_test:
            assert command.ladder is not None
            title = command.name if command.run is None else (
                f"{command.name} self-test"
            )
            return _run_ladder(
                title, command.ladder.steps(), options.quiet,
                command.ladder.verdict,
            )
        report, notes = command.run(options)
    except (OSError, InputError) as error:
        print(f"repro-check: {error}", file=sys.stderr)
        return 2
    if options.json:
        print(report.to_json())
    elif options.quiet:
        print(report.summary())
    else:
        print(report.render())
        for note in notes:
            print(note)
    if report.errors or (options.strict and report.warnings):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
