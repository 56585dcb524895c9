"""Plane 4: exhaustive model checking of the 2PC commit protocol.

Three layers, all reporting through the shared findings model:

**Exploration** — :func:`explore` enumerates every reachable state of
the :mod:`~repro.analysis.proto_model` state machine for a small scope
(workers x transactions x crash budget), checking the protocol
invariants on each state and emitting a *minimal counterexample trace*
for any violation (breadth-first: states are visited in distance
order, so the first witness of each rule is a shortest one).

**Conformance** — the implementation must *refine* the model.
:func:`extract_trace` reads the durable artifacts a real cluster run
leaves behind (the ``coord.log`` decisions plus each shard journal's
``P``/``R`` record sequence) and :func:`conform_trace` checks they form
a legal linearization of model transitions (``PROTO-REFINE``):
every ``R`` follows exactly one ``P``, a commit resolution requires a
durable commit decision, an abort resolution requires an abort line or
no line at all (presumed abort), and no prepared batch is left in
doubt.  :func:`gather_impl_traces` drives the *real* journal, recovery,
and coordinator-log code through seeded 2PC schedules (including
crashes via ``Journal.abandon``) to produce traces in-process;
``repro-sweep shard --record-traces`` records them from full
multi-process runs.

**Drift lints** — ``PROTO-SITE-DRIFT`` (:func:`lint_protocol_sites`)
AST-scans the implementation for ``fire()``/``fire_or_die()`` call
sites and requires them to match the model's crash-site universe
bidirectionally, so the model can never quietly fall behind the code
(or vice versa).  ``PROTO-OP-DRIFT`` (:func:`lint_wire_ops`) checks the
wire-op table against its handlers: the server's dispatch table and
the shard router's own op map.

Entry points: :func:`audit_protocol`, shared by ``repro-check proto``
(CLI) and the server ``check`` op with plane ``proto``; benchmark B19.
"""

from __future__ import annotations

import ast
import json
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Optional

from .findings import Report, Severity
from .proto_model import (
    CRASH_SITES,
    SUBSUMED_SITES,
    Action,
    Scope,
    State,
    initial_state,
    successors,
    violations,
)

#: Findings per invariant rule are capped at this many counterexamples —
#: one witness is actionable, ten thousand are noise.
MAX_COUNTEREXAMPLES_PER_RULE = 3


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------

@dataclass
class Counterexample:
    """One invariant violation plus the path that reaches it."""

    rule: str
    location: str
    message: str
    trace: tuple[str, ...]
    state: State


@dataclass
class ExplorationResult:
    """What one exhaustive run covered and found."""

    scope: Scope
    bug: Optional[str] = None
    spontaneous: bool = False
    states: int = 0
    transitions: int = 0
    terminals: int = 0
    elapsed: float = 0.0
    counterexamples: list[Counterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def summary(self) -> str:
        rate = self.states / self.elapsed if self.elapsed > 0 else 0.0
        return (
            f"scope={self.scope.workers}w/"
            f"{self.scope.txns}t/{self.scope.max_crashes}c: "
            f"{self.states} states, {self.transitions} transitions, "
            f"{self.terminals} quiescent, "
            f"{len(self.counterexamples)} violation(s), "
            f"{self.elapsed:.2f}s ({rate:,.0f} states/s)"
        )


def _record(
    result: ExplorationResult,
    per_rule: dict[str, int],
    state: State,
    terminal: bool,
    trace: tuple[str, ...],
) -> None:
    for violation in violations(state, terminal):
        count = per_rule.get(violation.rule, 0)
        per_rule[violation.rule] = count + 1
        if count < MAX_COUNTEREXAMPLES_PER_RULE:
            result.counterexamples.append(Counterexample(
                rule=violation.rule,
                location=violation.location,
                message=violation.message,
                trace=trace,
                state=state,
            ))


def explore(
    scope: Scope,
    bug: Optional[str] = None,
    spontaneous: bool = False,
) -> ExplorationResult:
    """Enumerate every reachable state of *scope* and check invariants.

    States are visited breadth-first, so the first counterexample for
    each rule is a *shortest* one.
    """
    result = ExplorationResult(scope, bug, spontaneous)
    per_rule: dict[str, int] = {}
    started = time.perf_counter()
    init = initial_state(scope)
    parents: dict[State, Optional[tuple[State, Action]]] = {init: None}
    queue: deque[State] = deque([init])

    def trace_to(state: State) -> tuple[str, ...]:
        labels: list[str] = []
        cursor: Optional[State] = state
        while cursor is not None:
            edge = parents[cursor]
            if edge is None:
                break
            cursor, action = edge
            labels.append(action.label())
        return tuple(reversed(labels))

    while queue:
        state = queue.popleft()
        result.states += 1
        succ = successors(state, scope, bug, spontaneous)
        terminal = not succ
        if terminal:
            result.terminals += 1
        if _may_violate(state, terminal):
            _record(result, per_rule, state, terminal, trace_to(state))
        for action, nxt in succ:
            result.transitions += 1
            if nxt not in parents:
                parents[nxt] = (state, action)
                queue.append(nxt)
    result.elapsed = time.perf_counter() - started
    return result


def _may_violate(state: State, terminal: bool) -> bool:
    """Cheap pre-filter: can this state possibly violate an invariant?

    Full :func:`~repro.analysis.proto_model.violations` allocates; the
    overwhelming majority of states have nothing resolved or acked yet,
    so a flat scan first keeps the hot loop tight.
    """
    if terminal:
        return True
    for row in state.parts:
        for part in row:
            if part in ("committed", "aborted"):
                return True
    for ack in state.acked:
        if ack == "commit":
            return True
    return False


def check_protocol(
    scope: Scope = Scope(),
    bug: Optional[str] = None,
    spontaneous: bool = False,
) -> tuple[Report, ExplorationResult]:
    """Run one exploration and fold it into a findings report."""
    result = explore(scope, bug, spontaneous)
    report = Report(plane="proto")
    report.checked = result.states
    for example in result.counterexamples:
        report.add(
            Severity.ERROR,
            example.rule,
            example.location,
            example.message,
            trace=list(example.trace),
            scope=f"{scope.workers}w/{scope.txns}t/{scope.max_crashes}c",
        )
    return report, result


def audit_protocol(
    scope: Scope = Scope(), spontaneous: bool = False
) -> tuple[Report, ExplorationResult]:
    """The proto plane: one exploration of the faithful model plus both
    drift lints (``repro-check proto`` and the server ``check`` op)."""
    report, result = check_protocol(scope, spontaneous=spontaneous)
    lint_protocol_sites(report=report)
    lint_wire_ops(report)
    return report, result


# ---------------------------------------------------------------------------
# Conformance: implementation traces must refine the model
# ---------------------------------------------------------------------------

def _journal_markers(path: Path) -> list[dict[str, Any]]:
    """The ordered ``P``/``R`` records of one shard journal.

    Walks the journal's own framing (:func:`repro.storage.journal
    .iter_frames`, past a header of any epoch) — recovery semantics are
    irrelevant here, the *sequence* of durable protocol events is the
    trace.  A torn tail ends the scan, exactly as recovery would stop
    replaying there.
    """
    from ..storage.journal import PREPARE, RESOLVE, iter_frames

    if not path.exists():
        return []
    markers: list[dict[str, Any]] = []
    for kind, payload, _end in iter_frames(path.read_bytes()):
        if kind not in (PREPARE, RESOLVE):
            continue
        try:
            entry = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            continue
        entry["kind"] = kind.decode("ascii")
        markers.append(entry)
    return markers


def extract_trace(root: str | Path) -> dict[str, Any]:
    """The durable protocol trace a cluster run left in *root*.

    Returns ``{"root", "decisions": {gtid: outcome}, "shards":
    {shard_id: [marker, ...]}}`` where each marker is
    ``{"kind": "P"|"R", "gtid": ..., "commit": bool?}`` in journal
    order.  Works on a *stopped* cluster directory (the shard sweep
    records traces after teardown) and is JSON-round-trippable.
    """
    from ..errors import StorageError
    from ..shard.placement import Manifest
    from ..shard.twopc import CoordinatorLog
    from ..storage.journal import JOURNAL_NAME

    root = Path(root)
    try:
        manifest = Manifest.load(root)
    except StorageError:
        manifest = None
    trace: dict[str, Any] = {
        "root": str(root),
        "decisions": CoordinatorLog.in_root(root).load(),
        "shards": {},
    }
    if manifest is None:
        return trace
    for shard_id in range(manifest.shards):
        journal = manifest.shard_path(root, shard_id) / JOURNAL_NAME
        trace["shards"][str(shard_id)] = _journal_markers(journal)
    return trace


def conform_trace(
    trace: dict[str, Any], report: Optional[Report] = None
) -> Report:
    """Check one recorded trace against the model (``PROTO-REFINE``).

    Every durable event sequence the implementation can produce must be
    a linearization the model allows:

    * per shard and gtid: exactly ``P`` then at most one ``R`` — no
      resolution without a prepare, no double prepare, no double
      resolve;
    * ``R(commit)`` requires a durable ``commit`` decision line (the
      model's ``poll_log``/``send_decide`` only deliver logged
      outcomes — commit is *never* presumed);
    * ``R(abort)`` requires an ``abort`` line or no line at all
      (presumed abort); an abort against a logged *commit* is the
      atomicity hole the checker exists for;
    * a ``P`` with no ``R`` is a participant left in doubt.
    """
    if report is None:
        report = Report(plane="proto")
    decisions = dict(trace.get("decisions") or {})
    where = trace.get("root", "?")
    for shard_id, markers in sorted((trace.get("shards") or {}).items()):
        report.checked += len(markers)
        states: dict[str, str] = {}
        for marker in markers:
            gtid = marker.get("gtid")
            kind = marker.get("kind")
            location = f"{where}:shard{shard_id}:{gtid}"
            if not isinstance(gtid, str):
                report.add(
                    Severity.ERROR, "PROTO-REFINE", location,
                    f"malformed {kind!r} marker without a gtid",
                )
                continue
            seen = states.get(gtid)
            if kind == "P":
                if seen is not None:
                    report.add(
                        Severity.ERROR, "PROTO-REFINE", location,
                        f"second P for {gtid!r} (state {seen}); the "
                        f"model prepares a participant exactly once",
                    )
                    continue
                states[gtid] = "prepared"
                continue
            # kind == "R"
            outcome = "commit" if marker.get("commit") else "abort"
            if seen is None:
                report.add(
                    Severity.ERROR, "PROTO-REFINE", location,
                    f"R({outcome}) without a preceding P — no model "
                    f"transition resolves an unprepared participant",
                )
                continue
            if seen != "prepared":
                report.add(
                    Severity.ERROR, "PROTO-REFINE", location,
                    f"second resolution for {gtid!r} "
                    f"(already {seen})",
                )
                continue
            logged = decisions.get(gtid)
            if outcome == "commit" and logged != "commit":
                report.add(
                    Severity.ERROR, "PROTO-REFINE", location,
                    f"R(commit) but the coordinator log says "
                    f"{logged!r} — a commit must never be presumed",
                )
            if outcome == "abort" and logged == "commit":
                report.add(
                    Severity.ERROR, "PROTO-REFINE", location,
                    "R(abort) against a durable commit decision",
                )
            states[gtid] = outcome
        for gtid, seen in sorted(states.items()):
            if seen == "prepared":
                report.add(
                    Severity.WARNING, "PROTO-REFINE",
                    f"{where}:shard{shard_id}:{gtid}",
                    "prepared batch never resolved (left in doubt at "
                    "the end of the recorded run)",
                )
    return report


def conform_traces(
    paths: Iterable[str | Path], report: Optional[Report] = None
) -> tuple[Report, int]:
    """Replay recorded trace files (or directories of them)."""
    if report is None:
        report = Report(plane="proto")
    count = 0
    for path in paths:
        path = Path(path)
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            with open(file, "r", encoding="utf-8") as handle:
                trace = json.load(handle)
            trace.setdefault("root", str(file))
            conform_trace(trace, report)
            count += 1
    return report, count


# ---------------------------------------------------------------------------
# In-process implementation traces (the real journal + recovery code)
# ---------------------------------------------------------------------------

def gather_impl_traces(
    root: str | Path, runs: int = 100, seed: int = 20260807
) -> list[dict[str, Any]]:
    """Drive the *real* durability stack through seeded 2PC schedules.

    Each run builds a two-shard cluster directory under *root* (real
    :class:`~repro.storage.durable.DurableDatabase` + journals + a real
    :class:`~repro.shard.twopc.CoordinatorLog`), pushes a few
    transactions through prepare/decide with seeded crash points
    (``Journal.abandon`` — the crash simulator's teardown — then
    recovery through ``DurableDatabase`` + ``resolve_in_doubt`` +
    ``presume_abort``), and extracts the durable trace.  No processes,
    no sockets: this is the journal-level protocol, hundreds of traces
    a second, used by ``repro-check proto --impl-traces`` and CI.
    """
    import random

    from ..shard.placement import ensure_manifest
    from ..shard.twopc import CoordinatorLog
    from ..storage.durable import DurableDatabase
    from ..txn.manager import TransactionManager

    root = Path(root)
    traces: list[dict[str, Any]] = []
    rng = random.Random(seed)
    for run in range(runs):
        run_root = root / f"run-{run:04d}"
        manifest = ensure_manifest(run_root, shards=2,
                                   sync_policy="commit")
        coord = CoordinatorLog.in_root(run_root)
        dbs = {}
        managers = {}
        for shard_id in range(2):
            directory = manifest.shard_path(run_root, shard_id)
            directory.mkdir(parents=True, exist_ok=True)
            db = DurableDatabase(str(directory), sync_policy="commit")
            db.make_class("Doc", attributes=[
                {"name": "Stamp", "domain": "integer"},
            ])
            dbs[shard_id] = db
            managers[shard_id] = TransactionManager(db)
        try:
            for index in range(rng.randint(1, 3)):
                gtid = f"g{run}-{index}"
                _impl_2pc_round(rng, gtid, dbs, managers, coord)
                # Recover any shard the round crashed before the next
                # round, the way a worker restart would.
                _impl_recover(run_root, manifest, dbs, managers, coord)
        finally:
            for db in dbs.values():
                if not db.journal.closed:
                    db.journal.close()
        traces.append(extract_trace(run_root))
    return traces


def _impl_2pc_round(
    rng: Any,
    gtid: str,
    dbs: dict[int, Any],
    managers: dict[int, Any],
    coord: Any,
) -> None:
    """One seeded cross-shard transaction through the real journals.

    Crash points mirror the failpoint sites: before prepare (batch
    lost), after prepare (in doubt), before the decision line (presumed
    abort), and between per-shard decision deliveries (recovery
    resolves from the log).
    """
    fate = rng.random()
    txns = {}
    for shard_id, manager in managers.items():
        if dbs[shard_id].journal.closed:
            return  # shard already crashed in an earlier round
        txn = manager.begin()
        manager.make(txn, "Doc", values={"Stamp": rng.randrange(1000)})
        txns[shard_id] = txn
    if fate < 0.12:
        # Crash one participant before it prepares: volatile batch.
        victim = rng.randrange(2)
        dbs[victim].journal.abandon()
        for shard_id, txn in txns.items():
            if shard_id != victim:
                managers[shard_id].abort(txn)
        return
    prepared = []
    for shard_id, txn in txns.items():
        dbs[shard_id].journal.prepare_txn(txn, gtid)
        prepared.append(shard_id)
        if fate < 0.24 and shard_id == 0 and rng.random() < 0.5:
            # Crash after P, before the other shard even prepares.
            dbs[shard_id].journal.abandon()
            managers[1].abort(txns[1])
            return
    if fate < 0.38:
        # Coordinator dies before logging: presumed abort territory.
        crashed = rng.randrange(2)
        dbs[crashed].journal.abandon()
        other = 1 - crashed
        dbs[other].journal.resolve_prepared(gtid, False)
        managers[other].abort(txns[other])
        return
    outcome = "commit" if rng.random() < 0.75 else "abort"
    coord.decide(gtid, outcome, shards=prepared)
    commit = outcome == "commit"
    for shard_id, txn in txns.items():
        if fate < 0.55 and shard_id == 1 and rng.random() < 0.6:
            # Crash between deliveries: this shard stays in doubt
            # until recovery reads the decision from the coord log.
            dbs[shard_id].journal.abandon()
            continue
        dbs[shard_id].journal.resolve_prepared(gtid, commit)
        if commit:
            managers[shard_id].commit(txn)
        else:
            managers[shard_id].abort(txn)


def _impl_recover(
    root: Path,
    manifest: Any,
    dbs: dict[int, Any],
    managers: dict[int, Any],
    coord: Any,
) -> None:
    """Recover every crashed shard exactly as a worker restart would:
    replay the journal, resolve in-doubt batches against the coord log,
    presume abort for the remainder (grace expired — the coordinator
    in this harness is done deciding)."""
    from ..shard import twopc
    from ..storage.durable import DurableDatabase
    from ..txn.manager import TransactionManager

    decisions = coord.load()
    for shard_id, db in list(dbs.items()):
        if not db.journal.closed:
            continue
        directory = manifest.shard_path(root, shard_id)
        recovered = DurableDatabase(str(directory), sync_policy="commit")
        twopc.resolve_in_doubt(recovered, decisions,
                               journal=recovered.journal)
        twopc.presume_abort(recovered, journal=recovered.journal)
        dbs[shard_id] = recovered
        managers[shard_id] = TransactionManager(recovered)


# ---------------------------------------------------------------------------
# PROTO-SITE-DRIFT: the code's failpoint sites vs the model's universe
# ---------------------------------------------------------------------------

#: Files whose ``fire()``/``fire_or_die()`` call sites make up the
#: implementation side of the crash-site universe, relative to the
#: ``repro`` package root.
SCANNED_FILES = (
    "shard/twopc.py",
    "shard/router.py",
    "shard/worker.py",
    "shard/crashsim.py",
    "shard/placement.py",
    "storage/journal.py",
    "server/dispatch.py",
)

_FIRE_NAMES = frozenset({"fire", "_fire", "fire_or_die"})


def _fired_sites(path: Path) -> list[tuple[str, int]]:
    """``(site, line)`` for every fire-family call with a literal site."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        if name not in _FIRE_NAMES:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            found.append((first.value, node.lineno))
    return found


def lint_protocol_sites(
    package_root: Optional[str | Path] = None,
    report: Optional[Report] = None,
) -> Report:
    """Bidirectional drift check between code sites and the model.

    Every literal failpoint fired by the scanned protocol/durability
    files must be in the model's universe (``CRASH_SITES`` or the
    documented ``SUBSUMED_SITES``) *and* in the faults-registry catalog;
    every universe entry must be fired somewhere in the scanned set.
    Either direction of drift means the exhaustive exploration no longer
    speaks for the implementation — an ERROR, not a style nit.
    """
    from ..faults.registry import FAILPOINTS

    if report is None:
        report = Report(plane="proto")
    if package_root is None:
        import repro

        package_root = Path(repro.__file__).parent
    package_root = Path(package_root)
    universe = set(CRASH_SITES) | set(SUBSUMED_SITES)
    fired: dict[str, list[str]] = {}
    for relative in SCANNED_FILES:
        path = package_root / relative
        if not path.exists():
            report.add(
                Severity.ERROR, "PROTO-SITE-DRIFT", relative,
                "scanned protocol file is missing — update "
                "protocheck.SCANNED_FILES if it moved",
            )
            continue
        report.checked += 1
        for site, line in _fired_sites(path):
            fired.setdefault(site, []).append(f"{relative}:{line}")
    for site, locations in sorted(fired.items()):
        if site not in FAILPOINTS:
            report.add(
                Severity.ERROR, "PROTO-SITE-DRIFT", locations[0],
                f"fired site {site!r} is not in the faults-registry "
                f"catalog (typo, or FAILPOINTS needs the entry)",
                site=site, locations=locations,
            )
        if site not in universe:
            report.add(
                Severity.ERROR, "PROTO-SITE-DRIFT", locations[0],
                f"fired site {site!r} is not in the model's crash-site "
                f"universe — add it to proto_model.CRASH_SITES (and a "
                f"crash variant) or document it in SUBSUMED_SITES",
                site=site, locations=locations,
            )
    for site in sorted(universe - set(fired)):
        report.add(
            Severity.ERROR, "PROTO-SITE-DRIFT", site,
            f"model universe site {site!r} is fired nowhere in the "
            f"scanned implementation files — the model checks a "
            f"transition the code no longer has",
            site=site,
        )
    return report


# ---------------------------------------------------------------------------
# PROTO-OP-DRIFT: the wire-op table vs its handlers
# ---------------------------------------------------------------------------

def lint_wire_ops(report: Optional[Report] = None) -> Report:
    """Check :data:`repro.server.protocol.WIRE_OPS` against the code that
    serves its rows.  Everything else about an op is derived from its
    row, so this is all that can drift:

    * every row has a handler in the server's ``dispatch.COMMANDS`` and
      every handler a row (a row without one fails every request; a
      handler without one has no client method, effect or shard route);
    * the rows the shard router answers or scatters itself are exactly
      the ops in its ``_OWN_OPS`` map;
    * every op survives the wire framing round-trip — a codec change
      must not quietly orphan an op.
    """
    from ..server.dispatch import COMMANDS
    from ..server.protocol import ROUTER, SCATTER, WIRE_OPS
    from ..shard.router import ShardRouter

    if report is None:
        report = Report(plane="proto")
    rows, commands = set(WIRE_OPS), set(COMMANDS)
    report.checked += len(rows | commands)
    for op in sorted(rows - commands):
        report.add(
            Severity.ERROR, "PROTO-OP-DRIFT", op,
            f"WIRE_OPS row {op!r} has no handler in dispatch.COMMANDS — "
            f"every request for it fails",
        )
    for op in sorted(commands - rows):
        report.add(
            Severity.ERROR, "PROTO-OP-DRIFT", op,
            f"handler {op!r} has no WIRE_OPS row — it has no client "
            f"method, effect or shard route",
        )
    own = {op for op, row in WIRE_OPS.items()
           if row.route in (ROUTER, SCATTER)}
    for op in sorted(own ^ set(ShardRouter._OWN_OPS)):
        report.add(
            Severity.ERROR, "PROTO-OP-DRIFT", op,
            f"op {op!r} is answered by the shard router in only one of "
            f"WIRE_OPS (route router/scatter) and ShardRouter._OWN_OPS",
        )
    _lint_v2_servability(rows | commands, report)
    return report


def _lint_v2_servability(commands: set[str], report: Report) -> None:
    """Every dispatchable op must be servable over the wire.

    Encodes a request naming each op, decodes the payload, and
    re-validates it through :func:`check_request` — the same path the
    server walks for a real client.  An op that cannot round-trip
    (codec regression, tag collision, name the binary string codec
    rejects) is unreachable for every client — exactly the drift this
    lint exists to catch.
    """
    from ..server.protocol import (
        VERSION,
        ProtocolError,
        check_request,
        decode_payload,
        encode_request_bytes,
    )

    for op in sorted(commands):
        report.checked += 1
        try:
            data = encode_request_bytes(VERSION, 1, op, {})
            frame = decode_payload(VERSION, data[4:])  # strip length prefix
            request_id, decoded_op, _args = check_request(frame)
        except ProtocolError as error:
            report.add(
                Severity.ERROR, "PROTO-OP-DRIFT", op,
                f"op {op!r} does not survive the v2 framing round-trip "
                f"({error}) — v2 clients cannot reach it",
            )
            continue
        if (request_id, decoded_op) != (1, op):
            report.add(
                Severity.ERROR, "PROTO-OP-DRIFT", op,
                f"v2 round-trip of op {op!r} came back as "
                f"id={request_id!r} op={decoded_op!r}",
            )
