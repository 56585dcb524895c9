"""The 2PC protocol as a pure, finite state machine (plane 4's model).

This module is the *specification* side of the protocol model checker:
an abstraction of the presumed-abort two-phase commit implemented by
:mod:`repro.shard.twopc`, :mod:`repro.shard.router` (``_commit_2pc`` +
``reconcile``) and :mod:`repro.shard.worker` (``_settle_in_doubt``),
small enough to enumerate exhaustively.  :mod:`repro.analysis.
protocheck` drives the exploration and checks the invariants; this
module only knows states and transitions.

Abstraction choices (each maps to a concrete mechanism):

* A **scope** fixes the number of workers and concurrent cross-shard
  transactions plus a crash budget.  Every transaction touches every
  worker — the worst case for atomicity.
* Coordinator state per transaction: a phase (``run`` → volatile,
  ``dead`` → coordinator crashed before deciding, ``decided`` → the
  fsynced coord.log line exists), the logged decision, one vote slot
  per worker, one decide-delivery slot per worker, and the client ack.
  A coordinator crash moves every undecided transaction to ``dead``
  (its votes were volatile) and makes their clients unackable — the
  TCP session died with the router.
* Participant state per (transaction, worker): ``active`` (writes
  buffered, nothing durable) → ``prepared`` (P record fsynced) →
  ``committed``/``aborted`` (R record), with ``doubt`` for a P without
  an R after a crash and ``lost`` for volatile writes on a dead worker.
  A worker crash maps ``active → lost`` and ``prepared → doubt``;
  restart-recovery maps ``lost → aborted`` (nothing in the journal)
  and re-raises ``doubt`` exactly like ``Journal.recover_into``.
* **Crashes happen at failpoint sites**, not arbitrarily: each
  transition that contains a site from :data:`CRASH_SITES` spawns one
  crash variant per site, spending the scope's crash budget — the same
  universe the multi-process crash simulator kills at, which is what
  makes the PROTO-SITE-DRIFT lint meaningful.
* ``presume_abort`` is guarded by :func:`commit_possible` — the model's
  rendering of the implementation's grace-period contract: a worker may
  presume only once the coordinator can no longer decide commit for
  that gtid (it died, already failed phase 1, or the worker's own P
  batch is in doubt so its yes-vote can never arrive).

The ``bug`` hook seeds deliberate protocol defects (``repro-check proto
--self-test`` uses ``"presumed-commit"``) so the checker can prove it
would catch them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

# ---------------------------------------------------------------------------
# The crash-site universe
# ---------------------------------------------------------------------------

#: Failpoint sites at which the model enumerates a crash variant, mapped
#: to the process kind that dies there.  These are exactly the ``kill``
#: sites the multi-process crash simulator arms
#: (:data:`repro.shard.crashsim.WORKER_SITES` + ``ROUTER_SITES``).
CRASH_SITES: dict[str, str] = {
    "twopc.prepare": "worker",       # before the P batch is durable
    "twopc.prepared": "worker",      # P durable, vote not yet sent
    "twopc.decide": "worker",        # decision received, R not durable
    "twopc.decided": "worker",       # R durable, ack not yet sent
    "coord.log_decision": "coord",   # before the coord.log line
    "coord.decided": "coord",        # line fsynced, nothing sent yet
    "coord.send_decide": "coord",    # between per-participant sends
}

#: Sites fired by the scanned implementation files that the model
#: *subsumes* rather than enumerates: a journal-level crash during
#: prepare is indistinguishable (at this abstraction) from a crash at
#: the bracketing ``twopc.*`` site, and the ``*ed`` observers carry no
#: failure at all.  PROTO-SITE-DRIFT checks the scanned call sites
#: against ``CRASH_SITES | SUBSUMED_SITES`` bidirectionally.
SUBSUMED_SITES: dict[str, str] = {
    "journal.write_record": "subsumed by twopc.prepare/twopc.decide",
    "journal.fsync": "subsumed by twopc.prepare/twopc.decide",
    "journal.fsynced": "observer only (durable watermark)",
    "journal.checkpoint": "checkpoint is outside the 2PC window",
    "journal.checkpointed": "observer only",
}

# -- participant part states ------------------------------------------------
ACTIVE = "active"        # writes buffered in the open txn, nothing durable
PREPARED = "prepared"    # P record fsynced, process alive
DOUBT = "doubt"          # P without R across a crash (in-doubt)
COMMITTED = "committed"  # R(commit) applied
ABORTED = "aborted"      # R(abort) applied, or the batch dropped/lost
LOST = "lost"            # volatile writes on a dead worker (pre-P)

# -- coordinator phases -----------------------------------------------------
RUN = "run"              # driving phase 1, votes volatile
DEAD = "dead"            # crashed undecided: votes gone, no log line
DECIDED = "decided"      # the coord.log line is fsynced (commit point)


class Scope(NamedTuple):
    """How big a protocol instance to enumerate."""

    workers: int = 2
    txns: int = 1
    max_crashes: int = 1


class State(NamedTuple):
    """One global protocol state (hashable, immutable).

    Indexing is ``votes[txn][worker]`` throughout.  ``acked`` uses
    ``"none"`` (client still waiting), ``"commit"``/``"abort"`` (client
    saw the outcome) and ``"lost"`` (the coordinator died mid-commit,
    the client's connection with it — no ack can ever arrive).
    """

    coord_alive: bool
    workers_alive: tuple[bool, ...]
    phases: tuple[str, ...]
    decisions: tuple[Optional[str], ...]
    votes: tuple[tuple[str, ...], ...]        # "-", "req", "yes", "fail"
    delivered: tuple[tuple[str, ...], ...]    # "-", "sent"
    acked: tuple[str, ...]                    # none/commit/abort/lost
    parts: tuple[tuple[str, ...], ...]
    crashes_left: int


@dataclass(frozen=True)
class Action:
    """One transition: a protocol step, optionally dying at a site."""

    name: str
    txn: int = -1
    worker: int = -1
    crash: Optional[str] = None
    note: str = ""

    def label(self) -> str:
        bits = [self.name]
        if self.txn >= 0:
            bits.append(f"t{self.txn}")
        if self.worker >= 0:
            bits.append(f"w{self.worker}")
        if self.note:
            bits.append(self.note)
        head = f"{bits[0]}({', '.join(bits[1:])})"
        if self.crash:
            head += f" +crash@{self.crash}"
        return head


def initial_state(scope: Scope) -> State:
    return State(
        coord_alive=True,
        workers_alive=(True,) * scope.workers,
        phases=(RUN,) * scope.txns,
        decisions=(None,) * scope.txns,
        votes=(("-",) * scope.workers,) * scope.txns,
        delivered=(("-",) * scope.workers,) * scope.txns,
        acked=("none",) * scope.txns,
        parts=((ACTIVE,) * scope.workers,) * scope.txns,
        crashes_left=scope.max_crashes,
    )


# ---------------------------------------------------------------------------
# Tuple surgery helpers
# ---------------------------------------------------------------------------

def _set(row: tuple[str, ...], index: int, value: str) -> tuple[str, ...]:
    return row[:index] + (value,) + row[index + 1:]


def _set2(
    grid: tuple[tuple[str, ...], ...], txn: int, worker: int, value: str
) -> tuple[tuple[str, ...], ...]:
    return grid[:txn] + (_set(grid[txn], worker, value),) + grid[txn + 1:]


def _crash_worker(state: State, worker: int) -> State:
    """A worker dies: volatile batches are lost, P batches become doubt."""
    parts = tuple(
        _set(
            row,
            worker,
            LOST if row[worker] == ACTIVE
            else DOUBT if row[worker] == PREPARED
            else row[worker],
        )
        for row in state.parts
    )
    return state._replace(
        workers_alive=state.workers_alive[:worker] + (False,)
        + state.workers_alive[worker + 1:],
        parts=parts,
        crashes_left=state.crashes_left - 1,
    )


def _crash_coord(state: State) -> State:
    """The coordinator dies: undecided txns lose their volatile votes
    (phase ``dead``) and every still-waiting client becomes unackable."""
    return state._replace(
        coord_alive=False,
        phases=tuple(DEAD if p == RUN else p for p in state.phases),
        acked=tuple(
            "lost" if ack == "none" else ack for ack in state.acked
        ),
        crashes_left=state.crashes_left - 1,
    )


def commit_possible(state: State, txn: int) -> bool:
    """Can the coordinator still log *commit* for *txn*?

    This is the model's grace-period contract: a live coordinator in
    phase 1 with no failed vote, where every missing vote can still
    arrive as *yes* (the worker is alive with its batch intact).
    ``presume_abort`` is legal exactly when this is False.
    """
    if not state.coord_alive or state.phases[txn] != RUN:
        return False
    for worker, vote in enumerate(state.votes[txn]):
        if vote == "fail":
            return False
        if vote in ("-", "req") and not (
            state.workers_alive[worker]
            and state.parts[txn][worker] == ACTIVE
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# The transition relation
# ---------------------------------------------------------------------------

def successors(
    state: State,
    scope: Scope,
    bug: Optional[str] = None,
    spontaneous: bool = False,
) -> list[tuple[Action, State]]:
    """Every enabled transition from *state*, crash variants included.

    *bug* seeds a deliberate protocol defect (for detector self-tests):

    * ``"presumed-commit"`` — in-doubt settle resolves **commit**
      instead of abort (the classic presumed-abort inversion);
    * ``"presume-eager"`` — drops the :func:`commit_possible` guard, so
      a worker may presume abort while the coordinator can still
      decide commit.

    *spontaneous* additionally lets any process die *between* protocol
    steps (a power cut does not wait for a failpoint).  The default
    sweep keeps it off — site crashes already cover the durable-state
    space — but it is what makes the grace-period guard falsifiable:
    only a worker that voted yes and then died leaves a doubt batch the
    coordinator could still commit, and no failpoint sits there.
    """
    out: list[tuple[Action, State]] = []
    can_crash = state.crashes_left > 0
    if spontaneous and can_crash:
        if state.coord_alive:
            out.append((
                Action("crash_coord", note="spontaneous"),
                _crash_coord(state),
            ))
        for worker in range(scope.workers):
            if state.workers_alive[worker]:
                out.append((
                    Action("crash_worker", worker=worker,
                           note="spontaneous"),
                    _crash_worker(state, worker),
                ))
    for txn in range(scope.txns):
        _txn_successors(state, scope, txn, bug, can_crash, out)
    for worker in range(scope.workers):
        if not state.workers_alive[worker]:
            parts = tuple(
                _set(row, worker, ABORTED if row[worker] == LOST
                     else row[worker])
                for row in state.parts
            )
            out.append((
                Action("restart_worker", worker=worker),
                state._replace(
                    workers_alive=state.workers_alive[:worker] + (True,)
                    + state.workers_alive[worker + 1:],
                    parts=parts,
                ),
            ))
    if not state.coord_alive:
        out.append((
            Action("restart_coord"), state._replace(coord_alive=True),
        ))
    return out


def _txn_successors(
    state: State,
    scope: Scope,
    txn: int,
    bug: Optional[str],
    can_crash: bool,
    out: list[tuple[Action, State]],
) -> None:
    coord_up = state.coord_alive
    phase = state.phases[txn]
    decision = state.decisions[txn]
    votes = state.votes[txn]
    parts = state.parts[txn]

    # -- phase 1: prepare requests, votes, vote failures ------------------
    if coord_up and phase == RUN:
        for worker in range(scope.workers):
            if votes[worker] == "-" and all(
                votes[prior] != "-" for prior in range(worker)
            ):
                # The router's prepare loop is sequential per txn.
                out.append((
                    Action("send_prepare", txn, worker),
                    state._replace(votes=_set2(state.votes, txn, worker,
                                               "req")),
                ))
            if votes[worker] == "req" and not (
                state.workers_alive[worker] and parts[worker] == ACTIVE
            ):
                # The request can never produce a yes vote any more:
                # the participant died (or its batch did).
                out.append((
                    Action("vote_fail", txn, worker),
                    state._replace(votes=_set2(state.votes, txn, worker,
                                               "fail")),
                ))

    for worker in range(scope.workers):
        if (state.workers_alive[worker] and votes[worker] == "req"
                and parts[worker] == ACTIVE):
            _worker_prepare(state, txn, worker, can_crash, out)

    # -- the decision ------------------------------------------------------
    if coord_up and phase == RUN:
        outcome = None
        if all(vote == "yes" for vote in votes):
            outcome = "commit"
        elif any(vote == "fail" for vote in votes):
            outcome = "abort"
        if outcome is not None:
            _log_decision(state, txn, outcome, "log_decision",
                          can_crash, out)
    if coord_up and phase == DEAD:
        # Reconcile-on-start: an undecided gtid from a previous
        # incarnation gets an explicit abort line (presumed abort made
        # durable), exactly like ``Router.reconcile``.
        _log_decision(state, txn, "abort", "reconcile",
                      can_crash, out)

    # -- phase 2: decide delivery, acks ------------------------------------
    if coord_up and phase == DECIDED:
        assert decision is not None
        for worker in range(scope.workers):
            if state.delivered[txn][worker] == "-" and all(
                state.delivered[txn][prior] != "-"
                for prior in range(worker)
            ):
                _send_decide(state, txn, worker, decision,
                             can_crash, out)
                break
        if (state.acked[txn] == "none"
                and all(d != "-" for d in state.delivered[txn])):
            out.append((
                Action("ack", txn, note=decision),
                state._replace(acked=_set(state.acked, txn, decision)),
            ))

    # -- participant-side in-doubt settlement ------------------------------
    for worker in range(scope.workers):
        if not (state.workers_alive[worker] and parts[worker] == DOUBT):
            continue
        if decision is not None:
            # _settle_in_doubt / reconcile: the coord.log line exists,
            # the worker applies it (journals R).
            out.append((
                Action("poll_log", txn, worker, note=decision),
                state._replace(parts=_set2(
                    state.parts, txn, worker,
                    COMMITTED if decision == "commit" else ABORTED)),
            ))
        elif bug == "presume-eager" or not commit_possible(state, txn):
            resolved = COMMITTED if bug == "presumed-commit" else ABORTED
            out.append((
                Action("presume_abort", txn, worker),
                state._replace(parts=_set2(state.parts, txn, worker,
                                           resolved)),
            ))


def _worker_prepare(
    state: State,
    txn: int,
    worker: int,
    can_crash: bool,
    out: list[tuple[Action, State]],
) -> None:
    """A live participant processes the prepare request."""
    prepared = state._replace(
        votes=_set2(state.votes, txn, worker, "yes"),
        parts=_set2(state.parts, txn, worker, PREPARED),
    )
    out.append((Action("worker_prepare", txn, worker), prepared))
    if can_crash:
        out.append((
            Action("worker_prepare", txn, worker, crash="twopc.prepare"),
            _crash_worker(state, worker),   # nothing durable: batch lost
        ))
        out.append((
            Action("worker_prepare", txn, worker, crash="twopc.prepared"),
            _crash_worker(
                state._replace(
                    parts=_set2(state.parts, txn, worker, PREPARED)
                ),
                worker,
            ),  # P durable, vote never sent: in doubt, vote stays "req"
        ))


def _log_decision(
    state: State,
    txn: int,
    outcome: str,
    name: str,
    can_crash: bool,
    out: list[tuple[Action, State]],
) -> None:
    """The coordinator fsyncs a decision line (the 2PC commit point)."""
    logged = state._replace(
        phases=_set(state.phases, txn, DECIDED),
        decisions=state.decisions[:txn] + (outcome,)
        + state.decisions[txn + 1:],
    )
    out.append((Action(name, txn, note=outcome), logged))
    if can_crash:
        out.append((
            Action(name, txn, note=outcome, crash="coord.log_decision"),
            _crash_coord(state),            # nothing logged
        ))
        out.append((
            Action(name, txn, note=outcome, crash="coord.decided"),
            _crash_coord(logged),           # line fsynced, nothing sent
        ))


def _send_decide(
    state: State,
    txn: int,
    worker: int,
    outcome: str,
    can_crash: bool,
    out: list[tuple[Action, State]],
) -> None:
    """Deliver the decision to one participant (the router's decide
    loop is sequential; a failed delivery never blocks the loop)."""
    if can_crash:
        out.append((
            Action("send_decide", txn, worker, note=outcome,
                   crash="coord.send_decide"),
            _crash_coord(state),   # decision durable; delivery never left
        ))
    part = state.parts[txn][worker]
    sent = state._replace(
        delivered=_set2(state.delivered, txn, worker, "sent")
    )
    if not state.workers_alive[worker] or part in (
        LOST, COMMITTED, ABORTED
    ):
        # Connection refused / already resolved: the router logs and
        # moves on — recovery (poll_log) owns this participant now.
        out.append((
            Action("send_decide", txn, worker,
                   note=f"{outcome}, undeliverable"),
            sent,
        ))
        return
    resolved = COMMITTED if outcome == "commit" else ABORTED
    applied = sent._replace(
        parts=_set2(sent.parts, txn, worker, resolved)
    )
    out.append((
        Action("send_decide", txn, worker, note=outcome), applied,
    ))
    if can_crash:
        out.append((
            Action("send_decide", txn, worker, note=outcome,
                   crash="twopc.decide"),
            # R not durable: active → lost / prepared, doubt → doubt.
            _crash_worker(sent, worker),
        ))
        out.append((
            Action("send_decide", txn, worker, note=outcome,
                   crash="twopc.decided"),
            _crash_worker(applied, worker),   # R durable, ack lost
        ))


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

class Violation(NamedTuple):
    rule: str
    location: str
    message: str


def violations(state: State, terminal: bool) -> Iterator[Violation]:
    """The safety invariants, checked on every reachable state.

    *terminal* marks states with no enabled transition — quiescence:
    every process alive, every message drained.  Liveness-flavoured
    invariants (nothing stuck in doubt, acked commits fully applied)
    only make sense there; the pure safety ones hold everywhere.
    """
    for txn, row in enumerate(state.parts):
        decision = state.decisions[txn]
        committed = [w for w, part in enumerate(row) if part == COMMITTED]
        aborted = [w for w, part in enumerate(row) if part == ABORTED]
        if committed and aborted:
            yield Violation(
                "PROTO-ATOMICITY", f"t{txn}",
                f"transaction t{txn} committed on workers {committed} "
                f"but aborted on {aborted} (all-or-none broken)",
            )
        if committed and decision != "commit":
            yield Violation(
                "PROTO-CONSISTENCY", f"t{txn}",
                f"workers {committed} applied commit for t{txn} but the "
                f"coordinator log says {decision!r} — a commit without "
                f"a durable decision line",
            )
        if aborted and decision == "commit":
            yield Violation(
                "PROTO-CONSISTENCY", f"t{txn}",
                f"workers {aborted} aborted t{txn} against a durable "
                f"commit decision",
            )
        if state.acked[txn] == "commit" and decision != "commit":
            yield Violation(
                "PROTO-DURABILITY", f"t{txn}",
                f"client was acked commit for t{txn} with no durable "
                f"commit decision (log says {decision!r})",
            )
        if terminal:
            if state.acked[txn] == "commit" and any(
                part != COMMITTED for part in row
            ):
                yield Violation(
                    "PROTO-DURABILITY", f"t{txn}",
                    f"acked commit for t{txn} but quiescent participant "
                    f"states are {row} — an acknowledged commit "
                    f"evaporated",
                )
            stuck = [
                w for w, part in enumerate(row)
                if part in (PREPARED, DOUBT)
            ]
            if stuck:
                yield Violation(
                    "PROTO-STUCK", f"t{txn}",
                    f"workers {stuck} hold t{txn} prepared/in-doubt in a "
                    f"quiescent state — permanently blocked participant",
                )
