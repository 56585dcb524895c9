"""Lockdep-style lock-order analysis (concurrency plane, part 1).

The runtime deadlock detector (:mod:`repro.locking.deadlock`) only sees
cycles that *actually form* in the wait-for graph.  Following the lockdep
/ TSan idea, this module reports **potential** deadlocks from executions
that never deadlocked: a :class:`LockOrderRecorder` observes every grant
of a :class:`repro.locking.table.LockTable` (including the implicit
class-intention locks the Section 7 composite protocol takes on composite
ancestors), remembers the per-transaction acquisition order, and folds
each completed transaction into a global :class:`LockOrderGraph`.  Two
transactions that ever acquired two resources in opposite order — with
modes that conflict under the Figure 7/8 compatibility matrices — are a
latent deadlock even when their lifetimes never overlapped.

The same graph is fed *statically* by :mod:`repro.analysis.locklint`,
which replays declarative transaction templates through the pure lock
planners instead of a live table; both report through the shared
findings model.

Rule ids
--------

``LOCKDEP-INVERSION``
    (error) two witness transactions acquired resources *a* and *b* in
    opposite orders with conflicting modes; the finding carries both
    witnesses' acquisition stacks.
``LOCKDEP-UPGRADE``
    (warning) one transaction acquired a resource in a mode that
    conflicts with a mode it already held (an in-place upgrade, e.g.
    S -> X): two concurrent instances of the same pattern deadlock on
    the upgrade.
``LOCKDEP-CYCLE``
    (warning) the global acquisition-order graph has a cycle longer than
    two resources; each edge names one witness transaction.

The static plane (:mod:`repro.analysis.locklint`) uses the prefix
``LOCK`` for the same three shapes, so runtime and predicted findings
stay distinguishable in one merged report.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, NamedTuple, Optional

from ..locking.deadlock import find_cycle
from ..locking.modes import COMPATIBILITY, LockMode
from ..locking.table import LockObserver, LockTable
from .findings import Report, Severity

__all__ = [
    "Acquisition",
    "LockOrderGraph",
    "LockOrderRecorder",
    "OrderEdge",
    "conflicts_with_any",
]

#: Witnesses kept per directed (resource, resource) edge; the first few
#: are enough to report, and capping keeps long runs O(resources^2).
MAX_WITNESSES_PER_EDGE = 4

#: Frames kept per acquisition stack.
MAX_STACK_FRAMES = 6

#: Modules whose frames are noise in an acquisition stack (the locking
#: machinery itself and this recorder).
_STACK_SKIP = ("repro/locking/", "repro\\locking\\", "repro/analysis/lockdep",
               "repro\\analysis\\lockdep")


def conflicts_with_any(mode: LockMode, held: Iterable[LockMode]) -> bool:
    """True when *mode* is incompatible with at least one mode in *held*."""
    return any(not COMPATIBILITY[(mode, other)] for other in held)


class Acquisition(NamedTuple):
    """One granted (resource, mode) with its acquisition context (a
    tuple: the recorder builds one per grant)."""

    resource: Hashable
    mode: LockMode
    #: 0-based position in the transaction's acquisition sequence.
    order: int
    #: Where the grant came from: a trimmed call stack ("file:line in
    #: func", innermost last), or the transaction's ``site`` labels when
    #: stack capture is off; empty when the transaction has none or the
    #: trace was synthesized statically.
    stack: tuple[str, ...] = ()


@dataclass
class _Witness:
    """One transaction's evidence for an order edge ``src -> dst``."""

    txn: Any
    #: Modes held on ``src`` when ``dst`` was acquired.
    held_modes: frozenset[LockMode]
    #: Mode acquired on ``dst``.
    acquired_mode: LockMode
    #: Acquisition stacks of the first grant on ``src`` and the grant on
    #: ``dst`` (diagnosis: where did each end of the edge come from).
    src_stack: tuple[str, ...]
    dst_stack: tuple[str, ...]


@dataclass
class OrderEdge:
    """A directed lock-order edge: some transaction took src before dst."""

    src: Hashable
    dst: Hashable
    witnesses: list[_Witness] = field(default_factory=list)
    #: Total times the edge was traversed (may exceed len(witnesses)).
    count: int = 0


def _resource_label(resource: Hashable) -> str:
    """Render a lock resource the way the protocol builds them."""
    if (
        isinstance(resource, tuple)
        and len(resource) == 2
        and isinstance(resource[0], str)
    ):
        return f"{resource[0]}:{resource[1]}"
    return str(resource)


def _txn_label(txn: Any) -> str:
    return str(getattr(txn, "txn_id", txn))


def capture_stack(max_frames: int = MAX_STACK_FRAMES) -> tuple[str, ...]:
    """A cheap acquisition stack: walk frames, skip the lock machinery.

    Uses ``sys._getframe`` instead of :mod:`traceback` — no source-line
    loading, so the recorder stays usable on hot paths.
    """
    frames: list[str] = []
    try:
        frame = sys._getframe(2)
    except ValueError:  # shallower than expected (embedded interpreters)
        return ()
    while frame is not None and len(frames) < max_frames:
        code = frame.f_code
        filename = code.co_filename
        if not any(skip in filename for skip in _STACK_SKIP):
            short = "/".join(filename.replace("\\", "/").split("/")[-2:])
            frames.append(f"{short}:{frame.f_lineno} in {code.co_name}")
        frame = frame.f_back
    return tuple(frames)


class LockOrderGraph:
    """A global acquisition-order graph over completed transactions.

    Feed it one *trace* per transaction — the ordered
    :class:`Acquisition` list — and :meth:`analyze` reports latent
    deadlocks.  The graph is the shared core of the runtime recorder
    (:class:`LockOrderRecorder`) and the static template analyzer
    (:mod:`repro.analysis.locklint`); the ``rule_prefix`` chooses the
    rule-id namespace (``LOCKDEP`` vs ``LOCK``).
    """

    def __init__(self, rule_prefix: str = "LOCKDEP") -> None:
        self.rule_prefix = rule_prefix
        #: (src, dst) -> OrderEdge
        self._edges: dict[tuple[Hashable, Hashable], OrderEdge] = {}
        #: In-trace upgrades: (resource, held frozenset, acquired mode) ->
        #: (txn label, stack) of the first witness.
        self._upgrades: dict[
            tuple[Hashable, frozenset[LockMode], LockMode],
            tuple[str, tuple[str, ...]],
        ] = {}
        #: Transactions folded in (coverage metric).
        self.traces = 0

    # -- recording ---------------------------------------------------------

    def add_trace(self, txn: Any, acquisitions: Iterable[Acquisition]) -> None:
        """Fold one completed transaction's acquisition sequence in."""
        self.traces += 1
        label = _txn_label(txn)
        held: dict[Hashable, set[LockMode]] = {}
        first_stack: dict[Hashable, tuple[str, ...]] = {}
        for acq in acquisitions:
            modes_here = held.get(acq.resource)
            if modes_here is not None:
                # Re-acquisition of a held resource: only interesting when
                # the new mode conflicts with a held one (upgrade hazard).
                if acq.mode not in modes_here and conflicts_with_any(
                    acq.mode, modes_here
                ):
                    key = (acq.resource, frozenset(modes_here), acq.mode)
                    self._upgrades.setdefault(key, (label, acq.stack))
                modes_here.add(acq.mode)
                continue
            for src, src_modes in held.items():
                edge = self._edges.get((src, acq.resource))
                if edge is None:
                    edge = OrderEdge(src=src, dst=acq.resource)
                    self._edges[(src, acq.resource)] = edge
                edge.count += 1
                if len(edge.witnesses) < MAX_WITNESSES_PER_EDGE:
                    edge.witnesses.append(_Witness(
                        txn=label,
                        held_modes=frozenset(src_modes),
                        acquired_mode=acq.mode,
                        src_stack=first_stack.get(src, ()),
                        dst_stack=acq.stack,
                    ))
            held[acq.resource] = {acq.mode}
            first_stack[acq.resource] = acq.stack

    # -- analysis ----------------------------------------------------------

    def edges(self) -> list[OrderEdge]:
        """The recorded order edges (inspection/tests)."""
        return list(self._edges.values())

    def analyze(self, report: Optional[Report] = None) -> Report:
        """Report every latent deadlock visible in the recorded orders."""
        if report is None:
            report = Report(plane="lockdep")
        report.checked += self.traces
        self._report_inversions(report)
        self._report_upgrades(report)
        self._report_long_cycles(report)
        return report

    def _report_inversions(self, report: Report) -> None:
        seen: set[tuple[Hashable, Hashable]] = set()
        for (src, dst), edge in self._edges.items():
            reverse = self._edges.get((dst, src))
            if reverse is None or (dst, src) in seen:
                continue
            seen.add((src, dst))
            witness_pair = self._conflicting_pair(edge, reverse)
            if witness_pair is None:
                continue
            fwd, rev = witness_pair
            label_a, label_b = _resource_label(src), _resource_label(dst)
            report.add(
                Severity.ERROR,
                f"{self.rule_prefix}-INVERSION",
                f"{label_a} <-> {label_b}",
                f"lock-order inversion: txn {fwd.txn} took {label_a} "
                f"({'+'.join(sorted(str(m) for m in fwd.held_modes))}) then "
                f"{label_b} ({fwd.acquired_mode}); txn {rev.txn} took "
                f"{label_b} "
                f"({'+'.join(sorted(str(m) for m in rev.held_modes))}) then "
                f"{label_a} ({rev.acquired_mode}) — a latent deadlock even "
                f"though no cycle formed at runtime",
                resources=[label_a, label_b],
                txns=[fwd.txn, rev.txn],
                witness_forward={
                    "txn": fwd.txn,
                    "holds": sorted(str(m) for m in fwd.held_modes),
                    "acquires": str(fwd.acquired_mode),
                    "held_stack": list(fwd.src_stack),
                    "acquire_stack": list(fwd.dst_stack),
                },
                witness_reverse={
                    "txn": rev.txn,
                    "holds": sorted(str(m) for m in rev.held_modes),
                    "acquires": str(rev.acquired_mode),
                    "held_stack": list(rev.src_stack),
                    "acquire_stack": list(rev.dst_stack),
                },
            )

    @staticmethod
    def _conflicting_pair(
        edge: OrderEdge, reverse: OrderEdge
    ) -> Optional[tuple[_Witness, _Witness]]:
        """A witness pair proving the inversion can actually deadlock.

        T1 (forward) holds ``src`` and acquires ``dst``; T2 (reverse)
        holds ``dst`` and acquires ``src``.  The cycle closes only when
        T1's request on ``dst`` conflicts with T2's holds there AND T2's
        request on ``src`` conflicts with T1's holds there — S/S opposite
        orders, for instance, are harmless and reported as nothing.
        """
        for fwd in edge.witnesses:
            for rev in reverse.witnesses:
                if fwd.txn == rev.txn:
                    continue
                if conflicts_with_any(
                    fwd.acquired_mode, rev.held_modes
                ) and conflicts_with_any(rev.acquired_mode, fwd.held_modes):
                    return fwd, rev
        return None

    def _report_upgrades(self, report: Report) -> None:
        for (resource, held, acquired), (txn, stack) in self._upgrades.items():
            label = _resource_label(resource)
            held_names = "+".join(sorted(str(m) for m in held))
            report.add(
                Severity.WARNING,
                f"{self.rule_prefix}-UPGRADE",
                label,
                f"in-place lock upgrade: txn {txn} held {held_names} on "
                f"{label} and then requested {acquired}; two concurrent "
                f"transactions doing this deadlock on the upgrade",
                txn=txn,
                holds=sorted(str(m) for m in held),
                acquires=str(acquired),
                acquire_stack=list(stack),
            )

    def _report_long_cycles(self, report: Report) -> None:
        # 2-cycles are reported (mode-checked) as inversions; here we
        # only surface longer cycles, conservatively, as warnings.
        two_cycles = {
            frozenset((src, dst))
            for (src, dst) in self._edges
            if (dst, src) in self._edges
        }
        long_edges = [
            (src, dst)
            for (src, dst) in self._edges
            if frozenset((src, dst)) not in two_cycles
        ]
        cycle = find_cycle(long_edges)
        if not cycle or len(cycle) < 3:
            return
        labels = [_resource_label(resource) for resource in cycle]
        witnesses = []
        for index, src in enumerate(cycle):
            dst = cycle[(index + 1) % len(cycle)]
            edge = self._edges.get((src, dst))
            if edge is not None and edge.witnesses:
                witnesses.append({
                    "edge": f"{_resource_label(src)} -> {_resource_label(dst)}",
                    "txn": edge.witnesses[0].txn,
                    "acquires": str(edge.witnesses[0].acquired_mode),
                })
        report.add(
            Severity.WARNING,
            f"{self.rule_prefix}-CYCLE",
            " -> ".join(labels + [labels[0]]),
            f"acquisition-order cycle through {len(cycle)} resources; a "
            f"deadlock needs every adjacent witness pair to conflict — "
            f"inspect the witness modes",
            cycle=labels,
            witnesses=witnesses,
        )


class LockOrderRecorder(LockObserver):
    """Runtime lock-dependency recorder.

    Attach to a :class:`repro.locking.table.LockTable` (or pass one to
    the constructor) and every grant is appended to the owning
    transaction's trace; when the transaction releases its locks the
    trace folds into the global order graph.  ``analyze()`` then reports
    inversions, upgrades, and cycles across *all* transactions observed
    so far — whether or not any of them ever blocked.

    Parameters
    ----------
    table:
        When given, :meth:`attach` is called immediately.
    capture_stacks:
        Record a trimmed Python stack per grant: a frame walk and a
        formatted string per frame, on every grant (benchmark B16
        quantifies it).  With ``False`` the acquisition site is the
        transaction's own ``site`` labels -- one attribute read -- which
        is how the network server attaches its always-on recorder: there
        every grant's Python stack is the same serve-loop chain, and the
        wire op, session and transaction say more.
    """

    def __init__(
        self,
        table: Optional[LockTable] = None,
        capture_stacks: bool = True,
    ) -> None:
        self.graph = LockOrderGraph(rule_prefix="LOCKDEP")
        self.capture_stacks = capture_stacks
        self._live: dict[Any, list[Acquisition]] = {}
        self._tables: list[LockTable] = []
        if table is not None:
            self.attach(table)

    # -- wiring ------------------------------------------------------------

    def attach(self, table: LockTable) -> None:
        """Start observing *table* (idempotent)."""
        if self not in table.observers:
            table.observers.append(self)
        if table not in self._tables:
            self._tables.append(table)

    def detach(self, table: Optional[LockTable] = None) -> None:
        """Stop observing *table* (or every attached table)."""
        targets = [table] if table is not None else list(self._tables)
        for target in targets:
            if self in target.observers:
                target.observers.remove(self)
            if target in self._tables:
                self._tables.remove(target)

    # -- LockObserver ------------------------------------------------------

    def on_grant(self, txn: Any, resource: Hashable, mode: LockMode) -> None:
        trace = self._live.get(txn)
        if trace is None:
            trace = self._live[txn] = []
        stack = (
            capture_stack() if self.capture_stacks
            else getattr(txn, "site", ())
        )
        trace.append(Acquisition(resource, mode, len(trace), stack))

    def on_release(self, txn: Any) -> None:
        trace = self._live.pop(txn, None)
        if trace:
            self.graph.add_trace(txn, trace)

    # -- reporting ---------------------------------------------------------

    @property
    def transactions_recorded(self) -> int:
        """Completed transactions folded into the order graph."""
        return self.graph.traces

    def analyze(self) -> Report:
        """Fold still-open traces in a snapshot and report the graph.

        Open transactions are analyzed *non-destructively*: their traces
        stay live, so a later ``analyze()`` after they finish does not
        lose their remaining acquisitions.
        """
        report = Report(plane="lockdep")
        if not self._live:
            return self.graph.analyze(report)
        # Analyze open traces against a *copy* of the graph state.
        snapshot = LockOrderGraph(rule_prefix=self.graph.rule_prefix)
        snapshot._edges = {
            key: OrderEdge(
                src=edge.src,
                dst=edge.dst,
                witnesses=list(edge.witnesses),
                count=edge.count,
            )
            for key, edge in self.graph._edges.items()
        }
        snapshot._upgrades = dict(self.graph._upgrades)
        snapshot.traces = self.graph.traces
        for txn, trace in self._live.items():
            snapshot.add_trace(txn, trace)
        return snapshot.analyze(report)

    def stats_row(self) -> dict[str, int]:
        """Counters for the server's ``stats`` op."""
        return {
            "transactions_recorded": self.graph.traces,
            "open_traces": len(self._live),
            "order_edges": len(self.graph._edges),
        }
