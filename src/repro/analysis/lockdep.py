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

Storage
-------

The graph lives as long as the server and grows with the data (its
resources are object UIDs), so it is kept as atoms: each resource and
each acquisition site is interned once to a small int, an order edge is
one dict entry keyed by ``src_id << 32 | dst_id`` whose value is
``(count, *witnesses)``, and a witness is a tuple of atoms ``(txn label,
held-mode bitmask, acquired-mode index, src site, dst site)``.  CPython
stops GC-tracking such tuples, and a conflict test is one ``&`` against
a per-mode conflict mask derived from ``COMPATIBILITY``.
:class:`OrderEdge` and :class:`_Witness` are views built when a report
renders them.
"""

from __future__ import annotations

import copy
import sys
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, NamedTuple, Optional, cast

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

#: The eleven modes; a mode is stored as its index here, a set of held
#: modes as the bitmask of their indexes.
_MODES = tuple(LockMode)
_MODE_INDEX = {mode: index for index, mode in enumerate(_MODES)}
_BITS = tuple(1 << index for index in range(len(_MODES)))
#: ``_CONFLICT_MASKS[i]``: the modes mode *i* cannot be granted alongside.
_CONFLICT_MASKS = tuple(
    sum(
        bit for other, bit in zip(_MODES, _BITS, strict=True)
        if not COMPATIBILITY[(mode, other)]
    )
    for mode in _MODES
)

#: An edge key is ``src_id << _PAIR_SHIFT | dst_id``.
_PAIR_SHIFT = 32
_PAIR_LOW = (1 << _PAIR_SHIFT) - 1


def conflicts_with_any(mode: LockMode, held: Iterable[LockMode]) -> bool:
    """True when *mode* is incompatible with at least one mode in *held*:
    *held*'s bitmask against *mode*'s conflict mask."""
    mask = 0
    for other in held:
        mask |= _BITS[_MODE_INDEX[other]]
    return bool(_CONFLICT_MASKS[_MODE_INDEX[mode]] & mask)


class Acquisition(NamedTuple):
    """One granted (resource, mode) with its acquisition context, as
    :meth:`LockOrderGraph.add_trace` takes it."""

    resource: Hashable
    mode: LockMode
    #: 0-based position in the transaction's acquisition sequence.
    order: int
    #: Where the grant came from: a trimmed call stack ("file:line in
    #: func", innermost last) or the step that planned it; empty when
    #: there is none.
    stack: tuple[str, ...] = ()


@dataclass
class _Witness:
    """One transaction's evidence for an order edge ``src -> dst`` (a
    view of a stored witness tuple)."""

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
    """A directed lock-order edge: some transaction took src before dst
    (a view of a stored edge)."""

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


def _held_modes(mask: int) -> frozenset[LockMode]:
    return frozenset(mode for mode, bit in zip(_MODES, _BITS, strict=True) if mask & bit)


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
        #: Interned resources: id -> resource, resource -> id.
        self._resources: list[Hashable] = []
        self._resource_ids: dict[Hashable, int] = {}
        #: Interned sites: id -> (frames, names the txn), and per flag
        #: frames -> id.  A site that names the txn renders with
        #: ``"txn <label>"`` appended (see :class:`LockOrderRecorder`).
        self._sites: list[tuple[tuple[str, ...], bool]] = []
        self._site_ids: tuple[dict[tuple[str, ...], int], ...] = ({}, {})
        #: ``src_id << 32 | dst_id`` -> ``(count, *witnesses)``, each
        #: witness ``(txn label, held mask, acquired index, src site,
        #: dst site)``, at most MAX_WITNESSES_PER_EDGE in arrival order.
        self._edges: dict[int, tuple] = {}
        #: In-trace upgrades: (resource id, held mask, acquired index) ->
        #: (txn label, site) of the first witness.
        self._upgrades: dict[tuple[int, int, int], tuple[str, int]] = {}
        #: Transactions folded in (coverage metric).
        self.traces = 0

    # -- interning ---------------------------------------------------------

    def _resource_id(self, resource: Hashable) -> int:
        rid = self._resource_ids.get(resource)
        if rid is None:
            rid = self._resource_ids[resource] = len(self._resources)
            self._resources.append(resource)
        return rid

    def _site_id(self, frames: tuple[str, ...], names_txn: bool = False) -> int:
        ids = self._site_ids[names_txn]
        site = ids.get(frames)
        if site is None:
            site = ids[frames] = len(self._sites)
            self._sites.append((frames, names_txn))
        return site

    def _stack(self, site: int, label: str) -> tuple[str, ...]:
        frames, names_txn = self._sites[site]
        if names_txn and frames:
            return frames + (f"txn {label}",)
        return frames

    # -- recording ---------------------------------------------------------

    def add_trace(self, txn: Any, acquisitions: Iterable[Acquisition]) -> None:
        """Fold one completed transaction's acquisition sequence in."""
        self._fold(_txn_label(txn), [
            (self._resource_id(acq.resource), _MODE_INDEX[acq.mode],
             self._site_id(acq.stack))
            for acq in acquisitions
        ])

    def _fold(self, label: str, trace: Iterable[tuple[int, int, int]]) -> None:
        """Fold one transaction's ``(resource id, mode index, site id)``
        sequence in."""
        self.traces += 1
        edges = self._edges
        held: dict[int, int] = {}  # resource id -> held mask
        first_site: dict[int, int] = {}
        for rid, mode, site in trace:
            bit = _BITS[mode]
            mask = held.get(rid)
            if mask is not None:
                # Re-acquisition of a held resource: only interesting when
                # the new mode conflicts with a held one (upgrade hazard).
                if not mask & bit and _CONFLICT_MASKS[mode] & mask:
                    self._upgrades.setdefault((rid, mask, mode), (label, site))
                held[rid] = mask | bit
                continue
            for src, src_mask in held.items():
                key = src << _PAIR_SHIFT | rid
                edge = edges.get(key)
                if edge is None:
                    edges[key] = (
                        1, (label, src_mask, mode, first_site[src], site))
                elif len(edge) <= MAX_WITNESSES_PER_EDGE:
                    edges[key] = (
                        edge[0] + 1, *edge[1:],
                        (label, src_mask, mode, first_site[src], site))
                else:
                    edges[key] = (edge[0] + 1, *edge[1:])
            held[rid] = bit
            first_site[rid] = site

    def _copy(self) -> LockOrderGraph:
        """A graph that folds independently of this one (the interning
        tables are append-only, so they are shared)."""
        snapshot = copy.copy(self)
        snapshot._edges = dict(self._edges)
        snapshot._upgrades = dict(self._upgrades)
        return snapshot

    # -- views -------------------------------------------------------------

    def _witness(self, witness: tuple) -> _Witness:
        label, held_mask, mode, src_site, dst_site = witness
        return _Witness(
            txn=label,
            held_modes=_held_modes(held_mask),
            acquired_mode=_MODES[mode],
            src_stack=self._stack(src_site, label),
            dst_stack=self._stack(dst_site, label),
        )

    def edges(self) -> list[OrderEdge]:
        """The recorded order edges (inspection/tests)."""
        resources = self._resources
        return [
            OrderEdge(
                src=resources[key >> _PAIR_SHIFT],
                dst=resources[key & _PAIR_LOW],
                witnesses=[self._witness(w) for w in edge[1:]],
                count=edge[0],
            )
            for key, edge in self._edges.items()
        ]

    # -- analysis ----------------------------------------------------------

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
        seen: set[int] = set()
        for key, edge in self._edges.items():
            src, dst = key >> _PAIR_SHIFT, key & _PAIR_LOW
            reverse_key = dst << _PAIR_SHIFT | src
            reverse = self._edges.get(reverse_key)
            if reverse is None or reverse_key in seen:
                continue
            seen.add(key)
            witness_pair = self._conflicting_pair(edge, reverse)
            if witness_pair is None:
                continue
            fwd, rev = map(self._witness, witness_pair)
            label_a = _resource_label(self._resources[src])
            label_b = _resource_label(self._resources[dst])
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
        edge: tuple, reverse: tuple
    ) -> Optional[tuple[tuple, tuple]]:
        """A witness pair proving the inversion can actually deadlock.

        T1 (forward) holds ``src`` and acquires ``dst``; T2 (reverse)
        holds ``dst`` and acquires ``src``.  The cycle closes only when
        T1's request on ``dst`` conflicts with T2's holds there AND T2's
        request on ``src`` conflicts with T1's holds there — S/S opposite
        orders, for instance, are harmless and reported as nothing.
        """
        for fwd in edge[1:]:
            for rev in reverse[1:]:
                if fwd[0] == rev[0]:
                    continue
                if (_CONFLICT_MASKS[fwd[2]] & rev[1]
                        and _CONFLICT_MASKS[rev[2]] & fwd[1]):
                    return fwd, rev
        return None

    def _report_upgrades(self, report: Report) -> None:
        for (rid, held_mask, mode), (txn, site) in self._upgrades.items():
            label = _resource_label(self._resources[rid])
            held = _held_modes(held_mask)
            acquired = _MODES[mode]
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
                acquire_stack=list(self._stack(site, txn)),
            )

    def _report_long_cycles(self, report: Report) -> None:
        # 2-cycles are reported (mode-checked) as inversions; here we
        # only surface longer cycles, conservatively, as warnings.  No
        # edge is a self-loop, so an edge is on a 2-cycle exactly when
        # its reverse is recorded.
        edges = self._edges
        long_edges: list[tuple[int, int]] = []
        for key in edges:
            src, dst = key >> _PAIR_SHIFT, key & _PAIR_LOW
            if dst << _PAIR_SHIFT | src not in edges:
                long_edges.append((src, dst))
        cycle = cast(Optional[list[int]], find_cycle(long_edges))
        if not cycle or len(cycle) < 3:
            return
        labels = [_resource_label(self._resources[rid]) for rid in cycle]
        witnesses = []
        for index, src in enumerate(cycle):
            dst = cycle[(index + 1) % len(cycle)]
            edge = edges.get(src << _PAIR_SHIFT | dst)
            if edge is not None:
                txn, _held, mode, _src_site, _dst_site = edge[1]
                witnesses.append({
                    "edge": f"{labels[index]} -> "
                            f"{labels[(index + 1) % len(cycle)]}",
                    "txn": txn,
                    "acquires": str(_MODES[mode]),
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
        transaction's own ``site`` labels -- one attribute read -- and a
        report renders it followed by ``"txn <label>"``.  That is how
        the network server attaches its always-on recorder: there every
        grant's Python stack is the same serve-loop chain, and the wire
        op, session and transaction say more.
    """

    def __init__(
        self,
        table: Optional[LockTable] = None,
        capture_stacks: bool = True,
    ) -> None:
        self.graph = LockOrderGraph(rule_prefix="LOCKDEP")
        self.capture_stacks = capture_stacks
        #: Open traces: txn -> [(resource id, mode index, site id)].
        self._live: dict[Any, list[tuple[int, int, int]]] = {}
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
        graph = self.graph
        if self.capture_stacks:
            site = graph._site_id(capture_stack())
        else:
            site = graph._site_id(getattr(txn, "site", ()), True)
        rid = graph._resource_ids.get(resource)
        if rid is None:
            rid = graph._resource_id(resource)
        trace.append((rid, _MODE_INDEX[mode], site))

    def on_release(self, txn: Any) -> None:
        trace = self._live.pop(txn, None)
        if trace:
            self.graph._fold(_txn_label(txn), trace)

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
        snapshot = self.graph._copy()
        for txn, trace in self._live.items():
            snapshot._fold(_txn_label(txn), trace)
        return snapshot.analyze(report)

    def stats_row(self) -> dict[str, int]:
        """Counters for the server's ``stats`` op."""
        return {
            "transactions_recorded": self.graph.traces,
            "open_traces": len(self._live),
            "order_edges": len(self.graph._edges),
        }
