"""The lock-order graph stored as atoms equals its reference, and stays small.

``LockOrderGraph`` keeps interned resource and site ids, int edge keys
and witness tuples of atoms (held modes as a bitmask).  The oracle is the
graph as it was before: an ``OrderEdge`` dataclass per edge, a
``_Witness`` dataclass with a ``frozenset`` of held modes per witness,
resources and stacks stored as given, and a server site that carries its
own ``"txn N"`` label.  Hypothesis drives both with random traces (class,
instance and plain resources, all eleven modes, re-acquisitions and
upgrades, int and str transaction labels, captured stacks, server-stamped
sites and planned steps); after every fold, and on every mid-run
``analyze()`` with open traces, findings (detail included), ``stats_row()``
and ``edges()`` must be equal.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Optional

from hypothesis import given, settings, strategies as st

from repro.analysis import lockdep
from repro.analysis.findings import Report, Severity
from repro.analysis.lockdep import (
    MAX_WITNESSES_PER_EDGE,
    Acquisition,
    LockOrderGraph,
    LockOrderRecorder,
    _resource_label,
    _txn_label,
    capture_stack,
)
from repro.core.identity import UID
from repro.locking.deadlock import find_cycle
from repro.locking.modes import COMPATIBILITY, LockMode
from repro.locking.table import LockObserver

# ---------------------------------------------------------------------------
# The reference: the graph before atoms
# ---------------------------------------------------------------------------


def conflicts_with_any(mode, held):
    """The compatibility rule read from ``COMPATIBILITY`` itself, so the
    reference does not share the graph's conflict masks."""
    return any(not COMPATIBILITY[(mode, other)] for other in held)


@dataclass
class _RefWitness:
    txn: Any
    held_modes: frozenset[LockMode]
    acquired_mode: LockMode
    src_stack: tuple[str, ...]
    dst_stack: tuple[str, ...]


@dataclass
class _RefEdge:
    src: Hashable
    dst: Hashable
    witnesses: list[_RefWitness] = field(default_factory=list)
    count: int = 0


class ReferenceGraph:
    def __init__(self, rule_prefix: str = "LOCKDEP") -> None:
        self.rule_prefix = rule_prefix
        self._edges: dict[tuple[Hashable, Hashable], _RefEdge] = {}
        self._upgrades: dict[
            tuple[Hashable, frozenset[LockMode], LockMode],
            tuple[str, tuple[str, ...]],
        ] = {}
        self.traces = 0

    def add_trace(self, txn: Any, acquisitions: Iterable[Acquisition]) -> None:
        self.traces += 1
        label = _txn_label(txn)
        held: dict[Hashable, set[LockMode]] = {}
        first_stack: dict[Hashable, tuple[str, ...]] = {}
        for acq in acquisitions:
            modes_here = held.get(acq.resource)
            if modes_here is not None:
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
                    edge = _RefEdge(src=src, dst=acq.resource)
                    self._edges[(src, acq.resource)] = edge
                edge.count += 1
                if len(edge.witnesses) < MAX_WITNESSES_PER_EDGE:
                    edge.witnesses.append(_RefWitness(
                        txn=label,
                        held_modes=frozenset(src_modes),
                        acquired_mode=acq.mode,
                        src_stack=first_stack.get(src, ()),
                        dst_stack=acq.stack,
                    ))
            held[acq.resource] = {acq.mode}
            first_stack[acq.resource] = acq.stack

    def edges(self) -> list[_RefEdge]:
        return list(self._edges.values())

    def analyze(self, report: Optional[Report] = None) -> Report:
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
    def _conflicting_pair(edge, reverse):
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


class ReferenceRecorder(LockObserver):
    def __init__(self, capture_stacks: bool = True) -> None:
        self.graph = ReferenceGraph(rule_prefix="LOCKDEP")
        self.capture_stacks = capture_stacks
        self._live: dict[Any, list[Acquisition]] = {}

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

    def analyze(self) -> Report:
        report = Report(plane="lockdep")
        if not self._live:
            return self.graph.analyze(report)
        snapshot = ReferenceGraph(rule_prefix=self.graph.rule_prefix)
        snapshot._edges = {
            key: _RefEdge(
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
        return {
            "transactions_recorded": self.graph.traces,
            "open_traces": len(self._live),
            "order_edges": len(self.graph._edges),
        }


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------

RESOURCES = (
    ("class", "Part"),
    ("class", "Doc"),
    ("instance", UID(1, "Part")),
    ("instance", UID(2, "Part")),
    ("instance", UID(3, "Doc")),
    "a",
    "b",
)
#: Transaction labels: ints and strs, and 1 and "1" render alike.
TXN_IDS = (1, 2, 3, "1", "T5", "T6")
#: Server sites stamped before a grant; None keeps the transaction's
#: current site (``()`` until it is first stamped).
SERVER_SITES = (
    None, ("set_value", "session 1"), ("value", "session 1"),
    ("make", "session 2"),
)
PLANNED_STACKS = ((), ("t1 step 0: write a",), ("t2 step 1: read b",))

grants = st.tuples(
    st.just("grant"),
    st.integers(0, len(TXN_IDS) - 1),
    st.sampled_from(RESOURCES),
    st.sampled_from(list(LockMode)),
    st.integers(0, len(SERVER_SITES) - 1),
)
steps = st.lists(
    st.one_of(
        grants, grants, grants,
        st.tuples(st.just("release"), st.integers(0, len(TXN_IDS) - 1)),
        st.just(("analyze",)),
    ),
    max_size=60,
)


class _Txn:
    """A transaction the way the server hands it to the lock table."""

    def __init__(self, txn_id):
        self.txn_id = txn_id
        self.site = ()


def _edge_view(edge):
    return (edge.src, edge.dst, edge.count, [
        (w.txn, w.held_modes, w.acquired_mode, w.src_stack, w.dst_stack)
        for w in edge.witnesses
    ])


def _assert_same(reference, change):
    expected, actual = reference.analyze(), change.analyze()
    assert actual.findings == expected.findings
    assert actual.checked == expected.checked
    assert change.stats_row() == reference.stats_row()
    assert [_edge_view(e) for e in change.graph.edges()] == [
        _edge_view(e) for e in reference.graph.edges()]


# Two identical helpers: a captured stack names the calling line, so
# grants made through one or the other get different sites.
def _grant_here(pairs, resource, mode):
    for recorder, txn in pairs:
        recorder.on_grant(txn, resource, mode)


def _grant_there(pairs, resource, mode):
    for recorder, txn in pairs:
        recorder.on_grant(txn, resource, mode)


def _run(program, capture_stacks, server):
    reference = ReferenceRecorder(capture_stacks=capture_stacks)
    change = LockOrderRecorder(capture_stacks=capture_stacks)
    # One transaction object per side and id, replaced on release (the
    # server begins a new Transaction per scope).
    txns = {}

    def pair_for(index):
        if index not in txns:
            txn_id = TXN_IDS[index]
            txns[index] = (_Txn(txn_id), _Txn(txn_id)) if server \
                else (txn_id, txn_id)
        return txns[index]

    for step in program:
        if step[0] == "grant":
            _, index, resource, mode, site = step
            ref_txn, txn = pair_for(index)
            if server and SERVER_SITES[site] is not None:
                ref_txn.site = SERVER_SITES[site] + (f"txn {ref_txn.txn_id}",)
                txn.site = SERVER_SITES[site]
            grant = _grant_here if site % 2 else _grant_there
            grant(((reference, ref_txn), (change, txn)), resource, mode)
        elif step[0] == "release":
            if step[1] in txns:
                ref_txn, txn = txns.pop(step[1])
                reference.on_release(ref_txn)
                change.on_release(txn)
                _assert_same(reference, change)
        else:
            _assert_same(reference, change)
            # Analyzing open traces folds nothing for good.
            assert change.analyze().findings == change.analyze().findings
    for index in list(txns):
        ref_txn, txn = txns.pop(index)
        reference.on_release(ref_txn)
        change.on_release(txn)
    _assert_same(reference, change)


def test_public_conflict_rule_matches_the_matrix():
    """``lockdep.conflicts_with_any`` (the graph's conflict masks) agrees
    with ``COMPATIBILITY`` on every mode against every set of held modes."""
    modes = list(LockMode)
    for mode in modes:
        for subset in range(1 << len(modes)):
            held = [other for index, other in enumerate(modes)
                    if subset >> index & 1]
            assert lockdep.conflicts_with_any(mode, held) == (
                conflicts_with_any(mode, held)), (mode, held)


class TestReferenceEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(steps)
    def test_server_stamped_sites(self, program):
        """The always-on server recorder: sites are stamped (op,
        session) labels and render with the transaction appended."""
        _run(program, capture_stacks=False, server=True)

    @settings(max_examples=100, deadline=None)
    @given(steps)
    def test_captured_stacks(self, program):
        _run(program, capture_stacks=True, server=False)

    @settings(max_examples=100, deadline=None)
    @given(steps)
    def test_plain_labels_without_sites(self, program):
        _run(program, capture_stacks=False, server=False)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.tuples(
            st.lists(
                st.tuples(st.sampled_from(RESOURCES),
                          st.sampled_from(list(LockMode)),
                          st.sampled_from(PLANNED_STACKS)),
                max_size=6,
            ),
            st.integers(1, MAX_WITNESSES_PER_EDGE + 2),
        ),
        max_size=12,
    ))
    def test_planned_traces(self, traces):
        """The static plane's path: ``add_trace`` with ``Acquisition``s
        and the ``LOCK`` prefix; a trace folded several times fills its
        edges past the witness cap."""
        reference, change = ReferenceGraph("LOCK"), LockOrderGraph("LOCK")
        folds = [trace for trace, repeats in traces for _ in range(repeats)]
        for number, trace in enumerate(folds):
            acquisitions = [
                Acquisition(resource, mode, order, stack)
                for order, (resource, mode, stack) in enumerate(trace)
            ]
            txn = TXN_IDS[number % len(TXN_IDS)]
            reference.add_trace(txn, acquisitions)
            change.add_trace(txn, acquisitions)
            assert change.analyze().findings == reference.analyze().findings
            assert [_edge_view(e) for e in change.edges()] == [
                _edge_view(e) for e in reference.edges()]


# ---------------------------------------------------------------------------
# Memory shape
# ---------------------------------------------------------------------------

#: tracemalloc bytes per order edge, folded as below (18 811 edges,
#: nearly all with one witness) -- an int key and its dict slot, a
#: (count, witness) tuple, a 5-tuple witness and the transaction's label
#: string.  Measured 263.3 on CPython 3.10.13, 263.1 on 3.11.7 and 254.6
#: on 3.12.1 (x86-64 Linux); the bound leaves ~20% over the largest.
#: The dataclass graph held 685 and 96 000 more GC-tracked objects.
BYTES_PER_EDGE_BOUND = 320


def test_graph_memory_is_bounded_by_resources_not_edges():
    """20 000 two-resource transactions over 400 resources: the graph
    adds at most one GC-tracked object per resource, however many edges
    and witnesses it holds, and a few hundred bytes per edge."""
    resources = [("instance", UID(number, "Part")) for number in range(400)]
    rng = random.Random(42)
    pairs = [tuple(rng.sample(resources, 2)) for _ in range(20_000)]
    recorder = LockOrderRecorder(capture_stacks=False)
    gc.collect()
    tracked_before = len(gc.get_objects())
    tracemalloc.start()
    try:
        bytes_before = tracemalloc.get_traced_memory()[0]
        for number, (first, second) in enumerate(pairs):
            txn = _Txn(number)
            recorder.on_grant(txn, first, LockMode.IX)
            recorder.on_grant(txn, second, LockMode.X)
            recorder.on_release(txn)
        del txn
        # A tuple is untracked once its items are: one pass can meet an
        # edge's tuple before its witness, the next one untracks it.
        gc.collect()
        gc.collect()
        grown_bytes = tracemalloc.get_traced_memory()[0] - bytes_before
    finally:
        tracemalloc.stop()
    tracked_growth = len(gc.get_objects()) - tracked_before
    edges = recorder.stats_row()["order_edges"]
    assert edges > 15_000
    assert tracked_growth <= len(resources)
    assert grown_bytes / edges < BYTES_PER_EDGE_BOUND
