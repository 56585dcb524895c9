"""Cycle search over directed graphs: the one kernel every plane asks.

Three kinds of graph ask "is there a cycle, and which one":

* the lock table's wait-for graph ([GRAY78], paper Section 7) and
  lockdep's acquisition-order graph want *one* cycle, found in one
  linear pass — :func:`first_cycle`;
* isocheck's Direct Serialization Graph, its template hazard graph and
  the schema analyzer's composite class graph want a *minimal witness*
  per edge — :func:`shortest_cycles`, prefiltered by :func:`scc`.

Graphs come in as ``(src, dst)`` pairs of hashable nodes (orderable
ones for :func:`shortest_cycles`).  This module imports nothing from
:mod:`repro`, so every layer may use it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Hashable, Iterable, Mapping, Optional, Sequence, TypeVar

__all__ = ["first_cycle", "scc", "shortest_cycles"]

N = TypeVar("N", bound=Hashable)


def first_cycle(
    pairs: Iterable[tuple[Hashable, Hashable]],
) -> Optional[list[Hashable]]:
    """Find one cycle in the directed graph given as (src, dst) pairs.

    Returns the cycle as an ordered list of nodes (first node repeated
    implicitly), or None when the graph is acyclic.  Iterative DFS with
    colouring — the graphs here are small but may be built frequently, so
    no recursion and no allocation beyond the stacks.
    """
    graph: dict[Hashable, list[Hashable]] = {}
    for src, dst in pairs:
        graph.setdefault(src, []).append(dst)
        graph.setdefault(dst, [])
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {node: WHITE for node in graph}
    parent: dict[Hashable, Hashable] = {}
    for start in graph:
        if colour[start] is not WHITE:
            continue
        stack = [(start, iter(graph[start]))]
        colour[start] = GREY
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if colour[child] == WHITE:
                    colour[child] = GREY
                    parent[child] = node
                    stack.append((child, iter(graph[child])))
                    advanced = True
                    break
                if colour[child] == GREY:
                    # Found a back edge: reconstruct node -> ... -> child.
                    cycle = [node]
                    walker = node
                    while walker != child:
                        walker = parent[walker]
                        cycle.append(walker)
                    cycle.reverse()
                    return cycle
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return None


def scc(adjacency: Mapping[N, Sequence[N]]) -> dict[N, int]:
    """Tarjan's strongly connected components, iteratively: node ->
    component id, for every node that is a key or a successor.  Two
    nodes get the same id iff they share a cycle or are the same node."""
    index: dict[N, int] = {}
    low: dict[N, int] = {}
    component: dict[N, int] = {}
    stack: list[N] = []
    for root in adjacency:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(adjacency.get(root, ())))]
        while work:
            node, successors = work[-1]
            for successor in successors:
                if successor not in index:
                    index[successor] = low[successor] = len(index)
                    stack.append(successor)
                    work.append((successor, iter(adjacency.get(successor, ()))))
                    break
                if successor not in component:  # still on the stack
                    low[node] = min(low[node], index[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    while True:
                        member = stack.pop()
                        component[member] = index[node]
                        if member == node:
                            break
    return component


def shortest_cycles(pairs: Iterable[tuple[Any, Any]]) -> list[tuple[Any, ...]]:
    """Minimal witness cycles: for each edge ``u -> v``, the shortest
    path back ``v -> u`` closes the smallest cycle through that edge.

    Each cycle is rotated to start at its least node and reported once;
    the list is sorted by ``(length, nodes)``.  A self-loop ``u -> u`` is
    the 1-cycle ``(u,)``.  Parallel edges count once, and successors are
    tried in sorted order, so the witness does not depend on the order
    of *pairs*.  Every cycle lives inside one strongly connected
    component, so edges between components are skipped before the BFS:
    on an acyclic graph the whole pass is the linear SCC computation.
    """
    targets: dict[Any, set[Any]] = {}
    for src, dst in pairs:
        targets.setdefault(src, set()).add(dst)
    adjacency = {node: sorted(successors) for node, successors in targets.items()}
    component = scc(adjacency)
    cycles: set[tuple[Any, ...]] = set()
    for src, successors in adjacency.items():
        for dst in successors:
            if component[src] != component[dst]:
                continue
            cycle = [src] + (_path(adjacency, dst, src) if dst != src else [])
            pivot = cycle.index(min(cycle))
            cycles.add(tuple(cycle[pivot:] + cycle[:pivot]))
    return sorted(cycles, key=lambda cycle: (len(cycle), cycle))


def _path(adjacency: Mapping[Any, Sequence[Any]], start: Any, goal: Any) -> list[Any]:
    """BFS: the nodes of a shortest path ``start .. goal``, *goal*
    excluded.  The caller has checked that *goal* is reachable."""
    parents = {start: start}
    queue = deque([start])
    while True:
        node = queue.popleft()
        for successor in adjacency.get(node, ()):
            if successor in parents:
                continue
            if successor == goal:
                path = [node]
                while path[-1] != start:
                    path.append(parents[path[-1]])
                path.reverse()
                return path
            parents[successor] = node
            queue.append(successor)
