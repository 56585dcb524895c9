"""The cycle-search kernel (``repro.graph``) against an exhaustive reference.

The reference enumerates every elementary cycle of a small digraph, as
the schema analyzer once did.  Hypothesis draws random digraphs of at
most nine nodes, self-loops and parallel edges included, and checks:

* ``first_cycle`` returns a closed walk of real edges exactly when the
  reference finds a cycle;
* ``shortest_cycles`` is, for each edge on a cycle, the shortest
  reference cycle through it (ties go to the lexicographically least
  path back, which is what a BFS over sorted successors finds), each
  rotated to start at its least node;
* ``scc`` puts two nodes together exactly when each reaches the other.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.graph import first_cycle, scc, shortest_cycles


def elementary_cycles(edges):
    """Elementary cycles of a small digraph, canonicalized.

    Iterative DFS per start node; each cycle is rotated to start at its
    smallest member and deduplicated, so ``A -> B -> A`` reports once.
    """
    cycles = []
    seen = set()
    for start in sorted(edges):
        stack = [(start, [start])]
        while stack:
            node, path = stack.pop()
            for target in edges.get(node, ()):
                if target == start:
                    rotation = min(range(len(path)), key=lambda i: path[i])
                    canon = tuple(path[rotation:] + path[:rotation])
                    if canon not in seen:
                        seen.add(canon)
                        cycles.append(list(canon))
                elif target not in path and target > start:
                    # Only explore upward: the cycle through its smallest
                    # member is found when that member is the start node.
                    stack.append((target, path + [target]))
    return cycles


def _adjacency(pairs):
    edges = {}
    for src, dst in pairs:
        edges.setdefault(src, []).append(dst)
    return edges


def _canonical(cycle):
    pivot = cycle.index(min(cycle))
    return tuple(cycle[pivot:] + cycle[:pivot])


def _reference_shortest(pairs):
    """Per edge ``u -> v``: the shortest reference cycle through it,
    ties broken by the least path ``v .. u`` back."""
    cycles = elementary_cycles(_adjacency(pairs))
    witnesses = set()
    for src, dst in set(pairs):
        through = []
        for cycle in cycles:
            for index, node in enumerate(cycle):
                if node == src and cycle[(index + 1) % len(cycle)] == dst:
                    back = cycle[index + 1:] + cycle[:index + 1]
                    through.append((len(cycle), back))
        if through:
            witnesses.add(_canonical(min(through)[1]))
    return sorted(witnesses, key=lambda cycle: (len(cycle), cycle))


def _reaches(pairs, start):
    seen, todo = {start}, [start]
    while todo:
        node = todo.pop()
        for src, dst in pairs:
            if src == node and dst not in seen:
                seen.add(dst)
                todo.append(dst)
    return seen


def _edges(nodes):
    # Multiples of 5: a set of them does not iterate in sorted order.
    node = st.integers(0, nodes - 1).map(lambda i: 5 * i)
    return st.lists(st.tuples(node, node), max_size=20)


digraphs = st.integers(min_value=1, max_value=9).flatmap(_edges)


class TestAgainstTheEnumerator:
    @settings(max_examples=300, deadline=None)
    @given(digraphs)
    def test_first_cycle_is_a_real_cycle_exactly_when_one_exists(self, pairs):
        cycle = first_cycle(pairs)
        if not elementary_cycles(_adjacency(pairs)):
            assert cycle is None
            return
        assert cycle
        assert len(set(cycle)) == len(cycle)
        edges = set(pairs)
        for index, node in enumerate(cycle):
            assert (node, cycle[(index + 1) % len(cycle)]) in edges

    @settings(max_examples=300, deadline=None)
    @given(digraphs)
    def test_shortest_cycles_are_the_minimal_witness_per_edge(self, pairs):
        cycles = shortest_cycles(pairs)
        assert cycles == _reference_shortest(pairs)
        assert shortest_cycles(reversed(pairs)) == cycles

    @settings(max_examples=200, deadline=None)
    @given(digraphs)
    def test_scc_groups_mutually_reachable_nodes(self, pairs):
        component = scc(_adjacency(pairs))
        nodes = {node for pair in pairs for node in pair}
        assert set(component) == nodes
        reach = {node: _reaches(pairs, node) for node in nodes}
        for a in nodes:
            for b in nodes:
                mutual = b in reach[a] and a in reach[b]
                assert (component[a] == component[b]) == (mutual or a == b)


class TestFirstCycle:
    def test_long_cycle_behind_a_tail(self):
        cycle = first_cycle([(1, 2), (2, 3), (3, 4), (4, 2)])
        assert set(cycle) == {2, 3, 4}

    def test_long_cycle_among_noise(self):
        edges = [("x", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("b", "y")]
        cycle = first_cycle(edges)
        assert set(cycle) == {"a", "b", "c"}


class TestShortestCycles:
    def test_self_loop_is_a_one_cycle(self):
        assert shortest_cycles([("Part", "Part")]) == [("Part",)]

    def test_acyclic_graph_has_none(self):
        assert shortest_cycles([("a", "b"), ("b", "c"), ("a", "c")]) == []

    def test_one_witness_per_edge_rotated_and_sorted(self):
        pairs = [("c", "a"), ("a", "b"), ("b", "c"), ("b", "a"), ("b", "a")]
        assert shortest_cycles(pairs) == [("a", "b"), ("a", "b", "c")]

    def test_a_tie_goes_to_the_least_path_back(self):
        # 0 -> 1 closes through 5 or through 10; a set of {5, 10}
        # iterates 10 first, so only a sorted walk picks 5.
        pairs = [(0, 1), (1, 5), (5, 1), (1, 10), (10, 1),
                 (5, 0), (0, 5), (10, 0), (0, 10)]
        assert shortest_cycles(pairs) == [
            (0, 5), (0, 10), (1, 5), (1, 10), (0, 1, 5)]
