"""Experiment B18: shard-count scaling on a disjoint-composite mix.

The sharding subsystem's bet is the paper's composite-locality argument
lifted to processes: hierarchies that cluster well on one page (§2.3)
partition well onto one shard, so the common-case transaction stays
single-shard and commits on the router's fast path — no 2PC, and N
workers apply disjoint transactions on N CPUs.

This experiment drives the *same* txmix workload (single-root scripts,
every step inside one co-located composite) through ``repro-router`` at
1, 2, and 4 shards: 8 concurrent clients, each owning a disjoint
``MixRoot`` hierarchy — the paper's "multiple users updating different
composite objects" claim, measured across processes.  Workers journal
with ``sync_policy="always"`` and the mix is write-heavy, so a worker's
commit path blocks on real fsyncs — the resource that shards actually
multiply (N workers fsync N journals concurrently; one worker serializes
them in its event loop).

Expected shape, host-independent: every commit stays on the fast path
(zero 2PC), and sharding does not collapse throughput — 2 shards reach
>= 0.9x of 1 and 4 shards >= 0.85x of 2, each shard count timed as the
fastest of three fresh clusters, in rounds that interleave the counts.
How far *above* 1x the curve goes is a property of the host (vCPUs
that truly run in parallel, fsync latency): only the fsync-wait
fraction of the timeline overlaps on shared cores, so the rows record
the measured speedup and the CPU count without gating on them.
"""

from __future__ import annotations

import os
import threading
import time

from repro.bench import print_table
from repro.server import Client
from repro.shard.placement import shard_of_uid
from repro.shard.worker import ShardCluster
from repro.workloads.txmix import run_tcp_mix, single_root_mix, tcp_fixture

SHARD_COUNTS = (1, 2, 4)
CLIENTS = 8
TXNS_PER_CLIENT = 25
PARTS_PER_ROOT = 8


def _measure(tmp_root, shards, sync_policy="always", steps_per_txn=6,
             read_ratio=0.0):
    """ops/sec of the disjoint single-root mix at *shards* shards."""
    with ShardCluster(tmp_root, shards=shards,
                      sync_policy=sync_policy) as cluster:
        admin = Client(port=cluster.router_port, timeout=30.0)
        roots, _components = tcp_fixture(
            admin, roots=CLIENTS, parts_per_root=PARTS_PER_ROOT
        )
        spread = {shard_of_uid(root, shards) for root in roots}
        connections = [Client(port=cluster.router_port, timeout=30.0)
                       for _ in range(CLIENTS)]
        barrier = threading.Barrier(CLIENTS + 1)
        counters = [None] * CLIENTS

        def work(index):
            # Each client owns one root: disjoint composites, so the
            # whole mix is deadlock-free and every commit is fast-path.
            scripts = single_root_mix(
                [roots[index]], transactions=TXNS_PER_CLIENT,
                steps_per_txn=steps_per_txn, read_ratio=read_ratio,
                seed=100 + index,
            )
            barrier.wait()
            counters[index] = run_tcp_mix(connections[index], scripts)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(CLIENTS)]
        try:
            for thread in threads:
                thread.start()
            barrier.wait()
            started = time.perf_counter()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
        finally:
            for connection in connections:
                connection.close()
        router = admin.stats()["router"]
        admin.close()
    ops = sum(c["ops"] for c in counters)
    transactions = sum(c["transactions"] for c in counters)
    return {
        "shards": shards,
        "workers_used": len(spread),
        "clients": CLIENTS,
        "transactions": transactions,
        "ops": ops,
        "ops_per_sec": ops / elapsed,
        "txn_per_sec": transactions / elapsed,
        "fast_commits": router["fast_commits"],
        "twopc_commits": router["twopc_commits"],
    }


def _fastest(tmp_root, runs=3):
    """One row per shard count: the fastest of *runs* fresh clusters.
    One run is not enough: time stolen from the host during it lands in
    the ratio of two runs as if sharding had cost it.  The rounds
    interleave the shard counts, so that a slow spell of the host
    longer than one run does not fall on every run of one count."""
    best = {}
    for run in range(runs):
        for shards in SHARD_COUNTS:
            row = _measure(tmp_root / f"s{shards}-run{run}", shards)
            if (shards not in best
                    or row["ops_per_sec"] > best[shards]["ops_per_sec"]):
                best[shards] = row
    return [best[shards] for shards in SHARD_COUNTS]


def test_b18_shard_scaling(benchmark, tmp_path):
    rows = _fastest(tmp_path)
    by_shards = {row["shards"]: row for row in rows}

    # Placement spread the disjoint hierarchies over every worker.
    for row in rows:
        assert row["workers_used"] == min(row["shards"], CLIENTS)
        # Single-root scripts never cross shards: zero 2PC commits.
        assert row["twopc_commits"] == 0
        assert row["fast_commits"] == row["transactions"]

    # No collapse: adding workers must not cost throughput.
    speedup_2 = by_shards[2]["ops_per_sec"] / by_shards[1]["ops_per_sec"]
    assert speedup_2 >= 0.9, f"2 shards gave only {speedup_2:.2f}x over 1"
    assert by_shards[4]["ops_per_sec"] >= by_shards[2]["ops_per_sec"] * 0.85

    cpus = os.cpu_count() or 1

    for row in rows:
        row["cpus"] = cpus
        row["speedup_vs_1"] = (
            row["ops_per_sec"] / by_shards[1]["ops_per_sec"]
        )
    print_table(rows, title="B18 — shard scaling, disjoint-composite "
                            f"txmix through the router ({CLIENTS} clients, "
                            f"{cpus} CPU(s))")

    def kernel():
        return _measure(tmp_path / "k2", 2)["ops"]

    benchmark.pedantic(kernel, rounds=1, iterations=1)
