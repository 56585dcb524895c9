"""Experiment B19 (extension): 2PC model-checker exploration throughput.

The protocol plane's value rests on *exhaustiveness*: CI sweeps every
interleaving of message delivery, crash-at-site, and recovery for a
small scope on every push, so the sweep must stay far inside the CI
budget as the model grows.  This benchmark times the standard CI scope
(2 workers, 2 concurrent cross-shard transactions, 1-crash budget) and
records states/second.  The acceptance bound mirrors the ISSUE: the
full sweep finishes in well under 60 seconds.
"""

import time

from repro.analysis.protocheck import explore
from repro.analysis.proto_model import Scope
from repro.bench import print_table

SCOPE = Scope(workers=2, txns=2, max_crashes=1)
ROUNDS = 3
BUDGET_SECONDS = 60.0


def _measure():
    best = None
    for _ in range(ROUNDS):
        started = time.perf_counter()
        result = explore(SCOPE)
        elapsed = time.perf_counter() - started
        assert result.ok, result.summary()
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
    return best


def test_b19_protocheck_throughput(benchmark):
    elapsed, result = _measure()
    rows = [{
        "states": result.states,
        "transitions": result.transitions,
        "seconds": round(elapsed, 3),
        "states_per_sec": round(result.states / elapsed),
    }]
    print_table(
        rows,
        title=f"B19 — 2PC model checker, scope "
              f"{SCOPE.workers}w/{SCOPE.txns}t/{SCOPE.max_crashes}c",
    )

    assert elapsed < BUDGET_SECONDS, (
        f"sweep took {elapsed:.1f}s (CI budget {BUDGET_SECONDS:.0f}s)"
    )

    benchmark.pedantic(lambda: explore(SCOPE), rounds=3, iterations=1)
