"""Transaction mixes: simulator scripts (B9), an in-process strict-2PL
driver, and a live TCP driver.

:func:`composite_mix` / :func:`disjoint_writers` build step scripts for
:class:`repro.sim.eventsim.ConcurrencySimulator`.  The TCP half —
:func:`tcp_fixture` and :func:`run_tcp_mix` — replays the *same* scripts
through a real :class:`repro.server.client.Client` connection, turning
each script into one explicit ``begin``/``commit`` transaction against a
live server (or a shard router: benchmark B18 and the cluster tests
drive exactly this workload through ``repro-router``);
:func:`run_tcp_clients` runs them over several connections at once,
:func:`navigation_mix` builds scripts that read through the navigation
ops (``children_of`` … ``roots_of``) as well, and
:func:`autocommit_reads` a script of auto-commit reads to run beside a
transactional mix.  The in-process half — :func:`memory_fixture` and
:func:`run_tm_mix` — replays them through a
:class:`repro.txn.manager.TransactionManager` with genuinely
interleaved transactions (round-robin, one step per round), which is
what the isolation plane's recorder observes and its property tests
drive: strict 2PL must yield histories that check clean.

``python -m repro.workloads.txmix --port N`` drives the TCP mix against
a live server — CI pairs it with ``repro-server --record-history`` and
checks the recorded history with ``repro-check iso``.
"""

from __future__ import annotations

import random

from ..sim.eventsim import Step


def composite_mix(
    roots,
    transactions=20,
    steps_per_txn=3,
    read_ratio=0.7,
    instance_access_ratio=0.2,
    components_by_root=None,
    seed=42,
):
    """Scripts where each step touches one whole composite (or, with
    probability *instance_access_ratio*, a single component instance).

    *roots* is a list of composite-root UIDs; *components_by_root*
    optionally maps each root to its component UIDs (required for
    instance-level steps).  Returns a list of step lists for
    :class:`repro.sim.eventsim.ConcurrencySimulator`.
    """
    rng = random.Random(seed)
    scripts = []
    for _ in range(transactions):
        steps = []
        for _ in range(steps_per_txn):
            root = rng.choice(roots)
            read = rng.random() < read_ratio
            use_instance = (
                components_by_root is not None
                and components_by_root.get(root)
                and rng.random() < instance_access_ratio
            )
            if use_instance:
                target = rng.choice(components_by_root[root])
                action = "read_instance" if read else "update_instance"
            else:
                target = root
                action = "read_composite" if read else "update_composite"
            steps.append(Step(action=action, target=target))
        scripts.append(steps)
    return scripts


#: Read steps :func:`run_tcp_mix` sends as the wire op of the same name.
NAVIGATION_ACTIONS = ("children_of", "parents_of", "ancestors_of", "roots_of")


def navigation_mix(roots, components_by_root, transactions=20,
                   steps_per_txn=3, read_ratio=0.6, seed=42):
    """Scripts whose reads mix the navigation ops with ``read_composite``
    and ``read_instance``, and whose writes stamp a root or a component.

    ``children_of`` and ``read_composite`` target a root, the other reads
    a component, so every navigation read has a footprint a concurrent
    stamp can touch.  For :func:`run_tcp_mix` only: the simulator knows
    no navigation step.
    """
    rng = random.Random(seed)
    reads = NAVIGATION_ACTIONS + ("read_composite", "read_instance")
    scripts = []
    for _ in range(transactions):
        steps = []
        for _ in range(steps_per_txn):
            root = rng.choice(roots)
            part = rng.choice(components_by_root[root])
            if rng.random() < read_ratio:
                action = rng.choice(reads)
                target = (root if action in ("children_of", "read_composite")
                          else part)
            else:
                action = "update_instance"
                target = rng.choice((root, part))
            steps.append(Step(action=action, target=target))
        scripts.append(steps)
    return scripts


#: Read steps that send one wire read each: ``read_composite`` is
#: ``components_of``, ``read_instance`` is ``resolve`` and ``read_value``
#: is ``value`` of the stamp.
AUTOCOMMIT_READS = ("read_composite", "read_instance", "read_value")


def autocommit_reads(roots, components_by_root, reads=60, seed=42):
    """One script of *reads* single-read steps on the composites of
    *roots* and their components, for :func:`run_tcp_mix` with
    ``autocommit=True``: a client reading beside a transactional mix, one
    auto-commit request per step."""
    rng = random.Random(seed)
    steps = []
    for _ in range(reads):
        root = rng.choice(roots)
        action = rng.choice(AUTOCOMMIT_READS)
        target = (root if action == "read_composite"
                  else rng.choice([root, *components_by_root[root]]))
        steps.append(Step(action=action, target=target))
    return [steps]


def single_root_mix(roots, transactions=20, steps_per_txn=3,
                    read_ratio=0.7, seed=42):
    """Scripts whose steps all touch *one* composite root each.

    The sharded fast path's best case: with composite-aware placement a
    whole script lands on one shard, so its commit needs no 2PC.
    Contrast with :func:`composite_mix`, whose per-step root choice
    makes most multi-step scripts span shards.
    """
    rng = random.Random(seed)
    scripts = []
    for _ in range(transactions):
        root = rng.choice(roots)
        steps = []
        for _ in range(steps_per_txn):
            read = rng.random() < read_ratio
            action = "read_composite" if read else "update_composite"
            steps.append(Step(action=action, target=root))
        scripts.append(steps)
    return scripts


def disjoint_writers(roots, writers_per_root=1, steps_per_txn=2):
    """Every transaction updates a distinct composite object.

    The paper's headline concurrency claim: "multiple users [may] read and
    update different composite objects that share the same composite class
    hierarchy".  Under the composite protocol these scripts never block;
    under a single class lock they serialize completely.
    """
    scripts = []
    for root in roots:
        for _ in range(writers_per_root):
            scripts.append(
                [Step(action="update_composite", target=root)] * steps_per_txn
            )
    return scripts


# ---------------------------------------------------------------------------
# Driving the same scripts over a live TCP connection
# ---------------------------------------------------------------------------

#: Attribute the TCP driver's update steps write (an integer stamp).
STAMP_ATTRIBUTE = "Stamp"


def tcp_fixture(client, roots=8, parts_per_root=3):
    """Create the TCP mix's schema and data through *client*.

    ``MixRoot`` composites with *parts_per_root* dependent ``MixPart``
    children each; both carry an integer :data:`STAMP_ATTRIBUTE` for
    update steps to write.  Children are created with ``parents=`` so a
    shard router co-locates each hierarchy with its root.  Returns
    ``(root_uids, components_by_root)`` in the shape
    :func:`composite_mix` expects.
    """
    from ..schema.attribute import SetOf

    client.make_class("MixPart", attributes=[
        {"name": STAMP_ATTRIBUTE, "domain": "integer"},
    ])
    client.make_class("MixRoot", attributes=[
        {"name": STAMP_ATTRIBUTE, "domain": "integer"},
        {"name": "Parts", "domain": SetOf("MixPart"),
         "composite": True, "exclusive": True, "dependent": True},
    ])
    root_uids = []
    components = {}
    for _ in range(roots):
        root = client.make("MixRoot", values={STAMP_ATTRIBUTE: 0})
        root_uids.append(root)
        components[root] = [
            client.make("MixPart", values={STAMP_ATTRIBUTE: 0},
                        parents=[(root, "Parts")])
            for _ in range(parts_per_root)
        ]
    return root_uids, components


def run_tcp_mix(client, scripts, max_retries=10, autocommit=False):
    """Execute simulator *scripts* through a live client connection.

    Each script runs as one explicit transaction (with *autocommit*, each
    step is a request of its own instead): ``read_composite`` becomes
    ``components_of``, ``read_instance`` becomes ``resolve``,
    ``read_value`` the stamp's ``value``, a :data:`NAVIGATION_ACTIONS`
    step the op it names, and both update actions ``set_value`` the
    target's stamp.  A deadlock victim retries its whole scope (the
    server already rolled it back), up to *max_retries* times.  Returns
    counters::

        {"transactions": ..., "ops": ..., "deadlock_retries": ...}
    """
    from ..errors import DeadlockError

    stats = {"transactions": 0, "ops": 0, "deadlock_retries": 0}
    stamp = 0
    if autocommit:
        scripts = [[step] for steps in scripts for step in steps]
    for steps in scripts:
        for attempt in range(max_retries + 1):
            try:
                if not autocommit:
                    client.begin()
                for step in steps:
                    if step.action == "read_composite":
                        client.components_of(step.target)
                    elif step.action == "read_instance":
                        client.resolve(step.target)
                    elif step.action == "read_value":
                        client.value(step.target, STAMP_ATTRIBUTE)
                    elif step.action in NAVIGATION_ACTIONS:
                        getattr(client, step.action)(step.target)
                    else:
                        stamp += 1
                        client.set_value(
                            step.target, STAMP_ATTRIBUTE, stamp
                        )
                    stats["ops"] += 1
                if not autocommit:
                    client.commit()
                break
            except DeadlockError:
                stats["deadlock_retries"] += 1
                if attempt >= max_retries:
                    raise
        stats["transactions"] += 1
    return stats


def run_tcp_clients(port, scripts, clients=2, host="127.0.0.1",
                    max_retries=10, autocommit=()):
    """:func:`run_tcp_mix` over *clients* connections at once, one thread
    each; script *i* runs on connection ``i % clients``.  The scripts in
    *autocommit* run beside them on one more connection, each step an
    auto-commit request.  Returns the summed counters; the first driver
    error is re-raised."""
    import threading

    from ..server.client import Client

    totals = {"transactions": 0, "ops": 0, "deadlock_retries": 0}
    errors = []
    guard = threading.Lock()

    def drive(share, auto=False):
        try:
            with Client(host=host, port=port) as client:
                stats = run_tcp_mix(client, share, max_retries, auto)
        except Exception as error:
            errors.append(error)
            return
        with guard:
            for key, count in stats.items():
                totals[key] += count

    threads = [threading.Thread(target=drive, args=(scripts[i::clients],))
               for i in range(clients)]
    if autocommit:
        threads.append(threading.Thread(target=drive,
                                        args=(list(autocommit), True)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return totals


# ---------------------------------------------------------------------------
# Driving the same scripts through an in-process TransactionManager
# ---------------------------------------------------------------------------


def memory_fixture(db, roots=8, parts_per_root=3):
    """The TCP fixture's schema and data built directly on *db*.

    Same shape as :func:`tcp_fixture` — ``MixRoot`` composites over
    dependent ``MixPart`` children, both stamped — for in-process runs
    through :func:`run_tm_mix`.  Returns
    ``(root_uids, components_by_root)``.
    """
    from ..schema.attribute import AttributeSpec, SetOf

    db.make_class("MixPart", attributes=[
        AttributeSpec(STAMP_ATTRIBUTE, domain="integer"),
    ])
    db.make_class("MixRoot", attributes=[
        AttributeSpec(STAMP_ATTRIBUTE, domain="integer"),
        AttributeSpec("Parts", domain=SetOf("MixPart"),
                      composite=True, exclusive=True, dependent=True),
    ])
    root_uids = []
    components = {}
    for _ in range(roots):
        root = db.make("MixRoot", values={STAMP_ATTRIBUTE: 0})
        root_uids.append(root)
        components[root] = [
            db.make("MixPart", values={STAMP_ATTRIBUTE: 0},
                    parents=[(root, "Parts")])
            for _ in range(parts_per_root)
        ]
    return root_uids, components


def run_tm_mix(database, scripts, lock_table=None, max_rounds=100000,
               snapshot_readers=False):
    """Execute simulator *scripts* through a strict-2PL transaction
    manager with genuine interleaving.

    With *snapshot_readers* true, scripts containing no update step run
    as MVCC snapshot transactions (``begin(snapshot=True)``) — lock-free
    reads at a pinned commit epoch that never block behind, nor abort,
    the 2PL writers (the database needs an attached
    :class:`~repro.mvcc.manager.SnapshotManager`).  Read-only snapshot
    transactions plus strict-2PL writers stay serializable, which the
    isolation-oracle tests prove on the recorded histories
    (docs/REPLICATION.md).

    Each script is one transaction; the driver advances the active
    transactions round-robin, one step per round, so their data
    operations interleave in a single thread exactly as concurrent
    sessions would.  A lock conflict (the synchronous manager never
    waits) aborts the victim, which restarts from its first step in a
    later round — strict 2PL plus abort/retry, the discipline the
    isolation checker must find anomaly-free.  Victims back off for a
    deterministic, per-script number of rounds before restarting:
    simultaneous victims of a symmetric conflict would otherwise replay
    the identical collision round after round (livelock).

    ``read_composite`` takes the composite read plan,
    ``update_composite`` the composite write plan then stamps the root,
    ``read_instance`` / ``update_instance`` touch one instance.
    Returns counters::

        {"transactions": ..., "ops": ..., "conflict_retries": ...}
    """
    from ..errors import LockConflictError
    from ..locking.table import LockTable
    from ..txn.manager import TransactionManager

    tm = TransactionManager(
        database, lock_table if lock_table is not None else LockTable()
    )
    stats = {"transactions": 0, "ops": 0, "conflict_retries": 0,
             "snapshot_transactions": 0}
    stamp = 0
    read_actions = ("read_composite", "read_instance")
    active = [{"steps": list(steps), "pos": 0, "txn": None,
               "index": index, "retries": 0, "delay": 0,
               "snapshot": snapshot_readers and all(
                   step.action in read_actions for step in steps)}
              for index, steps in enumerate(scripts) if steps]
    rounds = 0
    while active:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError(
                f"run_tm_mix made no overall progress in {max_rounds} "
                f"rounds ({len(active)} transaction(s) stuck)"
            )
        still = []
        for state in active:
            if state["delay"]:
                state["delay"] -= 1
                still.append(state)
                continue
            if state["txn"] is None:
                state["txn"] = tm.begin(snapshot=state["snapshot"])
                if state["snapshot"]:
                    stats["snapshot_transactions"] += 1
            txn = state["txn"]
            step = state["steps"][state["pos"]]
            try:
                if step.action == "read_composite":
                    tm.read_composite(txn, step.target)
                elif step.action == "read_instance":
                    tm.read(txn, step.target, STAMP_ATTRIBUTE)
                elif step.action == "update_composite":
                    tm.lock_composite_for_update(txn, step.target)
                    stamp += 1
                    tm.write(txn, step.target, STAMP_ATTRIBUTE, stamp)
                elif step.action == "update_instance":
                    stamp += 1
                    tm.write(txn, step.target, STAMP_ATTRIBUTE, stamp)
                else:
                    raise ValueError(f"unknown step action {step.action!r}")
            except LockConflictError:
                # Victim restarts: locks released, undo applied, and the
                # whole script re-runs under a fresh transaction later.
                tm.abort(txn)
                stats["conflict_retries"] += 1
                state["txn"] = None
                state["pos"] = 0
                state["retries"] += 1
                # Stagger the restart by script position and retry
                # count: victims that collided in the same round come
                # back in different rounds, so the collision cannot
                # repeat verbatim forever.
                state["delay"] = (
                    state["retries"] * (state["index"] + 1)
                ) % 97
                still.append(state)
                continue
            stats["ops"] += 1
            state["pos"] += 1
            if state["pos"] >= len(state["steps"]):
                tm.commit(txn)
                stats["transactions"] += 1
            else:
                still.append(state)
        active = still
    return stats


# ---------------------------------------------------------------------------
# CLI: the TCP mix against a live server (CI's record-history step)
# ---------------------------------------------------------------------------


def main(argv=None):
    """Drive the composite mix over TCP against a running server."""
    import argparse
    import json

    from ..server.client import Client

    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.txmix",
        description="Create the mix fixture on a live server and run the "
        "B9 composite transaction mix over TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--user", default="txmix")
    parser.add_argument("--roots", type=int, default=8)
    parser.add_argument("--parts-per-root", type=int, default=3)
    parser.add_argument("--transactions", type=int, default=20)
    parser.add_argument("--steps-per-txn", type=int, default=3)
    parser.add_argument("--read-ratio", type=float, default=0.7)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    with Client(host=args.host, port=args.port, user=args.user) as client:
        client.connect()
        roots, components = tcp_fixture(
            client, roots=args.roots, parts_per_root=args.parts_per_root
        )
        scripts = composite_mix(
            roots,
            transactions=args.transactions,
            steps_per_txn=args.steps_per_txn,
            read_ratio=args.read_ratio,
            components_by_root=components,
            seed=args.seed,
        )
        stats = run_tcp_mix(client, scripts)
    print(json.dumps(stats))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
