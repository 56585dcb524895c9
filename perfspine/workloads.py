"""The four closed-loop workloads.

Every op list is generated here from ``random.Random(seed)`` before the
program starts; the program sees only the generated requests.  Op counts
are fixed by ``--seconds`` (rate constants below, calibrated at seed speed
on the 2-core reference host), not by the wall clock, so counters repeat.
Each workload keeps a driver-side model of what every read must return.

Objects are named by integer *handles*; ``Composites.uids`` maps a handle
to the UID the program answered its ``make`` with.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import threading
import time
from array import array
from pathlib import Path

from repro import Database
from repro.authorization.engine import AuthorizationEngine
from repro.errors import DeadlockError, ReproError
from repro.server.client import Client
from repro.storage.durable import DurableDatabase
from repro.txn.manager import TransactionManager
from repro.workloads.txmix import (
    STAMP_ATTRIBUTE as STAMP,
    composite_mix,
    memory_fixture,
)

from .hostspeed import NOMINAL_NS, sample as host_sample
from .serve import ROOT, USER, ServerProcess

clock = time.perf_counter_ns

PARTS_PER_ROOT = 8
PIPELINE_DEPTH = 16
#: Discarded warm-up, as a share of the measured op count.
WARMUP_SHARE = 0.05
#: A traced run measures this share of the untraced op count, twice: an
#: untraced reference segment, then the traced segment.
TRACED_SHARE = 0.25
#: The run length of ``BENCHMARK.json``, which the fixture sizes below
#: belong to; shorter runs (``--smoke``) shrink the fixtures in proportion,
#: longer runs keep them.
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
MAX_DEADLOCK_RETRIES = 50
#: Bytes of user data in one integer attribute value.
VALUE_BYTES = 8


class Measured:
    """What executing one op list yields."""

    def __init__(self):
        #: Readings of the host-speed kernel taken between units, and the
        #: time they took (not part of the measured wall time).
        self.probes = 0
        self.probe_ns = 0
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        #: Latency of every unit the caller waited for, in ns.
        self.latencies = array("q")
        #: Time spent inside units (of every segment), in ns.
        self.busy_ns = 0
        self.window = (0, 0)
        #: Segment name -> its ops, ns, bytes and counters before/after.
        self.segments = {}

    def probe(self):
        self.probes += 1
        self.probe_ns += host_sample()

    @property
    def wall_s(self):
        return (self.window[1] - self.window[0] - self.probe_ns) / 1e9

    @property
    def slowdown(self):
        """Mean kernel reading over the nominal one (see hostspeed)."""
        return self.probe_ns / (self.probes * NOMINAL_NS)


class Composites:
    """Driver-side model of the composites: what every read must return."""

    def __init__(self):
        self.stamp = []      # handle -> last acknowledged Stamp
        self.uids = []       # handle -> UID, filled as makes are answered
        self.attached = {}   # root handle -> handles of its parts
        self.detached = {}   # root handle -> parts taken out by remove_from
        self.roots = []
        self.last_stamp = 0
        #: Integer attribute values the ops carry: one per make, one per
        #: write (the user data of stored_bytes_per_user_byte).
        self.values_sent = 0

    def _new(self):
        self.stamp.append(0)
        self.uids.append(None)
        self.values_sent += 1
        return len(self.stamp) - 1

    def write(self, handle):
        """A fresh stamp for *handle*; the next read must return it."""
        self.last_stamp += 1
        self.values_sent += 1
        self.stamp[handle] = self.last_stamp
        return self.last_stamp

    def new_root(self):
        root = self._new()
        self.roots.append(root)
        self.attached[root] = []
        self.detached[root] = []
        return root

    def new_part(self, root):
        part = self._new()
        self.attached[root].append(part)
        return part

    def ingest_batches(self, rng, composites, writes_per_composite=0):
        """Pipelined batches of ``PIPELINE_DEPTH`` writes that build
        *composites* new composites.  The op stream is software-pipelined
        -- ``make`` root k, the 8 parts of root k-1, then
        *writes_per_composite* ``set_value`` on parts of root k-2 -- so
        that every UID an op needs was answered by an earlier flush, and
        it is cut every ``PIPELINE_DEPTH`` ops (sooner where the next op
        needs a UID the current batch makes, which happens only without
        writes).  Every flush then carries nearly the same mix, so flush
        latency has one mode; ingesting in stages (all roots, all parts,
        all writes) gives three, and the median sat in a gap between
        them."""
        roots = [self.new_root() for _ in range(composites)]
        stream = []
        for k in range(composites + 2):
            if k < composites:
                stream.append(("make_root", roots[k]))
            if 1 <= k <= composites:
                stream += [("make_part", self.new_part(roots[k - 1]),
                            roots[k - 1]) for _ in range(PARTS_PER_ROOT)]
            if 2 <= k:
                for _ in range(writes_per_composite):
                    part = rng.choice(self.attached[roots[k - 2]])
                    stream.append(("set_value", part, self.write(part)))
        batches, batch, made = [], [], set()
        for op in stream:
            needs = op[2] if op[0] == "make_part" else op[1]
            if len(batch) == PIPELINE_DEPTH or needs in made:
                batches.append(batch)
                batch, made = [], set()
            batch.append(op)
            if op[0] != "set_value":
                made.add(op[1])
        if batch:
            batches.append(batch)
        return batches

    def readback_batches(self):
        """Read every composite's membership and every object in one.  (A
        part that remove_from took out belongs to no composite, so the
        class grant no longer reaches it; it is not read.)"""
        ops = []
        for root in self.roots:
            ops.append(("components_of", root, len(self.attached[root])))
            ops.append(("resolve", root, self.stamp[root]))
            ops += [("resolve", part, self.stamp[part])
                    for part in self.attached[root]]
        return _chunks(ops)


def _chunks(ops):
    return [ops[i:i + PIPELINE_DEPTH]
            for i in range(0, len(ops), PIPELINE_DEPTH)]


def send(target, op, uids):
    """Issue one wire op on a ``Client`` (returns the result) or a
    ``Pipeline`` (returns its handle)."""
    kind, handle = op[0], op[1]
    if kind in ("value", "snapshot_read"):
        return target.call(kind, uid=uids[handle], attribute=STAMP)
    if kind in ("resolve", "components_of"):
        return target.call(kind, uid=uids[handle])
    if kind == "set_value":
        return target.call(kind, uid=uids[handle], attribute=STAMP,
                           value=op[2])
    if kind in ("insert_into", "remove_from"):
        return target.call(kind, uid=uids[handle], attribute="Parts",
                           member=uids[op[2]])
    if kind == "make_root":
        return target.call("make", class_name="MixRoot",
                           values={STAMP: 0}, parents=[])
    if kind == "make_part":
        return target.call("make", class_name="MixPart", values={STAMP: 0},
                           parents=[[uids[op[2]], "Parts"]])
    raise ValueError(f"unknown op {kind!r}")


def accept(op, result, uids):
    """True when *result* is what the model says *op* must return."""
    kind = op[0]
    if kind == "value":
        return result == op[2]
    if kind == "resolve":
        return result["values"][STAMP] == op[2]
    if kind == "snapshot_read":
        return result["value"] == op[2]
    if kind == "components_of":
        return len(result) == op[2]
    if kind in ("make_root", "make_part"):
        uids[op[1]] = result
        return result is not None
    return result is True


def run_batches(client, batches, uids, measured=None):
    """Flush each batch through ``Client.pipeline()``; a flush is one
    unit.  Returns the number of flushes with a wrong or failed answer."""
    failed = 0
    pipe = client.pipeline()
    for batch in batches:
        if measured is not None:
            measured.probe()
        handles = [send(pipe, op, uids) for op in batch]
        start = clock()
        pipe.flush()
        elapsed = clock() - start
        wrong = 0
        for op, handle in zip(batch, handles, strict=True):
            try:
                wrong += not accept(op, handle.result(), uids)
            except ReproError:
                wrong += 1
        failed += bool(wrong)
        if measured is not None:
            measured.latencies.append(elapsed)
            measured.busy_ns += elapsed
            measured.ops += len(batch)
    if measured is not None:
        measured.attempted += len(batches)
        measured.failed += failed
    return failed


class Workload:
    """Shared flow: ``prepare`` (op lists), ``setup`` (timed), ``execute``
    (an op list), ``finish`` (correctness checks), ``teardown``."""

    name = ""
    why = ""
    #: What one latency sample is.
    unit = ""
    #: The database's own process, when it has one.
    server = None

    def __init__(self, seed, seconds, workdir, tracer=None):
        self.seed = seed
        self.seconds = seconds
        self.workdir = Path(workdir)
        self.tracer = tracer
        self.rng = random.Random(seed)
        self.model = Composites()
        #: Named pass/fail checks made by ``finish``.
        self.checks = {}
        #: Metrics only this workload produces.
        self.extra = {}

    def scaled(self, per_second, floor=1):
        return max(floor, int(per_second * self.seconds))

    def fixture(self, full):
        return max(PIPELINE_DEPTH,
                   int(full * min(1.0, self.seconds / RUN_SECONDS)))

    def op_lists(self, count, traced):
        """``(warm-up, reference, measured)`` counts for one run."""
        if traced:
            count = max(1, int(count * TRACED_SHARE))
        warm = max(1, int(count * WARMUP_SHARE))
        return warm, (count if traced else 0), count

    def sizes(self):
        """Op counts and fixture sizes, for the result file."""
        raise NotImplementedError

    def database_pid(self):
        """The process that holds the database: its CPU and RSS count."""
        return self.server.pid if self.server is not None else os.getpid()

    def start_tracing(self):
        self.tracer.install()


# ---------------------------------------------------------------------------
# embedded_design
# ---------------------------------------------------------------------------

RC, RD, WR, MK, DL = range(5)


class EmbeddedDesign(Workload):
    name = "embedded_design"
    why = ("core, locking, txn and authorization do all the work and "
           "server.*/storage.* none: a lock-plan or authorization cache "
           "must show here, a framing or journal change must not")
    unit = "TransactionManager call (with its authorization check)"
    COMPOSITES = 2000
    TXNS_PER_SECOND = 6200
    MAKE_EVERY = 20
    #: The issue's 1 in 20 made this workload a benchmark of one function:
    #: ``core.deletion.would_delete`` walks every live instance, so one
    #: delete costs ~16 ms at 18k objects against ~30 us for a read, and
    #: 1.1% of the units were ~85% of the time.  At 1 in 400 deletes are
    #: about a quarter of the time and the fast path carries the metrics.
    DELETE_EVERY = 400

    def prepare(self, traced):
        self.composites = self.fixture(self.COMPOSITES)
        for _ in range(self.composites):
            root = self.model.new_root()
            for _ in range(PARTS_PER_ROOT):
                self.model.new_part(root)
        self.counts = self.op_lists(
            self.scaled(self.TXNS_PER_SECOND), traced)
        numbers = iter(range(sum(self.counts)))
        return [[self._txn(next(numbers)) for _ in range(count)]
                for count in self.counts]

    def sizes(self):
        return {"composites": self.composites,
                "transactions": self.counts[2]}

    def _txn(self, number):
        """One short transaction on one composite: read it, read one
        part; write the part in 1/3; make a part in 1/20; delete a part
        (Deletion Rule: the dependent component goes) in 1/400.  The
        shares are exact (every 3rd, 20th, 400th): the seed picks the
        objects, not how many deletes a run gets -- a delete costs 500
        reads here, so a random count would be the run's main noise."""
        rng, model = self.rng, self.model
        root = rng.choice(model.roots)
        parts = model.attached[root]
        part = rng.choice(parts)
        ops = [(RC, root, len(parts)), (RD, part, model.stamp[part])]
        if number % 3 == 0:
            ops.append((WR, part, model.write(part)))
        if number % self.DELETE_EVERY == 17 and len(parts) > 4:
            victim = rng.choice(parts)
            parts.remove(victim)
            ops.append((DL, victim, None))
        elif number % self.MAKE_EVERY == 7:
            ops.append((MK, root, model.new_part(root)))
        return ops

    def setup(self):
        self.db = Database()
        roots, components = memory_fixture(
            self.db, roots=self.composites, parts_per_root=PARTS_PER_ROOT)
        self.auth = AuthorizationEngine(self.db)
        self.auth.grant(USER, "sW", on_class="MixRoot")
        self.tm = TransactionManager(self.db)
        uids = self.model.uids
        for root, root_uid in zip(self.model.roots, roots, strict=True):
            uids[root] = root_uid
            for offset, part_uid in enumerate(components[root_uid]):
                uids[root + 1 + offset] = part_uid

    def counters(self):
        locks = self.tm.table.stats
        return {"lock_requests": locks.requests, "lock_blocks": locks.blocks,
                "commits": self.tm.commits, "aborts": self.tm.aborts}

    def execute(self, txns):
        measured = Measured()
        sample = measured.latencies.append
        tm, uids, require = self.tm, self.model.uids, self.auth.require
        failed = 0
        begin = clock()
        for index, ops in enumerate(txns):
            if index % 16 == 0:
                measured.probe()
            start = clock()
            txn = tm.begin()
            sample(clock() - start)
            for kind, handle, arg in ops:
                uid = uids[handle]
                start = clock()
                if kind == RC:
                    require(USER, "R", uid)
                    ok = len(tm.read_composite(txn, uid)) == arg
                elif kind == RD:
                    require(USER, "R", uid)
                    ok = tm.read(txn, uid, STAMP) == arg
                elif kind == WR:
                    require(USER, "W", uid)
                    tm.write(txn, uid, STAMP, arg)
                    ok = True
                elif kind == MK:
                    require(USER, "W", uid)
                    uids[arg] = tm.make(txn, "MixPart", values={STAMP: 0},
                                        parents=[(uid, "Parts")])
                    ok = True
                else:
                    require(USER, "W", uid)
                    ok = tm.delete(txn, uid).deleted == [uid]
                sample(clock() - start)
                failed += not ok
            start = clock()
            tm.commit(txn)
            sample(clock() - start)
        measured.window = (begin, clock())
        measured.ops = measured.attempted = len(measured.latencies)
        measured.busy_ns = sum(measured.latencies)
        measured.failed = failed
        return measured

    def finish(self):
        db, model = self.db, self.model
        wrong = 0
        for root in model.roots:
            members = {model.uids[part] for part in model.attached[root]}
            wrong += set(db.components_of(model.uids[root])) != members
            wrong += sum(db.value(model.uids[part], STAMP)
                         != model.stamp[part]
                         for part in model.attached[root])
        self.checks["final state equals the model"] = wrong == 0
        self.checks["fsck clean"] = db.fsck().ok
        self.checks["no lock left held"] = self.tm.table.lock_count() == 0

    def teardown(self):
        self.db = self.auth = self.tm = None


# ---------------------------------------------------------------------------
# Wire workloads: the database runs in its own process
# ---------------------------------------------------------------------------


class WireWorkload(Workload):
    durable = False
    connections = 1

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.clients = []
        self.load_batches = []

    def setup(self):
        self.server = ServerProcess(
            self.workdir / "server", durable=self.durable,
            traced=self.tracer is not None,
        ).start()
        self.connect()
        failed = run_batches(self.clients[0], self.load_batches,
                             self.model.uids)
        if failed:
            raise RuntimeError(f"{failed} fixture batches failed to load")

    def connect(self):
        self.clients = [Client(port=self.server.port, user=USER)
                        for _ in range(self.connections)]

    def start_tracing(self):
        self.tracer.install()
        self.server.trace_on()

    def counters(self):
        stats = self.clients[0].stats()
        server, locks = stats["server"], stats["locks"]
        journal = stats.get("durability", {})
        cache = stats.get("image_cache", {})
        mvcc = stats.get("mvcc", {})
        return {
            "lock_requests": locks["requests"],
            "lock_blocks": locks["blocks"],
            "deadlocks": locks["deadlocks_detected"],
            "commits": server["commits"],
            "aborts": server["aborts"],
            "pipelined_batches": server["pipelined_batches"],
            "pipelined_requests": server["pipelined_requests"],
            "fsyncs": journal.get("fsyncs", 0),
            "records_written": journal.get("records_written", 0),
            "records_coalesced": journal.get("records_coalesced", 0),
            "cache_hits": cache.get("hits", 0),
            "cache_misses": cache.get("misses", 0),
            "versions_stamped": mvcc.get("versions_stamped", 0),
            "chain_entries": mvcc.get("chain_entries", 0),
        }

    def finish(self):
        client = self.clients[0]
        failed = run_batches(client, self.model.readback_batches(),
                             self.model.uids)
        self.checks["final state equals the model"] = failed == 0
        self.checks["fsck clean"] = bool(client.check(plane="fsck")["ok"])

    def teardown(self):
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.stop()
            self.checks["server stderr has no traceback"] = (
                "Traceback" not in self.server.stderr_text())
            self.server = None
        shutil.rmtree(self.workdir / "server", ignore_errors=True)


class WirePointOps(WireWorkload):
    name = "wire_point_ops"
    why = ("one connection, depth 1, read-heavy autocommit: client, "
           "protocol, server loop and dispatch dominate, the journal does "
           "nothing; a write-path gain that taxes reads shows as a loss")
    unit = "Client.call round trip"
    COMPOSITES = 1000
    REQUESTS_PER_SECOND = 4750
    #: Every 20 requests hold exactly this mix, in an order the seed
    #: shuffles: 45% value, 20% resolve, 10% components_of, 5%
    #: snapshot_read, 15% set_value, 5% insert_into/remove_from.
    MIX = (["value"] * 9 + ["resolve"] * 4 + ["components_of"] * 2
           + ["snapshot_read"] + ["set_value"] * 3 + ["relink"])

    def prepare(self, traced):
        self.composites = self.fixture(self.COMPOSITES)
        self.load_batches = self.model.ingest_batches(
            self.rng, self.composites)
        self.counts = self.op_lists(
            self.scaled(self.REQUESTS_PER_SECOND), traced)
        kinds = self._kinds()
        return [[self._op(next(kinds)) for _ in range(count)]
                for count in self.counts]

    def _kinds(self):
        while True:
            yield from self.rng.sample(self.MIX, len(self.MIX))

    def sizes(self):
        return {"composites": self.composites, "requests": self.counts[2]}

    def _op(self, kind):
        rng, model = self.rng, self.model
        root = rng.choice(model.roots)
        parts = model.attached[root]
        if kind == "components_of":
            return (kind, root, len(parts))
        if kind == "relink":
            # Take a part out of the composite, or put the one that is
            # out back in: the composite alternates between 8 and 7.
            away = model.detached[root]
            if away:
                part = away.pop()
                parts.append(part)
                return ("insert_into", root, part)
            part = parts.pop(rng.randrange(len(parts)))
            away.append(part)
            return ("remove_from", root, part)
        target = rng.choice([root] + parts)
        if kind == "set_value":
            return (kind, target, model.write(target))
        return (kind, target, model.stamp[target])

    def execute(self, ops):
        measured = Measured()
        sample = measured.latencies.append
        client, uids = self.clients[0], self.model.uids
        failed = 0
        begin = clock()
        for index, op in enumerate(ops):
            if index % 32 == 0:
                measured.probe()
            start = clock()
            try:
                ok = accept(op, send(client, op, uids), uids)
            except ReproError:
                ok = False
            sample(clock() - start)
            failed += not ok
        measured.window = (begin, clock())
        measured.ops = measured.attempted = len(ops)
        measured.busy_ns = sum(measured.latencies)
        measured.failed = failed
        return measured


class DurableIngest(WireWorkload):
    name = "durable_ingest"
    why = ("the pipelined write side: only here do journal, serializer and "
           "group-commit barrier carry the cost; one read set larger than "
           "the ImageCache, one that fits; then SIGKILL and recovery")
    unit = "Pipeline.flush of 16 writes (ingest segment)"
    durable = True
    COMPOSITES_PER_SECOND = 160
    WRITES_PER_COMPOSITE = 6
    HOT_OBJECTS = 512
    HOT_PASSES = 20

    def prepare(self, traced):
        self.counts = self.op_lists(
            self.scaled(self.COMPOSITES_PER_SECOND, floor=4), traced)
        lists = [self._segments(count) for count in self.counts]
        if traced:
            self.extra["journal_append_us"] = self.append_cost_us(lists[2])
        return lists

    def sizes(self):
        return {"composites": self.counts[2],
                "objects": self.counts[2] * (1 + PARTS_PER_ROOT),
                "hot_objects": self.hot_objects,
                "hot_passes": self.HOT_PASSES}

    def _segments(self, composites):
        """One self-contained op list: ingest *composites*, scan every
        object just ingested once (first touch: the ImageCache misses),
        then re-read a fixed subset 20 times (it fits: the cache hits)."""
        model = self.model
        first = len(model.stamp)
        ingest = model.ingest_batches(self.rng, composites,
                                      self.WRITES_PER_COMPOSITE)
        handles = list(range(first, len(model.stamp)))
        cold = [("resolve", h, model.stamp[h]) for h in handles]
        self.hot_objects = min(self.HOT_OBJECTS, len(handles))
        hot_set = self.rng.sample(handles, self.hot_objects)
        hot = [("resolve", h, model.stamp[h])
               for _ in range(self.HOT_PASSES) for h in hot_set]
        return {"ingest": ingest, "cold_scan": _chunks(cold),
                "hot_scan": _chunks(hot)}

    def append_cost_us(self, segments):
        """``journal.append_us``: the journal's append hook is private, so
        its cost is measured by difference -- the ingest ops replayed
        in-process on ``DurableDatabase(sync_policy="none")`` minus the
        same ops on a plain ``Database``, per op."""
        batches = segments["ingest"]

        def replay(db):
            uids = {}
            for batch in batches:
                for kind, handle, *rest in batch:
                    if kind == "make_root":
                        uids[handle] = db.make("MixRoot", values={STAMP: 0})
                    elif kind == "make_part":
                        uids[handle] = db.make(
                            "MixPart", values={STAMP: 0},
                            parents=[(uids[rest[0]], "Parts")])
                    else:
                        db.set_value(uids[handle], STAMP, rest[0])

        plain = Database()
        journaled = DurableDatabase(self.workdir / "replay",
                                    sync_policy="none")
        try:
            elapsed = []
            for db in (plain, journaled):
                memory_fixture(db, roots=0)
                start = clock()
                replay(db)
                elapsed.append(clock() - start)
        finally:
            journaled.close()
            shutil.rmtree(self.workdir / "replay", ignore_errors=True)
        ops = sum(len(batch) for batch in batches)
        return (elapsed[1] - elapsed[0]) / ops / 1e3

    def data_bytes(self):
        return sum(path.stat().st_size
                   for path in self.server.data_dir.rglob("*")
                   if path.is_file())

    def execute(self, segments):
        measured = Measured()
        client, uids = self.clients[0], self.model.uids
        begin = clock()
        for name, batches in segments.items():
            scan = Measured()
            before = self.counters()
            size = self.data_bytes()
            start = clock()
            run_batches(client, batches, uids, scan)
            elapsed = clock() - start - scan.probe_ns
            measured.probes += scan.probes
            measured.probe_ns += scan.probe_ns
            measured.segments[name] = {
                "ops": scan.ops, "ns": elapsed, "before": before,
                "after": self.counters(),
                "bytes": self.data_bytes() - size,
            }
            measured.ops += scan.ops
            measured.attempted += scan.attempted
            measured.failed += scan.failed
            measured.busy_ns += scan.busy_ns
            if name == "ingest":
                # The write path is the unit; the scans are reported as
                # image_cache.*_scan_ops_s (see README: one median over
                # a two-mode mix would sit in the gap between them).
                measured.latencies = scan.latencies
        measured.window = (begin, clock())
        return measured

    def finish(self):
        """SIGKILL (no checkpoint first), restart on the same directory,
        then read back every acknowledged object.  A process crash with
        the OS cache intact, not power loss: ``faults/`` owns that."""
        # Every generated op has been sent and acknowledged by now.
        self.extra["stored_bytes_per_user_byte"] = (
            self.data_bytes() / (VALUE_BYTES * self.model.values_sent))
        for client in self.clients:
            client.close()
        start = clock()
        self.server.kill()
        self.server.start()
        self.connect()
        pong = self.clients[0].ping(timeout=30.0)
        self.extra["recovery_s"] = (clock() - start) / 1e9
        self.checks["restarted server answers ping"] = pong == "pong"
        super().finish()


class ContendedTxnMix(WireWorkload):
    name = "contended_txn_mix"
    why = ("two connections run explicit transactions on 6 composites: "
           "lock waits, deadlock detection and undo dominate, the opposite "
           "use of locking from embedded_design (blocked vs never blocked)")
    unit = "transaction, first begin to commit ack, retries included"
    connections = 2
    COMPOSITES = 6
    TXNS_PER_SECOND = 450  # per connection

    def prepare(self, traced):
        self.load_batches = self.model.ingest_batches(
            self.rng, self.COMPOSITES)
        # The floor keeps a smoke run long enough to meet a lock conflict.
        self.counts = self.op_lists(
            self.scaled(self.TXNS_PER_SECOND, floor=240), traced)
        #: Per connection: target handle -> stamps its committed
        #: transactions wrote, and the last stamp it used (connection 0
        #: writes even stamps, connection 1 odd ones).
        self.committed = [{} for _ in range(self.connections)]
        self.last_stamp = list(range(self.connections))
        return [self._scripts(index, count)
                for index, count in enumerate(self.counts)]

    def sizes(self):
        return {"composites": self.COMPOSITES,
                "transactions_per_connection": self.counts[2],
                "connections": self.connections}

    def _scripts(self, index, count):
        """``workloads.txmix.composite_mix`` over handles, one script
        list per connection."""
        return [
            composite_mix(
                self.model.roots, transactions=count, steps_per_txn=4,
                read_ratio=0.7, instance_access_ratio=0.3,
                components_by_root=self.model.attached,
                seed=(self.seed * 8 + index) * 2 + connection,
            )
            for connection in range(self.connections)
        ]

    def execute(self, scripts):
        measured = Measured()
        results = [None] * len(scripts)

        def work(index):
            # Only connection 0 probes: two kernels at once would time
            # each other's hold on the interpreter lock.
            results[index] = self._run_scripts(
                index, scripts[index], measured.probe if index == 0 else None)

        threads = [threading.Thread(target=work, args=(index,))
                   for index in range(len(scripts))]
        begin = clock()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        measured.window = (begin, clock())
        for result in results:
            if result is None:
                raise RuntimeError("a driver thread died")
            ops, latencies, failed = result
            measured.ops += ops
            measured.latencies.extend(latencies)
            measured.failed += failed
        measured.attempted = sum(len(script) for script in scripts)
        measured.busy_ns = sum(measured.latencies)
        self.scripts_run = measured.attempted
        return measured

    def _run_scripts(self, index, scripts, probe):
        """``run_tcp_mix``-style retry loop with per-transaction latency."""
        client, uids = self.clients[index], self.model.uids
        span = (self.tracer.span if self.tracer is not None
                and self.tracer.installed else _no_span)
        committed = self.committed[index]
        latencies = array("q")
        stamp = self.last_stamp[index]
        ops = failed = 0
        for number, steps in enumerate(scripts):
            if probe is not None and number % 4 == 0:
                probe()
            start = clock()
            with span("driver.txn"):
                for _attempt in range(MAX_DEADLOCK_RETRIES + 1):
                    written = []
                    try:
                        ops += 1
                        client.begin()
                        for step in steps:
                            ops += 1
                            uid = uids[step.target]
                            if step.action == "read_composite":
                                client.components_of(uid)
                            elif step.action == "read_instance":
                                client.resolve(uid)
                            else:
                                stamp += 2
                                client.set_value(uid, STAMP, stamp)
                                written.append((step.target, stamp))
                        ops += 1
                        client.commit()
                    except DeadlockError:
                        continue
                    except ReproError:
                        failed += 1
                        break
                    for target, value in written:
                        committed.setdefault(target, set()).add(value)
                    break
                else:
                    failed += 1
            latencies.append(clock() - start)
        self.last_stamp[index] = stamp
        return ops, latencies, failed

    def finish(self):
        client, model = self.clients[0], self.model
        valid = {}
        for committed in self.committed:
            for target, stamps in committed.items():
                valid.setdefault(target, {0}).update(stamps)
        wrong = 0
        for handle in range(len(model.stamp)):
            final = client.value(model.uids[handle], STAMP)
            wrong += final not in valid.get(handle, {0})
        self.checks["every final stamp was written by a committed "
                    "transaction"] = wrong == 0
        self.checks["fsck clean"] = bool(client.check(plane="fsck")["ok"])


@contextlib.contextmanager
def _no_span(_name):
    yield


WORKLOADS = {cls.name: cls for cls in (
    EmbeddedDesign, WirePointOps, DurableIngest, ContendedTxnMix)}
