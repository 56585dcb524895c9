"""Shard workers: N ``ReproServer`` processes plus the router, managed.

A *worker* is an ordinary :class:`repro.server.server.ReproServer` over
its own :class:`repro.storage.durable.DurableDatabase` (own journal, own
data directory), started with ``shard_info=(shard_id, shards)`` so its
UID allocator runs on the shard's stride and the 2PC ops are wired to
the cluster's coordinator log.  Worker startup order:

1. recover the shard's journal (the usual redo replay);
2. re-seat the allocator on the shard's stride
   (:meth:`repro.core.identity.UIDAllocator.restride`);
3. resolve in-doubt 2PC batches against the coordinator log — polling
   for a grace period first, because a *live* router may be milliseconds
   from logging its decision — then presume abort for the remainder;
4. bind, and only then publish ``endpoint.json``: the router never sees
   a worker that still has unresolved doubt.

Workers and the router run as ``spawn``-ed processes through one child
entry: it arms the spec's failpoints (nothing is inherited — no event
loop, no armed registry; the crash simulator arms each child explicitly
through :attr:`WorkerSpec.failpoints`) and runs ``spec.serve()`` until
SIGTERM.  A spec is any picklable object with ``failpoints``,
``endpoint`` and ``serve()``.  Discovery is the
filesystem: each process publishes its bound port atomically, so a
worker restarted on a new ephemeral port is found by the router's next
reconnect without any registry service.

:class:`ShardCluster` wraps the whole thing for tests, benchmarks, the
crash simulator, and the ``repro-router`` CLI: create/validate the
manifest, spawn workers and router, kill (SIGKILL, as a crash) or
restart any of them, tear everything down.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ShardError
from .placement import (
    ENDPOINT_NAME,
    ROUTER_ENDPOINT_NAME,
    ensure_manifest,
    read_endpoint,
    write_endpoint,
)
from .twopc import COORD_LOG_NAME, CoordinatorLog, presume_abort, resolve_in_doubt

#: Spawn, not fork: children must not inherit the parent's event loop,
#: threads, or armed failpoint registry (fault plans are per-process).
_MP = multiprocessing.get_context("spawn")


@dataclass
class WorkerSpec:
    """Everything one shard worker process needs to start."""

    shard_id: int
    shards: int
    directory: str
    coord_log: str
    host: str = "127.0.0.1"
    port: int = 0
    sync_policy: str = "commit"
    group_window: float = 0.002
    #: Benchmark mode: plain in-memory database, no journal (2PC still
    #: works — the worker votes ``"ro"`` and holds no durable state).
    in_memory: bool = False
    #: Seconds to wait for the coordinator log to decide recovered
    #: in-doubt transactions before presuming abort.
    grace: float = 5.0
    #: Fault rules (``FaultRule.to_dict()`` form) armed in the child for
    #: its whole life — the crash simulator's kill switches.
    failpoints: list = field(default_factory=list)
    #: Stream the worker's transaction history to this JSONL path (a
    #: restart appends; the recorder's boot marker splits the epochs).
    record_history: str | None = None

    @property
    def endpoint(self):
        """Where the worker publishes its bound port."""
        return self.directory, ENDPOINT_NAME

    async def serve(self):
        """Recover the shard and settle its doubt, then serve it until
        SIGTERM, publishing ``endpoint.json`` once bound."""
        from ..core.database import Database
        from ..server.server import ReproServer
        from ..storage.durable import DurableDatabase

        if self.in_memory:
            db = Database()
            db.allocator.restride(0, self.shard_id, self.shards)
        else:
            db = DurableDatabase(self.directory, sync_policy=self.sync_policy)
            db.allocator.restride(
                db.allocator.peek() - 1, self.shard_id, self.shards
            )
            await _settle_in_doubt(db, self)
        server = ReproServer(
            database=db,
            host=self.host,
            port=self.port,
            group_commit_window=self.group_window,
            shard_info=(self.shard_id, self.shards),
            coord_log=self.coord_log,
            record_history=self.record_history,
        )
        try:
            await server.run(
                lambda server: write_endpoint(
                    self.directory, server.host, server.port
                )
            )
        finally:
            if not self.in_memory:
                db.close()


@dataclass
class RouterSpec:
    """Everything the router process needs to start (``repro-router
    --router-only`` serves one in the foreground)."""

    root: str
    host: str = "127.0.0.1"
    port: int = 0
    connect_timeout: float = 10.0
    failpoints: list = field(default_factory=list)

    @property
    def endpoint(self):
        """Where the router publishes its bound port."""
        return self.root, ROUTER_ENDPOINT_NAME

    async def serve(self, announce=None):
        """Serve the router until SIGTERM, publishing ``router.json``
        (then calling ``announce(port)``, if given) once bound."""
        from .router import ShardRouter

        def publish(router):
            write_endpoint(self.root, router.host, router.port,
                           name=ROUTER_ENDPOINT_NAME)
            if announce is not None:
                announce(router.port)

        router = ShardRouter(self.root, host=self.host, port=self.port,
                             connect_timeout=self.connect_timeout)
        await router.run(publish)


def _armed(failpoints):
    """A fault scope for *failpoints* (a no-op scope when empty)."""
    from ..faults.registry import FailpointRegistry, FaultRule, fault_scope

    registry = FailpointRegistry(
        FaultRule.from_dict(rule) for rule in failpoints
    )
    return fault_scope(registry)


def _child_main(spec):
    """The one entry of every spawned frontend process (a worker or the
    router): arm the spec's failpoints, then run ``spec.serve()``, which
    publishes the frontend's endpoint once bound and returns after
    SIGTERM (:meth:`repro.server.server.WireServer.run`)."""
    with _armed(spec.failpoints), contextlib.suppress(KeyboardInterrupt):
        asyncio.run(spec.serve())


async def _settle_in_doubt(db, spec):
    """Close out prepared-but-undecided batches before serving.

    The worker must not serve while doubt is open: the in-doubt batch's
    locks died with the old process, so a new transaction could write
    around an update that a later commit-decision would then apply.
    Decisions present in the coordinator log are applied; for the rest
    the worker waits out *grace* (a live router fsyncs its decision
    before sending any of them, so absence is almost always permanent —
    the window is only a coordinator about to log) and then presumes
    abort.  Either way the resolution is journaled, so the next
    recovery does not re-raise it.
    """
    if not db.in_doubt:
        return
    log = CoordinatorLog(spec.coord_log)
    deadline = time.monotonic() + spec.grace
    while db.in_doubt:
        resolve_in_doubt(db, log.load(), journal=db.journal)
        if not db.in_doubt or time.monotonic() >= deadline:
            break
        await asyncio.sleep(0.05)
    presume_abort(db, journal=db.journal)


class ShardCluster:
    """Spawn and supervise one sharded cluster: N workers + the router.

    ::

        with ShardCluster(root, shards=2) as cluster:
            client = Client(port=cluster.router_port)
            ...
            cluster.kill_worker(1)      # SIGKILL, as a crash
            cluster.restart_worker(1)   # recovers, republishes its port

    ``kill_*`` delivers SIGKILL (a crash: no teardown, journals stay as
    they fell); :meth:`stop` delivers SIGTERM (graceful: sessions abort,
    journals seal).  The crash simulator arms per-process failpoints via
    ``worker_failpoints`` / ``router_failpoints`` instead, letting a
    process take *itself* down at an exact 2PC state.
    """

    def __init__(self, root, shards=2, policy="round_robin",
                 sync_policy="commit", host="127.0.0.1", router_port=0,
                 in_memory=False, grace=5.0, group_window=0.002,
                 router_connect_timeout=10.0, start_timeout=60.0,
                 worker_failpoints=None, router_failpoints=None,
                 record_history_dir=None):
        self.root = Path(root)
        self.manifest = ensure_manifest(
            self.root, shards, policy=policy, sync_policy=sync_policy
        )
        for shard_id in range(self.manifest.shards):
            self.manifest.shard_path(self.root, shard_id).mkdir(
                parents=True, exist_ok=True
            )
        self.host = host
        self.router_bind_port = router_port
        self.in_memory = in_memory
        self.grace = grace
        self.group_window = group_window
        self.router_connect_timeout = router_connect_timeout
        self.start_timeout = start_timeout
        self.worker_failpoints = dict(worker_failpoints or {})
        self.router_failpoints = list(router_failpoints or ())
        self.record_history_dir = (
            Path(record_history_dir) if record_history_dir else None
        )
        if self.record_history_dir is not None:
            self.record_history_dir.mkdir(parents=True, exist_ok=True)
        self.coord_log = str(self.root / COORD_LOG_NAME)
        self.workers = {}
        self.router_proc = None
        self.router_port = None

    # -- lifecycle --------------------------------------------------------

    def start(self):
        for shard_id in range(self.manifest.shards):
            self.start_worker(shard_id)
        self.start_router()
        return self

    def stop(self):
        """Graceful shutdown: router first (stop accepting), then workers."""
        procs = []
        if self.router_proc is not None:
            procs.append(self.router_proc)
            self.router_proc = None
        procs.extend(self.workers.values())
        self.workers.clear()
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=10.0)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()

    # -- workers ----------------------------------------------------------

    def worker_spec(self, shard_id):
        return WorkerSpec(
            shard_id=shard_id,
            shards=self.manifest.shards,
            directory=str(self.manifest.shard_path(self.root, shard_id)),
            coord_log=self.coord_log,
            host=self.host,
            sync_policy=self.manifest.sync_policy,
            group_window=self.group_window,
            in_memory=self.in_memory,
            grace=self.grace,
            failpoints=list(self.worker_failpoints.get(shard_id, ())),
            record_history=(
                str(self.record_history_dir / f"history-{shard_id:02d}.jsonl")
                if self.record_history_dir is not None else None
            ),
        )

    def start_worker(self, shard_id):
        spec = self.worker_spec(shard_id)
        proc = self.workers[shard_id] = self._spawn(spec)
        self._await_endpoint(spec, proc, f"shard {shard_id} worker")
        return proc

    def kill_worker(self, shard_id):
        """SIGKILL a worker — a crash, not a shutdown."""
        return _end(self.workers[shard_id], signal.SIGKILL)

    def restart_worker(self, shard_id):
        """Start a fresh worker process for *shard_id* (recovers, then
        republishes its endpoint).  The old process must be dead."""
        _require_dead(self.workers.get(shard_id), f"shard {shard_id} worker",
                      "kill_worker")
        return self.start_worker(shard_id)

    def wait_worker(self, shard_id, timeout=30.0):
        """Join a worker expected to exit on its own (armed kill)."""
        return _end(self.workers[shard_id], timeout=timeout)

    # -- the router -------------------------------------------------------

    def start_router(self):
        spec = RouterSpec(
            root=str(self.root),
            host=self.host,
            port=self.router_bind_port,
            connect_timeout=self.router_connect_timeout,
            failpoints=list(self.router_failpoints),
        )
        proc = self.router_proc = self._spawn(spec)
        self.router_port = self._await_endpoint(spec, proc, "router")["port"]
        return proc

    def kill_router(self):
        """SIGKILL the router (coordinator crash)."""
        return _end(self.router_proc, signal.SIGKILL)

    def restart_router(self):
        _require_dead(self.router_proc, "router", "kill_router")
        return self.start_router()

    def wait_router(self, timeout=30.0):
        return _end(self.router_proc, timeout=timeout)

    # -- helpers ----------------------------------------------------------

    @staticmethod
    def _spawn(spec):
        """Start *spec*'s process through the one child entry, once the
        endpoint file of its previous incarnation is gone."""
        directory, name = spec.endpoint
        with contextlib.suppress(FileNotFoundError):
            (Path(directory) / name).unlink()
        proc = _MP.Process(target=_child_main, args=(spec,), daemon=True)
        proc.start()
        return proc

    def _await_endpoint(self, spec, proc, what):
        """Poll for *proc*'s freshly published endpoint file.

        ``pid`` must match the new process: a stale file from the
        previous incarnation (unlinked at start, but races with slow
        filesystems are cheap to exclude) is not an answer.
        """
        directory, name = spec.endpoint
        deadline = time.monotonic() + self.start_timeout
        while time.monotonic() < deadline:
            endpoint = read_endpoint(directory, name=name)
            if endpoint is not None and endpoint.get("pid") == proc.pid:
                return endpoint
            if not proc.is_alive():
                raise ShardError(
                    f"{what} exited with code {proc.exitcode} before "
                    f"publishing its endpoint"
                )
            time.sleep(0.02)
        raise ShardError(
            f"{what} did not publish its endpoint within "
            f"{self.start_timeout:.0f}s"
        )


def _end(proc, signum=None, timeout=10.0):
    """Deliver *signum* (if any) to a live *proc*, join it, and return
    its exit code."""
    if signum is not None and proc.is_alive():
        os.kill(proc.pid, signum)
    proc.join(timeout=timeout)
    return proc.exitcode


def _require_dead(proc, what, kill):
    if proc is not None and proc.is_alive():
        raise ShardError(f"{what} is still running; {kill}() first")
