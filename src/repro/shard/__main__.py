"""``python -m repro.shard`` / ``repro-router`` — run a sharded cluster.

Default mode spawns the whole cluster — N shard workers plus the router
— from one command and serves until interrupted::

    repro-router --root /path/to/cluster --shards 4

``--router-only`` fronts workers that are already running (their
``endpoint.json`` files must be published under the cluster root); use
it to restart a crashed coordinator without touching the workers.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import time
from pathlib import Path


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-router",
        description="Serve a composite-aware sharded cluster over TCP",
    )
    parser.add_argument("--root", required=True,
                        help="cluster directory (manifest, coord.log, "
                             "one subdirectory per shard)")
    parser.add_argument("--shards", type=int, default=2,
                        help="shard count for a fresh cluster (default 2; "
                             "an existing manifest must agree)")
    parser.add_argument("--policy", default="round_robin",
                        choices=("round_robin", "hash_class"),
                        help="free-object placement policy (default "
                             "round_robin)")
    parser.add_argument("--sync-policy", default="commit",
                        choices=("commit", "group", "none"),
                        help="worker journal sync policy (default commit; "
                             "'always' cannot hold a 2PC prepare open)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="router TCP port (default 0: pick a free "
                             "port and publish it in router.json)")
    parser.add_argument("--port-file", default=None,
                        help="also write the bound router port to this "
                             "file (subprocess harnesses)")
    parser.add_argument("--in-memory", action="store_true",
                        help="workers serve in-memory databases "
                             "(no journals; benchmarking)")
    parser.add_argument("--grace", type=float, default=5.0,
                        help="worker in-doubt resolution grace period "
                             "in seconds (default 5)")
    parser.add_argument("--router-only", action="store_true",
                        help="run only the router against already-running "
                             "workers")
    return parser


def _announce(args, port):
    if args.port_file:
        Path(args.port_file).write_text(f"{port}\n")
    print(f"repro-router listening on {args.host}:{port}", flush=True)


def _run_cluster(args):
    from .worker import ShardCluster

    cluster = ShardCluster(
        args.root,
        shards=args.shards,
        policy=args.policy,
        sync_policy=args.sync_policy,
        host=args.host,
        router_port=args.port,
        in_memory=args.in_memory,
        grace=args.grace,
    )
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    with cluster:
        _announce(args, cluster.router_port)
        with contextlib.suppress(KeyboardInterrupt):
            while not stopping:
                time.sleep(0.2)
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.router_only:
        from .worker import RouterSpec

        spec = RouterSpec(args.root, host=args.host, port=args.port)
        with contextlib.suppress(KeyboardInterrupt):  # before run() is up
            asyncio.run(spec.serve(lambda port: _announce(args, port)))
        return 0
    return _run_cluster(args)


if __name__ == "__main__":
    raise SystemExit(main())
