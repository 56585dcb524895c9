"""``python -m repro.server`` / ``repro-server`` — run a standalone server.

Serves a fresh (or paged) database until SIGTERM or Ctrl-C::

    repro-server --host 0.0.0.0 --port 4957 --paged
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
from pathlib import Path

from ..core.database import Database
from .server import ReproServer


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-server",
        description="Serve an ORION-style composite-object database over TCP",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=4957,
                        help="TCP port (default 4957; 0 picks a free port)")
    parser.add_argument("--port-file", default=None,
                        help="write the actually-bound port to this file "
                             "after listening starts (lets a harness that "
                             "launched us with --port 0 discover the port)")
    parser.add_argument("--paged", action="store_true",
                        help="serve a page-backed database")
    parser.add_argument("--buffer-capacity", type=int, default=64,
                        help="buffer-pool frames in paged mode (default 64)")
    parser.add_argument("--lock-wait-timeout", type=float, default=30.0,
                        help="seconds a lock wait may last (default 30)")
    parser.add_argument("--data-dir", default=None,
                        help="serve a durable store from this directory "
                             "(recovered on start; in-memory when omitted)")
    parser.add_argument("--sync-policy", default="commit",
                        choices=("always", "commit", "group", "none"),
                        help="journal sync policy for --data-dir "
                             "(default commit; see docs/DURABILITY.md)")
    parser.add_argument("--group-window", type=float, default=0.002,
                        help="group-commit window in seconds under "
                             "--sync-policy group (default 0.002)")
    parser.add_argument("--max-pipeline", type=int, default=64,
                        help="maximum requests a client may pipeline on one "
                             "connection before reading responses "
                             "(default 64; advertised in the handshake)")
    parser.add_argument("--record-history", metavar="PATH", default=None,
                        help="stream the transaction history to PATH as "
                             "JSONL (enables the check op's iso plane; "
                             "repro-check iso reads the same file offline)")
    parser.add_argument("--no-lockdep", action="store_true",
                        help="disable the lock-order recorder (drops the "
                             "check op's lockdep plane)")
    parser.add_argument("--no-mvcc", action="store_true",
                        help="disable the MVCC snapshot manager (drops the "
                             "snapshot_read op and snapshot transactions; "
                             "saves the version-chain overhead)")
    parser.add_argument("--max-versions", type=int, default=16,
                        help="committed versions retained per object by the "
                             "MVCC manager (default 16)")
    return parser


async def _amain(args):
    if args.data_dir is not None:
        from ..storage.durable import DurableDatabase

        database = DurableDatabase(
            args.data_dir, sync_policy=args.sync_policy
        )
    else:
        database = Database(paged=args.paged,
                            buffer_capacity=args.buffer_capacity)
    server = ReproServer(
        database=database,
        host=args.host,
        port=args.port,
        lock_wait_timeout=args.lock_wait_timeout,
        group_commit_window=args.group_window,
        max_pipeline=args.max_pipeline,
        lockdep=not args.no_lockdep,
        record_history=args.record_history,
        mvcc=not args.no_mvcc,
        max_versions=args.max_versions,
    )

    def publish(server):
        if args.port_file:
            # Written only once the socket is bound: a reader that sees
            # the file can connect immediately.
            Path(args.port_file).write_text(f"{server.port}\n")
        print(f"repro-server listening on {server.host}:{server.port}",
              flush=True)

    try:
        await server.run(publish)
    finally:
        if args.data_dir is not None:
            database.close()


def main(argv=None):
    args = build_parser().parse_args(argv)
    with contextlib.suppress(KeyboardInterrupt):  # before run() is up
        asyncio.run(_amain(args))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
