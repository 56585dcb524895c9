"""``python -m repro.mvcc`` / ``repro-replica`` — run a read replica.

Follows a primary's durability directory and serves stale-bounded
reads over the ordinary wire protocol::

    repro-replica /var/lib/repro/primary --port 4958

The primary keeps journaling as usual (``repro-server --data-dir``);
the replica only ever *reads* the directory, so any shared filesystem
works as the replication channel (docs/REPLICATION.md).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
from pathlib import Path

from .replica import ReplicaServer


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-replica",
        description="Serve stale-bounded reads from a primary's journal",
    )
    parser.add_argument("primary_root",
                        help="the primary's durability directory "
                             "(checkpoint.db + journal.log)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=4958,
                        help="TCP port (default 4958; 0 picks a free port)")
    parser.add_argument("--port-file", default=None,
                        help="write the actually-bound port to this file "
                             "after listening starts")
    parser.add_argument("--poll-interval", type=float, default=0.02,
                        help="seconds between journal polls (default 0.02; "
                             "bounds replication lag on an idle replica)")
    parser.add_argument("--max-versions", type=int, default=64,
                        help="committed versions retained per object "
                             "(default 64)")
    return parser


async def _amain(args):
    replica = ReplicaServer(
        args.primary_root,
        host=args.host,
        port=args.port,
        poll_interval=args.poll_interval,
        max_versions=args.max_versions,
    )

    def publish(replica):
        if args.port_file:
            Path(args.port_file).write_text(f"{replica.port}\n")
        print(f"repro-replica following {args.primary_root} "
              f"on {args.host}:{replica.port}", flush=True)

    await replica.run(publish)


def main(argv=None):
    args = build_parser().parse_args(argv)
    with contextlib.suppress(KeyboardInterrupt):  # before run() is up
        asyncio.run(_amain(args))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
