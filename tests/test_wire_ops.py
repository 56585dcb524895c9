"""The wire-op table :data:`repro.server.protocol.WIRE_OPS`: the client
methods generated from its argument names, the shard router's route
selection over its route column, and the operations table in
docs/SERVER.md that renders it."""

import asyncio
from pathlib import Path

from repro import UID
from repro.errors import TransactionStateError
from repro.server.client import AsyncClient, Client, Pipeline
from repro.server.protocol import (
    REFUSED,
    ROUTER,
    SHARD_OF,
    VERSION,
    WIRE_OPS,
    ProtocolError,
    encode_request_bytes,
    encode_result_bytes,
)
from repro.shard.placement import ensure_manifest
from repro.shard.router import ShardRouter, _RouterSession

#: Ops with a generated method on every client class: all but the
#: transaction ops and the four Client writes by hand.
GENERATED = [
    op for op, row in WIRE_OPS.items()
    if row.effect != "txn" and op not in ("ping", "login", "make",
                                          "make_class")
]


class _RecordingClient(Client):
    """A blocking client on no socket: records each request's bytes and
    answers it with ``None``."""

    def connect(self):
        self._sock = self
        self.sent = []

    def close(self):
        pass

    def _send_bytes(self, data):
        self.sent.append(data)

    def _read_response(self):
        return {"id": self._next_id, "ok": True, "result": None}


class _RecordingAsyncClient(AsyncClient):
    async def _exchange(self, data):
        self.sent.append(data)
        return encode_result_bytes(VERSION, self._next_id, None)[4:]


def _expected(client, op, args):
    return encode_request_bytes(VERSION, client._next_id, op, args)


class TestGeneratedMethods:
    def test_one_method_per_row_outside_the_hand_written(self):
        assert len(GENERATED) == 21
        for cls in (Client, Pipeline, AsyncClient):
            for op in GENERATED:
                assert getattr(cls, op).__name__ == op

    def test_each_sends_its_row_args_in_row_order(self):
        client = _RecordingClient()
        pipe = client.pipeline()
        for op in GENERATED:
            row = WIRE_OPS[op]
            values = [f"{name}-value" for name in row.args]
            args = dict(zip(row.args, values, strict=True))
            getattr(client, op)(*values)
            assert client.sent[-1] == _expected(client, op, args), op
            getattr(pipe, op)(*values)
            pipe.flush()
            assert client.sent[-1] == _expected(client, op, args), op

    def test_async_methods_send_the_same_bytes(self):
        client = _RecordingAsyncClient()
        client.sent = []

        async def drive():
            for op in GENERATED:
                row = WIRE_OPS[op]
                values = [f"{name}-value" for name in row.args]
                await getattr(client, op)(*values)
                assert client.sent[-1] == _expected(
                    client, op, dict(zip(row.args, values, strict=True))
                ), op

        asyncio.run(drive())


class TestRouterRoutes:
    def test_every_row_reaches_its_route(self, tmp_path, monkeypatch):
        ensure_manifest(tmp_path, shards=2)
        router = ShardRouter(tmp_path)
        relayed = []

        async def relay(sess, shard_id, op, args, raw=None):
            relayed.append(op)
            return [] if op == "instances_of" else {"ok": True, "epoch": 0}

        monkeypatch.setattr(router, "_relay", relay)
        uid = UID(1, "Doc")

        async def walk():
            refused = set()
            for op, row in WIRE_OPS.items():
                args = {name: uid for name in (row.key, row.colocated)
                        if name}
                args.setdefault("user", "ann")  # login's one argument
                try:
                    await router._route(_RouterSession(1, None), op, args)
                except ProtocolError as error:
                    assert "unknown op" not in str(error), op
                    refused.add(op)
                except TransactionStateError:
                    assert op in ("commit", "abort")  # nothing open
            return refused

        refused = asyncio.run(walk())
        assert refused == {
            op for op, row in WIRE_OPS.items() if row.route == REFUSED
        }
        assert set(relayed) == {
            op for op, row in WIRE_OPS.items()
            if row.route not in (ROUTER, REFUSED)
        }


def _doc_row(op, row):
    args = " ".join(f"`{name}`" for name in row.args) or "—"
    route = row.route
    if route == SHARD_OF:
        route = f"shard of `{row.key}`"
        if row.colocated:
            route += f", `{row.colocated}` co-located"
    return f"| `{op}` | {args} | {row.effect} | {route} |"


def test_server_doc_operations_table_is_wire_ops():
    doc = (Path(__file__).resolve().parent.parent / "docs" / "SERVER.md")
    section = doc.read_text().split("\n## Operations\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert rows == [_doc_row(op, row) for op, row in WIRE_OPS.items()]
