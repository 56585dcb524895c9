"""Network server subsystem: the database over TCP.

* :mod:`repro.server.protocol` — the length-prefixed binary wire
  protocol with request ids, typed error marshalling, and the ``hello``
  handshake;
* :mod:`repro.server.server` — the asyncio TCP server: per-connection
  sessions owning :mod:`repro.txn` transactions, asynchronous lock
  waiting with deadlock aborts over the Section 7 composite protocol,
  metrics, graceful shutdown;
* :mod:`repro.server.dispatch` — the op table over the Database API,
  query evaluation, and authorization checks;
* :mod:`repro.server.client` — blocking and asyncio clients.

Run a standalone server with ``repro-server`` (or
``python -m repro.server``); see docs/SERVER.md for the wire format.

Exports resolve on first use, so the server process does not load the
clients, nor a client process the server.
"""

__all__ = [
    "AsyncClient",
    "Client",
    "MAX_FRAME_BYTES",
    "Pipeline",
    "PipelineResult",
    "ProtocolError",
    "ReproServer",
    "SUPPORTED_VERSIONS",
    "ServerStats",
    "ServerThread",
    "SessionStats",
    "build_error",
    "decode_payload",
]


#: Lazily exported name -> the submodule defining it.
_LAZY = {
    "AsyncClient": "client", "Client": "client", "Pipeline": "client",
    "PipelineResult": "client", "MAX_FRAME_BYTES": "protocol",
    "ProtocolError": "protocol", "SUPPORTED_VERSIONS": "protocol",
    "build_error": "protocol", "decode_payload": "protocol",
    "ReproServer": "server", "ServerStats": "server", "ServerThread": "server",
    "SessionStats": "server",
}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
