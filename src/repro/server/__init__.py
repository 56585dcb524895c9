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
"""

from .client import AsyncClient, Client, Pipeline, PipelineResult
from .protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    SUPPORTED_VERSIONS,
    build_error,
    decode_payload,
)
from .server import ReproServer, ServerStats, ServerThread, SessionStats

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
