"""Regression tests for :class:`repro.server.client.Client` reconnection.

Covers the two connection-handling bugs fixed alongside the group-commit
work: the ``AttributeError`` on a ``None`` socket when a reconnect
attempt fails silently with retries remaining, and the blind re-send of
mutating ops after a mid-call connection loss.
"""

import pytest

from repro import Database
from repro.server.client import RETRYABLE_OPS, Client
from repro.server.dispatch import MUTATING_OPS
from repro.server.protocol import WIRE_OPS
from repro.server.server import ServerThread

pytestmark = pytest.mark.usefixtures("owns_nothing")


def _start_server(port=0):
    handle = ServerThread(database=Database(), port=port)
    handle.start()
    return handle


class TestReconnectLoop:
    def test_dead_server_raises_connection_error_not_attribute_error(self):
        # Satellite 1: with the server gone, every reconnect attempt
        # fails and leaves the socket None.  The buggy loop then called
        # into the None socket (AttributeError); the fixed loop re-enters
        # backoff and ultimately raises a clean ConnectionError.
        handle = _start_server()
        client = Client(port=handle.port, max_retries=2, backoff=0.01)
        handle.stop()
        with pytest.raises(ConnectionError, match="could not reach"):
            client.call("ping")
        client.close()

    def test_zero_retries_fail_fast(self):
        handle = _start_server()
        client = Client(port=handle.port, max_retries=0, backoff=0.01)
        handle.stop()
        with pytest.raises(ConnectionError):
            client.call("ping")
        client.close()

    def test_retryable_op_survives_server_restart(self):
        handle = _start_server()
        db2 = Database()
        client = Client(port=handle.port, max_retries=5, backoff=0.01)
        port = handle.port
        handle.stop()
        replacement = ServerThread(database=db2, port=port)
        replacement.start()
        try:
            # ping is in RETRYABLE_OPS: the mid-call loss is absorbed by
            # a reconnect to the restarted server.
            assert client.call("ping") == "pong"
        finally:
            client.close()
            replacement.stop()


class TestMidCallClassification:
    def test_mutating_op_raises_instead_of_resending(self):
        # Satellite 2: a mutating op that dies mid-call may already have
        # executed server-side; re-sending it could double-execute.
        handle = _start_server()
        with Client(port=handle.port, max_retries=5, backoff=0.01) as client:
            client.make_class("Doc")
            uid = client.make("Doc")
            handle.stop()
            with pytest.raises(ConnectionError, match="may have executed"):
                client.call("delete", uid=uid)

    def test_in_transaction_loss_raises_scope_error(self):
        handle = _start_server()
        with Client(port=handle.port, max_retries=5, backoff=0.01) as client:
            client.begin()
            handle.stop()
            with pytest.raises(ConnectionError, match="inside a transaction"):
                client.call("ping")
            # The scope is gone; a later out-of-scope call follows the
            # plain reconnect path (and fails cleanly — no server).
            with pytest.raises(ConnectionError, match="could not reach"):
                client.call("ping")

    def test_effect_column_sets(self):
        # The read rows of WIRE_OPS plus the hello handshake resend; the
        # write rows (query among them: the interpreter can mutate) are
        # what a read-only server refuses; transaction control and the
        # 2PC ops are neither.
        assert RETRYABLE_OPS == {
            "hello", "ping", "login", "whoami", "stats", "resolve", "value",
            "describe", "components_of", "children_of", "parents_of",
            "ancestors_of", "roots_of", "instances_of", "check",
            "snapshot_read", "read_epoch",
        }
        assert MUTATING_OPS == {
            "make_class", "make", "set_value", "insert_into", "remove_from",
            "make_part_of", "remove_part_of", "delete", "query",
        }
        assert set(WIRE_OPS) - RETRYABLE_OPS - MUTATING_OPS == {
            "begin", "commit", "abort", "prepare", "decide", "indoubt",
        }
