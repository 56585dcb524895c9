"""One frontend lifecycle: ``WireServer.run`` and the ``ServerThread``
harness.

Every frontend (server, replica, router, shard worker) starts, publishes
its port, serves until SIGTERM/SIGINT or cancellation, and stops through
one ``run()``; every CLI therefore exits 0 on SIGTERM.  ``ServerThread``
runs any frontend and surfaces a failed boot at once.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.mvcc import ReplicaServer, ReplicaThread
from repro.server import Client
from repro.server import server as server_module
from repro.server.server import ReproServer, ServerThread
from repro.shard.placement import ensure_manifest
from repro.storage.durable import DurableDatabase

pytestmark = pytest.mark.usefixtures("owns_nothing")

DOC = [{"name": "Title", "domain": "string"}]
SRC = str(Path(__file__).resolve().parent.parent / "src")


def _launch(tmp_path, module, *args):
    """Start ``python -m module args``; return (process, bound port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    port_file = tmp_path / f"{module}.port"
    proc = subprocess.Popen(
        [sys.executable, "-m", module, "--port", "0",
         "--port-file", str(port_file), *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            pytest.fail(proc.communicate()[0].decode())
        text = port_file.read_text() if port_file.exists() else ""
        if text.strip():
            return proc, int(text)
        time.sleep(0.02)
    proc.kill()
    proc.communicate()
    pytest.fail(f"{module} did not publish its port")


def _terminate(proc):
    """SIGTERM *proc*; return its exit code and output."""
    proc.send_signal(signal.SIGTERM)
    try:
        output, _ = proc.communicate(timeout=15.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, output.decode()


class TestSigterm:
    def test_server_with_data_dir_exits_zero(self, tmp_path):
        proc, port = _launch(tmp_path, "repro.server",
                             "--data-dir", str(tmp_path / "data"))
        with Client(port=port, timeout=10.0) as client:
            client.make_class("Doc", attributes=DOC)
            client.make("Doc", values={"Title": "kept"})
        code, output = _terminate(proc)
        assert code == 0, output
        assert "Traceback" not in output
        # The stop path closed the store: it recovers with the write.
        db = DurableDatabase(tmp_path / "data")
        try:
            assert len(db.instances_of("Doc")) == 1
        finally:
            db.close()

    def test_replica_exits_zero(self, tmp_path):
        DurableDatabase(tmp_path / "primary").close()
        proc, port = _launch(tmp_path, "repro.mvcc", str(tmp_path / "primary"))
        with Client(port=port, timeout=10.0) as client:
            assert client.ping() == "pong"
        code, output = _terminate(proc)
        assert code == 0, output
        assert "Traceback" not in output

    def test_router_only_exits_zero(self, tmp_path):
        ensure_manifest(tmp_path / "cluster", 2)
        proc, port = _launch(tmp_path, "repro.shard", "--root",
                             str(tmp_path / "cluster"), "--router-only")
        with Client(port=port, timeout=10.0) as client:
            assert client.ping() == "pong"
        code, output = _terminate(proc)
        assert code == 0, output
        assert "Traceback" not in output


class TestServerThread:
    def test_taken_port_raises_the_bind_error_at_once(self):
        with ServerThread() as first:
            started = time.monotonic()
            with pytest.raises(OSError):
                ServerThread(port=first.port).start()
            assert time.monotonic() - started < 2.0

    def test_stop_with_a_client_still_connected_is_prompt(self):
        handle = ServerThread().start()
        client = Client(port=handle.port, timeout=5.0, max_retries=0)
        assert client.ping() == "pong"
        started = time.monotonic()
        handle.stop()
        assert time.monotonic() - started < 2.0
        assert not client.healthy()
        client.close()

    def test_a_stop_that_times_out_raises_and_keeps_the_handle(
        self, monkeypatch
    ):
        """A loop busy past stop's timeout: stop raises, the handle still
        names the running thread, a later stop ends it, and the thread
        closes its loop without an error of its own."""
        thread_errors = []
        monkeypatch.setattr(threading, "excepthook", thread_errors.append)
        monkeypatch.setattr(server_module, "_STOP_JOIN_S", 0.2)
        handle = ServerThread().start()
        loop = handle._loop
        busy = threading.Event()
        handle._loop.call_soon_threadsafe(busy.wait, 10.0)
        with pytest.raises(TimeoutError):
            handle.stop()
        assert handle._thread is not None and handle._thread.is_alive()
        assert handle._loop is loop and not loop.is_closed()
        busy.set()
        monkeypatch.setattr(server_module, "_STOP_JOIN_S", 10.0)
        handle.stop()
        assert handle._thread is None
        assert loop.is_closed()
        assert thread_errors == []

    def test_runs_a_replica(self, tmp_path):
        db = DurableDatabase(tmp_path)
        db.make_class("Doc", attributes=DOC)
        uid = db.make("Doc", values={"Title": "a"})
        with ReplicaThread(tmp_path) as replica:
            assert isinstance(replica.server, ReplicaServer)
            assert isinstance(replica.server, ReproServer)
            assert replica.db is replica.follower.database
            with Client(port=replica.port, timeout=10.0) as client:
                assert client.value(uid, "Title") == "a"
        db.close()
