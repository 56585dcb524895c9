"""The benchmark's server launcher, and the driver's handle on it.

``python -m perfspine.serve --port-file P [--data-dir D] [--trace-dir T]``
builds ``Database`` (or ``DurableDatabase(sync_policy="group")``) +
``AuthorizationEngine`` + ``ReproServer`` from their public constructors
with the shipped defaults.  ``repro-server`` cannot be used because it has
no way to enable ``auth=``.  The schema (the ``MixRoot``/``MixPart``
classes of ``repro.workloads.txmix``) and the user's grant are made here,
because neither has a wire op that an authorized session could use.

With ``--trace-dir`` the process installs the span points when it gets
SIGUSR1 (so the untraced reference segment of a traced run really is
untraced) and acknowledges by creating ``T/on``; on SIGUSR2 it writes its
spans to ``T/spans.jsonl`` (before durable_ingest's SIGKILL, which would
lose them).

:class:`ServerProcess` is the parent side: port-file readiness wait with a
timeout, CPU and peak RSS read from ``/proc``, SIGTERM/SIGKILL, and the
hygiene checks (a traceback on the server's stderr fails the run).
"""

from __future__ import annotations

import argparse
import asyncio
import atexit
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
USER = "designer"
#: Stated and fixed: under ``group`` the barrier is window-dominated.
GROUP_COMMIT_WINDOW_S = 0.002
READY_TIMEOUT_S = 30.0


# ---------------------------------------------------------------------------
# Child side
# ---------------------------------------------------------------------------


async def _serve(args):
    from repro import Database
    from repro.authorization.engine import AuthorizationEngine
    from repro.server.server import ReproServer
    from repro.storage.durable import DurableDatabase
    from repro.workloads.txmix import memory_fixture

    if args.data_dir:
        database = DurableDatabase(args.data_dir, sync_policy="group")
    else:
        database = Database()
    if "MixRoot" not in database.lattice:  # a recovered store has it
        memory_fixture(database, roots=0)
    auth = AuthorizationEngine(database)
    # One grant on the composite class covers every root and, by implicit
    # authorization (paper Section 6), every component; sW implies sR.
    auth.grant(USER, "sW", on_class="MixRoot")
    server = ReproServer(
        database, auth=auth, group_commit_window=GROUP_COMMIT_WINDOW_S
    )
    await server.start()

    tracer = None
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    if args.trace_dir:
        from perfspine.trace import Tracer

        tracer = Tracer()

        def trace_on():
            tracer.install()
            Path(args.trace_dir, "on").touch()

        def trace_dump():
            partial = Path(args.trace_dir, "spans.partial")
            tracer.dump_jsonl(partial)
            partial.rename(Path(args.trace_dir, "spans.jsonl"))

        loop.add_signal_handler(signal.SIGUSR1, trace_on)
        loop.add_signal_handler(signal.SIGUSR2, trace_dump)

    partial = Path(args.port_file + ".partial")
    partial.write_text(str(server.port))
    partial.rename(args.port_file)
    await stop.wait()
    await server.stop()
    if args.data_dir:
        database.close()


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m perfspine.serve")
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--data-dir")
    parser.add_argument("--trace-dir")
    asyncio.run(_serve(parser.parse_args(argv)))


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid):
    """User + system CPU a process has used, from ``/proc/PID/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def stolen_seconds():
    """Time the hypervisor has taken from the guest's processors, from
    ``/proc/stat`` (0 where the guest is not told)."""
    with open("/proc/stat") as stat:
        return int(stat.readline().split()[8]) / _TICK


def rss_peak_mb(pid):
    """The process's peak resident set (``VmHWM``), in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServerProcess:
    """One launched server.  *workdir* holds its port file, stderr log,
    trace directory and (``durable=True``) its data directory."""

    def __init__(self, workdir, durable=False, traced=False):
        self.workdir = Path(workdir)
        self.data_dir = self.workdir / "data" if durable else None
        self.trace_dir = self.workdir / "trace" if traced else None
        self.port = None
        self._proc = None
        self._stderr = None

    @property
    def pid(self):
        return self._proc.pid

    def start(self):
        """Launch and wait until the port file appears."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        port_file = self.workdir / "port"
        port_file.unlink(missing_ok=True)
        command = [sys.executable, "-m", "perfspine.serve",
                   "--port-file", str(port_file)]
        if self.data_dir is not None:
            command += ["--data-dir", str(self.data_dir)]
        if self.trace_dir is not None:
            self.trace_dir.mkdir(exist_ok=True)
            command += ["--trace-dir", str(self.trace_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        self._stderr = open(self.workdir / "stderr.log", "ab")
        self._proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._stderr,
        )
        atexit.register(self.kill)  # no exit path leaves a server behind
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not port_file.exists():
            if self._proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self._proc.returncode} before "
                    f"listening:\n{self.stderr_text()}"
                )
            if time.monotonic() > deadline:
                self.kill()
                raise TimeoutError(
                    f"server not listening after {READY_TIMEOUT_S}s"
                )
            time.sleep(0.002)
        self.port = int(port_file.read_text())
        return self

    def trace_on(self):
        """Ask the server to install its span points; wait for the ack."""
        self._signal_and_await(signal.SIGUSR1, self.trace_dir / "on")

    def collect_spans(self):
        """Ask the server to write its spans; returns the JSONL path."""
        path = self.trace_dir / "spans.jsonl"
        self._signal_and_await(signal.SIGUSR2, path)
        return path

    def _signal_and_await(self, signum, path):
        os.kill(self.pid, signum)
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not path.exists():
            if not self.alive() or time.monotonic() > deadline:
                raise TimeoutError(
                    f"server did not answer signal {signum}:\n"
                    f"{self.stderr_text()}"
                )
            time.sleep(0.002)

    def alive(self):
        return self._proc is not None and self._proc.poll() is None

    def stop(self):
        """SIGTERM and wait: the graceful path, which also writes spans."""
        self._end(signal.SIGTERM)

    def kill(self):
        """SIGKILL and wait: a process crash (the OS cache stays intact)."""
        self._end(signal.SIGKILL)

    def _end(self, signum):
        if self._proc is None:
            return
        if self._proc.poll() is None:
            self._proc.send_signal(signum)
            try:
                self._proc.wait(timeout=READY_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None

    def stderr_text(self):
        log = self.workdir / "stderr.log"
        return log.read_text(errors="replace") if log.exists() else ""


if __name__ == "__main__":
    main()
