"""Metric definitions and the arithmetic that turns one run into them.

``END_TO_END`` and ``PER_LAYER`` are the names, units and directions that
``BENCHMARK.json`` repeats (``test_smoke.py`` holds the two together).
Every ``*_us`` per-layer metric is a mean *self* time per op, so the
per-layer ``*_us`` of one workload stack up to its traced mean latency
per op; ``server.transport_us`` is the named residual of the wire.
The gated times are reported as they would read at the host's nominal
speed (``on_reference_host``); per-layer times are as the clock read them,
with ``host.slowdown`` beside them.
"""

from __future__ import annotations

import inspect
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

END_TO_END = (
    ("ops_s", "op/s", "higher"),
    ("lat_p50_us", "us", "lower"),
    ("lat_p99_us", "us", "lower"),
    ("cpu_us_per_op", "us", "lower"),
    ("rss_peak_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)
#: The issue's other three end-to-end metrics, as ``(name, unit, better,
#: bound, workloads it exists on)``.  ``BENCHMARK.json`` cannot hold them:
#: its end-to-end metrics are reported on every workload and are never 0,
#: and ``failed_share`` is 0 when all is well while the other two exist
#: only where there is a journal.  They are measured on every untraced
#: run, printed by name, kept in the result file and gated by ``compare``
#: with the bounds given here.
ALSO_GATED = (
    ("failed_share", "ratio", "lower", 0.0, None),
    ("stored_bytes_per_user_byte", "ratio", "lower", 0.01,
     ("durable_ingest",)),
    ("recovery_s", "s", "lower", 0.15, ("durable_ingest",)),
)

#: Span name -> the per-layer metric its self time is reported as.
SPAN_METRIC = {
    "client.encode": "client.encode_us",
    "client.decode": "client.decode_us",
    "protocol.req_decode": "protocol.req_decode_us",
    "protocol.resp_encode": "protocol.resp_encode_us",
    "server.barrier_wait": "server.barrier_wait_us",
    "server.lock_wait": "server.lock_wait_us",
    "dispatch": "dispatch.self_us",
    "authorization.require": "authorization.require_us",
    "locking.plan": "locking.plan_us",
    "locking.acquire": "locking.acquire_us",
    "locking.release": "locking.release_us",
    "txn.op": "txn.self_us",
    "txn.abort": "txn.self_us",
    "txn.commit": "txn.commit_us",
    "core.op": "core.op_us",
    "core.make": "core.make_us",
    "core.delete": "core.delete_us",
    "mvcc.read_at": "mvcc.read_at_us",
    "serializer.encode": "serializer.encode_us",
    "image_cache.get": "image_cache.get_us",
    "journal.sync": "journal.sync_us",
    "driver.txn": "driver.self_us",
}
#: Spans whose self time is the wire itself: the server's own spans are
#: subtracted and the rest is ``server.transport_us``.
WAIT_SPANS = ("client.call", "client.flush")

PER_LAYER = (
    ("client.encode_us", "us", "lower"),
    ("client.decode_us", "us", "lower"),
    ("protocol.req_decode_us", "us", "lower"),
    ("protocol.resp_encode_us", "us", "lower"),
    ("protocol.bytes_in_per_op", "B", "lower"),
    ("protocol.bytes_out_per_op", "B", "lower"),
    ("server.transport_us", "us", "lower"),
    ("server.batch_size", "count", "higher"),
    ("server.barrier_wait_us", "us", "lower"),
    ("server.lock_wait_us", "us", "lower"),
    ("dispatch.self_us", "us", "lower"),
    ("authorization.require_us", "us", "lower"),
    ("authorization.calls_per_op", "count", "lower"),
    ("locking.plan_us", "us", "lower"),
    ("locking.acquire_us", "us", "lower"),
    ("locking.release_us", "us", "lower"),
    ("locking.requests_per_op", "count", "lower"),
    ("locking.block_share", "ratio", "lower"),
    ("locking.deadlocks", "count", "lower"),
    ("txn.self_us", "us", "lower"),
    ("txn.commit_us", "us", "lower"),
    ("txn.abort_share", "ratio", "lower"),
    ("core.op_us", "us", "lower"),
    ("core.make_us", "us", "lower"),
    ("core.delete_us", "us", "lower"),
    ("mvcc.read_at_us", "us", "lower"),
    ("mvcc.chain_entries", "count", "lower"),
    ("mvcc.versions_stamped_per_op", "count", "lower"),
    ("serializer.encode_us", "us", "lower"),
    ("serializer.bytes_per_object", "B", "lower"),
    ("image_cache.get_us", "us", "lower"),
    ("image_cache.hit_share", "ratio", "higher"),
    ("image_cache.cold_hit_share", "ratio", "higher"),
    ("image_cache.hot_hit_share", "ratio", "higher"),
    ("image_cache.cold_scan_ops_s", "op/s", "higher"),
    ("image_cache.hot_scan_ops_s", "op/s", "higher"),
    ("journal.append_us", "us", "lower"),
    ("journal.sync_us", "us", "lower"),
    ("journal.fsyncs", "count", "lower"),
    ("journal.records_per_fsync", "count", "higher"),
    ("journal.records_coalesced", "count", "higher"),
    ("journal.bytes_per_op", "B", "lower"),
    ("journal.ingest_ops_s", "op/s", "higher"),
    ("journal.recover_s", "s", "lower"),
    ("journal.stored_bytes_per_user_byte", "ratio", "lower"),
    ("driver.self_us", "us", "lower"),
    ("host.slowdown", "ratio", "lower"),
    ("trace.latency_us", "us", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, *_ in
         END_TO_END + PER_LAYER + ALSO_GATED}


def percentile(ordered, share):
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def windowed_p99(latencies):
    """The median, over up to twenty consecutive windows of at least a
    hundred samples, of each window's 99th percentile.  A whole-run p99
    is decided by few samples (22 of ``durable_ingest``'s 2 250 flushes)
    and a burst of stalls of this shared host is those samples: it spread
    by up to 28% between ten runs of one commit where the median of
    windows spread by 22% (README, "Why lat_p99_us is a median of
    windows"), and the benchmark's contract accepts no spread above 25%.
    Stalls still show in ``ops_s`` and in the whole-run percentiles
    printed beside it."""
    windows = max(1, min(20, len(latencies) // 100))
    size = len(latencies) // windows
    return statistics.median(
        percentile(sorted(latencies[i * size:(i + 1) * size]), 0.99)
        for i in range(windows))


def tail_percentiles(ordered):
    """The whole-run p99, and the percentiles above it that still have
    ten samples beyond them, in us (printed, not gated)."""
    tails = {}
    for label, share in (("p99", 0.99), ("p99.9", 0.999),
                         ("p99.99", 0.9999)):
        if len(ordered) * (1 - share) >= 10:
            tails[label] = percentile(ordered, share) / 1e3
    return tails


def spread(values):
    """Distance between the first and third quartile as a share of the
    median (the driver's steadiness figure); None below two values."""
    if len(values) < 2:
        return None
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def on_reference_host(wall_s, busy_s, slowdown):
    """*wall_s* seconds of wall time, *busy_s* of which were not spent
    waiting (a processor was busy, or taken away by the hypervisor), as
    they would read at the host's nominal speed.  Only that time scales
    with the host's speed; a wait (an fsync, the commit window, a sleeping
    peer) does not and is left as it is."""
    busy_s = min(busy_s, wall_s)
    return wall_s - busy_s + busy_s / slowdown


def end_to_end(measured, cpu_s, busy_s, rss_mb, setup_s):
    """``(gated, raw)`` metrics of one untraced run.  *cpu_s* is the CPU
    time of the process holding the database and *busy_s* the time driver
    and database did not wait (``run.busy_seconds``), over the measured
    phase; *setup_s* holds one ``(as on the reference host, as the clock
    read it)`` per set-up.  The gated times are rescaled by
    ``on_reference_host``; the raw ones go to the run's ``detail``."""
    ordered = sorted(measured.latencies)
    wall_s, slowdown = measured.wall_s, measured.slowdown
    scale = on_reference_host(wall_s, busy_s, slowdown) / wall_s
    raw = {
        "ops_s": measured.ops / wall_s,
        "lat_p50_us": percentile(ordered, 0.50) / 1e3,
        "lat_p99_us": windowed_p99(measured.latencies) / 1e3,
        "cpu_us_per_op": cpu_s * 1e6 / measured.ops,
        "setup_s": statistics.median(clock for _, clock in setup_s),
    }
    gated = {
        "ops_s": raw["ops_s"] / scale,
        "lat_p50_us": raw["lat_p50_us"] * scale,
        "lat_p99_us": raw["lat_p99_us"] * scale,
        "cpu_us_per_op": raw["cpu_us_per_op"] / slowdown,
        "rss_peak_mb": rss_mb,
        "setup_s": statistics.median(reference for reference, _ in setup_s),
    }
    raw["slowdown"] = slowdown
    raw["busy_share"] = min(1.0, busy_s / wall_s)
    return gated, raw


def also_gated(workload, measured, checks_failed, checks_made, extra):
    """The ``ALSO_GATED`` metrics that exist on *workload*."""
    values = {
        "failed_share": (measured.failed + checks_failed)
        / (measured.attempted + checks_made),
        "stored_bytes_per_user_byte": extra.get(
            "stored_bytes_per_user_byte"),
        "recovery_s": extra.get("recovery_s"),
    }
    return {name: values[name] for name, _, _, _, where in ALSO_GATED
            if where is None or workload in where}


def _share(part, whole):
    return part / whole if whole else 0.0


def per_layer(reference, measured, before, after, spans, server_root_ns,
              extra):
    """Every ``PER_LAYER`` metric of one traced run.

    *spans* is the merged ``trace.summarize`` of driver and server over the
    measured window, *server_root_ns* the time covered by the server's
    top-level spans, *before*/*after* the counters around the window and
    *extra* what only the workload knows (segments, recovery, bytes).
    """
    ops = measured.ops
    delta = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}

    def count(span):
        return spans.get(span, {}).get("count", 0)

    def size(span):
        return spans.get(span, {}).get("size", 0)

    def per_op_us(ns):
        return ns / ops / 1e3

    for span, name in SPAN_METRIC.items():
        metrics[name] += per_op_us(spans.get(span, {}).get("self_ns", 0))
    waited_ns = sum(spans.get(span, {}).get("self_ns", 0)
                    for span in WAIT_SPANS)
    if waited_ns:
        metrics["server.transport_us"] = per_op_us(
            waited_ns - server_root_ns)
    attributed = sum(metrics[name] for name in set(SPAN_METRIC.values()))
    attributed += metrics["server.transport_us"]
    latency = per_op_us(measured.busy_ns)
    metrics["host.slowdown"] = measured.slowdown
    metrics["trace.latency_us"] = latency
    metrics["trace.unattributed_share"] = 1.0 - attributed / latency
    metrics["trace.overhead_share"] = 1.0 - (
        (ops / measured.wall_s) / (reference.ops / reference.wall_s))

    metrics["protocol.bytes_in_per_op"] = size("client.encode") / ops
    metrics["protocol.bytes_out_per_op"] = size("client.decode") / ops
    metrics["server.batch_size"] = _share(
        delta.get("pipelined_requests", 0), delta.get("pipelined_batches", 0))
    metrics["authorization.calls_per_op"] = (
        count("authorization.require") / ops)
    metrics["locking.requests_per_op"] = delta["lock_requests"] / ops
    metrics["locking.block_share"] = _share(
        delta["lock_blocks"], delta["lock_requests"])
    metrics["locking.deadlocks"] = delta.get("deadlocks", 0)
    metrics["txn.abort_share"] = _share(
        delta["aborts"], delta["aborts"] + delta["commits"])
    metrics["mvcc.chain_entries"] = after.get("chain_entries", 0)
    metrics["mvcc.versions_stamped_per_op"] = (
        delta.get("versions_stamped", 0) / ops)
    metrics["serializer.bytes_per_object"] = _share(
        size("serializer.encode"), count("serializer.encode"))
    metrics["image_cache.hit_share"] = _share(
        delta.get("cache_hits", 0),
        delta.get("cache_hits", 0) + delta.get("cache_misses", 0))
    metrics["journal.fsyncs"] = delta.get("fsyncs", 0)
    metrics["journal.records_per_fsync"] = _share(
        delta.get("records_written", 0), delta.get("fsyncs", 0))
    metrics["journal.records_coalesced"] = delta.get("records_coalesced", 0)

    for scan in ("cold", "hot"):
        segment = measured.segments.get(f"{scan}_scan")
        if segment:
            hits = segment["after"]["cache_hits"] \
                - segment["before"]["cache_hits"]
            misses = segment["after"]["cache_misses"] \
                - segment["before"]["cache_misses"]
            metrics[f"image_cache.{scan}_hit_share"] = _share(
                hits, hits + misses)
            metrics[f"image_cache.{scan}_scan_ops_s"] = (
                segment["ops"] / (segment["ns"] / 1e9))
    ingest = measured.segments.get("ingest")
    if ingest:
        metrics["journal.bytes_per_op"] = ingest["bytes"] / ingest["ops"]
        metrics["journal.ingest_ops_s"] = (
            ingest["ops"] / (ingest["ns"] / 1e9))
    metrics["journal.append_us"] = extra.get("journal_append_us", 0.0)
    metrics["journal.recover_s"] = extra.get("recovery_s", 0.0)
    metrics["journal.stored_bytes_per_user_byte"] = extra.get(
        "stored_bytes_per_user_byte", 0.0)
    return metrics


def with_units(metrics):
    return {name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()}


# ---------------------------------------------------------------------------
# Host fingerprint
# ---------------------------------------------------------------------------


def fsync_probe_us(directory, rounds=50):
    """Median of *rounds* 4 KiB write+fsync in *directory*'s filesystem,
    so a durable_ingest number is never read without its disk."""
    path = Path(directory) / "fsync.probe"
    block = b"\0" * 4096
    samples = []
    with open(path, "wb", buffering=0) as probe:
        for _ in range(rounds):
            start = time.perf_counter_ns()
            probe.write(block)
            os.fsync(probe.fileno())
            samples.append(time.perf_counter_ns() - start)
    path.unlink()
    return statistics.median(samples) / 1e3


def git_commit(root):
    if not (root / ".git").exists():  # the driver's checkout is not one
        return "unknown"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def server_settings():
    """The shipped defaults the benchmark runs the server with, read off
    the constructor so the record cannot drift from the code."""
    from repro.server.server import ReproServer

    from .serve import GROUP_COMMIT_WINDOW_S, USER

    defaults = inspect.signature(ReproServer.__init__).parameters
    settings = {name: defaults[name].default for name in (
        "lockdep", "mvcc", "max_pipeline", "image_cache_capacity",
        "max_versions", "lock_wait_timeout")}
    settings.update({
        "wire_protocol": 2,
        "sync_policy": "group (durable_ingest only)",
        "group_commit_window_s": GROUP_COMMIT_WINDOW_S,
        "authorization": f"{USER}: sW on class MixRoot",
    })
    return settings


def fingerprint(root, workdir):
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "fsync_probe_us": fsync_probe_us(workdir),
        "server_settings": server_settings(),
    }
