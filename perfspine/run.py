"""Run the performance spine.

``python3 perfspine/run.py [--workload W] [--seed N] [--seconds S]
[--trace 0|1] [--smoke] [--repeat K] [--out FILE]`` (or ``python -m
perfspine.run``) runs the chosen workloads -- all four by default --
untraced (``--trace 0``: the end-to-end metrics), traced (``--trace 1``:
the per-layer metrics) or, by default, both; prints every metric by name
with its unit; and checks each run's outputs.  ``--out`` writes a result
file (host fingerprint + every run) that ``python -m perfspine.compare``
reads.

When the arguments ask for exactly one run -- as the driver contract of
``BENCHMARK.json`` does with ``--workload W --seed N --seconds S --trace
0|1`` -- the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Several runs are each made in
a child process of their own, as the driver would make them.

The exit status is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The command in BENCHMARK.json is a bare ``python3 perfspine/run.py``: no
# PYTHONPATH, so the program and this package are put on the path here.
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("perfspine: this checkout has no src/repro to measure")

from perfspine import report  # noqa: E402
from perfspine.hostspeed import NOMINAL_NS, sample as host_sample  # noqa: E402
from perfspine.serve import (  # noqa: E402
    cpu_seconds, rss_peak_mb, stolen_seconds)
from perfspine.trace import Tracer, load_jsonl, summarize  # noqa: E402
from perfspine.workloads import RUN_SECONDS, WORKLOADS  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Readings of the host-speed kernel before and after each set-up.
SETUP_PROBES = 10
SMOKE_SHARE = 0.01


def busy_seconds(workload):
    """Time so far that was not spent waiting: the CPU time of this process
    and of the server it started, and the time the hypervisor took from
    the guest's processors (nothing else runs here, so it took it from
    these two)."""
    busy = time.process_time() + stolen_seconds()
    if workload.server is not None:
        busy += cpu_seconds(workload.server.pid)
    return busy


def timed_setup(workload):
    """Set *workload* up; returns the time it took ``(as on the reference
    host, as the clock read it)``."""
    readings = [host_sample() for _ in range(SETUP_PROBES)]
    # No server yet: the one the set-up starts begins its CPU time at 0.
    busy, start = busy_seconds(workload), time.perf_counter()
    workload.setup()
    wall_s = time.perf_counter() - start
    busy_s = busy_seconds(workload) - busy
    readings += [host_sample() for _ in range(SETUP_PROBES)]
    slowdown = sum(readings) / (len(readings) * NOMINAL_NS)
    return report.on_reference_host(wall_s, busy_s, slowdown), wall_s


def run_workload(name, seed, seconds, traced, smoke, workroot):
    """One run of one workload; returns its result record.  A smoke run
    has 1/100 of the op counts and one set-up: it checks the plumbing,
    not speed."""
    if smoke:
        seconds *= SMOKE_SHARE
    setups = 1 if smoke or traced else SETUPS
    tracer = Tracer() if traced else None
    workdir = Path(workroot) / name
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, seconds, workdir, tracer)
    warmup, reference_ops, main = workload.prepare(traced)
    try:
        setup_s = []
        for index in range(setups):
            if index:
                workload.teardown()
            setup_s.append(timed_setup(workload))
        workload.execute(warmup)
        if traced:
            reference = workload.execute(reference_ops)
            workload.start_tracing()
        pid = workload.database_pid()
        before, cpu_before = workload.counters(), cpu_seconds(pid)
        busy_before = busy_seconds(workload)
        measured = workload.execute(main)
        # The kernel's readings are this process's CPU time, but no part
        # of the measured phase.
        probe_s = measured.probe_ns / 1e9
        busy_s = busy_seconds(workload) - busy_before - probe_s
        cpu_s = cpu_seconds(pid) - cpu_before
        if workload.server is None:
            cpu_s -= probe_s
        rss_mb = rss_peak_mb(pid)
        after = workload.counters()
        if traced:
            spans, _ = summarize(tracer.rows(), measured.window)
            server_root_ns = 0
            if workload.server is not None:
                served, server_root_ns = summarize(
                    load_jsonl(workload.server.collect_spans()),
                    measured.window)
                spans.update(served)
        workload.finish()
        if traced:
            metrics = report.per_layer(reference, measured, before, after,
                                       spans, server_root_ns, workload.extra)
            raw = {}
        else:
            metrics, raw = report.end_to_end(
                measured, cpu_s, busy_s, rss_mb, setup_s)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    workload.checks["no child process left"] = not _children()
    workload.checks["every unit answered as the model says"] = (
        measured.failed == 0)
    unchecked = [check for check, ok in workload.checks.items() if not ok]
    ordered = sorted(measured.latencies)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": bool(traced),
        "correct": not unchecked,
        "attempted": measured.attempted + len(workload.checks),
        "failed": measured.failed + len(unchecked),
        "failed_checks": unchecked,
        "metrics": report.with_units(metrics),
        "detail": {
            "unit": workload.unit,
            "samples": len(ordered),
            "ops": measured.ops,
            "measured_s": measured.wall_s,
            # As the clock read them, before ``on_reference_host``.
            "raw": raw,
            "tail_us": report.tail_percentiles(ordered),
            "sizes": workload.sizes(),
        },
    }
    if not traced:
        result["also_gated"] = report.with_units(report.also_gated(
            name, measured, len(unchecked), len(workload.checks),
            workload.extra))
    return result


def _children():
    """Pids whose parent is this process (a leftover fails the run)."""
    me = str(os.getpid())
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended while we looked
        if fields[1] == me and fields[0] != "Z":
            found.append(int(stat.parent.name))
    return found


def print_result(result):
    mode = "traced" if result["traced"] else "untraced"
    detail = result["detail"]
    print(f"\n== {result['workload']} ({mode}, seed {result['seed']}, "
          f"{detail['ops']} ops in {detail['measured_s']:.2f} s, "
          f"{detail['samples']} samples of: {detail['unit']})")
    for name, metric in (result["metrics"]
                         | result.get("also_gated", {})).items():
        print(f"  {name:<38} {metric['value']:>14.4f} {metric['unit']}")
    print(f"  ({result['failed']} of {result['attempted']} units and checks "
          f"failed)")
    for name in ("raw", "tail_us", "sizes"):
        print(f"  ({name}: {detail[name]})")
    for check in result["failed_checks"]:
        print(f"  FAILED CHECK: {check}")


def run_in_child(name, seed, seconds, traced, smoke, workroot):
    """One run in a process of its own, exactly as the driver makes it:
    the driver process's peak RSS (embedded_design) is that of a fresh
    interpreter, not of whatever the previous runs left on this one's
    heap."""
    result_file = Path(workroot) / "result.json"
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(traced)),
               "--out", str(result_file)]
    child = subprocess.Popen(
        command + ["--smoke"] * smoke,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, stderr = child.communicate()
    except BaseException:
        # SIGTERM, not the SIGKILL subprocess.run would send: the child
        # must get to stop its server and remove its work directory.
        child.terminate()
        child.wait()
        raise
    if not result_file.exists():
        raise RuntimeError(
            f"run of {name} ended with {child.returncode} and no result:\n"
            f"{stderr}")
    (result,) = json.loads(result_file.read_text())["runs"]
    result_file.unlink()
    return result


def _exit_on_signal(signum, _frame):
    # Turn the signal into SystemExit so ``finally`` blocks and atexit
    # handlers stop the server and remove the work directory.
    sys.exit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m perfspine.run")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: the untraced run (end-to-end metrics), "
                             "1: the traced run (per-layer metrics); "
                             "default: both")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SHARE:.0%} of the op counts, one "
                             f"set-up: checks the plumbing, not speed")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed..seed+K-1")
    parser.add_argument("--out", help="write the result file here")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = (False, True) if args.trace is None else (bool(args.trace),)
    plan = [(name, traced, args.seed + offset) for name in names
            for traced in modes for offset in range(args.repeat)]
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _exit_on_signal)
    workroot = ROOT / ".bench_build" / f"perfspine-{os.getpid()}"
    workroot.mkdir(parents=True, exist_ok=True)
    try:
        record = {"fingerprint": report.fingerprint(ROOT, workroot),
                  "runs": []}
        # A lone run is made here: whoever started this process (the
        # driver, or run_in_child) made it fresh for the purpose.
        make_run = run_workload if len(plan) == 1 else run_in_child
        for name, traced, seed in plan:
            result = make_run(name, seed, args.seconds, traced, args.smoke,
                              workroot)
            print_result(result)
            record["runs"].append(result)
        print(f"\nhost: {json.dumps(record['fingerprint'])}")
        if args.out:
            Path(args.out).write_text(json.dumps(record, indent=1))
        if len(plan) == 1:
            print(json.dumps({key: result[key] for key in (
                "correct", "attempted", "failed", "metrics")}))
        return 0 if all(run["correct"] for run in record["runs"]) else 1
    finally:
        shutil.rmtree(workroot, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
