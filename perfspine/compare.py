"""Compare two result files of ``python -m perfspine.run --out``.

``python -m perfspine.compare A.json B.json`` prints, for every
(end-to-end metric, workload), the two medians, their ratio with its base,
the wider of the two run-to-run spreads, and a verdict against the metric's
bound -- in ``BENCHMARK.json`` for the six metrics every workload has, in
``report.ALSO_GATED`` for ``recovery_s`` and ``stored_bytes_per_user_byte``
(``durable_ingest`` only) and ``failed_share``:

* ``unresolved`` -- the spread (quartile distance over median) is wider than
  the bound, so the runs cannot tell; make more or longer runs;
* ``regressed`` -- B's median is worse than A's by more than the bound, or
  (``failed_share``, bound 0) a run on either side had a failed unit or
  check;
* ``ok`` -- otherwise.

Each workload has its own rows.  The exit status is 1 when any pairing
regressed.  Traced runs are ignored: end-to-end numbers always come from
untraced runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from .report import ALSO_GATED, spread

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """``{(workload, metric): [value per untraced run]}``."""
    values = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["traced"]:
            continue
        for metric, entry in (run["metrics"] | run["also_gated"]).items():
            values.setdefault((run["workload"], metric), []).append(
                entry["value"])
    return values


def verdict(base, new, better, bound):
    """``(status, ratio, worse_by, spread)`` for one pairing of run
    values: *ratio* is new median over base median, *worse_by* the share
    of the base median by which the new one is worse."""
    ratio = statistics.median(new) / statistics.median(base)
    worse_by = 1.0 - ratio if better == "higher" else ratio - 1.0
    spreads = [s for s in (spread(base), spread(new)) if s is not None]
    widest = max(spreads, default=None)
    if widest is not None and widest > bound:
        status = "unresolved"
    else:
        status = "regressed" if worse_by > bound else "ok"
    return status, ratio, worse_by, widest


def compare(base_path, new_path, out=sys.stdout):
    spec = json.loads(BENCHMARK.read_text())
    gates = [(m["name"], m["unit"], m["better"], m["bound"], None)
             for m in spec["end_to_end"]] + list(ALSO_GATED)
    base, new = load(base_path), load(new_path)
    regressed = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        print(f"\n{workload}", file=out)
        for name, unit, better, bound, where in gates:
            if where is not None and workload not in where:
                continue
            key = (workload, name)
            if key not in base or key not in new:
                print(f"  {name:<26} missing from one side", file=out)
                continue
            if name == "failed_share":
                # Expected 0 on both sides, so there is no ratio to take.
                bad = [sum(value > 0 for value in side)
                       for side in (base[key], new[key])]
                status = "regressed" if any(bad) else "ok"
                regressed += any(bad)
                print(f"  {name:<26} {status:<10} runs with a failure: "
                      f"{bad[0]} of {len(base[key])} / "
                      f"{bad[1]} of {len(new[key])}", file=out)
                continue
            status, ratio, worse_by, widest = verdict(
                base[key], new[key], better, bound)
            regressed += status == "regressed"
            shown = "n/a" if widest is None else f"{widest:.3f}"
            print(
                f"  {name:<26} {status:<10} new/base = {ratio:.3f} "
                f"(base {statistics.median(base[key]):.4g} {unit}; "
                f"worse by {worse_by:+.3f}, bound {bound}, "
                f"spread {shown}, runs {len(base[key])}/{len(new[key])})",
                file=out)
    return regressed


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return 1 if compare(*argv) else 0


if __name__ == "__main__":
    sys.exit(main())
