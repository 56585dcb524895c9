"""Benchmark harness configuration.

Every benchmark module regenerates one paper artifact (Figures 1-9) or
validates one prose performance claim (B1-B10); see DESIGN.md section 4
for the experiment index.  Each test:

* wraps its measured kernel in the pytest-benchmark fixture (so
  ``pytest benchmarks/ --benchmark-only`` times everything),
* asserts the qualitative *shape* the paper claims (who wins, where the
  crossover falls),
* prints the rows a paper table would carry (run with ``-s`` to see them),
* records its rows in the shared recorder, merged into
  ``benchmarks/bench_results.json`` at the end of the session (running a
  subset of the benchmarks updates just those experiments' records).
  The file is written locally for ``python -m repro.bench.report`` and is
  not committed (it is in ``.gitignore``).
"""

import json

import pytest

from repro.bench import GLOBAL_RECORDER


def pytest_sessionfinish(session, exitstatus):
    if GLOBAL_RECORDER.all_records():
        target = session.config.rootpath / "benchmarks" / "bench_results.json"
        fresh_path = target.with_suffix(".fresh.json")
        GLOBAL_RECORDER.dump(fresh_path)
        fresh = json.loads(fresh_path.read_text())
        fresh_path.unlink()
        merged = []
        if target.exists():
            new_ids = {record["experiment_id"] for record in fresh}
            merged = [
                record
                for record in json.loads(target.read_text())
                if record["experiment_id"] not in new_ids
            ]
        merged.extend(fresh)
        merged.sort(key=lambda record: record["experiment_id"])
        target.write_text(json.dumps(merged, indent=2))


@pytest.fixture
def recorder():
    return GLOBAL_RECORDER
