"""Benchmark harness configuration.

Every benchmark module regenerates one paper artifact (Figures 1-9) or
validates one prose performance claim (B1-B10); see DESIGN.md section 4
for the experiment index.  Each test:

* wraps its measured kernel in the pytest-benchmark fixture (so
  ``pytest benchmarks/ --benchmark-only`` times everything),
* asserts the qualitative *shape* the paper claims (who wins, where the
  crossover falls),
* prints the rows a paper table would carry (run with ``-s`` to see them).
"""
