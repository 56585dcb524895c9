"""The repository's performance spine: four closed-loop workloads, the
end-to-end metrics gated in ``BENCHMARK.json``, and a traced per-layer
waterfall.  Everything here measures ``src/repro`` from outside, through
its public functions; see ``perfspine/README.md``."""
