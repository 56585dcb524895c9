"""Deterministic fault injection: failpoints, plans, and crash simulation.

Layers (low to high):

- :mod:`repro.faults.registry` — named failpoint sites threaded through
  the storage, server, and client code; the arming registry; the
  ``fire()`` shim production code calls (a near-free no-op unless a
  :func:`fault_scope` is active).
- :mod:`repro.faults.plan` — seeded, deterministic :class:`FaultPlan`\\ s
  bundling rules, workload size, sync policy, and crash point.
- :mod:`repro.faults.drill` — the crash-drill engine every scenario
  runs on: the one :class:`DrillReport`, the journal-cut disk model,
  the shared oracles, the seeded primary harness, and the sweep CLI
  (``python -m repro.faults.drill`` / ``repro-sweep``).
- :mod:`repro.faults.crashsim` — :class:`CrashSim`, the ``crash``
  scenario: run the seeded workload under a plan, simulate ``kill -9``
  (or a power cut), recover, and check committed-prefix durability
  above the durable floor plus a clean fsck.

Only the registry is imported eagerly: the storage/server/client
modules import ``fire`` from here at module load, and pulling the
harness in would create an import cycle (the harness itself drives the
storage layer).
"""

from .registry import (
    ACTIONS,
    FAILPOINTS,
    FailpointRegistry,
    FaultRule,
    InjectedFault,
    active,
    fault_scope,
    fire,
)

__all__ = [
    "ACTIONS",
    "FAILPOINTS",
    "FailpointRegistry",
    "FaultRule",
    "InjectedFault",
    "active",
    "fault_scope",
    "fire",
    "CRASH_MODES",
    "FaultPlan",
    "random_plan",
    "CrashSim",
    "DrillReport",
]


#: Lazily exported name -> the submodule defining it.
_LAZY = {
    "CRASH_MODES": "plan", "FaultPlan": "plan", "random_plan": "plan",
    "CrashSim": "crashsim", "DrillReport": "drill",
}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
