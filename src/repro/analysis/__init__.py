"""Static analysis and integrity checking for the composite-object DB.

Five planes over one findings model (:mod:`repro.analysis.findings`):

* Plane 1 — :class:`SchemaAnalyzer` (static schema/topology analysis and
  schema-evolution pre-flight) and :func:`check_query` (static query
  validation), both schema-only: no instance is touched.
* Plane 2 — :func:`fsck_database`, the offline integrity checker that
  walks a whole database and verifies every invariant end-to-end.
* Plane 3 — the concurrency pass: :class:`LockOrderRecorder` (lockdep-
  style latent-deadlock detection from runs that never deadlocked),
  :func:`analyze_templates` (the same lock-order analysis predicted
  statically from transaction templates), and :func:`lint_package`
  (AST linter enforcing the codebase's concurrency/durability
  discipline on ``src/repro`` itself).
* Plane 4 — the protocol pass: :func:`check_protocol` (exhaustive
  explicit-state model checking of the 2PC coordinator/worker state
  machines, crash-at-failpoint-site and recovery included),
  :func:`conform_trace` (recorded durable traces must be
  linearizations the model allows), and the drift lints
  :func:`lint_protocol_sites` / :func:`lint_wire_ops` that keep the
  model honest against the implementation.
* Plane 5 — the isolation pass: :class:`HistoryRecorder` (a passive
  observer that captures every transaction's read/write/delete
  footprint into a serializable :class:`History`),
  :func:`check_history` (Adya-style Direct Serialization Graph
  analysis reporting G0/G1/G2 anomalies with minimal witness cycles,
  plus lost-update / write-skew classifiers), and
  :func:`predict_isolation` (the same anomalies predicted from
  transaction templates alone: what breaks if reads stop locking).

The ``repro-check`` console script (:mod:`repro.analysis.cli`) and the
server's ``check`` op expose all five planes; the
:data:`~repro.analysis.findings.PLANES` registry keeps the three
surfaces from drifting apart.

Exports resolve on first use, so a process that runs one plane (the
server runs only :mod:`~repro.analysis.lockdep`) loads only that plane.
"""

__all__ = [
    "EVOLUTION_CHANGES",
    "Event",
    "Finding",
    "History",
    "HistoryRecorder",
    "LockOrderGraph",
    "LockOrderRecorder",
    "PLANES",
    "PlaneSpec",
    "Report",
    "SchemaAnalyzer",
    "Scope",
    "Severity",
    "TransactionTemplate",
    "analyze_templates",
    "check_history",
    "check_protocol",
    "check_query",
    "conform_trace",
    "conform_traces",
    "explore",
    "extract_trace",
    "fsck_database",
    "lint_package",
    "lint_protocol_sites",
    "lint_source",
    "lint_wire_ops",
    "predict_isolation",
]


#: Lazily exported name -> the submodule defining it.
_LAZY = {
    "lint_package": "codelint", "lint_source": "codelint",
    "Finding": "findings", "PlaneSpec": "findings", "PLANES": "findings",
    "Report": "findings", "Severity": "findings", "fsck_database": "fsck",
    "Event": "history", "History": "history", "HistoryRecorder": "history",
    "check_history": "isocheck", "predict_isolation": "isocheck",
    "LockOrderGraph": "lockdep", "LockOrderRecorder": "lockdep",
    "TransactionTemplate": "locklint", "analyze_templates": "locklint",
    "Scope": "proto_model", "check_protocol": "protocheck",
    "conform_trace": "protocheck", "conform_traces": "protocheck",
    "explore": "protocheck", "extract_trace": "protocheck",
    "lint_protocol_sites": "protocheck", "lint_wire_ops": "protocheck",
    "check_query": "query_check", "EVOLUTION_CHANGES": "schema_check",
    "SchemaAnalyzer": "schema_check",
}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
