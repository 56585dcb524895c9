"""The shared findings model of every analysis plane.

Every check in the five planes of :mod:`repro.analysis` — ``schema``
(static schema analysis, evolution pre-flight, query validation),
``fsck`` (database integrity, placement-aware on shard workers),
``concurrency`` (lockdep, locklint, the AST discipline lint), ``proto``
(2PC model checking and drift lints) and ``iso`` (isolation checking of
histories and templates) — reports problems the same way: as a
:class:`Finding` with a severity, a stable machine-readable rule id, a
location (a class, ``Class.attribute``, or an object UID), and a
human-readable message.  A :class:`Report` collects the findings of one
run and renders them for terminals (one line per finding) and machines
(JSON), so CI gates, the ``repro-check`` CLI, and the server's ``check``
op all speak the same schema.

Rule-id convention: ``<PLANE>-<NAME>`` where the plane prefix is ``SCH``
(schema analyzer), ``EVO`` (schema-evolution pre-flight), ``QRY`` (static
query validation), ``FSCK`` (database integrity), ``LOCKDEP`` (runtime
lock-order recording), ``LOCK`` (static lock-order prediction),
``CODE`` (AST discipline lint), ``PROTO`` (2PC protocol model
checking, trace refinement, and the site/op drift lints), or ``ISO``
(transaction-history isolation checking and template-mode anomaly
prediction).  Ids are stable wire contract — tests, CI diffs, and
remote clients match on them, never on messages.

The :data:`PLANES` registry below says how the planes surface: which
rule prefixes each owns, which ``repro-check`` commands expose it, and
which server ``check``-op plane names run it.  The CLI's command table
(``repro.analysis.cli.COMMANDS``) and the server's check table
(``repro.server.dispatch._CHECKS``) each write those names once; the
drift test (``tests/test_isocheck.py``) keeps both in step with this
registry.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional


class Severity(enum.IntEnum):
    """How bad a finding is.

    * ``INFO`` — worth knowing, not wrong (e.g. a dangling weak reference,
      which the Deletion Rule legitimately leaves behind).
    * ``WARNING`` — a suspect design or risky change: legal today, likely
      to violate a topology rule or strand objects later.
    * ``ERROR`` — an invariant of the paper is violated, or an operation
      can never succeed.
    """

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True, slots=True)
class Finding:
    """One problem reported by an analysis plane."""

    #: How severe the problem is.
    severity: Severity
    #: Stable machine-readable rule identifier (e.g. ``FSCK-RULE1``).
    rule: str
    #: Where: a class name, ``Class.attribute``, or an object UID string.
    location: str
    #: Human-readable description, actionable without a second query.
    message: str
    #: Extra machine-readable context (UIDs stringified for JSON).
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able rendering (the wire/CLI schema)."""
        return {
            "severity": self.severity.label,
            "rule": self.rule,
            "location": self.location,
            "message": self.message,
            "detail": {key: _jsonable(value) for key, value in self.detail.items()},
        }

    def __str__(self) -> str:
        return f"{self.severity.label:7s} {self.rule:22s} {self.location}: {self.message}"


class Report:
    """The findings of one analysis run."""

    def __init__(
        self, plane: str = "", findings: Optional[list[Finding]] = None
    ) -> None:
        #: Which plane produced the report (``schema``, ``fsck``, ...).
        self.plane = plane
        self.findings: list[Finding] = list(findings or [])
        #: Objects / classes / forms examined (coverage metric).
        self.checked = 0

    # -- recording ---------------------------------------------------------

    def add(
        self,
        severity: Severity,
        rule: str,
        location: Any,
        message: str,
        **detail: Any,
    ) -> Finding:
        """Append one finding (location is stringified)."""
        finding = Finding(
            severity=severity,
            rule=rule,
            location=str(location),
            message=message,
            detail=detail,
        )
        self.findings.append(finding)
        return finding

    def extend(self, other: "Report") -> "Report":
        """Fold *other*'s findings and coverage into this report."""
        self.findings.extend(other.findings)
        self.checked += other.checked
        return self

    # -- queries ------------------------------------------------------------

    def by_severity(self, severity: Severity) -> list[Finding]:
        return [f for f in self.findings if f.severity == severity]

    def by_rule(self, rule: str) -> list[Finding]:
        return [f for f in self.findings if f.rule == rule]

    def rules(self) -> set[str]:
        """The distinct rule ids present in this report."""
        return {f.rule for f in self.findings}

    @property
    def errors(self) -> list[Finding]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Finding]:
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> list[Finding]:
        return self.by_severity(Severity.INFO)

    @property
    def ok(self) -> bool:
        """True when nothing at WARNING level or above was found."""
        return not self.errors and not self.warnings

    @property
    def clean(self) -> bool:
        """True when nothing at all was found (INFO included)."""
        return not self.findings

    # -- rendering -----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "plane": self.plane,
            "checked": self.checked,
            "counts": {
                "error": len(self.errors),
                "warning": len(self.warnings),
                "info": len(self.infos),
            },
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        return (
            f"{self.plane or 'analysis'}: checked {self.checked}, "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.infos)} info"
        )

    def render(self) -> str:
        """Terminal rendering: one line per finding plus the summary."""
        lines = [str(f) for f in sorted(
            self.findings, key=lambda f: (-f.severity, f.rule, f.location)
        )]
        lines.append(self.summary())
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __repr__(self) -> str:
        return f"<Report {self.plane!r} {self.summary()!r}>"


@dataclass(frozen=True, slots=True)
class PlaneSpec:
    """How one analysis plane surfaces across the toolchain."""

    #: Registry key (also the usual ``Report.plane`` value).
    name: str
    #: Rule-id prefixes this plane owns (``ISO`` matches ``ISO-G2``).
    prefixes: tuple[str, ...]
    #: ``repro-check`` subcommands that run (part of) this plane.
    cli: tuple[str, ...]
    #: Server ``check``-op plane names that run (part of) this plane.
    server: tuple[str, ...]


#: The five analysis planes (see the module docstring).
PLANES: tuple[PlaneSpec, ...] = (
    PlaneSpec(
        name="schema",
        prefixes=("SCH", "EVO", "QRY"),
        cli=("schema", "query"),
        server=("schema", "query"),
    ),
    PlaneSpec(
        name="fsck",
        prefixes=("FSCK",),
        cli=("fsck",),
        server=("fsck", "placement"),
    ),
    PlaneSpec(
        name="concurrency",
        prefixes=("LOCKDEP", "LOCK", "CODE"),
        cli=("lockdep", "locklint", "code"),
        server=("lockdep", "code"),
    ),
    PlaneSpec(
        name="proto",
        prefixes=("PROTO",),
        cli=("proto",),
        server=("proto",),
    ),
    PlaneSpec(
        name="iso",
        prefixes=("ISO",),
        cli=("iso",),
        server=("iso",),
    ),
)


def plane_for_rule(rule: str) -> Optional[PlaneSpec]:
    """The plane owning *rule* by prefix (longest prefix wins, so
    ``LOCKDEP-`` beats ``LOCK-``)."""
    best: Optional[PlaneSpec] = None
    best_len = -1
    for spec in PLANES:
        for prefix in spec.prefixes:
            if rule.startswith(prefix + "-") and len(prefix) > best_len:
                best, best_len = spec, len(prefix)
    return best


def _jsonable(value: Any) -> Any:
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(val) for key, val in value.items()}
    return str(value)
