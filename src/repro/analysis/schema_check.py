"""Plane 1 — the static schema/topology analyzer.

Derives correctness checks *statically from the schema*, with no
instances: given a class lattice and its composite-reference declarations,
find designs that can never satisfy Topology Rules 1-3 (paper 2.2), or
that are legal one object at a time but structurally prone to violating
them — the class-level contention the rules resolve dynamically.  Also
pre-flights schema-evolution operations (paper Section 4): a change is
analyzed *before* it runs, so callers learn what it would strand, cascade,
or make statically risky.

Rule ids
--------
``SCH-UNKNOWN-DOMAIN``      error    attribute domain is neither primitive
                                     nor a defined class
``SCH-EXCL-FANIN``          warning  two or more exclusive composite
                                     declarations target the same class —
                                     their instances compete under Rule 1
``SCH-MIXED-EXCLUSIVITY``   warning  a class is targeted by both exclusive
                                     and shared composite declarations
                                     (Rule 3 contention)
``SCH-MIXED-DEPENDENCE``    warning  a class is targeted by independent-
                                     exclusive *and* dependent-exclusive
                                     declarations (Rule 2 contention)
``SCH-COMPOSITE-CYCLE``     info     cycle in the composite class graph
                                     (warning when every edge is dependent
                                     and the cycle spans several classes —
                                     a deletion-cascade loop)

``EVO-*`` ids cover the evolution pre-flight; see :meth:`preflight`.
"""

from __future__ import annotations

from typing import Any

from ..graph import shortest_cycles
from ..schema.attribute import PRIMITIVE_DOMAINS
from .findings import Report, Severity

#: Evolution operations the pre-flight understands, as accepted labels.
EVOLUTION_CHANGES = (
    "I1", "I2", "I3", "I4", "D1", "D2", "D3",
    "drop_attribute", "drop_class", "remove_superclass",
)


class SchemaAnalyzer:
    """Static analysis over one :class:`repro.schema.lattice.ClassLattice`."""

    def __init__(self, lattice: Any) -> None:
        self.lattice = lattice

    # ------------------------------------------------------------------
    # The composite class graph
    # ------------------------------------------------------------------

    def composite_declarations(self) -> Any:
        """Deduplicated composite-attribute declarations in the lattice.

        Returns ``(defined_in, attribute, domain_class, exclusive,
        dependent)`` tuples — one per declaration, regardless of how many
        subclasses inherit it.
        """
        seen = set()
        declarations = []
        for classdef in self.lattice:
            for spec in classdef.attributes():
                if not spec.is_composite:
                    continue
                key = (spec.defined_in or classdef.name, spec.name)
                if key in seen:
                    continue
                seen.add(key)
                declarations.append(
                    (key[0], spec.name, spec.domain_class,
                     spec.exclusive, spec.dependent)
                )
        return declarations

    # ------------------------------------------------------------------
    # Full-lattice analysis
    # ------------------------------------------------------------------

    def analyze(self) -> Report:
        """Run every static check; returns a :class:`Report`."""
        report = Report(plane="schema")
        self._check_domains(report)
        self._check_reference_contention(report)
        self._check_cycles(report)
        report.checked = sum(1 for _ in self.lattice)
        return report

    def _check_domains(self, report: Report) -> None:
        """Every attribute domain must resolve to a primitive or a class."""
        seen = set()
        for classdef in self.lattice:
            for spec in classdef.attributes():
                key = (spec.defined_in or classdef.name, spec.name)
                if key in seen:
                    continue
                seen.add(key)
                domain = spec.domain_class
                if domain in PRIMITIVE_DOMAINS or domain in self.lattice:
                    continue
                report.add(
                    Severity.ERROR,
                    "SCH-UNKNOWN-DOMAIN",
                    f"{key[0]}.{spec.name}",
                    f"domain {domain!r} is neither a primitive class nor a "
                    f"defined class",
                    domain=domain,
                )

    def _check_reference_contention(self, report: Report) -> None:
        """Class-level Rule 1/2/3 contention between declarations.

        The topology rules constrain the references *one object* may
        receive; statically, every pair of composite declarations sharing
        a target class is a potential conflict the runtime will have to
        reject.  One finding per target class, naming every declaration.
        """
        by_target = {}
        for owner, attr, domain, exclusive, dependent in (
            self.composite_declarations()
        ):
            by_target.setdefault(domain, []).append(
                (f"{owner}.{attr}", exclusive, dependent)
            )
        for target, decls in sorted(by_target.items()):
            exclusive_decls = [d for d in decls if d[1]]
            shared_decls = [d for d in decls if not d[1]]
            if len(exclusive_decls) > 1:
                report.add(
                    Severity.WARNING,
                    "SCH-EXCL-FANIN",
                    target,
                    f"{len(exclusive_decls)} exclusive composite "
                    f"declarations target {target}; any one instance can "
                    f"satisfy at most one of "
                    f"{', '.join(d[0] for d in exclusive_decls)} (Rule 1)",
                    declarations=[d[0] for d in exclusive_decls],
                )
                ix = [d for d in exclusive_decls if not d[2]]
                dx = [d for d in exclusive_decls if d[2]]
                if ix and dx:
                    report.add(
                        Severity.WARNING,
                        "SCH-MIXED-DEPENDENCE",
                        target,
                        f"{target} is targeted by independent-exclusive "
                        f"({', '.join(d[0] for d in ix)}) and "
                        f"dependent-exclusive "
                        f"({', '.join(d[0] for d in dx)}) declarations; an "
                        f"instance can never hold both (Rule 2)",
                        independent=[d[0] for d in ix],
                        dependent=[d[0] for d in dx],
                    )
            if exclusive_decls and shared_decls:
                report.add(
                    Severity.WARNING,
                    "SCH-MIXED-EXCLUSIVITY",
                    target,
                    f"{target} is targeted by exclusive "
                    f"({', '.join(d[0] for d in exclusive_decls)}) and "
                    f"shared ({', '.join(d[0] for d in shared_decls)}) "
                    f"composite declarations; an instance can never be a "
                    f"component of both (Rule 3)",
                    exclusive=[d[0] for d in exclusive_decls],
                    shared=[d[0] for d in shared_decls],
                )

    def _check_cycles(self, report: Report) -> None:
        """Cycles in the composite class graph.

        A self-referential composite attribute (``Part.SubParts`` with
        domain ``Part``) is idiomatic — it is how part trees of unbounded
        depth are declared — so single-class cycles are informational.  A
        multi-class cycle whose edges are all *dependent* is reported as a
        warning: instances wired around such a cycle are mutually
        existence-dependent, and a deletion entering the cycle anywhere
        cascades all the way around it.  Each cycle is the shortest one
        through some composite edge (:func:`repro.graph.shortest_cycles`).
        """
        edge_info = {}
        for owner, attr, domain, exclusive, dependent in (
            self.composite_declarations()
        ):
            if domain not in self.lattice:
                continue
            edge_info.setdefault((owner, domain), []).append(
                (attr, exclusive, dependent)
            )
        for cycle in shortest_cycles(edge_info):
            links = list(zip(cycle, cycle[1:] + cycle[:1], strict=True))
            all_dependent = all(
                any(dep for _attr, _excl, dep in edge_info[link])
                for link in links
            )
            severity = (
                Severity.WARNING
                if all_dependent and len(cycle) > 1
                else Severity.INFO
            )
            path = " -> ".join(cycle + cycle[:1])
            report.add(
                severity,
                "SCH-COMPOSITE-CYCLE",
                cycle[0],
                f"composite class cycle {path}"
                + ("; every edge is dependent, so a deletion entering the "
                   "cycle cascades around it" if all_dependent and len(cycle) > 1
                   else ""),
                cycle=list(cycle),
                all_dependent=all_dependent,
            )

    # ------------------------------------------------------------------
    # Evolution pre-flight (paper Section 4)
    # ------------------------------------------------------------------

    def preflight(
        self, change: str, class_name: str, attribute: Any = None
    ) -> Report:
        """Analyze a schema-evolution operation *before* it runs.

        *change* is one of :data:`EVOLUTION_CHANGES`.  Findings:

        * ``EVO-UNKNOWN-TARGET`` (error) — the class/attribute named by the
          change does not exist;
        * ``EVO-CASCADE-DELETES`` (warning) — the change applies the
          Deletion Rule to dependent components (drop of a dependent
          composite attribute, drop of a class with one);
        * ``EVO-STRANDS-COMPONENTS`` (warning) — components lose their
          IS-PART-OF semantics (I1 on a dependent attribute);
        * ``EVO-DANGLING-DOMAIN`` (warning) — dropping a class leaves
          other classes' attributes with an undefined domain;
        * ``EVO-RULE1-RISK`` / ``EVO-RULE3-RISK`` (warning) — making an
          attribute exclusive (D1/D3) or shared composite (D2) while other
          declarations target the same class, so the state-dependent
          verification is likely to reject it (and will keep constraining
          future links);
        * ``EVO-DROPS-DEPENDENCE`` / ``EVO-ADDS-DEPENDENCE`` (info) —
          I3/I4 change the existence-dependency semantics of already-linked
          components.
        """
        report = Report(plane="evolution")
        report.checked = 1
        if change not in EVOLUTION_CHANGES:
            report.add(
                Severity.ERROR,
                "EVO-UNKNOWN-TARGET",
                class_name,
                f"unknown schema-evolution change {change!r}",
            )
            return report
        if class_name not in self.lattice:
            report.add(
                Severity.ERROR,
                "EVO-UNKNOWN-TARGET",
                class_name,
                f"{change}: class {class_name!r} is not defined",
            )
            return report
        classdef = self.lattice.get(class_name)
        spec = None
        if change == "remove_superclass":
            # The caller names the superclass in the *attribute* slot.
            if attribute is not None and attribute not in self.lattice:
                report.add(
                    Severity.ERROR,
                    "EVO-UNKNOWN-TARGET",
                    class_name,
                    f"remove_superclass: class {attribute!r} is not defined",
                )
                return report
        elif attribute is not None:
            if not classdef.has_attribute(attribute):
                report.add(
                    Severity.ERROR,
                    "EVO-UNKNOWN-TARGET",
                    f"{class_name}.{attribute}",
                    f"{change}: {class_name!r} has no attribute "
                    f"{attribute!r}",
                )
                return report
            spec = classdef.attribute(attribute)
        location = (
            f"{class_name}.{attribute}" if attribute is not None else class_name
        )

        if change in ("drop_attribute",) and spec is not None:
            self._preflight_drop_spec(report, location, spec, change)
        elif change == "drop_class":
            self._preflight_drop_class(report, class_name, classdef)
        elif change == "remove_superclass":
            # The caller names the superclass in *attribute*; every
            # composite attribute only held through it behaves like a drop.
            sup = attribute
            if sup is not None:
                for lost in self.lattice.get(sup).attributes():
                    if lost.is_composite:
                        self._preflight_drop_spec(
                            report, f"{class_name}.{lost.name}", lost, change
                        )
        elif change == "I1" and spec is not None and spec.is_composite:
            if spec.dependent:
                report.add(
                    Severity.WARNING,
                    "EVO-STRANDS-COMPONENTS",
                    location,
                    f"I1 makes {location} non-composite; its dependent "
                    f"components become ordinary independent objects and "
                    f"will no longer be deleted with their parents",
                )
        elif change == "I3" and spec is not None and spec.is_composite:
            report.add(
                Severity.INFO,
                "EVO-DROPS-DEPENDENCE",
                location,
                f"I3 makes {location} independent; existing components "
                f"stop being existence-dependent on their parents",
            )
        elif change == "I4" and spec is not None and spec.is_composite:
            report.add(
                Severity.INFO,
                "EVO-ADDS-DEPENDENCE",
                location,
                f"I4 makes {location} dependent; existing components "
                f"become existence-dependent and will cascade on deletion",
            )
        if change in ("D1", "D3") and spec is not None:
            self._preflight_exclusive(report, location, class_name, spec)
        if change == "D2" and spec is not None:
            self._preflight_shared(report, location, class_name, spec)
        return report

    def _preflight_drop_spec(
        self, report: Report, location: str, spec: Any, change: str
    ) -> None:
        if spec.is_composite and spec.dependent:
            report.add(
                Severity.WARNING,
                "EVO-CASCADE-DELETES",
                location,
                f"{change} drops dependent composite attribute {location}; "
                f"components referenced through it are deleted under the "
                f"Deletion Rule",
                domain=spec.domain_class,
            )

    def _preflight_drop_class(
        self, report: Report, class_name: str, classdef: Any
    ) -> None:
        for spec in classdef.attributes():
            if spec.is_composite and spec.dependent:
                self._preflight_drop_spec(
                    report, f"{class_name}.{spec.name}", spec, "drop_class"
                )
        scope = {class_name}
        scope.update(self.lattice.all_subclasses(class_name))
        for owner, attr, domain, _excl, _dep in self.composite_declarations():
            if domain in scope and owner not in scope:
                report.add(
                    Severity.WARNING,
                    "EVO-DANGLING-DOMAIN",
                    f"{owner}.{attr}",
                    f"drop_class {class_name!r} leaves {owner}.{attr} with "
                    f"an undefined domain {domain!r}; the attribute can "
                    f"never be assigned again",
                    dropped=class_name,
                )
        # Weak (non-composite) references into the dropped class strand too.
        for classdef2 in self.lattice:
            if classdef2.name in scope:
                continue
            for spec in classdef2.attributes():
                if spec.is_composite or spec.is_primitive:
                    continue
                if spec.domain_class in scope:
                    report.add(
                        Severity.WARNING,
                        "EVO-DANGLING-DOMAIN",
                        f"{classdef2.name}.{spec.name}",
                        f"drop_class {class_name!r} leaves weak reference "
                        f"{classdef2.name}.{spec.name} with an undefined "
                        f"domain {spec.domain_class!r}",
                        dropped=class_name,
                    )
                    break

    def _other_declarations(self, class_name: str, spec: Any) -> Any:
        """Composite declarations into *spec*'s domain other than *spec*."""
        mine = (spec.defined_in or class_name, spec.name)
        return [
            (owner, attr, domain, exclusive, dependent)
            for owner, attr, domain, exclusive, dependent in (
                self.composite_declarations()
            )
            if domain == spec.domain_class and (owner, attr) != mine
        ]

    def _preflight_exclusive(
        self, report: Report, location: str, class_name: str, spec: Any
    ) -> None:
        others = self._other_declarations(class_name, spec)
        if others:
            names = ", ".join(f"{o}.{a}" for o, a, *_rest in others)
            report.add(
                Severity.WARNING,
                "EVO-RULE1-RISK",
                location,
                f"making {location} exclusive while {names} also target "
                f"{spec.domain_class}; instances referenced by both will "
                f"fail the state-dependent verification (Rules 1-3)",
                competing=[f"{o}.{a}" for o, a, *_rest in others],
            )

    def _preflight_shared(
        self, report: Report, location: str, class_name: str, spec: Any
    ) -> None:
        exclusive_others = [
            d for d in self._other_declarations(class_name, spec) if d[3]
        ]
        if exclusive_others:
            names = ", ".join(f"{o}.{a}" for o, a, *_rest in exclusive_others)
            report.add(
                Severity.WARNING,
                "EVO-RULE3-RISK",
                location,
                f"making {location} shared composite while exclusive "
                f"declarations ({names}) target {spec.domain_class}; "
                f"instances referenced by both sides violate Rule 3",
                competing=[f"{o}.{a}" for o, a, *_rest in exclusive_others],
            )

