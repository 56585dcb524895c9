"""Plane 2 — the offline database integrity checker (fsck).

Walks a whole database — live, or reopened from the durable
journal/segments — and verifies every invariant of the paper end-to-end.
Unlike :meth:`repro.Database.validate`, which raises on the first
violation, fsck keeps going and reports *every* problem as a
:class:`~repro.analysis.findings.Finding`, so a corrupted store can be
audited (and triaged) in one pass.

Rule ids
--------
``FSCK-UNKNOWN-CLASS``     error    instance of a class the lattice lacks
``FSCK-RULE1``             error    card(Ix) > 1 or card(Dx) > 1
``FSCK-RULE2``             error    both an independent- and a
                                    dependent-exclusive parent
``FSCK-RULE3``             error    both exclusive and shared parents
``FSCK-DANGLING-FORWARD``  error    composite reference to a dead OID
``FSCK-DANGLING-WEAK``     info     weak reference to a dead OID (legal:
                                    the Deletion Rule does not chase them)
``FSCK-MISSING-REVERSE``   error    forward composite reference without
                                    the matching reverse reference
``FSCK-STALE-REVERSE``     error    reverse reference without the matching
                                    forward reference
``FSCK-DANGLING-REVERSE``  error    reverse reference to a dead parent
``FSCK-FLAG-MISMATCH``     error    reverse D/X flags disagree with the
                                    schema (no deferred change pending)
``FSCK-DOMAIN``            error    reference target outside the
                                    attribute's domain class
``FSCK-SHAPE``             error    a reference slot holding neither None
                                    nor a UID (single-valued) or a list
                                    (set-valued)
``FSCK-EXTENT``            error    class-extent bookkeeping out of sync
``FSCK-VERSION-CYCLE``     error    version-derivation graph has a cycle
``FSCK-VERSION-DANGLING``  error    version registry names a dead UID
``FSCK-REFCOUNT``          error    reverse composite generic ref-counts
                                    disagree with a full recount
``FSCK-AUTH-DANGLING``     warning  a grant's scope names a dead instance
                                    or an undefined class
``FSCK-AUTH-CONFLICT``     error    a user's authorizations on one object
                                    combine to a conflict
``FSCK-SHARD-RESIDUE``     error    an object whose UID does not belong to
                                    this shard's allocation stride (only
                                    with ``placement=``; docs/SHARDING.md)
``FSCK-SHARD-XREF``        error    a composite reference crossing shards
                                    — the hierarchy was split (only with
                                    ``placement=``)
"""

from __future__ import annotations

from typing import Any

from ..core.identity import UID
from .findings import Report, Severity


def fsck_database(
    db: Any,
    versions: Any = None,
    auth: Any = None,
    evolution: Any = None,
    placement: tuple[int, int] | None = None,
) -> Report:
    """Audit *db*; returns a :class:`Report` (never raises on corruption).

    *versions*, *auth*, and *evolution* are the database's
    :class:`~repro.versions.manager.VersionManager`,
    :class:`~repro.authorization.engine.AuthorizationEngine`, and
    :class:`~repro.schema.evolution.SchemaEvolutionManager`, when present.
    Each defaults to the manager the database itself knows about (managers
    register themselves on construction), so ``fsck_database(db)`` audits
    everything that is wired up.

    *placement* — a ``(shard_id, shards)`` pair — additionally audits the
    sharded-placement invariants: every UID must sit on this shard's
    allocation stride and no composite reference may cross shards (the
    placement layer keeps a composite hierarchy whole on one shard; see
    docs/SHARDING.md and :mod:`repro.shard.placement`).
    """
    versions = versions if versions is not None else getattr(db, "versions", None)
    auth = auth if auth is not None else getattr(db, "auth_engine", None)
    evolution = (
        evolution if evolution is not None else getattr(db, "evolution", None)
    )
    checker = _Fsck(db, versions, auth, evolution, placement)
    return checker.run()


class _Fsck:
    """One audit pass over a database."""

    def __init__(
        self,
        db: Any,
        versions: Any,
        auth: Any,
        evolution: Any,
        placement: tuple[int, int] | None = None,
    ) -> None:
        self.db = db
        self.versions = versions
        self.auth = auth
        self.evolution = evolution
        self.placement = placement
        self.report = Report(plane="fsck")

    def run(self) -> Report:
        for instance in self.db.live_instances():
            self.report.checked += 1
            self._check_instance(instance)
            if self.placement is not None:
                self._check_placement(instance)
        self._check_extents()
        if self.versions is not None:
            self._check_version_registry()
            self._check_refcounts()
        if self.auth is not None:
            self._check_authorizations()
        return self.report

    # ------------------------------------------------------------------
    # Per-instance checks
    # ------------------------------------------------------------------

    def _check_instance(self, instance: Any) -> None:
        db = self.db
        if instance.class_name not in db.lattice:
            self.report.add(
                Severity.ERROR,
                "FSCK-UNKNOWN-CLASS",
                instance.uid,
                f"instance of undefined class {instance.class_name!r}",
                class_name=instance.class_name,
            )
            return
        self._check_topology(instance)
        pending = self._pending_attributes(instance)
        self._check_forward(instance, pending)
        self._check_reverse(instance, pending)

    def _check_topology(self, instance: Any) -> None:
        """Rules 1-3 over the reverse-reference partitions (paper 2.2)."""
        exempt = (
            self.db.topology_exempt is not None
            and self.db.topology_exempt(instance.uid)
        )
        if exempt:
            return
        ix = instance.ix_parents()
        dx = instance.dx_parents()
        is_ = instance.is_parents()
        ds = instance.ds_parents()
        if len(ix) > 1:
            self.report.add(
                Severity.ERROR,
                "FSCK-RULE1",
                instance.uid,
                f"card(Ix) = {len(ix)} > 1; independent exclusive parents: "
                f"{_uids(ix)}",
                parents=ix,
            )
        if len(dx) > 1:
            self.report.add(
                Severity.ERROR,
                "FSCK-RULE1",
                instance.uid,
                f"card(Dx) = {len(dx)} > 1; dependent exclusive parents: "
                f"{_uids(dx)}",
                parents=dx,
            )
        if ix and dx:
            self.report.add(
                Severity.ERROR,
                "FSCK-RULE2",
                instance.uid,
                f"independent exclusive parent(s) {_uids(ix)} and dependent "
                f"exclusive parent(s) {_uids(dx)} are mutually exclusive",
                ix=ix,
                dx=dx,
            )
        if (ix or dx) and (is_ or ds):
            self.report.add(
                Severity.ERROR,
                "FSCK-RULE3",
                instance.uid,
                f"exclusive parent(s) {_uids(ix + dx)} and shared "
                f"parent(s) {_uids(is_ + ds)} are mutually exclusive",
                exclusive=ix + dx,
                shared=is_ + ds,
            )

    def _pending_attributes(self, instance: Any) -> set[str]:
        """Attributes with deferred I1-I4 changes this instance has not
        caught up with (paper 4.3) — their flags legitimately lag."""
        if self.evolution is None:
            return frozenset()
        oplog = self.evolution.oplog
        if instance.change_count >= oplog.current_cc:
            return frozenset()
        lineage = [instance.class_name] + self.db.lattice.all_superclasses(
            instance.class_name
        )
        return frozenset(
            entry.attribute
            for entry in oplog.entries_for(
                lineage, newer_than=instance.change_count
            )
        )

    def _check_forward(self, instance: Any, pending: set[str]) -> None:
        """Every forward reference: liveness, domain, reverse-ref match."""
        db = self.db
        classdef = db.lattice.get(instance.class_name)
        for spec in classdef.attributes():
            if spec.is_primitive:
                continue
            value = instance.get(spec.name)
            location = f"{instance.uid}.{spec.name}"
            if value is not None and not isinstance(
                    value, list if spec.is_set else UID):
                self.report.add(
                    Severity.ERROR,
                    "FSCK-SHAPE",
                    location,
                    f"{'set' if spec.is_set else 'single'}-valued slot "
                    f"holds a {type(value).__name__}: {value!r}",
                    value_type=type(value).__name__,
                )
                continue
            for target in value if spec.is_set else [value]:
                if target is None:
                    continue
                child = db.peek(target)
                if child is None:
                    if spec.is_composite:
                        self.report.add(
                            Severity.ERROR,
                            "FSCK-DANGLING-FORWARD",
                            location,
                            f"composite reference to dead object {target}",
                            target=target,
                        )
                    else:
                        self.report.add(
                            Severity.INFO,
                            "FSCK-DANGLING-WEAK",
                            location,
                            f"weak reference to dead object {target} (the "
                            f"Deletion Rule does not chase weak references)",
                            target=target,
                        )
                    continue
                if (
                    spec.domain_class != "any"
                    and child.class_name in db.lattice
                    and spec.domain_class in db.lattice
                    and not db.lattice.is_subclass(
                        child.class_name, spec.domain_class
                    )
                ):
                    self.report.add(
                        Severity.ERROR,
                        "FSCK-DOMAIN",
                        location,
                        f"references {target} of class "
                        f"{child.class_name!r}, outside domain "
                        f"{spec.domain_class!r}",
                        target=target,
                        target_class=child.class_name,
                    )
                if not spec.is_composite:
                    continue
                ref = child.find_reverse_reference(instance.uid, spec.name)
                if ref is None:
                    if spec.name in self._pending_attributes(child):
                        continue
                    self.report.add(
                        Severity.ERROR,
                        "FSCK-MISSING-REVERSE",
                        location,
                        f"forward composite reference to {target} has no "
                        f"matching reverse reference",
                        target=target,
                    )
                elif (
                    ref.exclusive != spec.exclusive
                    or ref.dependent != spec.dependent
                ):
                    if spec.name in self._pending_attributes(child):
                        continue  # deferred I2/I3/I4 not yet applied
                    self.report.add(
                        Severity.ERROR,
                        "FSCK-FLAG-MISMATCH",
                        str(target),
                        f"reverse reference from parent {instance.uid}."
                        f"{spec.name} carries flags D={ref.dependent} "
                        f"X={ref.exclusive}, schema says "
                        f"D={spec.dependent} X={spec.exclusive}",
                        parent=instance.uid,
                        attribute=spec.name,
                    )

    def _check_reverse(self, instance: Any, pending: set[str]) -> None:
        """Every reverse reference must point at a live, linking parent."""
        db = self.db
        for ref in instance.reverse_references:
            parent = db.peek(ref.parent)
            location = f"{instance.uid}<-{ref.parent}.{ref.attribute}"
            if parent is None:
                self.report.add(
                    Severity.ERROR,
                    "FSCK-DANGLING-REVERSE",
                    location,
                    f"reverse reference to dead parent {ref.parent}",
                    parent=ref.parent,
                )
                continue
            forward = parent.get(ref.attribute)
            present = (
                instance.uid in forward
                if isinstance(forward, list)
                else forward == instance.uid
            )
            if not present:
                if ref.attribute in pending:
                    continue
                self.report.add(
                    Severity.ERROR,
                    "FSCK-STALE-REVERSE",
                    location,
                    f"claims to be a component of {ref.parent}."
                    f"{ref.attribute}, but the parent holds no such "
                    f"forward reference",
                    parent=ref.parent,
                    attribute=ref.attribute,
                )

    def _check_placement(self, instance: Any) -> None:
        """Sharded-placement invariants (docs/SHARDING.md).

        Shard membership is a pure function of the UID: shard *i* of
        *N* allocates numbers with ``(n - 1) % N == i``.  Every local
        object must sit on this shard's stride, and no composite edge
        (forward or reverse) may name an object on another stride — the
        placement layer keeps composite hierarchies whole per shard.
        """
        shard_id, shards = self.placement  # type: ignore[misc]
        residue = (instance.uid.number - 1) % shards
        if residue != shard_id:
            self.report.add(
                Severity.ERROR,
                "FSCK-SHARD-RESIDUE",
                instance.uid,
                f"UID number {instance.uid.number} belongs to shard "
                f"{residue}, found on shard {shard_id}",
                shard=shard_id,
                residue=residue,
            )
        if instance.class_name in self.db.lattice:
            for attr, child_uid in self.db.iter_composite_values(instance):
                child_residue = (child_uid.number - 1) % shards
                if child_residue != shard_id:
                    self.report.add(
                        Severity.ERROR,
                        "FSCK-SHARD-XREF",
                        f"{instance.uid}.{attr}",
                        f"composite reference to {child_uid} on shard "
                        f"{child_residue} crosses the shard boundary",
                        target=child_uid,
                        target_shard=child_residue,
                    )
        for ref in instance.reverse_references:
            parent_residue = (ref.parent.number - 1) % shards
            if parent_residue != shard_id:
                self.report.add(
                    Severity.ERROR,
                    "FSCK-SHARD-XREF",
                    f"{instance.uid}<-{ref.parent}.{ref.attribute}",
                    f"reverse reference to parent {ref.parent} on shard "
                    f"{parent_residue} crosses the shard boundary",
                    parent=ref.parent,
                    parent_shard=parent_residue,
                )

    # ------------------------------------------------------------------
    # Whole-database structures
    # ------------------------------------------------------------------

    def _check_extents(self) -> None:
        """Class extents must mirror the live object table exactly."""
        db = self.db
        extents = getattr(db, "_extents", None)
        if extents is None:
            return
        for class_name, uids in extents.items():
            for uid in uids:
                instance = db.peek(uid)
                if instance is None:
                    self.report.add(
                        Severity.ERROR,
                        "FSCK-EXTENT",
                        uid,
                        f"extent of {class_name!r} lists dead object {uid}",
                        class_name=class_name,
                    )
                elif instance.class_name != class_name:
                    self.report.add(
                        Severity.ERROR,
                        "FSCK-EXTENT",
                        uid,
                        f"extent of {class_name!r} lists {uid}, which is a "
                        f"{instance.class_name}",
                        class_name=class_name,
                    )
        for instance in db.live_instances():
            if instance.uid not in extents.get(instance.class_name, ()):
                self.report.add(
                    Severity.ERROR,
                    "FSCK-EXTENT",
                    instance.uid,
                    f"live object missing from the extent of "
                    f"{instance.class_name!r}",
                    class_name=instance.class_name,
                )

    def _check_version_registry(self) -> None:
        """Derivation graphs must be live, well-formed, and acyclic."""
        registry = self.versions.registry
        for generic_uid in registry.all_generics():
            info = registry.generic_info(generic_uid)
            if self.db.peek(generic_uid) is None:
                self.report.add(
                    Severity.ERROR,
                    "FSCK-VERSION-DANGLING",
                    generic_uid,
                    f"generic instance {generic_uid} is dead but still "
                    f"registered",
                )
            for version_uid in info.versions:
                if self.db.peek(version_uid) is None:
                    self.report.add(
                        Severity.ERROR,
                        "FSCK-VERSION-DANGLING",
                        version_uid,
                        f"version instance {version_uid} of {generic_uid} "
                        f"is dead but still registered",
                        generic=generic_uid,
                    )
                parent = info.derived_from.get(version_uid)
                if parent is not None and parent not in info.versions:
                    self.report.add(
                        Severity.ERROR,
                        "FSCK-VERSION-DANGLING",
                        version_uid,
                        f"{version_uid} claims derivation from {parent}, "
                        f"which is not a version of {generic_uid}",
                        generic=generic_uid,
                        derived_from=parent,
                    )
            self._check_derivation_acyclic(generic_uid, info)

    def _check_derivation_acyclic(self, generic_uid: Any, info: Any) -> None:
        """The derivation relation must be a forest (paper 5.1)."""
        for start in info.versions:
            seen = set()
            current = start
            while current is not None:
                if current in seen:
                    self.report.add(
                        Severity.ERROR,
                        "FSCK-VERSION-CYCLE",
                        generic_uid,
                        f"version-derivation cycle through {current} in "
                        f"the history of {generic_uid}",
                        through=current,
                    )
                    break
                seen.add(current)
                current = info.derived_from.get(current)

    def _check_refcounts(self) -> None:
        """Recount every reverse composite generic reference (paper 5.3)."""
        registry = self.versions.registry
        actual = {}
        for instance in self.db.live_instances():
            if instance.class_name not in self.db.lattice:
                continue
            for attr, child_uid in self.db.iter_composite_values(instance):
                target = registry.hierarchy_key(child_uid)
                if not registry.is_generic(target):
                    continue
                source = registry.hierarchy_key(instance.uid)
                key = (source, attr, target)
                actual[key] = actual.get(key, 0) + 1
        recorded = dict(self.versions._counts)
        for key, count in sorted(actual.items(), key=lambda kv: str(kv[0])):
            have = recorded.pop(key, 0)
            if have != count:
                source, attr, target = key
                self.report.add(
                    Severity.ERROR,
                    "FSCK-REFCOUNT",
                    f"{source}.{attr}->{target}",
                    f"generic ref-count is {have}, recount says {count}",
                    recorded=have,
                    recounted=count,
                )
        for key, have in sorted(recorded.items(), key=lambda kv: str(kv[0])):
            source, attr, target = key
            self.report.add(
                Severity.ERROR,
                "FSCK-REFCOUNT",
                f"{source}.{attr}->{target}",
                f"generic ref-count is {have}, but no live link exists",
                recorded=have,
                recounted=0,
            )

    def _check_authorizations(self) -> None:
        """Grant scopes must resolve; combined authorizations must not
        conflict (paper Section 6)."""
        db = self.db
        users = list(getattr(self.auth, "_grants", {}))
        for user in users:
            for grant in self.auth.grants_of(user):
                scope = grant.scope
                if scope and scope[0] == "instance":
                    if db.peek(scope[1]) is None:
                        self.report.add(
                            Severity.WARNING,
                            "FSCK-AUTH-DANGLING",
                            scope[1],
                            f"grant {grant} targets a dead instance",
                            user=user,
                        )
                elif scope and scope[0] == "class":
                    if scope[1] not in db.lattice:
                        self.report.add(
                            Severity.WARNING,
                            "FSCK-AUTH-DANGLING",
                            scope[1],
                            f"grant {grant} targets an undefined class",
                            user=user,
                        )
        for user in users:
            for instance in db.live_instances():
                resolution = self.auth.resolve(user, instance.uid)
                if getattr(resolution, "conflict", False):
                    self.report.add(
                        Severity.ERROR,
                        "FSCK-AUTH-CONFLICT",
                        instance.uid,
                        f"authorizations of {user!r} on {instance.uid} "
                        f"combine to a conflict",
                        user=user,
                    )


def _uids(uids: Any) -> list[str]:
    return ", ".join(str(uid) for uid in uids) or "none"
