"""Operation logs and change counts for deferred schema evolution.

Paper 4.3: state-independent attribute-type changes (I1-I4) "may be made
'immediately' or 'deferred' until the objects actually need to be
accessed."  The deferred implementation "involves keeping an operation log
of changes to the attribute types ... An operation log for a class C
maintains, for each change, the change type and change count (CC), as well
as the identifier of the class of whose attribute C is the domain."

Every instance carries a CC; on access, entries with a CC greater than the
instance's are applied and the instance's CC is advanced.  New instances
are born with the current CC "since the changes issued before the creation
of the instance need not be applied".

**Deviation (documented):** the paper keeps one CC counter per domain
class; we draw all CCs from a single monotonic counter.  Entries for other
classes simply never match an instance, so advancing an instance to the
global counter is equivalent to per-class counters while letting one
instance field cover logs inherited from superclasses.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One logged state-independent change.

    *change* is the paper's label: ``"I1"`` (composite -> weak), ``"I2"``
    (exclusive -> shared), ``"I3"`` (dependent -> independent), or ``"I4"``
    (independent -> dependent).  *owner_class* / *attribute* identify the
    composite attribute that changed; *domain_class* is the class whose
    instances carry the reverse references to patch; *owners* are the
    classes whose references it patches, fixed when the change is logged
    (*owner_class* and the subclasses that inherit the attribute
    unchanged).
    """

    cc: int
    change: str
    owner_class: str
    attribute: str
    domain_class: str
    owners: frozenset


class OperationLogRegistry:
    """All operation logs of one database, keyed by domain class."""

    def __init__(self):
        self._logs = {}
        self._cc = 0

    @property
    def current_cc(self):
        """The newest change count issued."""
        return self._cc

    def append(self, change, owner_class, attribute, domain_class, owners=()):
        """Log a change, returning its :class:`LogEntry`."""
        self._cc += 1
        entry = LogEntry(
            cc=self._cc,
            change=change,
            owner_class=owner_class,
            attribute=attribute,
            domain_class=domain_class,
            owners=frozenset(owners),
        )
        self._logs.setdefault(domain_class, []).append(entry)
        return entry

    def entries_for(self, class_names, newer_than):
        """Pending entries for an instance of the given class lineage.

        *class_names* is the instance's class plus its superclasses (an
        attribute whose domain is a superclass can reference the instance).
        Entries are returned in CC order so multiple changes to the same
        attribute replay deterministically.
        """
        pending = []
        for name in class_names:
            for entry in self._logs.get(name, ()):
                if entry.cc > newer_than:
                    pending.append(entry)
        pending.sort(key=lambda entry: entry.cc)
        return pending

    def log_sizes(self):
        """domain class -> number of logged entries (benchmark metric)."""
        return {name: len(entries) for name, entries in self._logs.items()}

    def prune(self, older_than=None):
        """Drop entries with CC <= *older_than* (or everything).

        A real system prunes once every instance has caught up; benchmarks
        call this between phases.
        """
        if older_than is None:
            self._logs.clear()
            return
        for name in list(self._logs):
            kept = [e for e in self._logs[name] if e.cc > older_than]
            if kept:
                self._logs[name] = kept
            else:
                del self._logs[name]
