"""Named failpoints: the arming registry and the ``fire()`` shim.

A *failpoint* is a named site threaded through production code —
``journal.write_record``, ``server.send_frame``, ``client.recv``, … —
where a test can deterministically inject a failure.  Production code
calls :func:`fire` at each site; when no registry is armed (the default,
and the only state production ever sees) the call reads one module
global and returns, so the instrumented paths pay ~nothing (benchmark
B17 asserts the overhead stays under 5%).

Arming happens through :func:`fault_scope`::

    with fault_scope() as faults:
        faults.add("journal.fsync", "error", nth=3)
        ...  # the third fsync anywhere below raises InjectedFault

Rules are matched per-site by hit count (1-based ``nth``, for ``count``
consecutive hits, or forever).  An action either raises
:class:`InjectedFault` (an :class:`OSError`, so the production error
paths that already handle real IO and socket failures catch it), or
returns a *directive* that the site interprets — ``"skip"`` for a lying
fsync, ``"drop"``/``"garble"``/``"kill"`` and ``("delay", seconds)`` for
wire frames.  Sites that get ``None`` back proceed normally.

The registry also supports *observers* — callbacks invoked on every hit
of a site regardless of rules.  The crash simulator uses them to track
the journal's truly-fsynced watermark without touching any database hook
list (see ``repro.faults.crashsim``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

#: Catalog of every failpoint site threaded through the codebase.
#: ``add()`` validates rule sites against this map to catch typos; the
#: docs/FAULTS.md table is generated from the same names.
FAILPOINTS = {
    "journal.write_record": (
        "before a redo record is written; supports error and torn"
    ),
    "journal.fsync": (
        "before the journal fsyncs; error raises, skip lies (counters "
        "advance, durability does not)"
    ),
    "journal.fsynced": (
        "observer-only: after a *real* fsync completed (the crash "
        "simulator's durable watermark)"
    ),
    "journal.checkpoint": "before a checkpoint starts",
    "journal.checkpointed": "observer-only: after a checkpoint completed",
    "store.write": "before the object store writes a record (paged mode)",
    "store.read": "before the object store reads a record (paged mode)",
    "server.send_frame": (
        "once per response/event frame, in order, before the batch's "
        "single write; supports error, drop, garble, delay, kill (delay, "
        "kill and error first send the frames before it); fires on "
        "shard-router sessions too (server= is the router)"
    ),
    "server.recv_frame": (
        "after the server reads a request frame; supports error, drop, "
        "kill; fires on shard-router sessions too (server= is the router)"
    ),
    "client.send": "before the blocking client writes request bytes",
    "client.recv": (
        "once per refill, not per frame: before each recv the blocking "
        "client makes into its receive buffer (only when no complete "
        "response is buffered)"
    ),
    "twopc.prepare": (
        "worker: before the participant seals its prepare batch; "
        "supports error and kill (process exit)"
    ),
    "twopc.prepared": (
        "worker: after the prepare record is durable, before the vote "
        "is sent; supports kill (process exit)"
    ),
    "twopc.decide": (
        "worker: before the participant applies a coordinator decision; "
        "supports error and kill (process exit)"
    ),
    "twopc.decided": (
        "worker: after the decision is applied and locks released; "
        "supports kill (process exit)"
    ),
    "coord.log_decision": (
        "router: before the coordinator journals its commit/abort "
        "decision; supports error and kill (process exit)"
    ),
    "coord.decided": (
        "router: after the decision record is fsynced, before any "
        "participant hears it; supports kill (process exit)"
    ),
    "coord.send_decide": (
        "router: before the decision is sent to one participant "
        "(ctx carries shard); supports kill (process exit)"
    ),
}

#: Actions a rule may carry.  ``error``/``torn`` raise InjectedFault at
#: the site; the rest are returned as directives for the site to apply.
ACTIONS = (
    "error",   # raise InjectedFault (an OSError)
    "torn",    # write a truncated record frame, then raise (journal only)
    "skip",    # lying fsync: pretend success, do nothing (journal.fsync)
    "drop",    # swallow the frame (wire sites)
    "garble",  # corrupt the frame payload (server.send_frame)
    "delay",   # sleep delay_s before proceeding (wire sites)
    "kill",    # wire sites: tear the connection down mid-op;
               # twopc./coord. sites: hard process exit (os._exit)
    "count",   # benign: match and log, change nothing (B17 "armed" mode)
)


class InjectedFault(OSError):
    """A failure injected by an armed failpoint.

    Subclasses :class:`OSError` on purpose: the production error paths
    that handle real disk and socket failures (``except OSError``,
    ``except (ConnectionError, OSError)``) treat an injected fault
    exactly like the real thing.
    """


@dataclass
class FaultRule:
    """One injection rule: *site* × trigger window × action.

    The rule triggers on hits ``nth .. nth+count-1`` of its site (hit
    numbering is 1-based and per-site); ``count=None`` means forever.
    """

    site: str
    action: str
    nth: int = 1
    count: int | None = 1
    torn_bytes: int = 8
    delay_s: float = 0.0
    message: str = ""

    def __post_init__(self):
        if self.site not in FAILPOINTS:
            raise ValueError(
                f"unknown failpoint site {self.site!r}; "
                f"known sites: {', '.join(sorted(FAILPOINTS))}"
            )
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"known actions: {', '.join(ACTIONS)}"
            )
        if self.nth < 1:
            raise ValueError("nth is 1-based and must be >= 1")
        if self.count is not None and self.count < 1:
            raise ValueError("count must be >= 1 (or None for forever)")

    def matches(self, hit):
        """True when the *hit*-th firing of the site triggers this rule."""
        if hit < self.nth:
            return False
        return self.count is None or hit < self.nth + self.count

    def to_dict(self):
        return {
            "site": self.site,
            "action": self.action,
            "nth": self.nth,
            "count": self.count,
            "torn_bytes": self.torn_bytes,
            "delay_s": self.delay_s,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(**data)


@dataclass
class Triggered:
    """Log entry for one rule firing (``registry.triggered``)."""

    site: str
    hit: int
    action: str
    rule: FaultRule = field(repr=False)


class FailpointRegistry:
    """Hit counting, rule matching, and observers for every site.

    Not armed by itself — pass it to (or receive it from)
    :func:`fault_scope`.  One registry is single-use per scope but its
    counters survive disarming, so tests can assert on ``hits`` and
    ``triggered`` after the scope exits.
    """

    def __init__(self, rules=()):
        self._rules = {}
        self.hits = {}
        #: Chronological log of every rule firing.
        self.triggered = []
        self._observers = {}
        for rule in rules:
            self.add_rule(rule)

    def add(self, site, action, **kwargs):
        """Create, register, and return a :class:`FaultRule`."""
        rule = FaultRule(site=site, action=action, **kwargs)
        self.add_rule(rule)
        return rule

    def add_rule(self, rule):
        self._rules.setdefault(rule.site, []).append(rule)
        return rule

    def observe(self, site, callback):
        """Invoke *callback(ctx_dict)* on every hit of *site*."""
        if site not in FAILPOINTS:
            raise ValueError(f"unknown failpoint site {site!r}")
        self._observers.setdefault(site, []).append(callback)

    def hit_count(self, site):
        return self.hits.get(site, 0)

    def fire(self, site, **ctx):
        """Register a hit of *site*; apply the first matching rule."""
        hit = self.hits.get(site, 0) + 1
        self.hits[site] = hit
        for callback in self._observers.get(site, ()):
            callback(ctx)
        rules = self._rules.get(site)
        if not rules:
            return None
        for rule in rules:
            if rule.matches(hit):
                return self._apply(rule, site, hit, ctx)
        return None

    def _apply(self, rule, site, hit, ctx):
        self.triggered.append(Triggered(site, hit, rule.action, rule))
        action = rule.action
        if action == "error":
            raise InjectedFault(
                rule.message
                or f"injected fault at {site} (hit {hit})"
            )
        if action == "torn":
            self._torn_write(rule, site, hit, ctx)
        if action == "delay":
            return ("delay", rule.delay_s)
        if action == "count":
            return None
        return action  # skip / drop / garble / kill

    def _torn_write(self, rule, site, hit, ctx):
        """Write a truncated record frame, then raise.

        The journal site passes ``file`` and the encoded ``frame``; the
        torn write is that frame minus its final ``torn_bytes`` bytes —
        the classic mid-record power cut.
        """
        handle = ctx.get("file")
        frame = ctx.get("frame")
        if handle is not None and frame is not None:
            handle.write(frame[:max(0, len(frame) - rule.torn_bytes)])
            handle.flush()
        raise InjectedFault(
            rule.message
            or f"injected torn write at {site} (hit {hit}, "
            f"-{rule.torn_bytes} bytes)"
        )


#: The armed registry, or None.  Read by ``fire()`` on every failpoint
#: hit — keeping this a plain module global is what makes the disarmed
#: path nearly free.
_ACTIVE = None


def active():
    """The currently armed registry, or None."""
    return _ACTIVE


def fire(site, **ctx):
    """Fire the failpoint *site*.  No-op (returns None) unless armed."""
    registry = _ACTIVE
    if registry is None:
        return None
    return registry.fire(site, **ctx)


@contextmanager
def fault_scope(registry=None):
    """Arm *registry* (a fresh one when None) for the dynamic extent.

    Scopes do not nest: arming while armed raises, because two
    registries would silently split hit counts and make plans
    non-deterministic.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("failpoints are already armed; scopes do not nest")
    if registry is None:
        registry = FailpointRegistry()
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = None
