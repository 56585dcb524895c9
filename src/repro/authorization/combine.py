"""Combining implied authorizations; the Figure 6 conflict matrix.

When an object is a component of several composite objects, a user may
receive several implicit authorizations on it.  Paper Section 6: "If there
is no conflict, the resulting authorization on O is the strongest of all
the implied authorizations on O" — with the worked examples

* strong R (from Instance[j]) + strong W (from Instance[k]) → strong W
  (which in turn implies strong R);
* strong ¬R + strong ¬W → strong ¬R (which implies strong ¬W).

Conflict arises when contradictory authorizations meet that neither may
override: two *strong* atoms whose implication closures assign both signs
to some type (e.g. sW vs s¬R: +W,+R against ¬R,¬W).  A strong atom
overrides any weak one ("a weak authorization can be overridden").  Two
contradictory *weak* atoms arriving from peer composite objects have no
override order — neither grant is more specific than the other — so we
also report Conflict; this choice is documented here and exercised by the
Figure 6 benchmark.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType

from .atoms import AuthType, Authorization, FIGURE6_ATOMS, parse_atom


@dataclass(frozen=True)
class Resolution:
    """Outcome of combining a set of implied authorizations.

    Either ``conflict`` is True, or ``effective`` maps each decided
    :class:`AuthType` to ``(positive_sign, strong)``.
    """

    conflict: bool = False
    effective: dict = field(default_factory=dict)
    #: The positively authorized types, each as its :class:`AuthType`
    #: and as its letter: the decision an access check reads, worked
    #: out once when the resolution is built (empty on a conflict).
    permitted: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        permitted = () if self.conflict else [
            key
            for auth_type, (positive, _strong) in self.effective.items()
            if positive
            for key in (auth_type, auth_type.value)
        ]
        object.__setattr__(self, "permitted", frozenset(permitted))

    def permits(self, auth_type):
        """True when *auth_type* (an :class:`AuthType` or its letter) is
        positively authorized (and no conflict).

        A permit is one probe of :attr:`permitted`; only a miss builds
        the :class:`AuthType`, so an unknown type still raises
        ``ValueError``."""
        try:
            if auth_type in self.permitted:
                return True
        except TypeError:  # unhashable: AuthType refuses it below
            pass
        AuthType(auth_type)
        return False

    def denies(self, auth_type):
        """True when *auth_type* is negatively authorized (prohibition,
        as opposed to mere absence)."""
        if self.conflict:
            return False
        decided = self.effective.get(AuthType(auth_type))
        return bool(decided) and not decided[0]

    def atoms(self):
        """Minimal atoms rendering this resolution (Figure 6 cell text).

        Redundant implied atoms are dropped: ``sW`` subsumes ``sR``;
        ``s¬R`` subsumes ``s¬W``.
        """
        if self.conflict:
            return ()
        chosen = []
        for auth_type, (positive, strong) in sorted(
            self.effective.items(), key=lambda item: item[0].value
        ):
            chosen.append(Authorization(strong=strong, positive=positive, auth_type=auth_type))
        minimal = [
            atom
            for atom in chosen
            if not any(other != atom and other.implies(atom) for other in chosen)
        ]
        return tuple(sorted(minimal, key=str))

    def render(self):
        """Human-readable cell text ("Conflict", "sW", "sR+s¬W", ...)."""
        if self.conflict:
            return "Conflict"
        rendered = "+".join(str(atom) for atom in self.atoms())
        return rendered or "(none)"


def _contradict(atom_a, atom_b):
    """True when the two atoms' implication closures assign opposite signs
    to some authorization type."""
    closure_a = dict(atom_a.implied_types())
    return any(
        auth_type in closure_a and closure_a[auth_type] != positive
        for auth_type, positive in atom_b.implied_types()
    )


def combine(authorizations):
    """Combine implied authorization atoms into a :class:`Resolution`.

    The unit of override is the *authorization*: a weak atom contradicted
    by any strong atom is voided entirely (with all its implications).
    Contradictions between strong atoms — or between surviving weak atoms,
    which have no override order — are a Conflict.

    The outcome depends only on the *set* of atoms, so it is computed
    once per distinct set; the shared result is read-only.
    """
    return _combine_atoms(frozenset(parse_atom(raw) for raw in authorizations))


@functools.lru_cache(maxsize=None)  # at most 2**8 sets of the eight atoms
def _combine_atoms(atoms):
    strong = [atom for atom in atoms if atom.strong]
    weak = [atom for atom in atoms if not atom.strong]
    for i, atom_a in enumerate(strong):
        for atom_b in strong[i + 1 :]:
            if _contradict(atom_a, atom_b):
                return Resolution(conflict=True)
    surviving_weak = [
        atom for atom in weak if not any(_contradict(atom, s) for s in strong)
    ]
    for i, atom_a in enumerate(surviving_weak):
        for atom_b in surviving_weak[i + 1 :]:
            if _contradict(atom_a, atom_b):
                return Resolution(conflict=True)
    effective = {}
    for atom in strong:
        for auth_type, positive in atom.implied_types():
            effective[auth_type] = (positive, True)
    for atom in surviving_weak:
        for auth_type, positive in atom.implied_types():
            effective.setdefault(auth_type, (positive, False))
    return Resolution(conflict=False, effective=MappingProxyType(effective))


def conflicts(auth_a, auth_b):
    """True when two atoms cannot coexist on one object for one user."""
    return combine([auth_a, auth_b]).conflict


def figure6_matrix(atoms=FIGURE6_ATOMS):
    """The Figure 6 matrix.

    Rows: the authorization granted on the composite object rooted at
    Instance[j]; columns: on the one rooted at Instance[k]; cells: the
    resulting authorization on the shared component Instance[o'], or
    Conflict.  Returns ``{(row_atom, col_atom): Resolution}``.
    """
    return {
        (row, col): combine([row, col])
        for row in atoms
        for col in atoms
    }


def render_figure6(atoms=FIGURE6_ATOMS):
    """Fixed-width text rendering of the Figure 6 matrix."""
    matrix = figure6_matrix(atoms)
    width = max(
        [len(resolution.render()) for resolution in matrix.values()]
        + [len(str(atom)) for atom in atoms]
    ) + 2
    header = " " * width + "".join(f"{str(atom):>{width}}" for atom in atoms)
    lines = [header]
    for row in atoms:
        cells = "".join(
            f"{matrix[(row, col)].render():>{width}}" for col in atoms
        )
        lines.append(f"{str(row):>{width}}{cells}")
    return "\n".join(lines)
