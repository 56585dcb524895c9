"""Lock modes and the Figure 7 / Figure 8 compatibility matrices.

Eleven modes in total:

* the five granularity modes of [GRAY78]: **IS, IX, S, SIX, X**;
* the three exclusive-composite modes of [KIM87b]/Section 7: **ISO, IXO,
  SIXO** ("intention shared/exclusive object", "shared intention exclusive
  object") — set on component classes of *exclusive* composite references;
* the three shared-composite modes this paper introduces: **ISOS, IXOS,
  SIXOS** — their counterparts for component classes of *shared* composite
  references.

Figure 7's matrix covers the first eight; Figure 8 extends to all eleven.
Both are derived from the claims model (:mod:`repro.locking.claims`) and
exposed as :data:`FIGURE7_MATRIX` / :data:`FIGURE8_MATRIX`.
"""

from __future__ import annotations

import enum
from typing import Optional

from .claims import Claim, Op, Scope, derive_matrix


class LockMode(enum.Enum):
    """One lock mode, with its display name."""

    IS = "IS"
    IX = "IX"
    S = "S"
    SIX = "SIX"
    X = "X"
    ISO = "ISO"
    IXO = "IXO"
    SIXO = "SIXO"
    ISOS = "ISOS"
    IXOS = "IXOS"
    SIXOS = "SIXOS"

    def __str__(self) -> str:
        return self.value

    #: Members are singletons: identity hashing is exact, and C code
    #: where ``Enum.__hash__`` is a Python call per set or dict probe.
    __hash__ = object.__hash__


#: What each mode grants, in the claims model.
MODE_CLAIMS = {
    LockMode.IS: (Claim(Scope.IND, Op.READ),),
    LockMode.IX: (Claim(Scope.IND, Op.READ), Claim(Scope.IND, Op.WRITE)),
    LockMode.S: (Claim(Scope.ALL, Op.READ),),
    LockMode.SIX: (Claim(Scope.ALL, Op.READ), Claim(Scope.IND, Op.WRITE)),
    LockMode.X: (Claim(Scope.ALL, Op.READ), Claim(Scope.ALL, Op.WRITE)),
    LockMode.ISO: (Claim(Scope.OEX, Op.READ),),
    LockMode.IXO: (Claim(Scope.OEX, Op.READ), Claim(Scope.OEX, Op.WRITE)),
    LockMode.SIXO: (Claim(Scope.ALL, Op.READ), Claim(Scope.OEX, Op.WRITE)),
    LockMode.ISOS: (Claim(Scope.OSH, Op.READ),),
    LockMode.IXOS: (Claim(Scope.OSH, Op.READ), Claim(Scope.OSH, Op.WRITE)),
    LockMode.SIXOS: (Claim(Scope.ALL, Op.READ), Claim(Scope.OSH, Op.WRITE)),
}

#: Mode order of Figure 7 (granularity + exclusive composite locking).
FIGURE7_MODES = (
    LockMode.IS,
    LockMode.IX,
    LockMode.S,
    LockMode.SIX,
    LockMode.X,
    LockMode.ISO,
    LockMode.IXO,
    LockMode.SIXO,
)

#: Mode order of Figure 8 (adds the shared-composite modes).
FIGURE8_MODES = FIGURE7_MODES + (LockMode.ISOS, LockMode.IXOS, LockMode.SIXOS)

#: Derived compatibility over all eleven modes:
#: ``COMPATIBILITY[(requested, current)] -> bool``.
COMPATIBILITY = derive_matrix(MODE_CLAIMS)

#: ``CONFLICTS[requested]``: the modes *requested* cannot be granted
#: alongside -- ``COMPATIBILITY`` regrouped by row (never edited by hand),
#: so the lock table checks another holder with one ``isdisjoint``.
CONFLICTS = {
    mode: frozenset(m for m in LockMode if not COMPATIBILITY[(mode, m)])
    for mode in LockMode
}

#: Figure 7 restricted matrix.
FIGURE7_MATRIX = {
    pair: ok
    for pair, ok in COMPATIBILITY.items()
    if pair[0] in FIGURE7_MODES and pair[1] in FIGURE7_MODES
}

#: Figure 8 full matrix (alias of COMPATIBILITY, fixed mode set).
FIGURE8_MATRIX = dict(COMPATIBILITY)


def compatible(requested: LockMode, current: LockMode) -> bool:
    """True when *requested* can be granted alongside held *current*."""
    return COMPATIBILITY[(requested, current)]


#: Mode upgrade lattice: supremum of two modes, where defined.  Used for
#: lock conversion: holding A and requesting B yields sup(A, B).
_SUPREMA = {
    frozenset({LockMode.IS, LockMode.IX}): LockMode.IX,
    frozenset({LockMode.IS, LockMode.S}): LockMode.S,
    frozenset({LockMode.IS, LockMode.SIX}): LockMode.SIX,
    frozenset({LockMode.IS, LockMode.X}): LockMode.X,
    frozenset({LockMode.IX, LockMode.S}): LockMode.SIX,
    frozenset({LockMode.IX, LockMode.SIX}): LockMode.SIX,
    frozenset({LockMode.IX, LockMode.X}): LockMode.X,
    frozenset({LockMode.S, LockMode.SIX}): LockMode.SIX,
    frozenset({LockMode.S, LockMode.X}): LockMode.X,
    frozenset({LockMode.SIX, LockMode.X}): LockMode.X,
    frozenset({LockMode.ISO, LockMode.IXO}): LockMode.IXO,
    frozenset({LockMode.ISO, LockMode.S}): LockMode.S,
    frozenset({LockMode.ISO, LockMode.SIXO}): LockMode.SIXO,
    frozenset({LockMode.ISO, LockMode.X}): LockMode.X,
    frozenset({LockMode.IXO, LockMode.S}): LockMode.SIXO,
    frozenset({LockMode.IXO, LockMode.SIXO}): LockMode.SIXO,
    frozenset({LockMode.IXO, LockMode.X}): LockMode.X,
    frozenset({LockMode.S, LockMode.SIXO}): LockMode.SIXO,
    frozenset({LockMode.SIXO, LockMode.X}): LockMode.X,
    frozenset({LockMode.ISOS, LockMode.IXOS}): LockMode.IXOS,
    frozenset({LockMode.ISOS, LockMode.S}): LockMode.S,
    frozenset({LockMode.ISOS, LockMode.SIXOS}): LockMode.SIXOS,
    frozenset({LockMode.ISOS, LockMode.X}): LockMode.X,
    frozenset({LockMode.IXOS, LockMode.S}): LockMode.SIXOS,
    frozenset({LockMode.IXOS, LockMode.SIXOS}): LockMode.SIXOS,
    frozenset({LockMode.IXOS, LockMode.X}): LockMode.X,
    frozenset({LockMode.S, LockMode.SIXOS}): LockMode.SIXOS,
    frozenset({LockMode.SIXOS, LockMode.X}): LockMode.X,
}


def supremum(mode_a: LockMode, mode_b: LockMode) -> LockMode:
    """The weakest mode granting everything both modes grant.

    Falls back to X (the top of the lattice) when no tighter supremum is
    defined — X's ALL read+write claims dominate every other claim set.
    """
    if mode_a is mode_b:
        return mode_a
    sup = _SUPREMA.get(frozenset({mode_a, mode_b}))
    return sup if sup is not None else LockMode.X


def render_matrix(
    modes: tuple[LockMode, ...] = FIGURE8_MODES,
    matrix: Optional[dict[tuple[LockMode, LockMode], bool]] = None,
) -> str:
    """Render a compatibility matrix as fixed-width text.

    Mirrors the layout of the paper's figures: rows are the requested
    mode, columns the current (granted) mode; a check mark means
    compatible.
    """
    matrix = matrix if matrix is not None else COMPATIBILITY
    width = max(len(str(m)) for m in modes) + 1
    header = " " * (width + 2) + "".join(f"{str(m):>{width}}" for m in modes)
    lines = [header]
    for requested in modes:
        cells = "".join(
            f"{'Y' if matrix[(requested, current)] else '.':>{width}}"
            for current in modes
        )
        lines.append(f"{str(requested):>{width}} |{cells}")
    return "\n".join(lines)
