"""Locking subsystem (paper Section 7): lock modes with derived
compatibility matrices (Figures 7-8), a lock table with FIFO queuing and
conversions, wait-for-graph deadlock detection, and the composite-object
locking protocols."""

from .claims import Claim, Op, Scope, derive_matrix, modes_compatible
from .deadlock import DeadlockDetector, choose_victim
from .modes import (
    COMPATIBILITY,
    FIGURE7_MATRIX,
    FIGURE7_MODES,
    FIGURE8_MATRIX,
    FIGURE8_MODES,
    MODE_CLAIMS,
    LockMode,
    compatible,
    render_matrix,
    supremum,
)
from .protocol import (
    CompositeLockingProtocol,
    ImplicitConflict,
    InstanceLockingBaseline,
    LockPlan,
    RootLockingAlgorithm,
)
from .table import LockObserver, LockRequest, LockStats, LockTable

__all__ = [
    "COMPATIBILITY",
    "Claim",
    "CompositeLockingProtocol",
    "DeadlockDetector",
    "FIGURE7_MATRIX",
    "FIGURE7_MODES",
    "FIGURE8_MATRIX",
    "FIGURE8_MODES",
    "ImplicitConflict",
    "InstanceLockingBaseline",
    "LockMode",
    "LockObserver",
    "LockPlan",
    "LockRequest",
    "LockStats",
    "LockTable",
    "MODE_CLAIMS",
    "Op",
    "RootLockingAlgorithm",
    "Scope",
    "choose_victim",
    "compatible",
    "derive_matrix",
    "modes_compatible",
    "render_matrix",
    "supremum",
]
