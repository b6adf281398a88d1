"""Shared infrastructure used by every Determinator-reproduction subsystem.

This package deliberately has no dependencies on the rest of :mod:`repro`
so that low-level substrates (memory, timing) can import it freely.
"""

from repro.common.errors import (
    ReproError,
    MemoryError_,
    PageFaultError,
    PermissionFault,
    MergeConflictError,
    KernelError,
    BadChildError,
    GuestKilled,
    RuntimeApiError,
    FileSystemError,
    FileConflictError,
    DeadlockError,
)
from repro.common.detrandom import DeterministicRandom

__all__ = [
    "ReproError",
    "MemoryError_",
    "PageFaultError",
    "PermissionFault",
    "MergeConflictError",
    "KernelError",
    "BadChildError",
    "GuestKilled",
    "RuntimeApiError",
    "FileSystemError",
    "FileConflictError",
    "DeadlockError",
    "DeterministicRandom",
]
