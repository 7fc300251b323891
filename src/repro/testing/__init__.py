"""Test harnesses shipped with the library.

:mod:`repro.testing.faults` provides deterministic failure injection
for the storage layer — the machinery behind the crash-matrix tests
that prove :class:`repro.versioning.BackendRepository` leaves a
loadable or repairable store no matter where a crash lands.
"""

from repro.testing.faults import (
    FaultInjector,
    InjectedCrash,
    InjectedFault,
    InjectedIOError,
)

__all__ = [
    "FaultInjector",
    "InjectedCrash",
    "InjectedFault",
    "InjectedIOError",
]
