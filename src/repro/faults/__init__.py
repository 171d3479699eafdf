"""Deterministic fault injection, degraded-mode serving, and the
crash-recovery property harness.

Import layering: :mod:`repro.faults.plane` is dependency-free so every
layer can fire fault points without cycles; :mod:`repro.faults.health`
imports the HTTP message types; :mod:`repro.faults.harness` sits on top
of the whole system and is imported only by tests and examples.
"""

from repro.faults.plane import (  # noqa: F401
    FAULT_KINDS,
    FAULT_POINTS,
    FaultPlane,
    FaultRule,
    InjectedError,
    InjectedFault,
    InjectedIOError,
    SimulatedCrash,
    TornWrite,
    active,
)
