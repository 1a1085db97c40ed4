"""The static-allocation baseline of the evaluation.

The Entropy control loop lives in :mod:`repro.api`; this package keeps the
analytic FCFS baseline it is compared against
(:class:`StaticAllocationSimulator`).
"""

from .static import StaticAllocationSimulator, StaticRunResult

__all__ = [
    "StaticAllocationSimulator",
    "StaticRunResult",
]
