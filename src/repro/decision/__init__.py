"""Decision modules: placement heuristics and scheduling policies.

Every policy implements the :class:`repro.api.DecisionModule` protocol and is
published in the registry (:mod:`repro.api.registry`) under its ``name``:
``"consolidation"``, ``"fcfs"``, ``"ffd"`` and ``"rjsp"``.
"""

from ..api.decision import Decision
from .consolidation import (
    ConsolidationDecisionModule,
    FFDDecisionModule,
    RJSPDecisionModule,
)
from .fcfs import FCFSDecisionModule
from .ffd import PackingTrial, ffd_commit, ffd_order, ffd_target_configuration
from .rjsp import RJSPResult, select_running_vjobs
from .static import (
    BatchJob,
    FCFSScheduler,
    JobAllocation,
    Schedule,
    StaticAllocationSimulator,
    StaticRunResult,
)

__all__ = [
    "ConsolidationDecisionModule",
    "Decision",
    "BatchJob",
    "FCFSDecisionModule",
    "FCFSScheduler",
    "JobAllocation",
    "Schedule",
    "StaticAllocationSimulator",
    "StaticRunResult",
    "FFDDecisionModule",
    "PackingTrial",
    "ffd_commit",
    "ffd_order",
    "ffd_target_configuration",
    "RJSPDecisionModule",
    "RJSPResult",
    "select_running_vjobs",
]
