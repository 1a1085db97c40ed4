"""Scale-out: partitioned parallel solving and campaign orchestration.

The package has three layers (see ``docs/PERFORMANCE.md`` for the guide and
``docs/API_REFERENCE.md`` for the symbol index):

1. **Partitioner** (:mod:`repro.scale.partition`) — split a configuration
   plus its placement-constraint catalog into independent placement zones
   via connected components over the interference graph (tight ``Fence``/
   ``Among`` domains, relational ``Spread``/``Gather``/``Lonely``/
   ``MaxOnline``/``RunningCapacity`` couplings), with a k-way node-sharding
   fallback for unconstrained fleets.  Independence holds by construction:
   zone node sets are disjoint and every zone VM's candidates stay inside
   its zone, so per-zone solutions compose into a valid global placement.
2. **Parallel optimizer** (:mod:`repro.scale.parallel`) — solve the zones
   (in-process, or concurrently on a process pool when they are big enough
   to pay for it) with budgets carved from the global budget, merge the
   assignments deterministically, and run one global planner pass; falls
   back to the monolithic optimizer whenever partitioning yields no win.
   Reachable from the facade as ``Scenario(engine="partitioned")``.
3. **Campaign runner** (:mod:`repro.scale.campaign`) — execute grids of
   scenarios (policies × fleet sizes × fault schedules × seeds) across
   worker processes with a resumable JSON-lines store and aggregation into
   the :mod:`repro.analysis.report` tables.

Quickstart::

    from repro import Scenario

    result = Scenario(
        nodes=nodes, workloads=workloads,
        policy="consolidation", engine="partitioned",
    ).run()
"""

from ..constraints.domains import vm_domains
from .campaign import (
    CampaignPoint,
    CampaignResult,
    CampaignSpec,
    CampaignStore,
    execute_point,
    run_campaign,
    summarize_run,
)
from .parallel import (
    ParallelOptimizer,
    ZoneOutcome,
    ZoneTask,
    build_zone_configuration,
    merge_statistics,
    solve_zone,
)
from .partition import (
    PartitionResult,
    Zone,
    partition,
    placed_vms,
)

__all__ = [
    "Zone",
    "PartitionResult",
    "partition",
    "placed_vms",
    "vm_domains",
    "ParallelOptimizer",
    "ZoneTask",
    "ZoneOutcome",
    "build_zone_configuration",
    "solve_zone",
    "merge_statistics",
    "CampaignPoint",
    "CampaignSpec",
    "CampaignStore",
    "CampaignResult",
    "run_campaign",
    "execute_point",
    "summarize_run",
]
