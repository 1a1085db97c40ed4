"""Scale-out: partitioned parallel solving.

The package has two layers (see ``docs/PERFORMANCE.md`` for the guide and
``docs/API_REFERENCE.md`` for the symbol index):

1. **Partitioner** (:mod:`repro.scale.partition`) — split a configuration
   plus its placement-constraint catalog into independent placement zones
   via connected components over the interference graph (tight ``Fence``
   domains, relational ``Spread``/``RunningCapacity`` couplings), with a
   k-way node-sharding
   fallback for unconstrained fleets.  Independence holds by construction:
   zone node sets are disjoint and every zone VM's candidates stay inside
   its zone, so per-zone solutions compose into a valid global placement.
2. **Parallel optimizer** (:mod:`repro.scale.parallel`) — solve the zones
   in-process, one after another, by the round's one deadline, merge the
   assignments deterministically, and run one global planner pass; falls
   back to the monolithic optimizer whenever partitioning yields no win.
   Reachable from the facade as ``Scenario(engine="partitioned")``.

Quickstart::

    from repro import Scenario

    result = Scenario(
        nodes=nodes, workloads=workloads,
        policy="consolidation", engine="partitioned",
    ).run()
"""

from ..constraints.domains import vm_domains
from .parallel import (
    ParallelOptimizer,
    ZoneOutcome,
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
    "ZoneOutcome",
    "build_zone_configuration",
    "solve_zone",
    "merge_statistics",
]
