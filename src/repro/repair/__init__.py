"""Incremental repair-based replanning (warm start).

Every control-loop round used to solve the CP model from scratch, even when
a fault or arrival perturbed only a handful of VMs.  This package adds the
repair mode BtrPlace pioneered on top of Entropy: seed the model with the
previous round's assignment (the observed placement on a first round),
freeze the VMs outside the perturbed region, and search the dirty region
only — one attempt, then the full monolithic solve when it finds nothing,
so ``engine="repair"`` is always safe to request.  A frozen VM runs on a
node of the configuration, inside its unary domain, is not leaving, and its
host is not overloaded: the dirty rule guarantees it and no layer below
checks it again.

* :class:`RepairOptimizer` — the drop-in optimizer wrapping either the
  monolithic :class:`~repro.core.optimizer.ContextSwitchOptimizer`
  (``engine="repair"``) or the partitioned
  :class:`~repro.scale.parallel.ParallelOptimizer`
  (``engine="repair-partitioned"``: the same attempt, with zones for the
  full solve only);
* the ``repair`` entry of the returned
  :class:`~repro.core.optimizer.OptimizationResult` — what the engine did
  (mode, dirty/frozen counts, attempts, the reason for a full solve);
* :func:`compute_dirty_set` — the deterministic dirty-region rules
  (external marks, VMs needing placement, placements invalidated by
  shrunken constraints, relational closure and halo expansion, the
  residents of overloaded hosts): the body the engine runs, called on plain
  inputs.

Accepted plans always pass the same checker pipeline as a cold solve: the
inner optimizer's single global planner pass re-validates the whole
constraint catalog on every intermediate state.
"""

from .engine import RepairOptimizer, compute_dirty_set

__all__ = [
    "RepairOptimizer",
    "compute_dirty_set",
]
