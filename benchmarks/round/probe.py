"""The traced run's probe: spans around the calls the benchmark makes, and
replays of the layer functions a black-box call hides.

``ClusterContextSwitch.compute`` emits ``solve`` / ``partition`` / ``zone`` /
``repair-attempt`` / ``cp.solve`` spans but nothing for the dirty set, the
zone extraction, the model build of a monolithic solve, the planner or the
cost model.  :class:`ProbedSwitch` wraps the switch the workload (or the
control loop) calls: it records a ``bench.compute`` span around the real
call, then — inside a ``bench.replay`` span, whose time is taken out of the
round again — calls each hidden layer's public function once more on that
round's exact inputs.  Everything the layer table needs is then in the span
tree (:mod:`layers` reads it); nothing under ``src/`` is touched.

Only the traced run uses this module; end-to-end metrics are measured on
the bare program.
"""

from __future__ import annotations

import time

from repro.constraints.checker import check_plan
from repro.core.cost import plan_cost
from repro.core.optimizer import ContextSwitchOptimizer
from repro.model.vm import VMState
from repro.obs import span
from repro.repair import RepairOptimizer, compute_dirty_set
from repro.scale.parallel import ParallelOptimizer, build_zone_configuration
from repro.scale.partition import partition


def _zone_indexes(node) -> set[int]:
    """Indexes of the zones that went to a solver under ``node``."""
    return {
        s.attributes["zone"] for s in node.walk() if s.name == "zone"
    }


class ProbedSwitch:
    """A ``ClusterContextSwitch`` stand-in that traces and replays."""

    def __init__(self, switch) -> None:
        self._switch = switch
        self._marks: set[str] = set()
        optimizer = switch.optimizer
        self._repair = optimizer if isinstance(optimizer, RepairOptimizer) else None
        inner = self._repair.inner if self._repair is not None else optimizer
        self._parallel = inner if isinstance(inner, ParallelOptimizer) else None

    def __getattr__(self, name):
        return getattr(self._switch, name)

    def mark_dirty(self, vms) -> None:
        vms = list(vms)
        self._marks.update(vms)
        self._switch.mark_dirty(vms)

    def plan_to(self, current, target, vjob_of_vm=None, constraints=()):
        with span("bench.compute") as compute_span:
            report = self._switch.plan_to(current, target, vjob_of_vm, constraints)
        self._describe(compute_span, report)
        with span("bench.replay"):
            self._replay_planner(report, vjob_of_vm, constraints)
        return report

    def compute(
        self,
        current,
        target_states,
        vjob_of_vm=None,
        fallback_target=None,
        constraints=(),
    ):
        marks = sorted(self._marks)
        self._marks.clear()
        previous = (
            self._repair.previous_assignment if self._repair is not None else None
        )
        with span("bench.compute") as compute_span:
            report = self._switch.compute(
                current,
                target_states,
                vjob_of_vm=vjob_of_vm,
                fallback_target=fallback_target,
                constraints=constraints,
            )
        self._describe(compute_span, report)
        with span("bench.replay"):
            states = {
                name: target_states.get(name, current.state_of(name))
                for name in current.vm_names
            }
            with span("bench.copy"):
                current.copy()
            if previous is not None:
                running = [
                    name
                    for name, state in states.items()
                    if state is VMState.RUNNING
                ]
                with span("bench.dirty_set"):
                    compute_dirty_set(
                        current,
                        states,
                        running,
                        constraints,
                        marks,
                        previous,
                        self._repair.halo,
                    )
            solved = _zone_indexes(compute_span)
            if solved:
                # The shipped ``partition`` span already timed this call; it
                # runs again only to get at the zones.
                decomposition = partition(
                    current, states, constraints, shards=self._parallel.shards
                )
                with span("bench.zone_build"):
                    for zone in decomposition.zones:
                        if zone.index in solved:
                            build_zone_configuration(current, zone)
            elif self._repair is None and self._parallel is None:
                # Monolithic cold solve: a zero-budget search_assignment on
                # the same inputs builds the same model and stops at the
                # first node, so wall - SearchStatistics.elapsed is the
                # model build.
                with span("bench.model_build") as build_span:
                    started = time.perf_counter()
                    _, statistics, _ = ContextSwitchOptimizer(
                        timeout=0.0, engine=self._switch.engine
                    ).search_assignment(current, target_states, constraints)
                    build_span.set(
                        build_s=time.perf_counter() - started - statistics.elapsed
                    )
            self._replay_planner(report, vjob_of_vm, constraints)
        return report

    @staticmethod
    def _describe(compute_span, report) -> None:
        repair = report.repair or {}
        compute_span.set(
            cost=report.cost.total,
            actions=report.plan.action_count(),
            pools=len(report.plan.pools),
            used_fallback=report.used_fallback,
            repair_mode=repair.get("mode"),
            dirty_vms=repair.get("dirty_count", 0),
            attempts=repair.get("attempts", 0),
            reused_zones=repair.get("reused_zones", 0),
        )

    def _replay_planner(self, report, vjob_of_vm, constraints) -> None:
        with span("bench.planner"):
            plan = self._switch.planner.build(
                report.current, report.target, vjob_of_vm, constraints=constraints
            )
        with span("bench.check_plan"):
            check_plan(plan, constraints)
        with span("bench.plan_cost"):
            plan_cost(plan)

