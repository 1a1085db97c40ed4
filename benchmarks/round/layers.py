"""The per-layer table, read off the traced pass's span tree.

Layer names are the ``repro.*`` packages.  Times are medians over the traced
rounds (milliseconds as traced — tracing and host drift are in them, which
is why they are not end-to-end metrics); counts are means per round; shares
are ratios of sums.  A metric that does not exist on a workload (no catalog,
no loop, no repair engine) reads 0.

Spans the shipped code emits (``round``, ``observe``, ``decide``, ``plan``,
``solve``, ``partition``, ``zone``, ``cp.solve``, ``execute``) are taken as
they are.  ``bench.*`` spans are the benchmark's own (:mod:`probe`,
:mod:`drivers`).  Whatever sits under a ``bench.replay`` span is a second
call made to time a hidden layer (or a host-clock sample): its duration is
taken out of every enclosing span, and the shipped spans inside it are not
counted as the round's work.
"""

from __future__ import annotations

import statistics

from drivers import Pass

#: name, unit — the order of BENCHMARK.json's ``per_layer``.
PER_LAYER = (
    ("model.observe_ms", "ms"),
    ("model.dirty_nodes", "count"),
    ("model.copy_ms", "ms"),
    ("decision.decide_ms", "ms"),
    ("decision.decide_share", "ratio"),
    ("core.model_build_ms", "ms"),
    ("core.planner_ms", "ms"),
    ("core.plan_actions", "count"),
    ("core.plan_pools", "count"),
    ("core.fallback_share", "ratio"),
    ("core.plan_cost", "cost"),
    ("core.cost_vs_ffd", "ratio"),
    ("cp.search_ms", "ms"),
    ("cp.nodes", "count"),
    ("cp.backtracks", "count"),
    ("cp.propagations", "count"),
    ("cp.us_per_backtrack", "us"),
    ("cp.solutions", "count"),
    ("cp.proved_share", "ratio"),
    ("cp.timed_out_share", "ratio"),
    ("constraints.check_plan_ms", "ms"),
    ("constraints.check_configuration_ms", "ms"),
    ("constraints.violations", "count"),
    ("scale.partition_ms", "ms"),
    ("scale.zone_build_ms", "ms"),
    ("scale.zones_solved", "count"),
    ("scale.zones_reused_share", "ratio"),
    ("scale.slowest_zone_ms", "ms"),
    ("repair.dirty_set_ms", "ms"),
    ("repair.dirty_vms", "count"),
    ("repair.attempts", "count"),
    ("repair.full_solve_share", "ratio"),
    ("sim.execute_ms", "ms"),
    ("sim.switch_duration_s", "s"),
    ("sim.makespan_s", "s"),
    ("api.loop_other_ms", "ms"),
    ("api.round_ms_p90", "ms"),
    ("api.budget_overrun_share", "ratio"),
    ("api.serialize_ms", "ms"),
    ("api.failed_share", "ratio"),
    ("instances.verify_ms", "ms"),
    ("obs.trace_overhead_share", "ratio"),
    ("obs.attributed_share", "ratio"),
)

#: Spans whose time is attributed to a named layer (the rest of a round is
#: glue nobody has put a span on yet).
_ATTRIBUTED = (
    "observe",
    "bench.observe",
    "decide",
    "bench.decide",
    "partition",
    "zone",
    "cp.solve:monolithic",
    "bench.model_build",
    "bench.dirty_set",
    "bench.zone_build",
    "bench.planner",
    "bench.plan_cost",
    "bench.copy",
    "execute",
    "bench.check_configuration",
)


def _ms(node) -> float:
    return (node.duration or 0.0) * 1000.0


class _Round:
    """What one round span's subtree adds up to."""

    def __init__(self, root) -> None:
        self.ms: dict[str, float] = {}
        self.zone_ms: list[float] = []
        self.solves: list = []
        self.computes: list = []
        self.name = root.name
        self.dirty_nodes = 0
        self.replay_ms = 0.0
        self._visit(root, replaying=False, in_zone=False)
        #: The round as the program alone would have run it.
        self.net_ms = _ms(root) - self.replay_ms

    def _visit(self, node, replaying: bool, in_zone: bool) -> float:
        """Returns the replay time inside ``node`` (to net it out)."""
        name = node.name
        if name == "bench.replay":
            if not replaying:
                self.replay_ms += _ms(node)
            for child in node.children:
                self._visit(child, True, in_zone)
            return _ms(node)
        inner_replay = sum(
            self._visit(child, replaying, in_zone or name == "zone")
            for child in node.children
        )
        net = _ms(node) - inner_replay
        if name.startswith("bench."):
            # The benchmark's own spans count wherever they are.
            if name == "bench.model_build":
                net = node.attributes["build_s"] * 1000.0
            self._add(name, net)
            if name == "bench.compute":
                self.computes.append(node)
            if name == "bench.observe":
                self.dirty_nodes += node.attributes.get("dirty_nodes", 0)
        elif not replaying:
            self._add(name, net)
            if name == "zone":
                self.zone_ms.append(net)
            elif name == "cp.solve":
                self.solves.append(node)
                if not in_zone:
                    self._add("cp.solve:monolithic", net)
            elif name == "observe":
                self.dirty_nodes += node.attributes.get("dirty_nodes", 0)
        return inner_replay

    def _add(self, name: str, ms: float) -> None:
        self.ms[name] = self.ms.get(name, 0.0) + ms

    def get(self, name: str) -> float:
        return self.ms.get(name, 0.0)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def layer_table(bare: Pass, traced: Pass) -> dict[str, float]:
    """Every ``per_layer`` metric of one ``--trace 1`` run: ``traced`` is
    the pass under the tracer, ``bare`` the pass over the same operations
    without it."""
    root = traced.tracer.root
    rounds = [
        _Round(node)
        for node in root.walk()
        if node.name in ("round", "bench.round")
    ]
    # The loop opens a last round only to notice that every vjob is done.
    rounds = [r for r in rounds if r.name == "bench.round" or "decide" in r.ms]
    solves = [s for r in rounds for s in r.solves]
    computes = [c for r in rounds for c in r.computes]
    switching = [r for r in rounds if r.computes]
    repairs = [c for c in computes if c.attributes["repair_mode"] is not None]
    round_total = sum(r.net_ms for r in rounds)

    def per_round(name: str) -> float:
        return _median(r.ms[name] for r in rounds if name in r.ms)

    def total(name: str) -> float:
        return sum(r.get(name) for r in rounds)

    search_total = sum(_ms(s) for s in solves)
    backtracks = sum(s.counters.get("backtracks", 0) for s in solves)
    zones_solved = sum(len(r.zone_ms) for r in rounds)
    zones_reused = sum(c.attributes["reused_zones"] for c in computes)
    plan_cost = sum(c for c, _ in traced.ffd_pairs)
    ffd_cost = sum(f for _, f in traced.ffd_pairs)
    # Both as measured, without the host clock: the two passes are seconds
    # apart and the traced rounds have their replays netted out already.
    bare_median = _median((op.end - op.start) * 1000.0 for op in bare.ops)
    traced_median = _median(r.net_ms for r in rounds)
    attempted = len(bare.ops) + len(traced.ops)
    failed = sum(1 for op in bare.ops + traced.ops if op.failures)
    table = {
        "model.observe_ms": per_round("observe") or per_round("bench.observe"),
        "model.dirty_nodes": _mean(r.dirty_nodes for r in rounds),
        "model.copy_ms": per_round("bench.copy"),
        "decision.decide_ms": per_round("decide") or per_round("bench.decide"),
        "decision.decide_share": _share(
            total("decide") + total("bench.decide"), round_total
        ),
        "core.model_build_ms": _median(
            r.get("zone")
            - sum(_ms(s) for s in r.solves)
            + r.get("cp.solve:monolithic")
            + r.get("bench.model_build")
            for r in switching
        ),
        "core.planner_ms": per_round("bench.planner"),
        "core.plan_actions": _mean(c.attributes["actions"] for c in computes),
        "core.plan_pools": _mean(c.attributes["pools"] for c in computes),
        "core.fallback_share": _share(
            sum(1 for c in computes if c.attributes["used_fallback"]), len(computes)
        ),
        "core.plan_cost": _mean(c.attributes["cost"] for c in computes),
        "core.cost_vs_ffd": _share(plan_cost, ffd_cost),
        "cp.search_ms": _median(
            sum(_ms(s) for s in r.solves) for r in switching
        ),
        "cp.nodes": _mean(
            sum(s.counters.get("nodes", 0) for s in r.solves) for r in switching
        ),
        "cp.backtracks": _mean(
            sum(s.counters.get("backtracks", 0) for s in r.solves)
            for r in switching
        ),
        "cp.propagations": _mean(
            sum(s.counters.get("propagations", 0) for s in r.solves)
            for r in switching
        ),
        "cp.us_per_backtrack": _share(search_total * 1000.0, backtracks),
        "cp.solutions": _mean(s.counters.get("solutions", 0) for s in solves),
        "cp.proved_share": _share(
            sum(1 for s in solves if s.attributes.get("proven_optimal")), len(solves)
        ),
        "cp.timed_out_share": _share(
            sum(1 for s in solves if s.attributes.get("timed_out")), len(solves)
        ),
        "constraints.check_plan_ms": per_round("bench.check_plan"),
        "constraints.check_configuration_ms": per_round(
            "bench.check_configuration"
        ),
        "constraints.violations": float(bare.violations + traced.violations),
        "scale.partition_ms": per_round("partition"),
        "scale.zone_build_ms": per_round("bench.zone_build"),
        "scale.zones_solved": _mean(len(r.zone_ms) for r in switching),
        "scale.zones_reused_share": _share(
            zones_reused, zones_reused + zones_solved
        ),
        "scale.slowest_zone_ms": _median(
            max(r.zone_ms) for r in rounds if r.zone_ms
        ),
        "repair.dirty_set_ms": per_round("bench.dirty_set"),
        "repair.dirty_vms": _mean(c.attributes["dirty_vms"] for c in repairs),
        "repair.attempts": _mean(c.attributes["attempts"] for c in repairs),
        "repair.full_solve_share": _share(
            sum(1 for c in repairs if c.attributes["repair_mode"] == "full"),
            len(repairs),
        ),
        "sim.execute_ms": per_round("execute"),
        "sim.switch_duration_s": _mean(traced.switch_durations_s),
        "sim.makespan_s": _median(traced.makespans_s),
        "api.loop_other_ms": _median(
            r.net_ms
            - r.get("observe")
            - r.get("decide")
            - r.get("plan")
            - r.get("execute")
            for r in rounds
            if "decide" in r.ms
        ),
        "api.round_ms_p90": _percentile([op.ms for op in bare.ops], 0.9),
        "api.budget_overrun_share": _share(
            sum(1 for op in bare.ops if op.ms > 1200.0 * op.budget_s),
            len(bare.ops),
        ),
        "api.serialize_ms": _median(traced.serialize_ms),
        "api.failed_share": _share(failed, attempted),
        "instances.verify_ms": _median(bare.verify_ms + traced.verify_ms),
        "obs.trace_overhead_share": _share(
            traced_median - bare_median, bare_median
        ),
        "obs.attributed_share": _share(
            sum(total(name) for name in _ATTRIBUTED), round_total
        ),
    }
    return {name: table[name] for name, _ in PER_LAYER}
