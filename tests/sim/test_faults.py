"""Unit tests of the fault-injection substrate (schedules, injector,
eviction, executor fault hooks)."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.actions import Migrate
from repro.core.plan import Pool, ReconfigurationPlan
from repro.model import Configuration, make_working_nodes
from repro.model.errors import ModelError
from repro.sim import SimulatedCluster
from repro.sim.executor import PlanExecutor
from repro.sim.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    evict_node,
    random_fault_schedule,
)
from repro.testing import make_vm


class TestFaultSchedule:
    def test_fluent_builders_accumulate_events(self):
        schedule = (
            FaultSchedule()
            .node_crash("node-1", at=120.0)
            .node_slowdown("node-2", at=60.0, duration=300.0, factor=2.0)
            .add(FaultEvent(30.0, FaultKind.MIGRATION_FAILURE, "vm1"))
            .add(FaultEvent(240.0, FaultKind.DELAYED_BOOT, "node-3"))
        )
        assert len(schedule) == 4
        kinds = [e.kind for e in schedule.ordered()]
        assert kinds == [
            FaultKind.MIGRATION_FAILURE,
            FaultKind.NODE_SLOWDOWN,
            FaultKind.NODE_CRASH,
            FaultKind.DELAYED_BOOT,
        ]

    def test_ordered_is_chronological(self):
        schedule = FaultSchedule().node_crash("b", at=50.0).node_crash("a", at=10.0)
        assert [e.target for e in schedule.ordered()] == ["a", "b"]

    def test_slowdown_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, kind=FaultKind.NODE_SLOWDOWN, target="n", factor=1.0)
        with pytest.raises(ValueError):
            FaultEvent(
                time=0.0,
                kind=FaultKind.NODE_SLOWDOWN,
                target="n",
                factor=2.0,
                duration=0.0,
            )
        with pytest.raises(ValueError):
            FaultEvent(time=-1.0, kind=FaultKind.NODE_CRASH, target="n")

    def test_empty_schedule_is_falsy_rate_makes_it_truthy(self):
        assert not FaultSchedule()
        assert FaultSchedule(migration_failure_rate=0.1)
        assert FaultSchedule().node_crash("n", at=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["time", "factor", "duration"])
    def test_non_finite_fields_are_rejected(self, name, value):
        fields = dict(time=1.0, kind=FaultKind.NODE_CRASH, target="n")
        fields[name] = value
        with pytest.raises(ValueError, match=f"fault {name} must be finite"):
            FaultEvent(**fields)

    @pytest.mark.parametrize("rate", [-0.1, 1.5, 7.5, math.nan])
    def test_failure_rate_outside_the_unit_interval_is_rejected(self, rate):
        with pytest.raises(ValueError, match="migration_failure_rate"):
            FaultSchedule(migration_failure_rate=rate)

    def test_failure_rate_bounds_are_probabilities(self):
        never = FaultInjector(FaultSchedule(migration_failure_rate=0.0))
        always = FaultInjector(FaultSchedule(migration_failure_rate=1.0))
        assert not any(never.should_fail_migration("vm", 0.0) for _ in range(8))
        assert all(always.should_fail_migration("vm", 0.0) for _ in range(8))


class TestRandomFaultSchedule:
    def test_same_seed_same_schedule(self):
        nodes = [f"node-{i}" for i in range(20)]
        a = random_fault_schedule(nodes, horizon=3600.0, seed=42, crash_rate_per_hour=1.0)
        b = random_fault_schedule(nodes, horizon=3600.0, seed=42, crash_rate_per_hour=1.0)
        assert [(e.time, e.target) for e in a.ordered()] == [
            (e.time, e.target) for e in b.ordered()
        ]

    def test_different_seeds_differ(self):
        nodes = [f"node-{i}" for i in range(20)]
        a = random_fault_schedule(nodes, horizon=3600.0, seed=1, crash_rate_per_hour=2.0)
        b = random_fault_schedule(nodes, horizon=3600.0, seed=2, crash_rate_per_hour=2.0)
        assert [(e.time, e.target) for e in a.ordered()] != [
            (e.time, e.target) for e in b.ordered()
        ]

    def test_max_crashes_caps_and_keeps_earliest(self):
        nodes = [f"node-{i}" for i in range(50)]
        schedule = random_fault_schedule(
            nodes, horizon=36000.0, seed=7, crash_rate_per_hour=5.0, max_crashes=3
        )
        crashes = schedule.of_kind(FaultKind.NODE_CRASH)
        assert len(crashes) == 3
        assert crashes == sorted(crashes, key=lambda e: e.time)

    def test_slowdown_windows_inside_horizon(self):
        schedule = random_fault_schedule(
            ["n0", "n1"], horizon=1800.0, seed=3, slowdown_rate_per_hour=4.0
        )
        for event in schedule.of_kind(FaultKind.NODE_SLOWDOWN):
            assert 0 <= event.time < 1800.0
            assert event.factor == 2.0


class TestFaultInjector:
    def test_fire_returns_due_events_once(self):
        schedule = FaultSchedule().node_crash("a", at=10.0).node_crash("b", at=50.0)
        injector = FaultInjector(schedule)
        assert [e.target for e in injector.fire(20.0)] == ["a"]
        assert injector.fire(20.0) == []
        assert [e.target for e in injector.fire(100.0)] == ["b"]
        assert injector.fire(1e9) == []

    def test_slowdown_factor_window(self):
        schedule = FaultSchedule().node_slowdown("n", at=100.0, duration=50.0, factor=3.0)
        injector = FaultInjector(schedule)
        assert injector.slowdowns_at(99.0).get("n", 1.0) == 1.0
        assert injector.slowdowns_at(100.0).get("n", 1.0) == 3.0
        assert injector.slowdowns_at(149.0).get("n", 1.0) == 3.0
        assert injector.slowdowns_at(150.0).get("n", 1.0) == 1.0
        assert injector.slowdowns_at(120.0).get("other", 1.0) == 1.0

    def test_overlapping_slowdowns_take_the_worst_factor(self):
        schedule = (
            FaultSchedule()
            .node_slowdown("n", at=0.0, duration=100.0, factor=2.0)
            .node_slowdown("n", at=50.0, duration=100.0, factor=4.0)
        )
        injector = FaultInjector(schedule)
        assert injector.slowdowns_at(75.0).get("n", 1.0) == 4.0

    def test_scripted_migration_failure_is_one_shot(self):
        schedule = FaultSchedule().add(
            FaultEvent(100.0, FaultKind.MIGRATION_FAILURE, "vm1")
        )
        injector = FaultInjector(schedule)
        assert not injector.should_fail_migration("vm1", 50.0)
        assert injector.should_fail_migration("vm1", 150.0)
        assert not injector.should_fail_migration("vm1", 200.0)

    def test_stochastic_migration_failures_are_seeded(self):
        def draws(seed):
            injector = FaultInjector(
                FaultSchedule(migration_failure_rate=0.5, seed=seed)
            )
            return [injector.should_fail_migration("vm", 0.0) for _ in range(32)]

        assert draws(9) == draws(9)
        assert draws(9) != draws(10)
        assert any(draws(9)) and not all(draws(9))

    def test_delayed_boot_nodes_listed(self):
        schedule = FaultSchedule().add(
            FaultEvent(60.0, FaultKind.DELAYED_BOOT, "late")
        )
        assert FaultInjector(schedule).delayed_boot_nodes() == ("late",)

    def test_same_instant_events_fire_in_scheduling_order(self):
        schedule = (
            FaultSchedule()
            .node_crash("b", at=10.0)
            .node_slowdown("a", at=10.0, duration=5.0)
            .add(FaultEvent(5.0, FaultKind.DELAYED_BOOT, "c"))
        )
        injector = FaultInjector(schedule)
        assert [e.target for e in injector.fire(10.0)] == ["c", "b", "a"]

    def test_injected_migration_failure_is_armed_not_fired(self):
        injector = FaultInjector(FaultSchedule())
        injector.fire(100.0)
        injector.inject(
            FaultEvent(time=0.0, kind=FaultKind.MIGRATION_FAILURE, target="vm1")
        )
        assert injector.fire(200.0) == []
        # re-stamped to the last fire instant, like every past injection
        assert not injector.should_fail_migration("vm1", 99.0)
        assert injector.should_fail_migration("vm1", 100.0)


_FAULT_TIMES = st.integers(0, 60).map(float)
_INJECTABLE = [
    FaultKind.NODE_CRASH,
    FaultKind.NODE_SLOWDOWN,
    FaultKind.MIGRATION_FAILURE,
]


def _fault(time: float, kind: FaultKind, target: str) -> FaultEvent:
    if kind is FaultKind.NODE_SLOWDOWN:
        return FaultEvent(time, kind, target, factor=2.0, duration=10.0)
    return FaultEvent(time, kind, target)


@settings(max_examples=150, deadline=None)
@given(
    scheduled=st.lists(
        st.tuples(
            _FAULT_TIMES, st.sampled_from(_INJECTABLE + [FaultKind.DELAYED_BOOT])
        ),
        max_size=12,
    ),
    steps=st.lists(
        st.one_of(
            st.tuples(st.just("fire"), st.integers(0, 20).map(float)),
            st.tuples(
                st.just("inject"), _FAULT_TIMES, st.sampled_from(_INJECTABLE)
            ),
        ),
        max_size=25,
    ),
)
def test_every_node_event_fires_once_in_time_then_scheduling_order(
    scheduled, steps
):
    """Against a sorted-list reference: a node event (not a migration
    failure, which is armed rather than fired) fires at the first
    ``fire(now)`` with ``now >= time``, in ``(time, scheduling order)``
    order, and an injection into the past carries the previous ``fire``
    instant."""
    schedule = FaultSchedule()
    for index, (time, kind) in enumerate(scheduled):
        schedule.add(_fault(time, kind, f"s{index}"))
    injector = FaultInjector(schedule)
    node_events = [
        e for e in schedule.ordered() if e.kind is not FaultKind.MIGRATION_FAILURE
    ]
    #: (effective time, scheduling order, event) of what has not fired yet
    pending = [(e.time, order, e) for order, e in enumerate(node_events)]
    expected_targets = {e.target for e in node_events}
    order = len(pending)
    now = 0.0
    fired = []
    for step in [*steps, ("fire", 1e6)]:
        if step[0] == "fire":
            now += step[1]
            due = sorted(p for p in pending if p[0] <= now)
            pending = [p for p in pending if p[0] > now]
            returned = injector.fire(now)
            assert returned == [event for _, _, event in due]
            fired.extend(returned)
        else:
            _, time, kind = step
            event = _fault(time, kind, f"i{order}")
            injector.inject(event)
            if kind is not FaultKind.MIGRATION_FAILURE:
                effective = dataclasses.replace(event, time=max(time, now))
                pending.append((effective.time, order, effective))
                expected_targets.add(event.target)
            order += 1
    assert pending == []
    targets = [event.target for event in fired]
    assert len(targets) == len(set(targets))
    assert set(targets) == expected_targets


class TestEvictNode:
    def _configuration(self):
        configuration = Configuration(nodes=make_working_nodes(3, cpu_capacity=2))
        configuration.add_vm(make_vm("running", memory=512, cpu=1))
        configuration.add_vm(make_vm("sleeping", memory=512))
        configuration.add_vm(make_vm("elsewhere", memory=512, cpu=1))
        configuration.set_running("running", "node-0")
        configuration.set_running("sleeping", "node-0")
        configuration.set_sleeping("sleeping", "node-0")
        configuration.set_running("elsewhere", "node-1")
        return configuration

    def test_running_vms_and_images_are_reset_node_removed(self):
        configuration = self._configuration()
        eviction = evict_node(configuration, "node-0")
        assert eviction.displaced_vms == ("running",)
        assert eviction.lost_images == ("sleeping",)
        assert not configuration.has_node("node-0")
        assert configuration.state_of("running").value == "waiting"
        assert configuration.state_of("sleeping").value == "waiting"
        assert configuration.location_of("elsewhere") == "node-1"

    def test_remove_node_refuses_occupied_node(self):
        configuration = self._configuration()
        with pytest.raises(ModelError):
            configuration.remove_node("node-0")

    def test_remove_node_returns_the_node_for_rejoin(self):
        configuration = self._configuration()
        node = configuration.remove_node("node-2")
        assert node.name == "node-2"
        configuration.add_node(node)
        assert configuration.has_node("node-2")


class TestExecutorFaultHooks:
    def _cluster_with_migration_plan(self):
        nodes = make_working_nodes(2, cpu_capacity=2, memory_capacity=3584)
        cluster = SimulatedCluster(nodes=nodes)
        vm = make_vm("vm1", memory=1024, cpu=1)
        cluster.add_vm(vm)
        cluster.configuration.set_running("vm1", "node-0")
        source = cluster.configuration.copy()
        plan = ReconfigurationPlan(
            source=source,
            pools=[Pool([Migrate("vm1", "node-0", "node-1")])],
        )
        return cluster, plan

    def test_vetoed_migration_leaves_vm_on_source(self):
        cluster, plan = self._cluster_with_migration_plan()
        injector = FaultInjector(
            FaultSchedule().add(FaultEvent(0.0, FaultKind.MIGRATION_FAILURE, "vm1"))
        )
        executor = PlanExecutor(fault_injector=injector)
        report = executor.execute(plan, cluster)
        assert report.actions == []
        assert len(report.failures) == 1
        assert report.failures[0].reason == "migration-fault"
        assert cluster.configuration.location_of("vm1") == "node-0"
        # the aborted attempt still wasted wall-clock time on both nodes
        assert report.duration > 0
        assert report.involved_nodes() == {"node-0", "node-1"}

    def test_without_injector_migration_succeeds(self):
        cluster, plan = self._cluster_with_migration_plan()
        report = PlanExecutor().execute(plan, cluster)
        assert len(report.actions) == 1
        assert report.failures == []
        assert cluster.configuration.location_of("vm1") == "node-1"
