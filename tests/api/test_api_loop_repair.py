"""Control-loop integration of the repair engine and the accounting fixes:
repair-latency attribution, honest ``unrepaired_vjobs``, ``request_stop``."""

from repro.api import LoopObserver
from repro.api.loop import ControlLoop
from repro.api.scenario import Scenario
from repro.core.context_switch import DEFAULT_ENGINE
from repro.model.node import make_working_nodes
from repro.model.vjob import VJobState
from repro.service.commands import LoopCommandQueue
from repro.sim.faults import FaultEvent, FaultInjector, FaultKind, FaultSchedule
from repro.testing import make_workload


def _workloads(count=3, duration=240.0):
    return [
        make_workload(f"job-{i}", vm_count=2, duration=duration + 30.0 * i)
        for i in range(count)
    ]


class TestInjectedFaultTimestamps:
    def test_retroactive_injection_is_restamped_to_the_effective_time(self):
        injector = FaultInjector(FaultSchedule())
        injector.fire(100.0)  # the loop has advanced to t=100
        injector.inject(
            FaultEvent(time=10.0, kind=FaultKind.NODE_CRASH, target="n0")
        )
        # the fired event carries the time it actually happens at, not the
        # stale past timestamp the operator asked for
        due = injector.fire(130.0)
        assert [(event.time, event.target) for event in due] == [(100.0, "n0")]
        assert injector.fire(200.0) == []

    def test_future_injection_keeps_its_timestamp(self):
        injector = FaultInjector(FaultSchedule())
        injector.fire(50.0)
        injector.inject(
            FaultEvent(time=80.0, kind=FaultKind.NODE_CRASH, target="n0")
        )
        assert injector.fire(79.0) == []
        assert [event.time for event in injector.fire(80.0)] == [80.0]

    def test_retroactive_slowdown_window_starts_at_the_effective_time(self):
        injector = FaultInjector(FaultSchedule())
        injector.fire(100.0)
        injector.inject(
            FaultEvent(
                time=0.0,
                kind=FaultKind.NODE_SLOWDOWN,
                target="n0",
                factor=2.0,
                duration=50.0,
            )
        )
        # without re-stamping the window [0, 50) would already be over
        assert injector.slowdowns_at(120.0).get("n0", 1.0) == 2.0
        assert injector.slowdowns_at(160.0).get("n0", 1.0) == 1.0


class TestRepairLatencyAccounting:
    def test_command_injected_crash_yields_non_negative_latencies(self):
        nodes = make_working_nodes(6)
        commands = LoopCommandQueue()
        # a stale-past crash posted mid-run: it must be attributed to the
        # boundary it lands at, so crash-to-running latency stays >= 0 and
        # is not inflated by the stale timestamp
        commands.inject_fault(
            FaultEvent(time=0.0, kind=FaultKind.NODE_CRASH, target=nodes[0].name)
        )
        scenario = Scenario(
            nodes=nodes,
            workloads=_workloads(),
            policy="consolidation",
            optimizer_timeout=2.0,
            faults=FaultSchedule(),
        )
        result = scenario.build(command_queue=commands).run()
        assert all(v >= 0 for v in result.repair_latencies.values())
        for record in result.faults:
            assert record.time <= record.detected_at

    def test_unrepaired_vjobs_reflect_the_post_final_round_state(self):
        nodes = make_working_nodes(4)
        scenario = Scenario(
            nodes=nodes,
            workloads=_workloads(count=2),
            policy="consolidation",
            optimizer_timeout=2.0,
            faults=FaultSchedule().node_crash(nodes[0].name, at=60.0),
        )
        loop = scenario.build()
        result = loop.run()
        unrepaired = result.metadata["unrepaired_vjobs"]
        # honesty: a vjob appears as unrepaired only if it is still pending
        # after the final round — never terminated, never running again
        assert set(unrepaired).isdisjoint(result.repair_latencies)
        for name in unrepaired:
            vjob = loop.queue.get(name)
            assert not vjob.is_terminated
            assert vjob.state is not VJobState.RUNNING
        assert all(v >= 0 for v in result.repair_latencies.values())


class TestRequestStop:
    def test_stop_before_run_exits_at_the_first_boundary(self):
        scenario = Scenario(
            nodes=make_working_nodes(4),
            workloads=_workloads(),
            policy="consolidation",
            optimizer_timeout=2.0,
        )
        loop = scenario.build()
        loop.request_stop()
        result = loop.run()
        assert result.metadata["stopped_early"] is True
        assert result.switches == []

    def test_uninterrupted_runs_do_not_claim_an_early_stop(self):
        scenario = Scenario(
            nodes=make_working_nodes(4),
            workloads=_workloads(count=1),
            policy="consolidation",
            optimizer_timeout=2.0,
        )
        result = scenario.run()
        assert "stopped_early" not in result.metadata


class TestRepairEngineInTheLoop:
    def test_repair_engine_round_trip_with_a_crash(self):
        nodes = make_working_nodes(8)
        scenario = Scenario(
            nodes=nodes,
            workloads=_workloads(count=4),
            policy="consolidation",
            engine="repair",
            optimizer_timeout=2.0,
            faults=FaultSchedule().node_crash(nodes[-1].name, at=120.0),
        )
        result = scenario.run()
        stats = result.metadata["repair_engine"]
        assert stats["repair_rounds"] + stats["full_rounds"] == len(
            result.switches
        )
        assert stats["full_rounds"] >= 1  # the cold first round
        assert stats["repair_rounds"] >= 1  # warm rounds repair incrementally
        assert result.metadata["final_viable"]

    def test_repair_engine_matches_cold_engine_outcomes(self):
        def run(engine):
            nodes = make_working_nodes(6)
            scenario = Scenario(
                nodes=nodes,
                workloads=_workloads(count=3),
                policy="consolidation",
                engine=engine,
                optimizer_timeout=2.0,
                faults=FaultSchedule().node_crash(nodes[-1].name, at=90.0),
            )
            result = scenario.run()
            return (
                result.makespan,
                sorted(result.completion_times),
                result.unfinished_vjobs,
            )

        # same faults, same workloads: the repair engine must complete the
        # same vjobs by the same simulated horizon as the cold solve
        assert run("repair") == run("event")

    def test_the_default_engine_repairs_from_a_full_first_round(self):
        switches = []

        class Switches(LoopObserver):
            def on_switch(self, record, report):
                switches.append(report.repair)

        scenario = Scenario(
            nodes=make_working_nodes(4),
            workloads=_workloads(count=1),
            policy="consolidation",
            optimizer_timeout=2.0,
            observers=[Switches()],
        )
        loop = scenario.build()
        assert loop.switcher.engine == DEFAULT_ENGINE == "repair"
        loop.switcher.mark_dirty(["anything"])  # must not raise
        result = loop.run()
        assert result.metadata["repair_engine"]["full_rounds"] >= 1
        # Nothing is placed before the first round: nothing to freeze.
        assert switches[0]["mode"] == "full"
        assert switches[0]["frozen_count"] == 0

    def test_mark_dirty_is_a_no_op_for_cold_engines(self):
        scenario = Scenario(
            nodes=make_working_nodes(4),
            workloads=_workloads(count=1),
            policy="consolidation",
            engine="event",
            optimizer_timeout=2.0,
        )
        loop = scenario.build()
        loop.switcher.mark_dirty(["anything"])  # must not raise
        result = loop.run()
        assert "repair_engine" not in result.metadata
