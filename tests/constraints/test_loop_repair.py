"""End-to-end constraint enforcement in the control loop: constrained
scenarios through the facade, heuristic policies filtering candidates,
violation recording, and the node-crash repair path (fault-driven replanning
re-applies the catalog on the survivors)."""

from __future__ import annotations

import pytest

from repro import FaultSchedule, Scenario
from repro.api import RecordingObserver
from repro.constraints import (
    Ban,
    CandidateFilter,
    Fence,
    Spread,
    check_configuration,
)
from repro.decision.fcfs import FCFSDecisionModule
from repro.decision import FFDDecisionModule, ffd_commit
from repro.decision.ffd import PackingTrial
from repro.model.configuration import Configuration
from repro.model.node import make_working_nodes
from repro.model.queue import VJobQueue
from repro.model.vm import VMState
from repro.testing import make_vm, make_workload


def nodes(count=3):
    return make_working_nodes(count, cpu_capacity=2, memory_capacity=3584)


class TestGreedyFiltering:
    def test_ffd_place_honours_a_candidate_filter(self):
        configuration = Configuration(nodes=nodes(2))
        vm = make_vm("x", memory=512, cpu=1)
        configuration.add_vm(vm)
        ban = CandidateFilter([Ban(["x"], ["node-0"])], configuration)
        placement = ffd_commit(PackingTrial(configuration.nodes), [vm], node_filter=ban)
        assert placement == {"x": "node-1"}

    def test_ffd_place_fails_when_the_filter_excludes_everything(self):
        configuration = Configuration(nodes=nodes(2))
        vm = make_vm("x", memory=512, cpu=1)
        configuration.add_vm(vm)
        everywhere = CandidateFilter(
            [Ban(["x"], ["node-0", "node-1"])], configuration
        )
        assert ffd_commit(
            PackingTrial(configuration.nodes), [vm], node_filter=everywhere
        ) is None

    def test_candidate_filter_needs_the_observed_configuration(self):
        # unary domains are resolved against it: there is no unbound filter
        with pytest.raises(TypeError, match="reference"):
            CandidateFilter([Ban(["x"], ["node-0"])])

    def test_ffd_module_builds_constrained_targets(self):
        configuration = Configuration(nodes=nodes(3))
        queue = VJobQueue()
        vjob = make_workload("w", vm_count=2, duration=60.0).vjob
        for vm in vjob.vms:
            configuration.add_vm(vm)
        queue.submit(vjob)
        module = FFDDecisionModule()
        module.use_constraints([Spread(["w.vm0", "w.vm1"])])
        decision = module.decide(configuration, queue)
        assert decision.target is not None
        assert check_configuration(
            decision.target, [Spread(["w.vm0", "w.vm1"])]
        ) == []
        assert decision.target.location_of("w.vm0") != decision.target.location_of(
            "w.vm1"
        )

    def test_fcfs_module_admission_respects_a_fence(self):
        configuration = Configuration(nodes=nodes(3))
        queue = VJobQueue()
        vjob = make_workload("w", vm_count=2, duration=60.0).vjob
        for vm in vjob.vms:
            configuration.add_vm(vm)
        queue.submit(vjob)
        module = FCFSDecisionModule()
        module.use_constraints([Fence(["w.vm0", "w.vm1"], ["node-2"])])
        decision = module.decide(configuration, queue)
        placement = decision.metadata["trial_placement"]
        assert placement["w.vm0"] == "node-2"
        assert placement["w.vm1"] == "node-2"


class TestConstrainedScenarios:
    def test_consolidation_honours_spread_all_run_long(self):
        spread = Spread(["w.vm0", "w.vm1"])
        observer = RecordingObserver()
        scenario = (
            Scenario(
                nodes=nodes(3),
                workloads=[make_workload("w", vm_count=2, duration=90.0)],
                policy="consolidation",
                optimizer_timeout=10.0,
                max_time=3600.0,
            )
            .with_constraints(spread)
            .observe(observer)
        )
        result = scenario.run()
        assert "w" in result.completion_times
        assert result.honoured_constraints
        assert result.constraint_violation_counts == {}
        assert result.metadata["constraints"] == [spread.label]

    def test_builder_supports_constraints(self):
        result = Scenario(
            nodes=nodes(3),
            workloads=[make_workload("w", vm_count=2, duration=60.0)],
            policy="ffd",
            constraints=[Spread(["w.vm0", "w.vm1"])],
            max_time=3600.0,
        ).run()
        assert "w" in result.completion_times
        assert result.honoured_constraints

    def test_a_reused_module_drops_a_catalog_the_loop_does_not_hold(self):
        """The loop hands its catalog to the policy even when it is empty:
        a module that filtered by a fence in an earlier run must not keep
        filtering by it in a run that plans and checks without one."""
        from repro.decision import ConsolidationDecisionModule

        fence = Fence(["w.vm0", "w.vm1"], ["node-2"])
        module = ConsolidationDecisionModule()
        Scenario(
            nodes=nodes(3),
            workloads=[make_workload("w", vm_count=2, duration=60.0)],
            policy=module,
            constraints=[fence],
        ).build()
        assert module.constraints == (fence,)
        loop = Scenario(
            nodes=nodes(3),
            workloads=[make_workload("w", vm_count=2, duration=60.0)],
            policy=module,
        ).build()
        assert module.constraints == ()
        assert loop.constraints == []

    def test_a_catalog_in_the_policy_options_is_refused(self):
        """``policy_options`` reach the policy constructor, which takes no
        catalog: the scenario fails before its first round instead of
        filtering by constraints the optimizer never sees."""
        scenario = Scenario(
            nodes=nodes(3),
            workloads=[make_workload("w", vm_count=2, duration=60.0)],
            policy="consolidation",
            policy_options={"constraints": [Fence(["w.vm0", "w.vm1"], ["node-2"])]},
        )
        with pytest.raises(TypeError, match="constraints"):
            scenario.build()

    def test_with_constraints_returns_an_independent_copy(self):
        base = Scenario(
            nodes=nodes(3),
            workloads=[make_workload("w", vm_count=2, duration=60.0)],
        )
        constrained = base.with_constraints(Spread(["w.vm0", "w.vm1"]))
        assert base.constraints == []
        assert len(constrained.constraints) == 1

    def test_violations_are_recorded_not_silently_dropped(self):
        class StubbornPolicy:
            """Pins every waiting VM to node-0, constraints be damned."""

            name = "stubborn"

            def decide(self, configuration, queue):
                from repro.api.decision import Decision

                vm_states = {}
                target = configuration.copy()
                for vjob in queue.pending():
                    for vm in vjob.vms:
                        if configuration.state_of(vm.name) is VMState.WAITING:
                            target.set_running(vm.name, "node-0")
                            vm_states[vm.name] = VMState.RUNNING
                from repro.api.decision import stop_terminated_vms

                stop_terminated_vms(configuration, queue, vm_states)
                return Decision(vm_states=vm_states, target=target)

        ban = Ban(["w.vm0"], ["node-0"])
        result = Scenario(
            nodes=nodes(2),
            workloads=[make_workload("w", vm_count=1, duration=60.0)],
            policy=StubbornPolicy(),
            max_time=1800.0,
        ).with_constraints(ban).run()
        assert not result.honoured_constraints
        counts = result.constraint_violation_counts
        assert counts.get(ban.label, 0) >= 1
        phases = {record.phase for record in result.constraint_violations}
        # the breach shows up in the intended plan, during execution and on
        # the settled configuration
        assert {"plan", "execution", "configuration"} <= phases
        assert all(
            record.constraint == ban.label
            for record in result.constraint_violations
        )
        # both pool-granular phases number the same boundary identically
        # (stage = pools applied, 1-based)
        plan_stages_seen = {
            r.stage for r in result.constraint_violations if r.phase == "plan"
        }
        execution_stages = {
            r.stage
            for r in result.constraint_violations
            if r.phase == "execution"
        }
        assert execution_stages <= plan_stages_seen
        assert all(stage >= 1 for stage in execution_stages)


class TestCrashRepair:
    def crash_scenario(self, constraints, fleet=4):
        return Scenario(
            nodes=nodes(fleet),
            workloads=[make_workload("w", vm_count=2, duration=600.0)],
            policy="consolidation",
            optimizer_timeout=10.0,
            max_time=7200.0,
            faults=FaultSchedule().node_crash("node-0", at=60.0),
        ).with_constraints(*constraints)

    def test_replan_after_crash_still_honours_spread(self):
        spread = Spread(["w.vm0", "w.vm1"])
        result = self.crash_scenario([spread]).run()
        # the vjob was knocked out, repaired, and finished
        assert result.repair_latencies.get("w") is not None
        assert "w" in result.completion_times
        assert result.unfinished_vjobs == []
        # the catalog was re-applied on the survivors: no violation ever
        assert result.honoured_constraints

    def test_elastic_fence_repairs_onto_the_survivors(self):
        fence = Fence(
            ["w.vm0", "w.vm1"], ["node-0", "node-1"], elastic=True
        )
        result = self.crash_scenario([fence]).run()
        assert "w" in result.completion_times
        assert result.honoured_constraints
        # the declaration is stable; the repair hook swapped the *active*
        # fence for its shrunken twin
        assert result.metadata["constraints"] == [fence.label]
        assert result.metadata["active_constraints"] == [
            "Fence(w.vm0, w.vm1 | node-1)"
        ]

    def test_fully_dead_elastic_fence_retires(self):
        fence = Fence(["w.vm0", "w.vm1"], ["node-0"], elastic=True)
        result = self.crash_scenario([fence]).run()
        assert "w" in result.completion_times
        # the run stays identifiable as constrained, but nothing remains
        # active to honour or record
        assert result.metadata["constraints"] == [fence.label]
        assert result.metadata["active_constraints"] == []
        assert result.honoured_constraints
