"""Tests of the CP-based context-switch optimizer (Section 4.3)."""

import time

import pytest
from reference_propagation import propagation

from repro.constraints import (
    Ban,
    Fence,
    Spread,
    violated_constraints,
)
from repro.core.context_switch import ClusterContextSwitch
from repro.core.optimizer import ContextSwitchOptimizer, complete_states
from repro.cp import Solver
from repro.decision.ffd import ffd_target_configuration
from repro.model.configuration import Configuration
from repro.model.errors import PlanningError, SolverError
from repro.model.node import make_working_nodes
from repro.model.vm import VMState
from repro.repair import compute_dirty_set

from repro.testing import fence_groups, make_large_fleet, make_vm


@pytest.fixture
def cluster():
    nodes = make_working_nodes(4, cpu_capacity=2, memory_capacity=4096)
    configuration = Configuration(nodes=nodes)
    for name, memory, cpu, node in [
        ("a", 1024, 1, "node-0"),
        ("b", 512, 1, "node-1"),
        ("c", 2048, 0, "node-2"),
    ]:
        configuration.add_vm(make_vm(name, memory=memory, cpu=cpu))
        configuration.set_running(name, node)
    configuration.add_vm(make_vm("sleepy", memory=1024, cpu=1))
    configuration.set_sleeping("sleepy", "node-3")
    configuration.add_vm(make_vm("newcomer", memory=512, cpu=1))
    return configuration


@pytest.mark.parametrize("engine", ["fixpoint", "Event", ""])
def test_the_optimizer_accepts_only_the_one_propagation_engine(engine):
    # ``engine=`` stays only for callers that still pass "event" (the round
    # benchmark's probe); it selects nothing, so nothing is stored.
    assert not hasattr(ContextSwitchOptimizer(engine="event"), "engine")
    with pytest.raises(SolverError, match=repr(engine)):
        ContextSwitchOptimizer(engine=engine)


class TestKeepInPlace:
    def test_running_vms_stay_put_when_nothing_changes(self, cluster):
        optimizer = ContextSwitchOptimizer(timeout=5)
        result = optimizer.optimize(cluster, {})
        assert result.plan.action_count() == 0
        assert result.cost == 0
        for name in ("a", "b", "c"):
            assert result.target.location_of(name) == cluster.location_of(name)

    def test_sleeping_vm_resumed_locally(self, cluster):
        optimizer = ContextSwitchOptimizer(timeout=5)
        result = optimizer.optimize(cluster, {"sleepy": VMState.RUNNING})
        assert result.target.location_of("sleepy") == "node-3"
        assert result.cost == 1024  # a single local resume

    def test_waiting_vm_runs_without_cost(self, cluster):
        optimizer = ContextSwitchOptimizer(timeout=5)
        result = optimizer.optimize(cluster, {"newcomer": VMState.RUNNING})
        assert result.target.state_of("newcomer") is VMState.RUNNING
        assert result.cost == 0

    def test_suspend_cost_is_fixed(self, cluster):
        optimizer = ContextSwitchOptimizer(timeout=5)
        result = optimizer.optimize(cluster, {"c": VMState.SLEEPING})
        assert result.cost == 2048
        assert result.target.state_of("c") is VMState.SLEEPING
        assert result.target.image_location_of("c") == "node-2"


class TestStateCompletion:
    def test_the_observed_vms_are_completed_in_registration_order(self, cluster):
        # The decision names its VMs in any order, and may name a VM the
        # configuration does not know: the completion walks the
        # configuration and ignores the rest.
        wanted = {
            "ghost": VMState.RUNNING,
            "newcomer": VMState.RUNNING,
            "c": VMState.SLEEPING,
            "b": VMState.RUNNING,
        }
        states, changed = complete_states(cluster, wanted)
        assert list(states) == list(cluster.vm_names)
        assert changed == ["c", "newcomer"]
        assert states["c"] is VMState.SLEEPING
        assert states["sleepy"] is VMState.SLEEPING

    def test_the_refusal_names_the_first_vm_in_registration_order(self, cluster):
        wanted = {"c": VMState.WAITING, "a": VMState.WAITING}
        with pytest.raises(PlanningError, match="'a' is running"):
            ContextSwitchOptimizer(timeout=5).optimize(cluster, wanted)


class TestOverloadResolution:
    def test_overloaded_node_is_fixed_with_a_migration(self):
        nodes = make_working_nodes(2, cpu_capacity=1, memory_capacity=4096)
        configuration = Configuration(nodes=nodes)
        configuration.add_vm(make_vm("x", memory=512, cpu=1))
        configuration.add_vm(make_vm("y", memory=1024, cpu=1))
        configuration.set_running("x", "node-0")
        configuration.set_running("y", "node-0")  # CPU overload on node-0
        assert not configuration.is_viable()

        optimizer = ContextSwitchOptimizer(timeout=5)
        result = optimizer.optimize(configuration, {})
        assert result.target.is_viable()
        # The cheaper VM moves: x (512 MB) rather than y (1024 MB).
        assert result.target.location_of("x") == "node-1"
        assert result.target.location_of("y") == "node-0"
        assert result.cost == 512

    def test_result_better_or_equal_to_ffd(self, cluster):
        states = {"sleepy": VMState.RUNNING, "newcomer": VMState.RUNNING}
        ffd_target = ffd_target_configuration(cluster, states)
        optimizer = ContextSwitchOptimizer(timeout=5)
        result = optimizer.optimize(cluster, states)
        from repro.core import build_plan, plan_cost

        ffd_cost = plan_cost(build_plan(cluster, ffd_target)).total
        assert result.cost <= ffd_cost


class TestFallbacks:
    def test_infeasible_demand_uses_fallback_error(self):
        nodes = make_working_nodes(1, cpu_capacity=1, memory_capacity=512)
        configuration = Configuration(nodes=nodes)
        configuration.add_vm(make_vm("big", memory=4096, cpu=1))
        optimizer = ContextSwitchOptimizer(timeout=2)
        with pytest.raises(PlanningError):
            optimizer.optimize(configuration, {"big": VMState.RUNNING})

    def test_statistics_are_reported(self, cluster):
        optimizer = ContextSwitchOptimizer(timeout=5)
        result = optimizer.optimize(cluster, {"sleepy": VMState.RUNNING})
        assert result.statistics is not None
        assert result.statistics.elapsed >= 0.0

    def test_first_solution_only_mode(self, cluster):
        optimizer = ContextSwitchOptimizer(timeout=5, first_solution_only=True)
        result = optimizer.optimize(cluster, {"sleepy": VMState.RUNNING})
        assert result.target.state_of("sleepy") is VMState.RUNNING


class TestVJobConsistencyIntegration:
    def test_plan_regroups_vjob_resumes(self):
        nodes = make_working_nodes(3, cpu_capacity=2, memory_capacity=4096)
        configuration = Configuration(nodes=nodes)
        for index in range(2):
            configuration.add_vm(
                make_vm(f"j.vm{index}", memory=512, cpu=1, vjob="j")
            )
            configuration.set_sleeping(f"j.vm{index}", f"node-{index}")
        optimizer = ContextSwitchOptimizer(timeout=5)
        result = optimizer.optimize(
            configuration,
            {"j.vm0": VMState.RUNNING, "j.vm1": VMState.RUNNING},
            vjob_of_vm={"j.vm0": "j", "j.vm1": "j"},
        )
        resume_pools = {
            index
            for index, pool in enumerate(result.plan.pools)
            for action in pool
            if action.kind.value == "resume"
        }
        assert len(resume_pools) == 1


#: The last accepted round put every VM somewhere — the two that do not run
#: included, so those are dirty (they need placement), not frozen.
_EVERY_VM_PINNED = {
    "a": "node-0",
    "b": "node-1",
    "c": "node-2",
    "sleepy": "node-3",
    "newcomer": "node-3",
}


@pytest.fixture
def solves(monkeypatch):
    """The keyword arguments of every ``Solver.solve`` call made."""
    calls = []
    solve = Solver.solve

    def spy(self, **kwargs):
        calls.append(kwargs)
        return solve(self, **kwargs)

    monkeypatch.setattr(Solver, "solve", spy)
    return calls


class TestOneModelBuilder:
    """One builder serves the cold solve and the repair cut: each must keep
    the frozen VMs on their hosts and honour capacities and the catalog.

    A case gives the host the last accepted round left some VMs on; the
    solve is handed the frozen set the dirty rule — the one owner of what a
    frozen VM is — leaves of them: a VM that does not run, diverged from
    that host, sits outside its domain or shares an overloaded host is dirty
    and re-placed, never handed over frozen.

    ``variables`` is the size of the model that reached a solver — one per
    VM left to place plus the cost — or 0 when none was built.  The frozen
    VMs never enter the model: the repair solve is a cut, the dirty VMs over
    the capacities the frozen ones leave, members of the catalog's groups
    included.  Under a unary catalog the keep-in-place incumbent answers
    whenever it costs the lower bound — on ``cluster`` it always does
    (everyone stays, ``sleepy`` resumes where its image is or, banned from
    there, anywhere), so those solves build no model; on ``crowded``, where
    node-0 must shed a VM, the dirty rule frees both its residents and the
    model is built around the other frozen VMs.  One relational constraint
    leaves the cut without an incumbent: its model holds the dirty VMs (a
    group's members all, by the dirty rule's closure)."""

    #: Previous hosts and unary catalogs under which ``cluster`` is answered
    #: by the incumbent; the last column is the model ``crowded`` needs.
    _UNARY = [
        pytest.param(None, [], 7, id="no-pins"),
        pytest.param({"a": "node-0", "b": "node-1"}, [], 6, id="pins-empty-catalog"),
        pytest.param(
            {"a": "node-0", "b": "node-1"},
            [Fence(["newcomer", "sleepy"], ["node-1", "node-2"])],
            6,
            id="pins-fence",
        ),
        pytest.param(
            {"a": "node-0", "b": "node-1"},
            [Fence(["a", "b", "newcomer"], ["node-0", "node-1", "node-2"])],
            6,
            id="pinned-fence-members",
        ),
        pytest.param(
            {"a": "node-0", "c": "node-2"},
            [Ban(["a", "sleepy"], ["node-3"])],
            6,
            id="pinned-ban-member",
        ),
        pytest.param(
            {"a": "node-0", "b": "node-1", "c": "node-2"},
            [
                Fence(["a"], ["node-0"]),
                Fence(["b"], ["node-1"]),
                Fence(["c", "sleepy"], ["node-2", "node-3"]),
            ],
            5,
            id="pinned-root-members",
        ),
    ]

    @pytest.mark.parametrize(
        "previous, constraints, variables",
        [
            *(
                pytest.param(*param.values[:2], 0, id=param.id)
                for param in _UNARY
            ),
            # ``c`` frozen: ``a`` is dirty with its group.
            pytest.param(
                {"a": "node-0", "c": "node-2"},
                [Spread(["a", "newcomer", "sleepy"])],
                5,
                id="pins-spread",
            ),
            # ``a`` and ``c`` frozen: ``b`` is dirty with its group.
            pytest.param(
                {"a": "node-0", "c": "node-2"},
                [Fence(["a", "newcomer"], ["node-0", "node-1"]), Spread(["b", "sleepy"])],
                4,
                id="pins-fence-and-spread",
            ),
            # ``a``, ``b`` and ``c`` frozen; ``sleepy`` and ``newcomer`` are
            # placed around them.
            pytest.param(_EVERY_VM_PINNED, [], 0, id="every-vm-pinned"),
            pytest.param(
                _EVERY_VM_PINNED,
                [Fence(["a", "sleepy"], ["node-0", "node-3"])],
                0,
                id="every-vm-pinned-fence",
            ),
            # The last round left ``a`` on a node that is gone: it diverged,
            # so it is re-placed (where it runs, for nothing).
            pytest.param({"a": "node-9"}, [], 0, id="pin-to-removed-node"),
            # ``a`` runs outside its domain: dirty, moved into it.
            pytest.param(
                {"a": "node-0"},
                [Fence(["a"], ["node-1", "node-2"])],
                0,
                id="pin-outside-its-fence",
            ),
            pytest.param(
                {"a": "node-0"},
                [
                    Fence(["a", "b"], ["node-0", "node-1"], elastic=True)
                    .on_node_failure("node-0")
                ],
                0,
                id="pin-outside-its-crash-shrunken-fence",
            ),
            pytest.param(
                {"a": "node-0"},
                [Fence(["a"], ["node-1", "node-2"]), Spread(["b", "sleepy"])],
                6,
                id="pin-outside-its-fence-relational-catalog",
            ),
            # ``a`` diverged from the last round's host: re-placed, and its
            # one-node fence keeps it where it runs.
            pytest.param(
                {"a": "node-3"}, [Fence(["a"], ["node-0"])], 0, id="pin-off-its-root"
            ),
        ],
    )
    def test_pins_capacities_and_catalog_are_honoured(
        self, cluster, models, previous, constraints, variables
    ):
        self._assert_honoured(cluster, models, previous, constraints, variables)

    @pytest.mark.parametrize("previous, constraints, variables", _UNARY)
    def test_a_host_that_must_shed_a_vm_reaches_the_builder(
        self, cluster, models, previous, constraints, variables
    ):
        # ``d`` asks both cpus of node-0, where ``a`` holds one: whoever
        # stays, the other migrates, so the incumbent costs more than the
        # bound (0 for two running VMs) and the search has to say who.
        # Node-0 is overloaded, so neither is handed over frozen.
        cluster.add_vm(make_vm("d", memory=512, cpu=2))
        cluster.set_running("d", "node-0")
        frozen = self._assert_honoured(
            cluster, models, previous, constraints, variables
        )
        assert not frozen & {"a", "d"}

    @staticmethod
    def _assert_honoured(cluster, models, previous, constraints, variables):
        states = {name: VMState.RUNNING for name in cluster.vm_names}
        placement = cluster.placement()
        previous = previous or {}
        frozen = previous.keys() - compute_dirty_set(
            cluster,
            states,
            list(states),
            constraints,
            previous={**placement, **previous},
            halo=0,
        )
        result = ContextSwitchOptimizer(timeout=5).optimize(
            cluster, states, constraints=constraints, dirty=states.keys() - frozen
        )
        statistics, target = result.statistics, result.target
        assert [len(model.variables) for model in models] == (
            [variables] if variables else []
        )
        if variables == 0:
            assert statistics.nodes == 0 and statistics.proven_optimal
        assert set(target.placement()) == set(cluster.vm_names)
        for vm in frozen:
            assert target.location_of(vm) == placement[vm]
        assert target.is_viable()
        assert violated_constraints(target, constraints) == []
        return frozen

    @pytest.mark.parametrize("engine", ["event", "fixpoint"])
    def test_the_cut_searches_like_one_node_fences(self, engine, models):
        """The same fenced zone solved as a repair cut (its frozen VMs out
        of the model) and cold with a one-node ``Fence`` per frozen VM (a
        singleton domain at its host): same tree, same answer."""
        zone = make_large_fleet(60, groups=1, cached=False)
        states = zone.states()
        catalog = fence_groups(zone, groups=1)
        # One VM of node-0 now asks for ten of its twelve cpus: its three
        # neighbours are the dirty region and two of them have to leave,
        # at different prices — a tree with an improving solution and a
        # proof, not one dive.
        for name, memory, cpu in (
            ("vm-45", 1024, 10),
            ("vm-30", 1536, 2),
            ("vm-0", 1024, 2),
            ("vm-15", 2048, 1),
        ):
            zone.replace_vm(make_vm(name, memory=memory, cpu=cpu))
        dirty = list(zone.vms_on("node-0"))
        pins = [
            Fence([vm], [host])
            for vm, host in zone.placement().items()
            if vm not in dirty
        ]
        with propagation(engine):
            optimizer = ContextSwitchOptimizer(timeout=30)
            cut = optimizer.optimize(
                zone, states, constraints=catalog, dirty=set(dirty)
            )
            pinned = ContextSwitchOptimizer(timeout=30).optimize(
                zone, states, constraints=catalog + pins
            )
        assert [len(model.variables) for model in models] == [
            len(dirty) + 1,
            len(zone.vm_names) + 1,
        ]
        assert cut.target.placement() == pinned.target.placement()
        assert cut.improving_costs == pinned.improving_costs == [3072, 2560]
        assert cut.statistics.backtracks > 0
        for counter in ("nodes", "backtracks", "solutions", "proven_optimal"):
            assert getattr(cut.statistics, counter) == getattr(
                pinned.statistics, counter
            )
        assert cut.statistics.propagations <= pinned.statistics.propagations


class TestColdSolveEffort:
    """A cold solve costs what its answer needs: nothing when the
    keep-in-place incumbent already costs the lower bound, one dive when
    there is no incumbent and the first solution meets the root bound, at
    any depth, and no search at all for a model that cannot be packed.
    One ``Spread`` pair makes a catalog relational, which leaves the solve
    without an incumbent."""

    @pytest.mark.parametrize("engine", ["event", "fixpoint"])
    def test_a_cost_0_zone_is_one_dive_and_no_proof(self, engine, models):
        # The zone of the round benchmark's ``fleet-cold``: 125 fenced VMs
        # on 31 nodes, one of them restarted.
        zone = make_large_fleet(125, groups=1, cached=False)
        states = zone.states()
        zone.set_waiting("vm-17")
        catalog = fence_groups(zone, groups=1)
        optimizer = ContextSwitchOptimizer(timeout=30)
        # Everyone stays and vm-17 boots for nothing: not even a dive.
        with propagation(engine):
            assignment, statistics, improving = optimizer.search_assignment(
                zone, states, catalog
            )
        assert set(assignment) == set(zone.vm_names)
        assert improving == [0] and models == []
        assert (statistics.nodes, statistics.solutions) == (0, 1)
        assert statistics.proven_optimal
        # Without an incumbent: one node per variable of the model — the
        # 125 assignments, then the leaf that fixes the cost variable — and
        # nothing to unwind.
        with propagation(engine):
            assignment, statistics, improving = optimizer.search_assignment(
                zone, states, catalog + [Spread(["vm-0", "vm-1"])]
            )
        assert set(assignment) == set(zone.vm_names)
        assert improving == [0] and len(models) == 1
        assert statistics.nodes == len(zone.vm_names) + 1
        assert statistics.backtracks == 0
        assert statistics.proven_optimal

    def test_search_depth_is_not_bounded_by_the_recursion_limit(
        self, large_fleet_factory
    ):
        # 1 250 decisions deep: the spread pair leaves the model without an
        # incumbent, so the first dive places every VM.
        fleet = large_fleet_factory(1250, groups=10)
        states = fleet.states()
        fleet.set_waiting("vm-17")
        report = ClusterContextSwitch(engine="event", optimizer_timeout=5).compute(
            fleet,
            states,
            constraints=fence_groups(fleet, groups=10) + [Spread(["vm-0", "vm-1"])],
        )
        assert report.cost.total == 0
        assert report.plan.action_count() == 1
        assert report.statistics.nodes == 1251
        assert report.statistics.proven_optimal

    @staticmethod
    def _waiting_vms(cpus, node_count):
        """VMs asking ``cpus`` in turn, all waiting, on 2-cpu nodes."""
        configuration = Configuration(
            nodes=make_working_nodes(node_count, cpu_capacity=2, memory_capacity=8192)
        )
        for i, cpu in enumerate(cpus):
            configuration.add_vm(make_vm(f"vm{i}", memory=256, cpu=cpu))
        return configuration, {name: VMState.RUNNING for name in configuration.vm_names}

    def test_an_over_committed_model_is_refused_at_build(self, solves):
        # The shard of the scoreboard's ``medium-faulty`` / ``partitioned``
        # cell: 14 VMs asking 12 cpus of five 2-cpu nodes.
        configuration, states = self._waiting_vms([1] * 12 + [0] * 2, node_count=5)
        assignment, statistics, improving = ContextSwitchOptimizer(
            timeout=30
        ).search_assignment(configuration, states)
        assert assignment is None and improving == []
        assert statistics.nodes == 0 and not statistics.proven_optimal
        assert solves == []

    def test_capacity_is_counted_over_the_nodes_the_domains_reach(self, solves):
        # Six nodes would do; the two the fence allows do not.
        configuration, states = self._waiting_vms([1] * 5, node_count=6)
        fence = Fence(list(configuration.vm_names), ["node-0", "node-1"])
        assignment, statistics, _ = ContextSwitchOptimizer(
            timeout=30
        ).search_assignment(configuration, states, [fence])
        assert assignment is None and statistics.nodes == 0
        assert solves == []

    def test_a_model_exactly_at_capacity_is_searched(self, solves):
        configuration, states = self._waiting_vms([1] * 10, node_count=5)
        optimizer = ContextSwitchOptimizer(timeout=30)
        # First-fit fills the five nodes: the incumbent is the answer.
        assignment, statistics, _ = optimizer.search_assignment(configuration, states)
        assert solves == [] and statistics.proven_optimal
        assert set(assignment) == set(configuration.vm_names)
        # No incumbent: the build must let the model through to the search.
        assignment, statistics, _ = optimizer.search_assignment(
            configuration, states, [Spread(["vm0", "vm1"])]
        )
        assert len(solves) == 1
        assert set(assignment) == set(configuration.vm_names)
        assert statistics.proven_optimal


class TestBudgetCoversTheModelBuild:
    def test_the_solver_gets_what_the_build_left(self, cluster, solves):
        ContextSwitchOptimizer(timeout=5).optimize(
            cluster, {"sleepy": VMState.RUNNING}, constraints=[Spread(["a", "b"])]
        )
        assert len(solves) == 1 and 0 < solves[0]["timeout"] < 5

    def test_a_zero_budget_still_builds_and_propagates_the_root(self, cluster):
        # What the round benchmark's probe relies on to time a model build.
        assignment, statistics, _ = ContextSwitchOptimizer(
            timeout=0.0
        ).search_assignment(
            cluster, {"sleepy": VMState.RUNNING}, [Spread(["a", "b"])]
        )
        assert assignment is None
        assert statistics.timed_out and statistics.propagations > 0
        assert statistics.nodes == 1 and statistics.elapsed >= 0.0

    def test_a_fenced_solve_out_of_budget_answers_with_its_incumbent(self):
        # One VM of node-0 grows until the node is a cpu short; keep-in-place
        # leaves four of the five where they are and sends the last one, the
        # 2 GB one, next door (2 048) where moving a 1 GB one would do.
        # Under a catalog the search used to start without that placement:
        # a budget too small to find one found nothing, and the round went
        # to the FFD target, which re-packs the whole fenced zone.
        zone = make_large_fleet(125, groups=1, cached=False)
        zone.replace_vm(make_vm("vm-62", memory=1024, cpu=7))
        zone.replace_vm(make_vm("vm-124", memory=2048, cpu=1))
        assert not zone.is_viable()
        states = zone.states()
        catalog = fence_groups(zone, groups=1)
        optimizer = ContextSwitchOptimizer(timeout=30)
        result = optimizer.optimize(
            zone, states, constraints=catalog, deadline=time.monotonic()
        )
        assert result.statistics.timed_out
        assert result.cost == 2048 and result.plan.action_count() == 1
        assert result.target.is_viable()
        assert violated_constraints(result.target, catalog) == []
        assert result.plan.constraint_violations == []
        # With a budget, the incumbent is the bound the search prunes with.
        result = optimizer.optimize(zone, states, constraints=catalog)
        assert result.cost == 1024 and result.statistics.proven_optimal
