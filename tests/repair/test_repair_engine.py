"""Unit tests of the repair engine: dirty rules, LNS schedule, composition."""

import pytest

from repro.constraints import Ban, Fence, Spread
from repro.core.optimizer import ContextSwitchOptimizer, OptimizationResult
from repro.cp import Solver
from repro.model.configuration import Configuration
from repro.model.errors import PlanningError
from repro.model.node import Node
from repro.model.vm import VirtualMachine, VMState
from repro.obs import Tracer
from repro.repair import RepairOptimizer, compute_dirty_set
from repro.scale import ParallelOptimizer


def _fleet(node_count=6, vms_per_node=2, cpu=2, memory=4096, vm_memory=512):
    configuration = Configuration()
    for i in range(node_count):
        configuration.add_node(
            Node(name=f"n{i}", cpu_capacity=cpu, memory_capacity=memory)
        )
    names = []
    for i in range(node_count):
        for j in range(vms_per_node):
            vm = VirtualMachine(
                name=f"vm{i}-{j}", memory=vm_memory, cpu_demand=0
            )
            configuration.add_vm(vm)
            configuration.set_running(vm.name, f"n{i}")
            names.append(vm.name)
    return configuration, names


def _states(names):
    return {name: VMState.RUNNING for name in names}


class TestComputeDirtySet:
    def test_marks_are_filtered_to_the_running_set(self):
        configuration, names = _fleet()
        dirty = compute_dirty_set(
            configuration,
            _states(names),
            names,
            marks=["vm0-0", "ghost"],
            previous={n: configuration.location_of(n) for n in names},
            halo=0,
        )
        assert "vm0-0" in dirty
        assert "ghost" not in dirty

    def test_vms_needing_placement_are_dirty(self):
        configuration, names = _fleet()
        configuration.set_waiting("vm1-0")
        dirty = compute_dirty_set(
            configuration,
            _states(names),
            names,
            previous={n: configuration.location_of(n) for n in names},
            halo=0,
        )
        assert dirty == {"vm1-0"}

    def test_divergence_from_previous_assignment_is_dirty(self):
        configuration, names = _fleet()
        previous = {n: configuration.location_of(n) for n in names}
        previous["vm2-1"] = "n5"  # the plan said n5, execution left it on n2
        dirty = compute_dirty_set(
            configuration, _states(names), names, previous=previous, halo=0
        )
        assert dirty == {"vm2-1"}

    def test_shrunken_fence_invalidates_frozen_placements(self):
        # satellite 3: an elastic Fence that lost a node must dirty the
        # members still placed on the now-retired domain
        configuration, names = _fleet()
        fence = Fence(["vm3-0", "vm3-1"], ["n0"])  # members live on n3
        dirty = compute_dirty_set(
            configuration,
            _states(names),
            names,
            constraints=[fence],
            previous={n: configuration.location_of(n) for n in names},
            halo=0,
        )
        assert {"vm3-0", "vm3-1"} <= dirty

    def test_relational_groups_dirty_together(self):
        configuration, names = _fleet()
        spread = Spread(["vm0-0", "vm4-0"])
        dirty = compute_dirty_set(
            configuration,
            _states(names),
            names,
            constraints=[spread],
            marks=["vm0-0"],
            previous={n: configuration.location_of(n) for n in names},
            halo=0,
        )
        assert {"vm0-0", "vm4-0"} <= dirty

    def test_unary_constraints_do_not_chain_the_group(self):
        configuration, names = _fleet()
        # a Ban over two VMs is per-VM: marking one must not dirty the other
        ban = Ban(["vm0-0", "vm4-0"], ["n5"])
        dirty = compute_dirty_set(
            configuration,
            _states(names),
            names,
            constraints=[ban],
            marks=["vm0-0"],
            previous={n: configuration.location_of(n) for n in names},
            halo=0,
        )
        assert "vm0-0" in dirty
        assert "vm4-0" not in dirty

    def test_halo_expands_to_co_hosted_vms(self):
        configuration, names = _fleet()
        previous = {n: configuration.location_of(n) for n in names}
        no_halo = compute_dirty_set(
            configuration, _states(names), names,
            marks=["vm2-0"], previous=previous, halo=0,
        )
        one_halo = compute_dirty_set(
            configuration, _states(names), names,
            marks=["vm2-0"], previous=previous, halo=1,
        )
        assert no_halo == {"vm2-0"}
        assert one_halo == {"vm2-0", "vm2-1"}  # the co-hosted sibling

    def test_deterministic(self):
        configuration, names = _fleet()
        previous = {n: configuration.location_of(n) for n in names}
        kwargs = dict(marks=["vm1-0", "vm5-1"], previous=previous, halo=2)
        first = compute_dirty_set(
            configuration, _states(names), names, **kwargs
        )
        second = compute_dirty_set(
            configuration, _states(names), names, **kwargs
        )
        assert first == second


class TestRepairOptimizer:
    def _warm_engine(self, timeout=5.0, halo=1):
        configuration, names = _fleet()
        engine = RepairOptimizer(
            ContextSwitchOptimizer(timeout=timeout), timeout=timeout, halo=halo
        )
        cold = engine.optimize(configuration, _states(names))
        assert isinstance(cold, OptimizationResult)
        assert cold.repair["mode"] == "full"
        assert "cold start" in cold.repair["reason"]
        return engine, cold.target, names

    def test_cold_start_falls_back_to_the_full_solve(self):
        self._warm_engine()

    def test_perturbed_round_repairs_and_freezes_the_clean_region(self):
        engine, current, names = self._warm_engine()
        current.set_waiting("vm0-0")
        engine.mark_dirty(["vm0-0"])
        before = {
            vm: current.location_of(vm)
            for vm in names
            if current.state_of(vm) is VMState.RUNNING
        }
        result = engine.optimize(current, _states(names))
        repair = result.repair
        assert set(repair) == {
            "mode",
            "reason",
            "dirty_count",
            "frozen_count",
            "attempts",
            "reused_zones",
        }
        assert repair["mode"] == "repair"
        assert repair["attempts"] == 1
        assert repair["dirty_count"] >= 1
        assert repair["frozen_count"] == len(before) - (
            repair["dirty_count"] - 1
        )
        # every frozen VM kept its placement
        moved = [
            vm
            for vm, host in before.items()
            if result.target.location_of(vm) != host
        ]
        assert len(moved) <= repair["dirty_count"]
        assert result.target.state_of("vm0-0") is VMState.RUNNING
        # incremental solves never claim global optimality
        assert not result.statistics.proven_optimal

    def test_widening_releases_frozen_vms_when_the_region_is_too_tight(self):
        configuration = Configuration()
        for i in range(2):
            configuration.add_node(
                Node(name=f"n{i}", cpu_capacity=4, memory_capacity=1024)
            )
        for name, memory, host in (("a", 300, "n0"), ("b", 300, "n1")):
            configuration.add_vm(VirtualMachine(name=name, memory=memory))
            configuration.set_running(name, host)
        configuration.add_vm(VirtualMachine(name="c", memory=800))
        states = {n: VMState.RUNNING for n in ("a", "b", "c")}
        engine = RepairOptimizer(
            ContextSwitchOptimizer(timeout=5.0), timeout=5.0, halo=0
        )
        engine._previous = {"a": "n0", "b": "n1"}
        result = engine.optimize(configuration, states)
        # frozen a+b leave no node with 800 MB free: the engine must widen
        # (or fall back) rather than fail
        assert result.target.state_of("c") is VMState.RUNNING
        assert result.repair["attempts"] >= 2
        if result.repair["mode"] == "repair":
            assert "widening" in result.repair["reason"]

    def test_previous_assignment_tracks_accepted_rounds(self):
        engine, current, names = self._warm_engine()
        assert engine.previous_assignment is not None
        assert set(engine.previous_assignment) == set(names)
        engine.forget()
        assert engine.previous_assignment is None

    def test_marks_are_consumed_by_the_next_solve(self):
        engine, current, names = self._warm_engine()
        engine.mark_dirty(["vm0-0"])
        engine.optimize(current, _states(names))
        assert engine._marks == set()

    def test_deterministic_across_fresh_engines(self):
        def run():
            configuration, names = _fleet()
            engine = RepairOptimizer(
                ContextSwitchOptimizer(timeout=5.0), timeout=5.0
            )
            engine.optimize(configuration, _states(names))
            configuration.set_waiting("vm0-0")
            configuration.set_waiting("vm3-1")
            engine.mark_dirty(["vm0-0", "vm3-1"])
            result = engine.optimize(configuration, _states(names))
            return result.repair["mode"], {
                vm: result.target.location_of(vm) for vm in names
            }

        assert run() == run()

    @staticmethod
    def _unpartitionable_round(engine):
        """A cold round, then a warm one with one arrival, on a fleet the
        partitioner cannot split (no catalog, sharding off).  The arrival's
        image sleeps on the one node without room for it, so keeping it home
        is not an answer and the attempt has to search."""
        configuration, names = _fleet(node_count=4, vms_per_node=1)
        for name in ("extra-0", "extra-1"):
            configuration.add_vm(VirtualMachine(name=name, memory=512))
            configuration.set_running(name, "n0")
            names.append(name)
        current = engine.optimize(configuration, _states(names)).target
        current.add_vm(VirtualMachine(name="arrival", memory=3072))
        current.set_sleeping("arrival", "n0")
        names.append("arrival")
        engine.mark_dirty(["arrival"])
        return current, names

    def test_no_engine_timeout_is_written_during_solve(self, monkeypatch):
        inner = ParallelOptimizer(
            timeout=5.0, shards=None, zone_executor="serial"
        )
        engine = RepairOptimizer(inner, timeout=5.0)
        written = []

        def spy(self, name, value):
            if name == "timeout" and (self is engine or self is inner):
                written.append((type(self).__name__, value))
            object.__setattr__(self, name, value)

        monkeypatch.setattr(RepairOptimizer, "__setattr__", spy, raising=False)
        monkeypatch.setattr(
            ContextSwitchOptimizer, "__setattr__", spy, raising=False
        )
        current, names = self._unpartitionable_round(engine)
        result = engine.optimize(current, _states(names))
        assert result.repair["mode"] == "repair"
        # the budget travels as an argument: nothing to restore afterwards
        assert written == []
        assert (engine.timeout, inner.timeout) == (5.0, 5.0)

    def test_attempt_fallback_gets_the_round_budget(self, monkeypatch):
        # the partition is not a win, so the attempt is solved by the
        # partitioned engine's monolithic path — under the round's 0.2 s,
        # not the 10 s the inner engine was constructed with
        engine = RepairOptimizer(
            ParallelOptimizer(timeout=10.0, shards=None, zone_executor="serial"),
            timeout=0.2,
        )
        current, names = self._unpartitionable_round(engine)
        budgets = []
        solve = Solver.solve

        def spy(self, *args, **kwargs):
            budgets.append(kwargs["timeout"])
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(Solver, "solve", spy)
        result = engine.optimize(current, _states(names))
        assert result.partition_method == "monolithic"
        assert result.repair["mode"] == "repair"
        assert len(budgets) == 1 and 0 < budgets[0] <= 0.2

    @pytest.mark.parametrize(
        "warm, marks, timeout, expected",
        [
            pytest.param(
                False,
                [],
                5.0,
                {
                    "reason": "cold start (no previous assignment)",
                    "attempts": 1,
                    "dirty_count": 12,
                },
                id="cold-start",
            ),
            pytest.param(
                True,
                "all",
                5.0,
                {
                    "reason": "dirty region covers the whole fleet",
                    "attempts": 1,
                    "dirty_count": 12,
                },
                id="dirty-region-covers-the-fleet",
            ),
            pytest.param(
                True,
                ["vm0-0"],
                0.01,
                {
                    "reason": "neighbourhood budget exhausted",
                    "attempts": 2,
                    "dirty_count": 2,
                },
                id="budget-exhausted-after-an-attempt",
            ),
            pytest.param(
                True,
                ["vm0-0"],
                5.0,
                {
                    "reason": "neighbourhood schedule exhausted (3 attempts)",
                    "attempts": 4,
                    "dirty_count": 8,
                },
                id="schedule-exhausted",
            ),
        ],
    )
    def test_every_way_into_the_full_solve(self, warm, marks, timeout, expected):
        """The four ways :meth:`RepairOptimizer.optimize` reaches the full
        solve, each with the telemetry and the ``full-solve`` span it has
        always recorded."""

        class _NoFrozenRegionFits:
            """Refuses every attempt with a frozen region; the full solve
            goes to a real optimizer on its own budget, so a starved round
            still plans."""

            def __init__(self):
                self.full_solves = []

            def optimize(self, *args, frozen=frozenset(), timeout=None, **kwargs):
                if frozen:
                    raise PlanningError("the frozen region is too tight")
                self.full_solves.append(timeout)
                return ContextSwitchOptimizer(timeout=5.0).optimize(
                    *args, **kwargs
                )

        configuration, names = _fleet()
        inner = _NoFrozenRegionFits()
        engine = RepairOptimizer(inner, timeout=timeout, halo=0)
        if warm:
            engine._previous = dict(configuration.iter_placement())
            configuration.set_waiting("vm0-0")
        engine.mark_dirty(names if marks == "all" else marks)
        tracer = Tracer()
        with tracer.activate():
            result = engine.optimize(configuration, _states(names))
        assert result.repair == {
            "mode": "full",
            "frozen_count": 0,
            "reused_zones": 0,
            **expected,
        }
        # one full solve, handed what the attempts left of the budget, under
        # one span carrying the same reason and count
        [budget] = inner.full_solves
        assert 0 < budget <= timeout
        [full_solve] = [
            s for s in tracer.root.walk() if s.name == "full-solve"
        ]
        assert full_solve.attributes == {
            "reason": expected["reason"],
            "dirty": expected["dirty_count"],
        }
        assert engine.previous_assignment == dict(
            result.target.iter_placement()
        )

    def test_widening_reads_live_room_and_counts_leaving_vms_as_free(self):
        """Each widening step releases the VMs frozen on the emptiest
        nodes, where a node's room is its live free capacity plus what its
        leaving VMs hold: ``n1`` looks full (512 MB free) but ``l`` is being
        suspended, so it is the emptiest (3 584 MB); the crowded ``n0`` is
        the fullest and keeps its VMs frozen."""
        configuration = Configuration()
        for i in range(4):
            configuration.add_node(
                Node(name=f"n{i}", cpu_capacity=4, memory_capacity=4096)
            )
        for name, memory, host in (
            ("p", 2048, "n0"),
            ("q", 2048, "n0"),
            ("r", 1024, "n0"),
            ("s", 512, "n1"),
            ("l", 3072, "n1"),
            ("t", 2048, "n2"),
            ("u", 1024, "n3"),
        ):
            configuration.add_vm(VirtualMachine(name=name, memory=memory))
            configuration.set_running(name, host)
        configuration.add_vm(VirtualMachine(name="w", memory=512))
        states = {
            **_states(configuration.vm_names),
            "l": VMState.SLEEPING,
        }
        frozen_regions = []

        class _Recording:
            """Records every attempt's frozen region and refuses it."""

            def optimize(self, *args, frozen=frozenset(), **kwargs):
                if frozen:
                    frozen_regions.append(set(frozen))
                    raise PlanningError("the frozen region is too tight")
                return ContextSwitchOptimizer(timeout=5.0).optimize(
                    *args, **kwargs
                )

        engine = RepairOptimizer(_Recording(), timeout=5.0, halo=0)
        engine._previous = dict(configuration.iter_placement())
        result = engine.optimize(configuration, states)
        assert frozen_regions == [
            {"p", "q", "r", "s", "t", "u"},
            {"p", "q", "r", "t", "u"},  # n1 (counting l) released s
            {"p", "q", "r", "t"},  # then n3 released u
        ]
        assert result.repair["mode"] == "full"
        assert result.target.is_viable()

    def test_close_forwards_to_the_inner_optimizer(self):
        closed = []

        class _Inner:
            timeout = 1.0

            def close(self):
                closed.append(True)

        RepairOptimizer(_Inner()).close()
        assert closed == [True]


class TestPartitionedComposition:
    def test_untouched_zones_are_reused_verbatim(self):
        configuration, names = _fleet(node_count=6, vms_per_node=2)
        zone_a = [n for n in names if int(n[2]) < 3]
        zone_b = [n for n in names if int(n[2]) >= 3]
        fences = [
            Fence(zone_a, ["n0", "n1", "n2"]),
            Fence(zone_b, ["n3", "n4", "n5"]),
        ]
        inner = ParallelOptimizer(timeout=5.0, zone_executor="serial")
        engine = RepairOptimizer(inner, timeout=5.0, halo=0)
        cold = engine.optimize(
            configuration, _states(names), constraints=fences
        )
        assert cold.repair["mode"] == "full"
        current = cold.target
        current.set_waiting("vm0-0")
        engine.mark_dirty(["vm0-0"])
        result = engine.optimize(
            current, _states(names), constraints=fences
        )
        assert result.repair["mode"] == "repair"
        # the untouched fence zone was never shipped to a worker
        assert result.repair["reused_zones"] >= 1
        for vm in zone_b:
            assert result.target.location_of(vm) == current.location_of(vm)


def _digest(result):
    """Everything two engines must agree on for one round."""
    return {
        "placement": dict(result.target.iter_placement()),
        "states": result.target.states(),
        "pools": [[str(action) for action in pool] for pool in result.plan.pools],
        "cost": result.cost,
        "repair": result.repair,
        "violations": [str(v) for v in result.plan.constraint_violations],
    }


class TestRetention:
    """What the engine keeps between rounds is dropped by the key alone:
    after each kind of change the long-lived engine plans the round a fresh
    engine, handed the same previous assignment, plans."""

    @staticmethod
    def _engine():
        return RepairOptimizer(
            ParallelOptimizer(timeout=5.0, zone_executor="serial"), timeout=5.0
        )

    @pytest.fixture
    def partitions(self, monkeypatch):
        """How many times the partition body ran."""
        from repro.scale import parallel

        calls = []
        real = parallel.partition

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(parallel, "partition", spy)
        return calls

    def _warm(self, elastic=False):
        """A fenced fleet after a cold round and one warm round: the engine
        holds a previous assignment, the domains and the decomposition."""
        configuration, names = _fleet(node_count=6, vms_per_node=2, cpu=4)
        fences = [
            Fence(
                [n for n in names if int(n[2]) < 3], ["n0", "n1", "n2"], elastic
            ),
            Fence(
                [n for n in names if int(n[2]) >= 3], ["n3", "n4", "n5"], elastic
            ),
        ]
        engine = self._engine()
        states = _states(names)
        current = engine.optimize(configuration, states, constraints=fences).target
        current.set_waiting("vm4-0")
        engine.mark_dirty(["vm4-0"])
        warm = engine.optimize(current, states, constraints=fences)
        assert warm.repair["mode"] == "repair"
        return engine, warm.target, states, fences

    def _assert_same_as_fresh(self, engine, current, states, fences, marks=()):
        fresh = self._engine()
        fresh._previous = dict(engine.previous_assignment)
        engine.mark_dirty(marks)
        fresh.mark_dirty(marks)
        kept = engine.optimize(current.copy(), states, constraints=fences)
        anew = fresh.optimize(current.copy(), states, constraints=fences)
        assert _digest(kept) == _digest(anew)
        return kept

    def test_a_quiet_catalog_and_fleet_reuse_the_decomposition(self, partitions):
        engine, current, states, fences = self._warm()
        partitions.clear()
        current.set_waiting("vm1-1")
        result = self._assert_same_as_fresh(
            engine, current, states, fences, marks=["vm1-1"]
        )
        assert result.repair["mode"] == "repair"
        assert len(partitions) == 1  # the fresh engine's, not the kept one's

    def test_a_crashed_node_recomputes(self, partitions):
        engine, current, states, fences = self._warm()
        victims = list(current.vms_on("n2"))
        for vm in victims:
            current.set_waiting(vm)
        current.remove_node("n2")
        partitions.clear()
        result = self._assert_same_as_fresh(
            engine, current, states, fences, marks=victims
        )
        assert len(partitions) == 2
        assert all(result.target.location_of(vm) != "n2" for vm in victims)

    def test_repaired_constraints_recompute(self, partitions):
        engine, current, states, fences = self._warm(elastic=True)
        victims = list(current.vms_on("n2"))
        for vm in victims:
            current.set_waiting(vm)
        current.remove_node("n2")
        repaired = [fence.on_node_failure("n2") for fence in fences]
        assert repaired[0] is not fences[0] and repaired[1] is fences[1]
        partitions.clear()
        self._assert_same_as_fresh(engine, current, states, repaired, marks=victims)
        assert len(partitions) == 2

    def test_an_arriving_vm_recomputes(self, partitions):
        engine, current, states, fences = self._warm()
        current.add_vm(VirtualMachine(name="arrival", memory=512))
        states = {**states, "arrival": VMState.RUNNING}
        partitions.clear()
        result = self._assert_same_as_fresh(
            engine, current, states, fences, marks=["arrival"]
        )
        assert len(partitions) == 2
        assert result.target.state_of("arrival") is VMState.RUNNING

    def test_a_departing_vm_recomputes(self, partitions):
        engine, current, states, fences = self._warm()
        states = {**states, "vm5-1": VMState.TERMINATED}
        current.set_waiting("vm0-1")
        partitions.clear()
        result = self._assert_same_as_fresh(
            engine, current, states, fences, marks=["vm0-1"]
        )
        assert len(partitions) == 2
        assert result.target.state_of("vm5-1") is VMState.TERMINATED

    def test_a_demand_change_is_read_live(self, partitions):
        # Nothing kept holds a demand or a free capacity: the overloaded
        # host is solved from the live columns, under the kept zones.
        engine, current, states, fences = self._warm()
        host = current.location_of("vm1-0")
        current.replace_vm(current.vm("vm1-0").with_cpu_demand(4))
        current.replace_vm(current.vm("vm1-1").with_cpu_demand(1))
        assert not current.is_viable()
        partitions.clear()
        result = self._assert_same_as_fresh(
            engine, current, states, fences, marks=["vm1-0"]
        )
        assert len(partitions) == 1  # the fresh engine's only
        assert result.target.is_viable()
        assert result.target.location_of("vm1-1") != host

    def test_forget_drops_everything(self, partitions):
        engine, current, states, fences = self._warm()
        generation = engine.domains.generation
        engine.forget()
        assert engine.previous_assignment is None
        assert engine.domains.generation is not generation
        partitions.clear()
        result = engine.optimize(current, states, constraints=fences)
        assert result.repair["reason"] == "cold start (no previous assignment)"
        assert len(partitions) == 1
        assert _digest(result) == _digest(
            self._engine().optimize(current, states, constraints=fences)
        )
