"""Unit tests of the repair engine: dirty rules, one attempt then the full
solve, composition."""

import pytest

from repro.constraints import Ban, Fence, RunningCapacity, Spread
from repro.constraints.checker import check_plan
from repro.constraints.domains import RetainedDomains
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

    def test_residents_of_an_overloaded_host_are_dirty(self):
        # Nobody marked n3, but its two VMs ask three of its two cpus: the
        # host cannot keep them both, so neither is frozen there.
        configuration, names = _fleet()
        configuration.replace_vm(configuration.vm("vm3-0").with_cpu_demand(2))
        configuration.replace_vm(configuration.vm("vm3-1").with_cpu_demand(1))
        dirty = compute_dirty_set(
            configuration,
            _states(names),
            names,
            previous={n: configuration.location_of(n) for n in names},
            halo=0,
        )
        assert dirty == {"vm3-0", "vm3-1"}

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


class _NoFrozenRegionFits:
    """Refuses every attempt with a frozen region after burning ``burn``
    seconds of ``clock``; the full solve goes to a real optimizer under the
    deadline it is handed.  Records the deadline of every call."""

    def __init__(self, clock, burn=0.0):
        self.clock = clock
        self.burn = burn
        self.attempts = []
        self.full_solves = []
        self.domains = RetainedDomains()

    def optimize(self, *args, dirty=None, deadline=None, **kwargs):
        if dirty is not None:
            self.attempts.append(deadline)
            self.clock.advance(self.burn)
            raise PlanningError("the frozen region is too tight")
        self.full_solves.append(deadline)
        return ContextSwitchOptimizer(timeout=5.0).optimize(
            *args, deadline=deadline, **kwargs
        )


class TestRepairOptimizer:
    def _warm_engine(self, timeout=5.0, halo=1):
        configuration, names = _fleet()
        engine = RepairOptimizer(
            ContextSwitchOptimizer(timeout=timeout), timeout=timeout, halo=halo
        )
        first = engine.optimize(configuration, _states(names))
        assert isinstance(first, OptimizationResult)
        # Nothing marked, waiting or overloaded: against the observed
        # placement the dirty region is empty and every VM stays frozen.
        assert first.repair == {
            "mode": "repair",
            "reason": "repaired within the dirty region",
            "dirty_count": 0,
            "frozen_count": len(names),
            "attempts": 1,
        }
        assert first.cost == 0 and not first.statistics.proven_optimal
        return engine, first.target, names

    def test_a_first_round_repairs_against_the_observed_placement(self):
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

    def test_an_unmarked_overloaded_host_is_repaired_in_one_attempt(self):
        # A demand rises under the warm engine and nobody marks it: the
        # dirty rule frees the residents of the overloaded host, so the one
        # attempt repairs around the frozen rest.
        engine, current, names = self._warm_engine()
        current.replace_vm(current.vm("vm0-0").with_cpu_demand(2))
        current.replace_vm(current.vm("vm0-1").with_cpu_demand(1))
        assert not current.is_viable()
        result = engine.optimize(current, _states(names))
        assert result.repair["mode"] == "repair"
        assert result.repair["attempts"] == 1
        assert result.repair["dirty_count"] == 2
        assert result.target.is_viable()

    def test_a_region_too_tight_ends_in_the_full_solve(self):
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
        # frozen a+b leave no node with 800 MB free: the attempt finds
        # nothing and the full solve moves one of them
        assert result.target.state_of("c") is VMState.RUNNING
        assert result.repair["mode"] == "full"
        assert result.repair["attempts"] == 2
        assert result.repair["reason"] == (
            "the repair attempt found no viable assignment"
        )

    def test_previous_assignment_tracks_accepted_rounds(self):
        engine, current, names = self._warm_engine()
        assert engine.previous_assignment is not None
        assert set(engine.previous_assignment) == set(names)
        engine.forget()
        assert engine.previous_assignment is None

    def test_previous_assignment_read_before_a_round_is_unchanged_after_it(self):
        # The engine updates its own assignment in place from what a round
        # moves: what a reader took before the round stays as it was.
        engine, current, names = self._warm_engine()
        before = engine.previous_assignment
        kept = dict(before)
        with pytest.raises(TypeError):
            before["vm0-0"] = "node-5"
        # ``vm0-0`` is suspended: it leaves the assignment.
        states = {**_states(names), "vm0-0": VMState.SLEEPING}
        result = engine.optimize(current, states)
        assert result.repair["mode"] == "repair"
        assert dict(before) == kept and "vm0-0" in before
        after = engine.previous_assignment
        assert dict(after) == result.target.placement()
        assert "vm0-0" not in after

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
                ["vm0-0"],
                5.0,
                {
                    "reason": "the repair attempt found no viable assignment",
                    "attempts": 2,
                    "dirty_count": 1,
                },
                id="first-round-the-attempt-found-nothing",
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
                5.0,
                {
                    "reason": "the repair attempt found no viable assignment",
                    "attempts": 2,
                    "dirty_count": 1,
                },
                id="the-attempt-found-nothing",
            ),
        ],
    )
    def test_every_way_into_the_full_solve(
        self, clock, warm, marks, timeout, expected
    ):
        """The two ways :meth:`RepairOptimizer.optimize` reaches the full
        solve — a first round takes them as a later one does — each with
        the telemetry and the ``full-solve`` span it records."""
        configuration, names = _fleet()
        inner = _NoFrozenRegionFits(clock)
        engine = RepairOptimizer(inner, timeout=timeout, halo=0)
        if warm:
            engine._previous = configuration.placement()
            configuration.set_waiting("vm0-0")
        engine.mark_dirty(names if marks == "all" else marks)
        tracer = Tracer()
        started = clock.now
        with tracer.activate():
            result = engine.optimize(configuration, _states(names))
        assert result.repair == {
            "mode": "full",
            "frozen_count": 0,
            **expected,
        }
        # one full solve, handed the round's deadline, under one span
        # carrying the same reason and count
        assert inner.full_solves == [started + timeout]
        [full_solve] = [
            s for s in tracer.root.walk() if s.name == "full-solve"
        ]
        assert full_solve.attributes == {
            "reason": expected["reason"],
            "dirty": expected["dirty_count"],
        }
        # the round's one attempt, refused
        assert [
            s.attributes for s in tracer.root.walk() if s.name == "repair-attempt"
        ] == (
            [{"dirty": 1, "frozen": 11, "failed": True}]
            if expected["attempts"] == 2
            else []
        )
        assert engine.previous_assignment == result.target.placement()

    def test_a_starved_attempt_leaves_the_full_solve_the_same_deadline(
        self, clock
    ):
        """The attempt burns the round's budget and more: the full solve
        gets the same deadline, not a floor on top of it, and the round
        still answers — with the incumbent, at its bound."""
        configuration, names = _fleet()
        inner = _NoFrozenRegionFits(clock, burn=7.0)
        engine = RepairOptimizer(inner, timeout=5.0, halo=0)
        engine._previous = configuration.placement()
        configuration.set_waiting("vm0-0")
        engine.mark_dirty(["vm0-0"])
        started = clock.now
        result = engine.optimize(configuration, _states(names))
        assert inner.attempts == inner.full_solves == [started + 5.0]
        assert clock.now > inner.full_solves[0]
        assert result.repair["mode"] == "full"
        assert result.statistics.proven_optimal and result.cost == 0
        assert result.target.is_viable()

    def test_close_forwards_to_the_inner_optimizer(self):
        closed = []

        class _Inner:
            timeout = 1.0
            domains = RetainedDomains()

            def close(self):
                closed.append(True)

        RepairOptimizer(_Inner()).close()
        assert closed == [True]


class TestZonesServeTheFullSolveOnly:
    """Under ``repair-partitioned`` the attempt is the ``repair`` engine's:
    the keep-in-place pass, then one cut of the dirty VMs, with no
    decomposition; only the full solve partitions."""

    @staticmethod
    def _fenced():
        configuration, names = _fleet(node_count=6, vms_per_node=2)
        fences = [
            Fence([n for n in names if int(n[2]) < 3], ["n0", "n1", "n2"]),
            Fence([n for n in names if int(n[2]) >= 3], ["n3", "n4", "n5"]),
        ]
        engine = RepairOptimizer(
            ParallelOptimizer(timeout=5.0, zone_executor="serial"), timeout=5.0
        )
        current = engine.optimize(
            configuration, _states(names), constraints=fences
        ).target
        return engine, current, names, fences

    @staticmethod
    def _traced(engine, current, names, catalog):
        tracer = Tracer()
        with tracer.activate():
            result = engine.optimize(current, _states(names), constraints=catalog)
        return result, tracer.root

    def test_a_warm_attempt_has_no_partition_or_zone(self):
        engine, current, names, fences = self._fenced()
        # vm0-0 grows to fill its host, which must shed vm0-1: the
        # keep-in-place misses the lower bound, so the attempt searches.
        current.replace_vm(VirtualMachine("vm0-0", memory=4096, cpu_demand=0))
        engine.mark_dirty(["vm0-0"])
        result, root = self._traced(engine, current, names, fences)
        assert result.repair["mode"] == "repair"
        assert result.target.location_of("vm0-1") != "n0"
        # The other fence's VMs stay where they are, without a zone.
        for vm in names[6:]:
            assert result.target.location_of(vm) == current.location_of(vm)
        [attempt] = [s for s in root.walk() if s.name == "repair-attempt"]
        inside = [s.name for s in attempt.walk()]
        assert "cp.solve" in inside
        assert not {"partition", "zone"} & {s.name for s in root.walk()}
        assert result.zone_reports == []
        assert result.partition_method == "monolithic"

    def test_a_failed_attempt_partitions_under_the_full_solve(self):
        engine, current, names, fences = self._fenced()
        # The frozen vm0-0 and vm0-1 alone break the relation: the attempt
        # fails with no search, and the full solve is solved by zones.
        current.set_waiting("vm1-0")
        engine.mark_dirty(["vm1-0"])
        catalog = [*fences, RunningCapacity(["n0"], 1)]
        result, root = self._traced(engine, current, names, catalog)
        assert result.repair["mode"] == "full"
        [attempt] = [s for s in root.walk() if s.name == "repair-attempt"]
        assert attempt.attributes["failed"] is True
        assert [s.name for s in attempt.walk()] == ["repair-attempt"]
        [full] = [s for s in root.walk() if s.name == "full-solve"]
        inside = [s.name for s in full.walk()]
        assert inside.count("partition") == 1
        assert inside.count("zone") == len(result.zone_reports) == 2
        assert result.partition_method == "interference"


class TestStayersThatBreakARelation:
    """A warm round whose frozen VMs alone break a relation — here a catalog
    handed over after the cold round — cannot be repaired around them: the
    attempt's cut has no residual, so it searches nothing and the round goes
    to the full solve, which moves them."""

    @pytest.mark.parametrize(
        "partitioned", [False, True], ids=["repair", "repair-partitioned"]
    )
    @pytest.mark.parametrize(
        "relation",
        [
            pytest.param(RunningCapacity(["n0"], 1), id="capacity"),
            pytest.param(Spread(["vm0-0", "vm0-1"]), id="spread"),
        ],
    )
    def test_the_round_goes_to_the_full_solve(self, partitioned, relation):
        configuration, names = _fleet(node_count=6, vms_per_node=2)
        fences = [
            Fence([n for n in names if int(n[2]) < 3], ["n0", "n1", "n2"]),
            Fence([n for n in names if int(n[2]) >= 3], ["n3", "n4", "n5"]),
        ]
        inner = (
            ParallelOptimizer(timeout=5.0, zone_executor="serial")
            if partitioned
            else ContextSwitchOptimizer(timeout=5.0)
        )
        engine = RepairOptimizer(inner, timeout=5.0)
        current = engine.optimize(
            configuration, _states(names), constraints=fences
        ).target
        # vm0-0 and vm0-1 stay on n0; the one dirty VM shares their fence.
        current.set_waiting("vm1-0")
        engine.mark_dirty(["vm1-0"])
        catalog = [*fences, relation]
        tracer = Tracer()
        with tracer.activate():
            result = engine.optimize(current, _states(names), constraints=catalog)
        assert result.repair["mode"] == "full"
        assert result.repair["attempts"] == 2
        [attempt] = [s for s in tracer.root.walk() if s.name == "repair-attempt"]
        assert attempt.attributes["failed"] is True
        assert not [s for s in attempt.walk() if s.name in ("zone", "cp.solve")]
        assert check_plan(result.plan, catalog) == []
        assert relation.is_satisfied_by(result.target)
        assert result.target.location_of("vm1-0") is not None


def _digest(result):
    """Everything two engines must agree on for one round."""
    return {
        "placement": result.target.placement(),
        "states": result.target.states(),
        "pools": [[str(action) for action in pool] for pool in result.plan.pools],
        "cost": result.cost,
        "repair": result.repair,
        "violations": [str(v) for v in result.plan.constraint_violations],
    }


class TestRetention:
    """What the engines keep between rounds is dropped by the key alone:
    after each kind of change the long-lived engine plans the round a fresh
    engine, handed the same previous assignment, plans.  Zones serve
    whole-fleet solves only (a repair attempt cuts no zone), so the cases
    that count partitions run the cold ``partitioned`` engine and add a
    ``Spread`` inside a fence: a relational catalog shuts the keep-in-place
    pass, so every round partitions — the long-lived engine as often as the
    fresh one, since no decomposition is kept.  The repair engine's own
    memory runs ``repair-partitioned``."""

    @staticmethod
    def _engine(repair=False):
        inner = ParallelOptimizer(timeout=5.0, zone_executor="serial")
        return RepairOptimizer(inner, timeout=5.0) if repair else inner

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

    def _warm(self, elastic=False, repair=False, spread=False):
        """A fenced fleet after a first round and a second one: the engine
        holds the domains and, the repair engine, a previous assignment.
        ``spread`` adds a ``Spread`` of two VMs inside the second fence."""
        configuration, names = _fleet(node_count=6, vms_per_node=2, cpu=4)
        fences = [
            Fence(
                [n for n in names if int(n[2]) < 3], ["n0", "n1", "n2"], elastic
            ),
            Fence(
                [n for n in names if int(n[2]) >= 3], ["n3", "n4", "n5"], elastic
            ),
        ]
        if spread:
            fences.append(Spread(["vm3-0", "vm5-0"]))
        engine = self._engine(repair)
        states = _states(names)
        current = engine.optimize(configuration, states, constraints=fences).target
        current.set_waiting("vm4-0")
        engine.mark_dirty(["vm4-0"])
        warm = engine.optimize(current, states, constraints=fences)
        if repair:
            assert warm.repair["mode"] == "repair"
        return engine, warm.target, states, fences

    def _assert_same_as_fresh(self, engine, current, states, fences, marks=()):
        repair = isinstance(engine, RepairOptimizer)
        fresh = self._engine(repair)
        if repair:
            fresh._previous = dict(engine.previous_assignment)
        engine.mark_dirty(marks)
        fresh.mark_dirty(marks)
        kept = engine.optimize(current.copy(), states, constraints=fences)
        anew = fresh.optimize(current.copy(), states, constraints=fences)
        assert _digest(kept) == _digest(anew)
        return kept

    def test_a_quiet_catalog_and_fleet_cut_the_zones_again(self, partitions):
        engine, current, states, fences = self._warm(spread=True)
        partitions.clear()
        current.set_waiting("vm1-1")
        self._assert_same_as_fresh(engine, current, states, fences)
        assert len(partitions) == 2  # each engine cuts its own

    @pytest.mark.parametrize(
        "between, source",
        [("nothing", "journal"), ("forget", "scan"), ("catalog swap", "scan")],
    )
    def test_forget_and_a_new_generation_make_the_next_round_read_the_fleet(
        self, between, source
    ):
        # The engine keeps the change-journal mark beside the domains
        # generation it was taken under: forget() drops it, and a new
        # generation (the same fences as new objects) does not answer.
        engine, current, states, fences = self._warm(repair=True)
        if between == "forget":
            previous = dict(engine.previous_assignment)
            engine.forget()
            # Hand the assignment back so the round is warm.
            engine._previous = previous
        elif between == "catalog swap":
            fences = [Fence(fence.vms, fence.nodes) for fence in fences]
        current.set_waiting("vm1-1")
        tracer = Tracer()
        with tracer.activate():
            result = self._assert_same_as_fresh(
                engine, current, states, fences, marks=["vm1-1"]
            )
        assert result.repair["mode"] == "repair"
        # The long-lived engine's round, then the fresh engine's.
        assert [
            node.attributes["source"]
            for node in tracer.root.walk()
            if node.name == "dirty-set"
        ] == [source, "scan"]

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
        engine, current, states, fences = self._warm(spread=True)
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
        # host is solved from the live columns.
        engine, current, states, fences = self._warm(spread=True)
        host = current.location_of("vm1-0")
        current.replace_vm(current.vm("vm1-0").with_cpu_demand(4))
        current.replace_vm(current.vm("vm1-1").with_cpu_demand(1))
        assert not current.is_viable()
        partitions.clear()
        result = self._assert_same_as_fresh(
            engine, current, states, fences, marks=["vm1-0"]
        )
        assert len(partitions) == 2  # each engine cuts its own
        assert result.target.is_viable()
        assert result.target.location_of("vm1-1") != host

    def test_forget_drops_everything(self, partitions):
        engine, current, states, fences = self._warm(repair=True, spread=True)
        # A full solve (every VM marked) cuts the zones.
        engine.mark_dirty(states)
        current = engine.optimize(current, states, constraints=fences).target
        generation = engine.domains.generation
        engine.forget()
        assert engine.previous_assignment is None
        assert engine.domains.generation is not generation
        partitions.clear()
        result = engine.optimize(current, states, constraints=fences)
        # The next round repairs against the observed placement, as a fresh
        # engine's first round does, and cuts no zone.
        assert result.repair["mode"] == "repair"
        assert result.repair["dirty_count"] == 0
        assert partitions == []
        assert _digest(result) == _digest(
            self._engine(repair=True).optimize(current, states, constraints=fences)
        )
        # The next full solve cuts the zones again.
        partitions.clear()
        engine.mark_dirty(states)
        assert engine.optimize(current, states, constraints=fences).repair[
            "mode"
        ] == "full"
        assert len(partitions) == 1
