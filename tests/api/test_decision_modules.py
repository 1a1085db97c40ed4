"""Protocol conformance of the four built-in decision modules."""

import pytest

from repro.api import (
    Decision,
    DecisionModule,
    available_decision_modules,
    get_decision_module,
    needs_switch,
    stop_terminated_vms,
)
from repro.model import (
    Configuration,
    UnknownVMError,
    VJobQueue,
    VJobState,
    VMState,
    make_working_nodes,
)
from repro.testing import make_vjob

PAPER_POLICIES = ("consolidation", "fcfs", "ffd", "rjsp")


def two_vjob_setup():
    """Two 2-VM vjobs on a roomy 2-node cluster, nothing running yet."""
    configuration = Configuration(
        nodes=make_working_nodes(2, cpu_capacity=2, memory_capacity=4096)
    )
    first = make_vjob("first", vm_count=2, priority=1)
    second = make_vjob("second", vm_count=2, priority=2)
    for vjob in (first, second):
        for vm in vjob.vms:
            configuration.add_vm(vm)
    return configuration, VJobQueue([first, second])


class TestProtocolConformance:
    @pytest.mark.parametrize("name", PAPER_POLICIES)
    def test_module_satisfies_the_protocol(self, name):
        module = get_decision_module(name)
        assert isinstance(module, DecisionModule)
        assert module.name == name

    @pytest.mark.parametrize("name", PAPER_POLICIES)
    def test_decide_returns_a_unified_decision(self, name):
        configuration, queue = two_vjob_setup()
        decision = get_decision_module(name).decide(configuration, queue)
        assert isinstance(decision, Decision)
        assert set(decision.vm_states) == {
            "first.vm0", "first.vm1", "second.vm0", "second.vm1",
        }
        assert all(isinstance(s, VMState) for s in decision.vm_states.values())
        assert decision.vjob_states["first"] is VJobState.RUNNING
        assert decision.vjob_states["second"] is VJobState.RUNNING

    @pytest.mark.parametrize("name", PAPER_POLICIES)
    def test_terminated_vjobs_are_stopped_by_every_policy(self, name):
        configuration, queue = two_vjob_setup()
        done = queue.get("first")
        done.run()
        configuration.set_running("first.vm0", "node-0")
        configuration.set_running("first.vm1", "node-1")
        done.terminate()
        decision = get_decision_module(name).decide(configuration, queue)
        assert decision.vm_states["first.vm0"] is VMState.TERMINATED
        assert decision.vm_states["first.vm1"] is VMState.TERMINATED

    @pytest.mark.parametrize("name", available_decision_modules())
    def test_every_registered_policy_conforms(self, name):
        assert isinstance(get_decision_module(name), DecisionModule)


class TestPolicyCharacter:
    """The policies must keep their distinguishing behaviours."""

    def overloaded_setup(self):
        """Two running 2-VM vjobs demanding 4 units on a 2-unit cluster."""
        configuration = Configuration(
            nodes=make_working_nodes(2, cpu_capacity=1, memory_capacity=4096)
        )
        high = make_vjob("high", vm_count=2, priority=1)
        low = make_vjob("low", vm_count=2, priority=2)
        high.run()
        low.run()
        for vjob in (high, low):
            for vm in vjob.vms:
                configuration.add_vm(vm)
        configuration.set_running("high.vm0", "node-0")
        configuration.set_running("high.vm1", "node-1")
        configuration.set_running("low.vm0", "node-0")
        configuration.set_running("low.vm1", "node-1")
        return configuration, VJobQueue([high, low])

    def test_consolidation_suspends_the_overflow(self):
        configuration, queue = self.overloaded_setup()
        decision = get_decision_module("consolidation").decide(configuration, queue)
        assert decision.vjob_states["high"] is VJobState.RUNNING
        assert decision.vjob_states["low"] is VJobState.SLEEPING
        assert decision.vm_states["low.vm0"] is VMState.SLEEPING

    def test_fcfs_never_suspends_started_vjobs(self):
        configuration, queue = self.overloaded_setup()
        decision = get_decision_module("fcfs").decide(configuration, queue)
        # Static allocation: both vjobs already hold their booking.
        assert decision.vjob_states["high"] is VJobState.RUNNING
        assert decision.vjob_states["low"] is VJobState.RUNNING
        assert VMState.SLEEPING not in decision.vm_states.values()

    def test_fcfs_blocks_the_queue_without_backfilling(self):
        configuration = Configuration(
            nodes=make_working_nodes(2, cpu_capacity=1, memory_capacity=4096)
        )
        big = make_vjob("big", vm_count=2, priority=1)  # books both CPUs... if started
        blocker = make_vjob("blocker", vm_count=4, priority=0)  # can never fit
        small = make_vjob("small", vm_count=1, priority=2)
        for vjob in (blocker, big, small):
            for vm in vjob.vms:
                configuration.add_vm(vm)
        queue = VJobQueue([blocker, big, small])

        strict = get_decision_module("fcfs", backfilling="none").decide(
            configuration, queue
        )
        # blocker (4 CPUs on a 2-CPU cluster) blocks everything behind it
        assert strict.vjob_states["blocker"] is VJobState.WAITING
        assert strict.vjob_states["big"] is VJobState.WAITING
        assert strict.vjob_states["small"] is VJobState.WAITING

        easy = get_decision_module("fcfs", backfilling="easy").decide(
            configuration, queue
        )
        # EASY backfilling lets the fitting vjobs jump the blocked head
        assert easy.vjob_states["blocker"] is VJobState.WAITING
        assert easy.vjob_states["big"] is VJobState.RUNNING

    def test_fcfs_started_vjobs_book_before_waiting_ones_are_admitted(self):
        """A higher-priority waiting vjob must not be admitted against
        capacity already booked by a started lower-priority vjob."""
        configuration = Configuration(
            nodes=make_working_nodes(2, cpu_capacity=1, memory_capacity=4096)
        )
        # 'low' (later priority) is already running and books both CPUs;
        # 'high' scans first in queue order but must wait.
        high = make_vjob("high", vm_count=2, priority=1)
        low = make_vjob("low", vm_count=2, priority=2)
        low.run()
        for vjob in (high, low):
            for vm in vjob.vms:
                configuration.add_vm(vm)
        configuration.set_running("low.vm0", "node-0")
        configuration.set_running("low.vm1", "node-1")
        queue = VJobQueue([high, low])

        decision = get_decision_module("fcfs").decide(configuration, queue)
        assert decision.vjob_states["low"] is VJobState.RUNNING
        assert decision.vjob_states["high"] is VJobState.WAITING
        running = [s for s in decision.vm_states.values() if s is VMState.RUNNING]
        assert len(running) == 2  # only low's VMs: the booking is respected

    def test_fcfs_admission_requires_a_per_node_feasible_placement(self):
        """Aggregate free capacity is not enough: a vjob whose VMs cannot be
        packed on any single node must keep waiting, not wedge the loop."""
        configuration = Configuration(
            nodes=make_working_nodes(2, cpu_capacity=4, memory_capacity=3584)
        )
        # a and b book 3x1024 MB each (fits: one per node plus change);
        # c's single 2048 MB VM fits the aggregate leftover (1024+1024) but
        # no single node can host it.
        a = make_vjob("a", vm_count=3, memory=1024, priority=1)
        b = make_vjob("b", vm_count=3, memory=1024, priority=2)
        c = make_vjob("c", vm_count=1, memory=2048, priority=3)
        for vjob in (a, b, c):
            for vm in vjob.vms:
                configuration.add_vm(vm)
        decision = get_decision_module("fcfs").decide(
            configuration, VJobQueue([a, b, c])
        )
        assert decision.vjob_states["a"] is VJobState.RUNNING
        assert decision.vjob_states["b"] is VJobState.RUNNING
        assert decision.vjob_states["c"] is VJobState.WAITING

    def test_fcfs_admits_in_submission_order_not_priority_order(self):
        """First-Come-First-Served: the analytic baseline orders by submit
        time, so the loop policy must too."""
        configuration = Configuration(
            nodes=make_working_nodes(1, cpu_capacity=1, memory_capacity=4096)
        )
        early = make_vjob("early", vm_count=1, priority=9)
        late = make_vjob("late", vm_count=1, priority=1)
        early.submitted_at = 0.0
        late.submitted_at = 10.0
        for vjob in (early, late):
            for vm in vjob.vms:
                configuration.add_vm(vm)
        decision = get_decision_module("fcfs", backfilling="none").decide(
            configuration, VJobQueue([early, late])
        )
        # only one CPU: the earlier-submitted vjob wins despite its priority
        assert decision.vjob_states["early"] is VJobState.RUNNING
        assert decision.vjob_states["late"] is VJobState.WAITING

    def test_fcfs_sleeping_vjobs_requeue_instead_of_overcommitting(self):
        """Two sleeping vjobs whose combined booking exceeds the cluster must
        not both be demanded RUNNING (the decision would be unplannable)."""
        configuration = Configuration(
            nodes=make_working_nodes(1, cpu_capacity=2, memory_capacity=2048)
        )
        a = make_vjob("a", vm_count=2, memory=1024, priority=1)
        b = make_vjob("b", vm_count=2, memory=1024, priority=2)
        for vjob in (a, b):
            vjob.run()
            vjob.suspend()
            for vm in vjob.vms:
                configuration.add_vm(vm)
                configuration.set_sleeping(vm.name, "node-0")
        decision = get_decision_module("fcfs").decide(
            configuration, VJobQueue([a, b])
        )
        # only one vjob fits: the other stays sleeping, no over-commitment
        states = set(decision.vjob_states.values())
        assert states == {VJobState.RUNNING, VJobState.SLEEPING}
        running_vms = [
            s for s in decision.vm_states.values() if s is VMState.RUNNING
        ]
        assert len(running_vms) == 2

    def test_ffd_provides_an_explicit_target(self):
        configuration, queue = two_vjob_setup()
        decision = get_decision_module("ffd").decide(configuration, queue)
        assert decision.target is not None
        assert decision.target.is_viable()

    def test_rjsp_has_no_fallback(self):
        configuration, queue = two_vjob_setup()
        decision = get_decision_module("rjsp").decide(configuration, queue)
        assert decision.fallback_target is None
        assert decision.target is None
        assert decision.metadata["rjsp"].accepted == ["first", "second"]


class TestSharedHelpers:
    def test_needs_switch_detects_state_mismatch(self):
        configuration, queue = two_vjob_setup()
        decision = Decision(vm_states={"first.vm0": VMState.RUNNING})
        assert needs_switch(configuration, decision)

    def test_no_switch_when_states_match_and_viable(self):
        configuration, queue = two_vjob_setup()
        queue.get("first").run()
        configuration.set_running("first.vm0", "node-0")
        decision = Decision(vm_states={"first.vm0": VMState.RUNNING})
        assert not needs_switch(configuration, decision)

    def test_needs_switch_answers_or_raises_in_wanted_state_order(self):
        """The first VM in another state answers, even with an unknown VM
        after it; an unknown VM met first raises, naming it — what asking
        ``state_of`` of each wanted VM in turn does."""
        configuration, queue = two_vjob_setup()
        configuration.set_running("first.vm0", "node-0")
        viable = configuration.is_viable()

        def in_turn(states):
            for name, state in states.items():
                if configuration.state_of(name) is not state:
                    return True
            return not viable

        cases = (
            {"first.vm0": VMState.RUNNING, "first.vm1": VMState.WAITING},
            {"first.vm0": VMState.WAITING, "ghost": VMState.RUNNING},
            {"first.vm0": VMState.RUNNING, "ghost": VMState.RUNNING},
            {"phantom": VMState.WAITING, "ghost": VMState.RUNNING},
        )
        answers = []
        for states in cases:
            decision = Decision(vm_states=states)
            try:
                expected = in_turn(states)
            except UnknownVMError as error:
                with pytest.raises(UnknownVMError) as raised:
                    needs_switch(configuration, decision)
                assert raised.value.name == error.name
                answers.append(error.name)
            else:
                assert needs_switch(configuration, decision) is expected
                answers.append(expected)
        assert answers == [False, True, "ghost", "phantom"]

    def test_stop_terminated_vms_only_touches_running_vms(self):
        configuration, queue = two_vjob_setup()
        vjob = queue.get("first")
        vjob.run()
        configuration.set_running("first.vm0", "node-0")
        vjob.terminate()
        vm_states = stop_terminated_vms(configuration, queue, {})
        # first.vm1 never ran: nothing to stop
        assert vm_states == {"first.vm0": VMState.TERMINATED}
