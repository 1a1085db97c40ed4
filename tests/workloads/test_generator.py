"""Tests of the Section 5.1 configuration generator."""

import pytest

from repro.model.vjob import VJobState
from repro.model.vm import VMState
from repro.workloads.generator import (
    TraceConfigurationGenerator,
    paper_cluster_nodes,
    paper_vm_counts,
)
from repro.workloads.nasgrid import MEMORY_CHOICES_MB


class TestPaperConstants:
    def test_vm_counts_match_figure_10(self):
        assert paper_vm_counts() == [54, 108, 162, 216, 270, 324, 378, 432, 486]

    def test_paper_cluster_has_11_dual_core_nodes(self):
        nodes = paper_cluster_nodes()
        assert len(nodes) == 11
        assert all(n.cpu_capacity == 2 for n in nodes)


class TestGeneratedScenario:
    @pytest.fixture(scope="class")
    def scenario(self):
        return TraceConfigurationGenerator(seed=7).generate(108)

    def test_vm_count_is_reached(self, scenario):
        assert len(scenario.configuration.vm_names) >= 108

    def test_cluster_shape_matches_section_5_1(self, scenario):
        nodes = scenario.configuration.nodes
        assert len(nodes) == 200
        assert all(n.cpu_capacity == 2 and n.memory_capacity == 4096 for n in nodes)

    def test_vjobs_have_9_or_18_vms(self, scenario):
        for workload in scenario.workloads:
            assert len(workload.vjob.vms) in (9, 18)

    def test_memory_sizes_come_from_the_paper_choices(self, scenario):
        for vm in scenario.configuration.vms:
            assert vm.memory in MEMORY_CHOICES_MB

    def test_memory_capacity_is_respected_by_initial_placement(self, scenario):
        for node in scenario.configuration.node_names:
            usage = scenario.configuration.usage_of(node)
            assert usage.memory <= scenario.configuration.node(node).memory_capacity

    def test_vjob_states_match_vm_states(self, scenario):
        configuration = scenario.configuration
        for workload in scenario.workloads:
            vjob = workload.vjob
            vm_states = {configuration.state_of(name) for name in vjob.vm_names}
            if vjob.state is VJobState.RUNNING:
                assert vm_states == {VMState.RUNNING}
            elif vjob.state is VJobState.SLEEPING:
                assert vm_states == {VMState.SLEEPING}
            else:
                assert vm_states == {VMState.WAITING}

    def test_queue_contains_every_vjob(self, scenario):
        assert len(scenario.queue) == len(scenario.workloads)

    def test_vjob_of_vm_mapping(self, scenario):
        mapping = scenario.vjob_of_vm()
        assert len(mapping) == len(scenario.configuration.vm_names)
        for workload in scenario.workloads:
            for name in workload.vjob.vm_names:
                assert mapping[name] == workload.vjob.name


def scenario_fingerprint(scenario):
    """Every observable random choice of a generated scenario: placements,
    states, VM sizes and demands, and the jittered trace phases."""
    configuration = scenario.configuration
    return {
        "placement": scenario.configuration.placement(),
        "states": {
            name: configuration.state_of(name).value
            for name in sorted(configuration.vm_names)
        },
        "vms": {
            vm.name: (vm.memory, vm.cpu_demand)
            for vm in configuration.vms
        },
        "vjob_states": [w.vjob.state.value for w in scenario.workloads],
        "traces": {
            name: [
                (round(phase.duration, 9), phase.cpu_demand)
                for phase in trace.phases
            ]
            for w in scenario.workloads
            for name, trace in w.traces.items()
        },
    }


class TestDeterminism:
    def test_same_seed_gives_same_scenario(self):
        a = TraceConfigurationGenerator(seed=3).generate(54)
        b = TraceConfigurationGenerator(seed=3).generate(54)
        assert a.configuration.placement() == b.configuration.placement()
        assert [w.vjob.state for w in a.workloads] == [w.vjob.state for w in b.workloads]

    def test_same_seed_gives_identical_fingerprint(self):
        """Not just the placement: memories, demands, states and the jittered
        traces must all be byte-identical for the same seed."""
        a = TraceConfigurationGenerator(seed=17).generate(108)
        b = TraceConfigurationGenerator(seed=17).generate(108)
        assert scenario_fingerprint(a) == scenario_fingerprint(b)

    def test_seed_attribute_is_recorded(self):
        assert TraceConfigurationGenerator(seed=17).seed == 17

    def test_explicit_seed_per_sample(self):
        generator = TraceConfigurationGenerator(seed=3)
        a = generator.generate(54, seed=11)
        b = TraceConfigurationGenerator(seed=99).generate(54, seed=11)
        assert a.configuration.placement() == b.configuration.placement()

    def test_different_seeds_differ(self):
        a = TraceConfigurationGenerator(seed=1).generate(54)
        b = TraceConfigurationGenerator(seed=2).generate(54)
        assert (
            a.configuration.placement() != b.configuration.placement()
            or [w.vjob.state for w in a.workloads] != [w.vjob.state for w in b.workloads]
        )
