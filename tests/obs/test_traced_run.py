"""End-to-end tracing acceptance: a traced control-loop run records the
canonical phase tree, survives the RunResult round-trip byte-stably, and
exports to a schema-valid Chrome trace."""

from __future__ import annotations

import json

import pytest

from repro.api import Scenario
from repro.api.results import RunResult
from repro.constraints import Fence
from repro.model.configuration import Configuration
from repro.model.node import make_working_nodes
from repro.model.vm import VMState
from repro.obs import (
    Tracer,
    load_trace,
    phase_totals,
    span,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.scale import ParallelOptimizer
from repro.testing import make_vm
from repro.workloads import ChurnGenerator, ProblemClass, heterogeneous_nodes


def traced_scenario() -> Scenario:
    generator = ChurnGenerator(
        seed=23,
        mean_interarrival_s=30.0,
        vm_count_choices=(2, 3),
        problem_classes=(ProblemClass.W,),
    )
    return Scenario(
        nodes=heterogeneous_nodes(8, seed=5),
        workloads=generator.workloads(6),
        policy="consolidation",
        optimizer_timeout=2.0,
        engine="repair",
        trace=True,
    )


def structural_shape(node: dict):
    """A span tree with timestamps and measured durations (the ``*_ms``
    attributes of ``cp.solve``) erased: what must be deterministic between
    two identical seeded runs."""
    return (
        node["name"],
        sorted(
            item
            for item in node.get("attributes", {}).items()
            if not item[0].endswith("_ms")
        ),
        sorted(node.get("counters", {}).items()),
        [event["name"] for event in node.get("events", [])],
        [structural_shape(child) for child in node.get("children", [])],
    )


@pytest.fixture(scope="module")
def traced_result() -> RunResult:
    return traced_scenario().run()


class TestTracedControlLoop:
    def test_records_at_least_five_distinct_phases(self, traced_result):
        phases = set(phase_totals(load_trace(traced_result.to_dict())))
        expected = {
            "run", "round", "observe", "decide", "plan", "solve",
            "cp.solve", "repair-attempt", "execute",
        }
        assert expected <= phases
        assert len(phases) >= 5

    def test_round_spans_carry_loop_attributes(self, traced_result):
        root = load_trace(traced_result.to_dict())
        rounds = [node for node in root.walk() if node.name == "round"]
        assert [r.attributes["index"] for r in rounds] == list(
            range(len(rounds))
        )
        switched = [r for r in rounds if r.attributes.get("switched")]
        assert switched, "no round recorded a context switch"
        assert all("switch_cost" in r.attributes for r in switched)

    def test_execute_spans_count_the_plan_actions(self, traced_result):
        root = load_trace(traced_result.to_dict())
        executes = [n for n in root.walk() if n.name == "execute"]
        assert executes
        total_actions = sum(n.counters.get("actions", 0) for n in executes)
        assert total_actions == sum(
            s.migrations + s.runs + s.stops + s.suspends + s.resumes
            for s in traced_result.switches
        )

    def test_decide_spans_say_what_the_selection_packed_again(
        self, traced_result
    ):
        root = load_trace(traced_result.to_dict())
        repacked = [
            (node.attributes["repacked_vjobs"], node.attributes["repacked_vms"])
            for node in root.walk()
            if node.name == "decide"
        ]
        assert all(vjobs <= vms for vjobs, vms in repacked)
        assert all((vjobs == 0) == (vms == 0) for vjobs, vms in repacked)
        # Rounds whose queue did not change re-pack nothing; others do.
        assert (0, 0) in repacked
        assert any(vms for _, vms in repacked)

    def test_chrome_export_is_schema_valid(self, traced_result):
        document = to_chrome_trace(traced_result.to_dict())
        reparsed = json.loads(json.dumps(document))
        assert validate_chrome_trace(reparsed) == []

    def test_trace_survives_the_runresult_round_trip_byte_stably(
        self, traced_result
    ):
        canonical = json.dumps(traced_result.to_dict(), sort_keys=True)
        rebuilt = RunResult.from_dict(json.loads(canonical))
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) == canonical
        assert rebuilt.trace == traced_result.trace

    def test_span_tree_is_deterministic_modulo_timestamps(
        self, traced_result
    ):
        again = traced_scenario().run()
        assert structural_shape(
            again.trace["root"]
        ) == structural_shape(traced_result.trace["root"])

    def test_solver_metadata_reports_merged_search_counters(
        self, traced_result
    ):
        solver = traced_result.metadata["solver"]
        assert solver["rounds"], "no per-round solver statistics recorded"
        for key in ("nodes", "backtracks", "propagations", "solutions"):
            assert solver["totals"][key] == sum(
                entry[key] for entry in solver["rounds"]
            )
        # Wall-clock fields must stay out: the HTTP e2e test byte-compares
        # result documents across independent runs.
        assert all(
            "elapsed" not in entry and "timed_out" not in entry
            for entry in solver["rounds"]
        )

    def test_untraced_runs_emit_no_trace_key(self):
        scenario = traced_scenario()
        scenario.trace = False
        result = scenario.run()
        assert result.trace is None
        assert "trace" not in result.to_dict()


def _fenced_instance(overloaded=True):
    """Two fenced zones of three VMs; ``overloaded`` puts ``vm1`` next to a
    ``vm0`` that fills ``node-0``, so that host must shed it: no
    keep-in-place answers the round at its lower bound and the zones are
    solved."""
    configuration = Configuration(
        nodes=make_working_nodes(6, cpu_capacity=2, memory_capacity=4096)
    )
    for index in range(6):
        cpu = 2 if overloaded and index == 0 else 1
        configuration.add_vm(make_vm(f"vm{index}", memory=1024, cpu=cpu))
        configuration.set_running(f"vm{index}", f"node-{index % 6}")
    if overloaded:
        configuration.migrate("vm1", "node-0")
    states = {name: VMState.RUNNING for name in configuration.vm_names}
    constraints = [
        Fence(["vm0", "vm1", "vm2"], ("node-0", "node-1", "node-2")),
        Fence(["vm3", "vm4", "vm5"], ("node-3", "node-4", "node-5")),
    ]
    return configuration, states, constraints


class TestPartitionedTracing:
    def test_a_round_kept_in_place_solves_no_zone(self):
        configuration, states, constraints = _fenced_instance(overloaded=False)
        tracer = Tracer()
        with tracer.activate():
            with span("solve", engine="partitioned"):
                result = ParallelOptimizer(
                    timeout=5.0, zone_executor="serial"
                ).optimize(configuration, states, constraints=constraints)
        root = load_trace(tracer.to_dict())
        # The pass answers before any partition is cut: its cp.solve span
        # is the record, and no partition or zone span is opened.
        assert [n for n in root.walk() if n.name in ("partition", "zone")] == []
        (solve,) = [n for n in root.walk() if n.name == "cp.solve"]
        assert solve.attributes["stop"] == "incumbent"
        assert solve.counters["nodes"] == 0
        assert solve.counters["solutions"] == 1
        assert result.partition_method == "monolithic"
        assert result.zone_reports == []

    def test_serial_zones_nest_in_process(self):
        configuration, states, constraints = _fenced_instance()
        tracer = Tracer()
        with tracer.activate():
            with span("solve", engine="partitioned"):
                ParallelOptimizer(
                    timeout=5.0, zone_executor="serial"
                ).optimize(configuration, states, constraints=constraints)
        root = load_trace(tracer.to_dict())
        zones = [n for n in root.walk() if n.name == "zone"]
        assert len(zones) == 2
        assert all(not z.attributes.get("remote") for z in zones)
        assert all(
            child.name == "cp.solve" for z in zones for child in z.children
        )

    def test_process_zones_are_spanned_with_their_solver_counters(self):
        configuration, states, constraints = _fenced_instance()
        tracer = Tracer()
        with tracer.activate():
            with span("solve", engine="partitioned"):
                optimizer = ParallelOptimizer(
                    timeout=5.0, zone_executor="process"
                )
                try:
                    result = optimizer.optimize(
                        configuration, states, constraints=constraints
                    )
                finally:
                    optimizer.close()
        root = load_trace(tracer.to_dict())
        (solve,) = [n for n in root.walk() if n.name == "solve"]
        # One ``zone`` span per pooled zone, recorded by the parent under
        # the span current at submit time; the worker ships no subtree.
        zones = sorted(
            (n for n in root.walk() if n.name == "zone"),
            key=lambda z: z.attributes["zone"],
        )
        assert [z.attributes["zone"] for z in zones] == [0, 1]
        assert all(z in solve.children for z in zones)
        assert all(z.attributes["remote"] is True for z in zones)
        assert all(z.children == [] for z in zones)
        # Each carries what its zone's outcome says.
        reports = sorted(result.zone_reports, key=lambda o: o.index)
        assert [o.index for o in reports] == [0, 1]
        for zone, outcome in zip(zones, reports):
            stats = outcome.statistics
            assert zone.counters == {
                "nodes": stats.nodes,
                "backtracks": stats.backtracks,
                "propagations": stats.propagations,
                "solutions": stats.solutions,
            }
            assert zone.attributes["proven_optimal"] is stats.proven_optimal
            assert zone.attributes["timed_out"] is stats.timed_out
            assert zone.attributes["vms"] == outcome.vm_count == 3
            assert zone.attributes["nodes"] == outcome.node_count == 3
            assert zone.duration == pytest.approx(outcome.elapsed)
        assert sum(z.counters["nodes"] for z in zones) == result.statistics.nodes
        # The export gives each remote zone its own track and still nests.
        document = to_chrome_trace(tracer.to_dict())
        assert validate_chrome_trace(document) == []
        zone_tids = {
            e["tid"]
            for e in document["traceEvents"]
            if e.get("ph") == "X" and e["name"] == "zone"
        }
        assert len(zone_tids) == 2
        assert 1 not in zone_tids

    def test_untraced_process_solve_ships_no_trace(self):
        configuration, states, constraints = _fenced_instance()
        optimizer = ParallelOptimizer(
            timeout=5.0, zone_executor="process"
        )
        try:
            result = optimizer.optimize(
                configuration, states, constraints=constraints
            )
        finally:
            optimizer.close()
        assert result.statistics is not None
