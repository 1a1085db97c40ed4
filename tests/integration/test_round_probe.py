"""The round benchmark's probe still finds every layer it replays.

``benchmarks/round/probe.py`` wraps a ``ClusterContextSwitch`` and, after
each real call, replays the layer functions a black-box call hides on that
round's inputs: ``compute_dirty_set``, ``build_zone_configuration``,
``search_assignment``, the planner — reached through
``RepairOptimizer.inner`` / ``.halo`` / ``.previous_assignment`` and
``ParallelOptimizer.shards``.  A rename of any of them would otherwise only
show in the minute-long benchmark run.  Four rounds of each engine the
benchmark drives, on a tiny fenced fleet, must record every replay span:
three restarts, which the round's keep-in-place answers before any zone,
and an overloaded host, whose zones the cold ``partitioned`` engine solves.
A ``repair-partitioned`` round's attempt cuts no zone, so that engine
replays the dirty set only; ``partitioned`` still covers
``build_zone_configuration`` and ``.shards``.

The probe module is loaded from its file and never written to (no bytecode
cache is left under ``benchmarks/round/``).
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core.context_switch import ClusterContextSwitch
from repro.obs import Tracer
from repro.testing import fence_groups, make_large_fleet, make_vm

PROBE = Path(__file__).resolve().parents[2] / "benchmarks" / "round" / "probe.py"


@pytest.fixture(scope="module")
def probe():
    spec = importlib.util.spec_from_file_location("round_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


@pytest.mark.parametrize(
    "engine, replays",
    [
        ("repair-partitioned", {"bench.dirty_set"}),
        ("partitioned", {"bench.zone_build"}),
        ("event", {"bench.model_build"}),
    ],
)
def test_the_probe_replays_every_hidden_layer(probe, engine, replays):
    current = make_large_fleet(32, groups=2, cached=False)
    catalog = fence_groups(current, groups=2)
    states = current.states()
    switch = probe.ProbedSwitch(
        ClusterContextSwitch(
            optimizer_timeout=5.0, engine=engine, zone_executor="serial"
        )
    )
    tracer = Tracer()
    with tracer.activate():
        for round_index, name in enumerate(current.vm_names[:4]):
            if round_index < 3:
                current.set_waiting(name)
                switch.mark_dirty([name])
            else:
                # A host that must shed its other VMs: the keep-in-place
                # misses the lower bound, so the cold partitioned engine
                # solves zones and the probe replays their extraction.
                host = current.location_of(name)
                cpu = current.node(host).capacity.cpu
                current.replace_vm(make_vm(name, memory=1024, cpu=cpu))
                switch.mark_dirty(current.vms_on(host))
            report = switch.compute(current, states, constraints=catalog)
            assert not report.used_fallback
            current = report.target.copy()
    recorded = [span.name for span in tracer.root.walk()]
    assert recorded.count("bench.compute") == 4
    assert recorded.count("bench.planner") == 4
    assert replays <= set(recorded)
