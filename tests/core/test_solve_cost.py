"""What one cold zone solve costs, in counts, not clocks.

Most rounds leave most VMs where they are, so the keep-in-place repair of
the observed placement is usually the optimum, and a solve that is handed
the optimum has nothing to search for.  The zone of the round benchmark's
``fleet-cold`` — 125 fenced VMs on 31 nodes, one of them restarted — used
to build a 126-variable model and dive 126 nodes deep to find the placement
it started from; it now asks the catalog for the unary domains once, packs
the one restarted VM and returns.  The counts are deterministic, so this
runs with the tier-1 suite and keeps the model from growing back.
"""

import repro.constraints.domains
from repro.core.optimizer import ContextSwitchOptimizer
from repro.cp import Model, Solver
from repro.obs import Tracer
from repro.testing import fence_groups, make_large_fleet


def test_a_zone_whose_incumbent_meets_the_bound_builds_no_model(monkeypatch):
    zone = make_large_fleet(125, groups=1, cached=False)
    states = zone.states()
    zone.set_waiting("vm-17")
    catalog = fence_groups(zone, groups=1)

    counts = dict.fromkeys(("models", "solvers", "domain calls"), 0)

    def count(owner, name, key):
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    count(Model, "__init__", "models")
    count(Solver, "__init__", "solvers")
    count(repro.constraints.domains, "vm_domains", "domain calls")

    tracer = Tracer()
    with tracer.activate() as root:
        assignment, statistics, improving = ContextSwitchOptimizer(
            timeout=30
        ).search_assignment(zone, states, catalog)

    assert counts == {"models": 0, "solvers": 0, "domain calls": 1}
    # The answer: everyone where they were, vm-17 on a node of the fence
    # with room for it, at no cost, proved.
    placement = zone.placement()
    assert {vm: node for vm, node in assignment.items() if vm != "vm-17"} == placement
    target = zone.copy()
    target.set_running("vm-17", assignment["vm-17"])
    assert target.is_viable()
    assert improving == [0]
    assert (statistics.nodes, statistics.backtracks, statistics.solutions) == (0, 0, 1)
    assert statistics.proven_optimal and not statistics.timed_out
    # A trace still counts one answered solve.
    (solve,) = root.children
    assert solve.name == "cp.solve"
    assert solve.attributes["stop"] == "incumbent"
    assert solve.attributes["proven_optimal"] is True
    assert solve.attributes["root_bound"] == 0
    assert "engine" not in solve.attributes
    assert solve.counters == {
        "nodes": 0,
        "backtracks": 0,
        "propagations": 0,
        "solutions": 1,
    }
