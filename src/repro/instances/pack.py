"""The shipped instance pack: small/medium problems committed as goldens.

The pack is built deterministically from seeds (:func:`build_pack`) and
committed as canonical JSON under ``src/repro/instances/pack/`` — package
data, so an installed ``repro-verify`` can score against it without a
checkout.  ``tests/integration/test_instance_pack.py`` holds the committed
files byte-for-byte against :func:`build_pack` (regen with
``REPRO_UPDATE_GOLDENS=1``), and the CI ``verify-smoke`` job re-fingerprints
the pack on every push so silent drift cannot land.

Tiers:

* ``small-*`` — a handful of vjobs on 5–6 nodes; seconds to solve, used by
  the property suite and the CLI tests as well;
* ``medium-*`` — a constrained, faulty mix that exercises the catalog and
  the fault schedule.

Every pack instance is all-waiting (empty initial placement): that is the
shape the control loop runs, so the same file feeds both the baseline
scoreboard (:mod:`repro.instances.baselines`) and the standalone verifier.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Optional, Sequence

from ..constraints import Fence, RunningCapacity, Spread
from ..model.node import make_working_nodes
from ..model.vjob import VJob
from ..model.vm import VirtualMachine
from ..sim.faults import random_fault_schedule
from ..workloads.traces import DemandTrace, Phase, VJobWorkload
from .format import Instance, InstanceFormatError, load_instance

#: Directory holding the committed pack (package data).
PACK_DIR = Path(__file__).resolve().parent / "pack"
#: The committed baseline scoreboard lives next to the instances.
SCOREBOARD_PATH = PACK_DIR / "scoreboard.json"


def _vjob_workload(
    name: str,
    vm_count: int,
    memory: Sequence[int],
    segments: Sequence[tuple[float, int]],
    priority: int,
    rng: random.Random,
    jitter: float = 0.15,
    submitted_at: float = 0.0,
) -> VJobWorkload:
    """One vjob whose VMs all follow ``segments`` with per-VM jitter on the
    durations (drawn from ``rng``, so the pack stays seed-deterministic)."""
    vms = []
    traces: dict[str, DemandTrace] = {}
    for index in range(vm_count):
        vm_name = f"{name}.vm{index}"
        phases = [
            Phase(
                duration=round(
                    duration * (1.0 + rng.uniform(-jitter, jitter)), 1
                ),
                cpu_demand=demand,
            )
            for duration, demand in segments
        ]
        trace = DemandTrace(phases)
        vms.append(
            VirtualMachine(
                name=vm_name,
                memory=memory[index % len(memory)],
                cpu_demand=trace.phases[0].cpu_demand,
                vjob=name,
            )
        )
        traces[vm_name] = trace
    vjob = VJob(
        name=name, vms=vms, priority=priority, submitted_at=submitted_at
    )
    return VJobWorkload(vjob=vjob, traces=traces)


def _small_mix(seed: int = 11) -> Instance:
    """Capacity-pressured mix: peak demand exceeds the fleet's 10 CPUs, the
    idle phases leave headroom a consolidating policy can exploit."""
    rng = random.Random(seed)
    workloads = [
        _vjob_workload(
            f"mix{i}",
            vm_count=3,
            memory=(512, 768, 1024),
            segments=((420.0, 1), (180.0, 0), (420.0, 1)),
            priority=i,
            rng=rng,
        )
        for i in range(4)
    ]
    return Instance(
        name="small-mix",
        description=(
            "4 vjobs x 3 VMs with alternating compute/idle phases on "
            "5 dual-core nodes; peak demand 12 CPUs vs 10 available"
        ),
        seed=seed,
        nodes=tuple(make_working_nodes(5, cpu_capacity=2, memory_capacity=3584)),
        workloads=tuple(workloads),
    )


def _small_spread(seed: int = 23) -> Instance:
    """The small mix under placement relations: one replica set spread,
    one licensed vjob fenced to half the fleet."""
    rng = random.Random(seed)
    workloads = [
        _vjob_workload(
            f"svc{i}",
            vm_count=3,
            memory=(768, 512, 512),
            segments=((360.0, 1), (240.0, 0), (360.0, 1)),
            priority=i,
            rng=rng,
        )
        for i in range(5)
    ]
    constraints = (
        Spread([f"svc0.vm{j}" for j in range(3)]),
        Fence(
            [f"svc1.vm{j}" for j in range(3)],
            [f"node-{j}" for j in range(3)],
        ),
    )
    return Instance(
        name="small-spread",
        description=(
            "5 vjobs x 3 VMs on 6 dual-core nodes; svc0 spread across "
            "distinct hosts, svc1 fenced to nodes 0-2"
        ),
        seed=seed,
        nodes=tuple(make_working_nodes(6, cpu_capacity=2, memory_capacity=3584)),
        workloads=tuple(workloads),
        constraints=constraints,
    )


def _medium_faulty(seed: int = 47) -> Instance:
    """Medium tier: a bigger constrained mix under a seeded fault schedule
    (one node slowed down mid-run)."""
    rng = random.Random(seed)
    shapes = ((3, (512, 1024)), (4, (768, 512)), (3, (1024, 512)),
              (4, (512, 512)), (6, (512, 768)), (4, (1024, 768)))
    workloads = []
    for index, (vm_count, memory) in enumerate(shapes):
        workloads.append(
            _vjob_workload(
                f"job{index}",
                vm_count=vm_count,
                memory=memory,
                segments=((420.0, 1), (360.0, 0), (420.0, 1), (240.0, 0)),
                priority=index,
                rng=rng,
            )
        )
    node_names = [f"node-{i}" for i in range(8)]
    faults = random_fault_schedule(
        node_names,
        horizon=3600.0,
        seed=seed,
        slowdown_rate_per_hour=0.35,
        slowdown_factor=2.0,
        slowdown_duration=600.0,
    )
    constraints = (
        Fence(
            [f"job5.vm{j}" for j in range(4)],
            [f"node-{j}" for j in range(6)],
        ),
        RunningCapacity([f"node-{j}" for j in range(3)], maximum=10),
    )
    return Instance(
        name="medium-faulty",
        description=(
            "6 vjobs / 24 VMs on 8 dual-core nodes with a fenced vjob, a "
            "running-capacity cap on nodes 0-2, and seeded slowdown faults"
        ),
        seed=seed,
        nodes=tuple(
            make_working_nodes(8, cpu_capacity=2, memory_capacity=3584)
        ),
        workloads=tuple(workloads),
        constraints=constraints,
        faults=faults,
    )


def build_pack() -> tuple[Instance, ...]:
    """The shipped instances, rebuilt from their seeds (deterministic)."""
    return (_small_mix(), _small_spread(), _medium_faulty())


def pack_instance_names() -> list[str]:
    """Names of the committed pack instances (sorted)."""
    return sorted(
        path.stem
        for path in PACK_DIR.glob("*.json")
        if path.name != SCOREBOARD_PATH.name
    )


def load_pack_instance(name: str) -> Instance:
    """Load one committed pack instance by name (fingerprint-checked)."""
    path = PACK_DIR / f"{name}.json"
    if not path.exists():
        raise InstanceFormatError(
            "missing-file",
            f"no pack instance named {name!r} "
            f"(available: {pack_instance_names()})",
        )
    return load_instance(path)


def write_pack(directory: Optional[Path] = None) -> dict[str, str]:
    """Write the built pack to ``directory`` (default: the package's pack
    dir); returns name -> fingerprint.  This is the golden-regen path."""
    from .format import save_instance

    target = Path(directory) if directory is not None else PACK_DIR
    target.mkdir(parents=True, exist_ok=True)
    return {
        instance.name: save_instance(instance, target / f"{instance.name}.json")
        for instance in build_pack()
    }
