"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core import optimizer
from repro.cp import Solver
from repro.model import Configuration, Node, make_working_nodes
from repro.repair import engine
from repro.testing import make_large_fleet, make_vm


@pytest.fixture
def three_nodes() -> list[Node]:
    """Three uniprocessor nodes as in the Figure 5/6 examples."""
    return make_working_nodes(3, cpu_capacity=1, memory_capacity=2048)


@pytest.fixture
def paper_nodes() -> list[Node]:
    """The 11 dual-core working nodes of the paper's testbed."""
    return make_working_nodes(11, cpu_capacity=2, memory_capacity=3584)


@pytest.fixture
def empty_configuration(three_nodes) -> Configuration:
    return Configuration(nodes=three_nodes)


@pytest.fixture
def vm_factory():
    return make_vm


@pytest.fixture(scope="session")
def large_fleet_factory():
    """Session-scoped access to the cached large-fleet factory.

    Builds each parameter set once per test session (the 20k-VM fleet takes
    a visible fraction of a second) and hands out *copies*, so tests can
    mutate freely without poisoning the cache."""

    def factory(vm_count: int, **kwargs) -> Configuration:
        return make_large_fleet(vm_count, **kwargs).copy()

    return factory


@pytest.fixture
def loaded_configuration(three_nodes) -> Configuration:
    """Two running VMs (one busy, one idle) and one waiting VM."""
    configuration = Configuration(nodes=three_nodes)
    configuration.add_vm(make_vm("busy", memory=1024, cpu=1))
    configuration.add_vm(make_vm("idle", memory=512, cpu=0))
    configuration.add_vm(make_vm("pending", memory=512, cpu=1))
    configuration.set_running("busy", "node-0")
    configuration.set_running("idle", "node-1")
    return configuration


@pytest.fixture
def models(monkeypatch):
    """Every model a ``Solver`` was built over, in order."""
    built = []
    init = Solver.__init__

    def spy(self, model, *args, **kwargs):
        built.append(model)
        init(self, model, *args, **kwargs)

    monkeypatch.setattr(Solver, "__init__", spy)
    return built


class FakeClock:
    """A :func:`time.monotonic` that stands still until a test advances it."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def monotonic(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    """One :class:`FakeClock` read by every layer that makes or reads a
    round's deadline — the optimizer (the partitioned engine's too) and the
    repair engine.  The solver keeps the real clock: it is handed a
    timeout."""
    fake = FakeClock()
    for module in (optimizer, engine):
        monkeypatch.setattr(module, "time", fake)
    return fake
