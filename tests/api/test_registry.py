"""Tests of the string-keyed decision-module registry."""

import pytest

from repro.api import (
    Decision,
    UnknownDecisionModuleError,
    available_decision_modules,
    get_decision_module,
    register_decision_module,
)
from repro.api import Scenario
from repro.api import registry as registry_module
from repro.constraints import Fence
from repro.decision import (
    ConsolidationDecisionModule,
    FCFSDecisionModule,
    FFDDecisionModule,
    RJSPDecisionModule,
)
from repro.model import make_working_nodes
from repro.testing import make_workload


@pytest.fixture(autouse=True)
def _clean_registry():
    """Custom registrations must not leak between tests."""
    before = dict(registry_module._FACTORIES)
    yield
    registry_module._FACTORIES.clear()
    registry_module._FACTORIES.update(before)


class TestBuiltins:
    def test_all_paper_policies_are_registered(self):
        assert set(available_decision_modules()) >= {
            "consolidation",
            "fcfs",
            "ffd",
            "rjsp",
        }

    @pytest.mark.parametrize(
        ("name", "expected_type"),
        [
            ("consolidation", ConsolidationDecisionModule),
            ("fcfs", FCFSDecisionModule),
            ("ffd", FFDDecisionModule),
            ("rjsp", RJSPDecisionModule),
        ],
    )
    def test_lookup_returns_fresh_instances(self, name, expected_type):
        module = get_decision_module(name)
        assert isinstance(module, expected_type)
        assert module.name == name
        assert module is not get_decision_module(name)

    def test_factory_options_are_forwarded(self):
        module = get_decision_module("fcfs", backfilling="none")
        assert module.backfilling == "none"

    @pytest.mark.parametrize("name", ["consolidation", "fcfs", "ffd", "rjsp"])
    def test_no_builtin_takes_a_catalog(self, name):
        """A policy gets its catalog from the loop (``use_constraints``)
        only, so the catalog it filters with is the one the round plans
        with."""
        with pytest.raises(TypeError, match="constraints"):
            get_decision_module(name, constraints=[Fence(["a.vm0"], ["node-0"])])


class TestErrors:
    def test_unknown_name_raises_with_available_list(self):
        with pytest.raises(UnknownDecisionModuleError) as excinfo:
            get_decision_module("does-not-exist")
        message = str(excinfo.value)
        assert "does-not-exist" in message
        assert "consolidation" in message  # the error lists what exists

    def test_unknown_name_is_a_key_error(self):
        with pytest.raises(KeyError):
            get_decision_module("nope")

    def test_duplicate_registration_is_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_decision_module("consolidation", ConsolidationDecisionModule)

    def test_empty_name_is_rejected(self):
        with pytest.raises(ValueError):
            register_decision_module("", ConsolidationDecisionModule)


class TestCustomRegistration:
    def test_register_directly(self):
        class Noop:
            name = "noop"

            def decide(self, configuration, queue):
                return Decision()

        register_decision_module("noop", Noop)
        assert "noop" in available_decision_modules()
        assert isinstance(get_decision_module("noop"), Noop)

    def test_register_as_decorator(self):
        @register_decision_module("decorated")
        class Decorated:
            name = "decorated"

            def decide(self, configuration, queue):
                return Decision()

        assert isinstance(get_decision_module("decorated"), Decorated)

    def test_overwrite_replaces_builtin(self):
        class Impostor:
            name = "consolidation"

            def decide(self, configuration, queue):
                return Decision()

        register_decision_module("consolidation", Impostor, overwrite=True)
        assert isinstance(get_decision_module("consolidation"), Impostor)

    def test_old_style_policy_with_a_defaulted_demands_still_runs(self):
        """A policy written against the three-argument ``decide`` keeps
        working when its third argument has a default: the loop passes two,
        and the demands are in the configuration."""
        seen = []

        @register_decision_module("old-style")
        class OldStyle(ConsolidationDecisionModule):
            name = "old-style"

            def decide(self, configuration, queue, demands=None):
                seen.append(demands)
                return super().decide(configuration, queue)

        result = Scenario(
            nodes=make_working_nodes(1, cpu_capacity=2, memory_capacity=4096),
            workloads=[make_workload("a", vm_count=1, duration=60.0)],
            policy="old-style",
            optimizer_timeout=2.0,
        ).run()
        assert set(result.completion_times) == {"a"}
        assert seen and set(seen) == {None}
