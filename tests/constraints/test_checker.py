"""The independent checker: configurations, whole plans (continuous
satisfaction at pool granularity), and rejection of corrupted plans."""

from __future__ import annotations

import pytest

from repro.constraints import (
    Ban,
    Fence,
    Spread,
    check_configuration,
    check_plan,
    plan_stages,
    violated_constraints,
)
from repro.constraints.checker import unwritten_answers
from repro.core.actions import Migrate, Run
from repro.core.plan import plan_from_pools
from repro.core.planner import ReconfigurationPlanner, build_plan
from repro.model.configuration import Configuration
from repro.model.node import make_working_nodes
from repro.testing import make_vm


@pytest.fixture
def configuration():
    configuration = Configuration(
        nodes=make_working_nodes(3, cpu_capacity=2, memory_capacity=4096)
    )
    for name in ("a", "b", "c"):
        configuration.add_vm(make_vm(name, memory=512, cpu=1))
    configuration.set_running("a", "node-0")
    configuration.set_running("b", "node-0")
    configuration.set_running("c", "node-1")
    return configuration


class TestConfigurationChecks:
    def test_reports_one_violation_per_broken_constraint(self, configuration):
        violations = check_configuration(
            configuration,
            [Spread(["a", "b"]), Ban(["c"], ["node-1"]), Ban(["c"], ["node-2"])],
        )
        assert len(violations) == 2
        assert {v.constraint for v in violations} == {
            "Spread(a, b)",
            "Ban(c | node-1)",
        }
        assert all(v.stage is None for v in violations)

    def test_violated_constraints_keeps_the_boolean_face(self, configuration):
        violated = violated_constraints(
            configuration, [Spread(["a", "b"]), Spread(["a", "c"])]
        )
        assert len(violated) == 1
        assert isinstance(violated[0], Spread)

    def test_clean_configuration_reports_nothing(self, configuration):
        assert check_configuration(configuration, [Spread(["a", "c"])]) == []
        assert check_configuration(configuration, []) == []


class TestPlanChecks:
    def test_plan_stages_walk_every_pool_boundary(self, configuration):
        target = configuration.copy()
        target.migrate("b", "node-2")
        plan = build_plan(configuration, target)
        stages = list(plan_stages(plan))
        assert len(stages) == len(plan.pools) + 1
        assert stages[0].location_of("b") == "node-0"
        assert stages[-1].location_of("b") == "node-2"

    def test_clean_plan_passes(self, configuration):
        target = configuration.copy()
        target.migrate("b", "node-2")
        plan = build_plan(configuration, target)
        assert check_plan(plan, [Spread(["a", "b"]), Ban(["b"], ["node-1"])]) == []

    def test_transient_violation_is_flagged_with_its_stage(self, configuration):
        # migrate b onto c's node: every state from that pool on violates
        # the spread over (b, c)
        target = configuration.copy()
        target.migrate("b", "node-1")
        plan = build_plan(configuration, target)
        violations = check_plan(plan, [Spread(["b", "c"])])
        assert violations
        assert all(v.stage is not None and v.stage >= 1 for v in violations)
        assert all("Spread(b, c)" == v.constraint for v in violations)

    def test_include_source_reports_preexisting_breaches(self, configuration):
        plan = plan_from_pools(configuration, [])
        spread = Spread(["a", "b"])  # already violated before any action
        assert check_plan(plan, [spread]) == []
        sourced = check_plan(plan, [spread], include_source=True)
        assert [v.stage for v in sourced] == [0]

    def test_checker_rejects_corrupted_plans(self, configuration):
        # hand-forge a plan that boots the waiting VM onto a banned node
        configuration.set_waiting("c")
        forged = plan_from_pools(
            configuration, [[Run(vm="c", node="node-2")]]
        )
        ban = Ban(["c"], ["node-2"])
        violations = check_plan(forged, [ban])
        assert [v.constraint for v in violations] == [ban.label]

    def test_checker_rejects_mutated_migrations(self, configuration):
        forged = plan_from_pools(
            configuration,
            [[Migrate(vm="a", source_node="node-0", destination_node="node-1")]],
        )
        violations = check_plan(forged, [Spread(["a", "c"])])
        assert violations and violations[0].stage == 1


class TestPlannerWiring:
    def test_planner_records_violations_on_the_plan(self, configuration):
        target = configuration.copy()
        target.migrate("b", "node-1")
        plan = ReconfigurationPlanner().build(
            configuration, target, constraints=[Spread(["b", "c"])]
        )
        assert plan.constraint_violations
        assert plan.constraint_violations

    def test_unconstrained_plans_carry_no_bookkeeping(self, configuration):
        target = configuration.copy()
        target.migrate("b", "node-2")
        plan = ReconfigurationPlanner().build(configuration, target)
        assert not plan.constraint_violations
        assert plan.constraint_violations == []

    def test_satisfied_constraints_leave_the_plan_clean(self, configuration):
        target = configuration.copy()
        target.migrate("b", "node-2")
        plan = ReconfigurationPlanner().build(
            configuration, target, constraints=[Spread(["a", "b"])]
        )
        assert not plan.constraint_violations


class TestSettledAnswers:
    """``check_plan(..., settled=)``: answers on the source known without
    asking, kept from one check to the next while nothing a constraint reads
    was written (``unwritten_answers``)."""

    def _moves_c(self, configuration):
        target = configuration.copy()
        target.migrate("c", "node-2")
        return build_plan(configuration, target)

    def test_an_untouched_constraint_is_asked_once_and_its_answer_kept(
        self, configuration
    ):
        # ``a`` runs outside its fence and no action moves it.
        fence = Fence(["a"], ["node-1"])
        settled = {}
        first = check_plan(self._moves_c(configuration), [fence], settled=settled)
        assert settled == {0: first[0].message}
        # The next source wrote nothing ``a``: the answer is taken as kept,
        # and reported at every stage as if asked.
        kept = unwritten_answers(settled, [fence], {"b"})
        assert kept == settled
        assert check_plan(self._moves_c(configuration), [fence], settled=kept) == first

    def test_a_written_member_is_asked_again(self, configuration):
        fence = Fence(["a"], ["node-1"])
        settled = {}
        assert check_plan(self._moves_c(configuration), [fence], settled=settled)
        # ``a`` moved into its fence since: the kept answer no longer holds.
        configuration.migrate("a", "node-1")
        kept = unwritten_answers(settled, [fence], {"a"})
        assert kept == {}
        assert check_plan(self._moves_c(configuration), [fence], settled=kept) == []
        assert kept == {0: None}

    def test_an_acted_constraint_drops_its_source_answer(self, configuration):
        ban = Ban(["c"], ["node-0"])
        settled = {0: None}
        check_plan(self._moves_c(configuration), [ban], settled=settled)
        assert settled == {}
