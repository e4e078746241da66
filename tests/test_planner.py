"""Top-k enumeration: deterministic order, limits, validation, plan text."""

import random

import pytest

from oracles.enumerate import CapExceeded, oracle_enumerate
from planhunt.errors import MalformedRecord
from planhunt.planner import (
    Limits,
    Plan,
    PlanSet,
    find_top_k,
    parse_plan_text,
    render_plan,
    validate_plan,
)
from planhunt.planning_model.ground import GroundedTask
from taskgen import dijkstra_cost, random_task

M = ("m", ())
G = ("g", ())


def chain_task():
    """Two routes to the goal: one expensive step or two cheap ones."""
    specs = [
        ("cheap", "cheap", (), None, [], [], [G], [], 2),
        ("step1", "step1", (), None, [], [], [M], [], 1),
        ("step2", "step2", (), None, [M], [], [G], [], 1),
    ]
    return GroundedTask.assemble((M, G), specs, frozenset(), {G})


def guard_task():
    specs = [
        ("cheap", "cheap", (), None, [], [], [G], [], 2),
        ("step1", "step1", (), None, [], [], [M], [], 1),
        ("step2", "step2", (), None, [M], [], [G], [], 1),
        ("guarded", "guarded", (), None, [], [M], [G], [], 1),
    ]
    return GroundedTask.assemble((M, G), specs, frozenset(), {G})


# All simple plans of chain_task, in (cost, lexicographic steps) order.
CHAIN_PLANS = [
    Plan(steps=(0,), cost=2),
    Plan(steps=(1, 2), cost=2),
    Plan(steps=(0, 1), cost=3),
    Plan(steps=(1, 0), cost=3),
]


class TestFindTopK:
    def test_full_enumeration(self):
        result = find_top_k(chain_task(), Limits(k=10))
        assert list(result.plans) == CHAIN_PLANS
        assert result.status == "complete"
        assert result.expanded > 0

    def test_truncated_at_k(self):
        result = find_top_k(chain_task(), Limits(k=2))
        assert list(result.plans) == CHAIN_PLANS[:2]
        assert result.status == "truncated_k"

    def test_exactly_k_plans_with_empty_frontier(self):
        result = find_top_k(chain_task(), Limits(k=4))
        assert list(result.plans) == CHAIN_PLANS
        assert result.status == "complete"

    def test_no_plan(self):
        task = GroundedTask.assemble(
            (M,), [("step1", "step1", (), None, [], [], [M], [], 1)],
            frozenset(), {G},
        )
        result = find_top_k(task)
        assert result.plans == ()
        assert result.status == "no_plan"

    def test_goal_in_initial_state_is_the_empty_plan(self):
        task = GroundedTask.assemble(
            (M, G), [("step1", "step1", (), None, [], [], [M], [], 1)],
            frozenset({G}), {G},
        )
        result = find_top_k(task)
        assert result.plans[0] == Plan(steps=(), cost=0)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            find_top_k(chain_task(), Limits(k=0))

    def test_zero_wall_time_times_out(self):
        result = find_top_k(chain_task(), Limits(k=10, wall_time=0.0))
        assert result.status == "timed_out"
        assert result.plans == ()

    def test_tiny_memory_budget_truncates(self):
        result = find_top_k(chain_task(), Limits(k=10, memory=1))
        assert result.status == "truncated_limit"
        assert result.plans == ()
        assert result.expanded == 0


class TestValidatePlan:
    def test_valid(self):
        task = chain_task()
        for plan in CHAIN_PLANS:
            result = validate_plan(task, plan)
            assert result.ok and result.reason == "ok"

    def test_missing_positive_precondition(self):
        result = validate_plan(chain_task(), Plan(steps=(2,), cost=1))
        assert not result.ok
        assert result.step == 0
        assert "step2" in result.reason and "(m)" in result.reason

    def test_violated_negative_precondition(self):
        result = validate_plan(guard_task(), Plan(steps=(1, 3), cost=2))
        assert not result.ok
        assert result.step == 1
        assert "negative precondition" in result.reason

    def test_goal_not_reached(self):
        result = validate_plan(chain_task(), Plan(steps=(1,), cost=1))
        assert not result.ok
        assert result.step == 1
        assert result.reason == "goal not satisfied"

    def test_cost_mismatch(self):
        result = validate_plan(chain_task(), Plan(steps=(0,), cost=5))
        assert not result.ok
        assert "cost mismatch" in result.reason

    def test_unknown_action_index(self):
        with pytest.raises(ValueError):
            validate_plan(chain_task(), Plan(steps=(9,), cost=1))


class TestOracleEnumerate:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 10])
    def test_agrees_with_search(self, k):
        task = chain_task()
        fast = find_top_k(task, Limits(k=k))
        slow = oracle_enumerate(task, k=k)
        assert list(fast.plans) == list(slow.plans)

    def test_statuses(self):
        task = chain_task()
        assert oracle_enumerate(task, k=10).status == "complete"
        assert oracle_enumerate(task, k=2).status == "truncated_k"
        empty = GroundedTask.assemble(
            (M,), [("step1", "step1", (), None, [], [], [M], [], 1)],
            frozenset(), {G},
        )
        assert oracle_enumerate(empty).status == "no_plan"

    def test_goal_outside_the_atoms_is_no_plan_without_search(self):
        task = GroundedTask.assemble(
            (M,), [("step1", "step1", (), None, [], [], [M], [], 1)],
            frozenset(), {("nowhere", ())},
        )
        assert task.goal is None
        assert oracle_enumerate(task, cap=0) == PlanSet((), "no_plan")

    def test_cost_bound(self):
        result = oracle_enumerate(chain_task(), cost_bound=2, k=10)
        assert list(result.plans) == CHAIN_PLANS[:2]
        assert result.status == "complete"

    def test_visit_cap(self):
        with pytest.raises(CapExceeded):
            oracle_enumerate(chain_task(), cap=2)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            oracle_enumerate(chain_task(), k=0)


class TestPlanText:
    def test_render(self):
        text = render_plan(chain_task(), CHAIN_PLANS[1])
        assert text == "(step1)\n(step2)\n; cost = 2\n"

    def test_round_trip(self):
        task = chain_task()
        for plan in CHAIN_PLANS:
            assert parse_plan_text(task, render_plan(task, plan)) == plan

    def test_aliased_names_resolve(self):
        specs = [
            ("pivot-exploit", "pivot-exploit", ("a", "b"), None, [], [], [M], [], 1)
        ]
        task = GroundedTask.assemble((M,), specs, frozenset(), {M})
        plan = parse_plan_text(task, "(pivot_exploit A B)\n; cost = 1\n")
        assert plan == Plan(steps=(0,), cost=1)

    def test_declared_cost_wins(self):
        plan = parse_plan_text(chain_task(), "(step1)\n; cost = 7\n")
        assert plan.cost == 7
        assert not validate_plan(chain_task(), plan).ok

    def test_comments_and_blanks_are_skipped(self):
        plan = parse_plan_text(chain_task(), "; header\n\n(cheap)\n")
        assert plan == Plan(steps=(0,), cost=2)

    def test_one_plan_per_text(self):
        # A step after the cost line starts a second plan, which is refused
        # there rather than joined to the first.
        text = "; plan 1\n(step1)\n; cost = 1\n; plan 2\n(cheap)\n; cost = 2\n"
        with pytest.raises(MalformedRecord) as err:
            parse_plan_text(chain_task(), text)
        assert err.value.line == 5
        trailing = "(step1)\n(step2)\n; cost = 2\n; end\n\n"
        assert parse_plan_text(chain_task(), trailing) == CHAIN_PLANS[1]

    def test_a_cost_that_is_not_an_integer_is_refused_on_its_line(self):
        # Skipped, the line would neither set the cost nor end the plan, and
        # the steps around it would read as one plan.
        with pytest.raises(MalformedRecord) as err:
            parse_plan_text(chain_task(), "(step1)\n; cost = two\n(step2)\n")
        assert (err.value.line, err.value.reason) == (2, "plan cost is not an integer")

    @pytest.mark.parametrize(
        "text", ["step1", "()", "(no-such-action)", "(step1 extra)"]
    )
    def test_bad_step_lines(self, text):
        with pytest.raises(MalformedRecord) as err:
            parse_plan_text(chain_task(), text)
        assert err.value.line == 1


class TestRandomizedContract:
    def test_matches_oracle_and_holds_contract(self):
        compared = 0
        for seed in range(90):
            rng = random.Random(seed)
            task = random_task(rng)
            try:
                slow = oracle_enumerate(task, k=10, cap=200_000)
            except CapExceeded:
                continue
            fast = find_top_k(task, Limits(k=10))
            assert list(fast.plans) == list(slow.plans), f"seed {seed}"
            costs = [plan.cost for plan in fast.plans]
            assert costs == sorted(costs), f"seed {seed}"
            assert len({plan.steps for plan in fast.plans}) == len(fast.plans)
            for plan in fast.plans:
                assert validate_plan(task, plan).ok, f"seed {seed}"
            optimum = dijkstra_cost(task)
            if fast.plans:
                assert fast.plans[0].cost == optimum, f"seed {seed}"
            else:
                assert fast.status == "no_plan" and optimum is None, f"seed {seed}"
            compared += 1
        assert compared >= 60
