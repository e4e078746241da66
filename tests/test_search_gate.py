"""The planner's A* search against uniform-cost search over simple paths.

``find_top_k`` orders its frontier by cost plus an admissible estimate, so
it must return the plans and status that uniform-cost search
(``oracles.blind_search``) returns, and never expand more paths: on random
tasks with zero-cost actions, on a task whose dead leaf the estimate
leaves unexpanded, and on every live task of the corpus and of the seed-7
long traces.
"""

import random

import pytest

from benchmarks import gen
from oracles.blind_search import blind_top_k
from planhunt.hunt import HuntAssets, hypothesis_task, infer_facts, sample_problem
from planhunt.planner import Limits, Plan, find_top_k
from planhunt.planning_model.ground import GroundedTask
from planhunt.telemetry import load_sample
from taskgen import random_task
from test_ground_program import CORPUS

KS = (1, 2, 3, 5, 10)


def agrees(task: GroundedTask, k: int) -> int:
    """Assert the A* result matches uniform-cost search at ``k``; return
    the expansions it saved."""
    fast = find_top_k(task, Limits(k=k))
    blind = blind_top_k(task, k=k)
    assert (fast.plans, fast.status) == (blind.plans, blind.status)
    assert fast.expanded <= blind.expanded
    return blind.expanded - fast.expanded


def test_random_tasks_with_zero_cost_actions():
    saved = 0
    for seed in range(800):
        task = random_task(random.Random(seed), zero_cost=0.3)
        for k in KS:
            saved += agrees(task, k)
    assert saved > 0


def test_a_dead_leaf_ranked_before_the_plan_is_not_a_candidate():
    # Uniform-cost search pops ``stray`` (cost 1), finds no simple
    # extension, then pops the one plan with an empty frontier. A* pops the
    # plan first, with ``stray`` still on its frontier, and must walk it to
    # answer complete rather than truncated_k.
    g, l = ("g", ()), ("l", ())
    specs = [
        ("reach", "reach", (), None, [], [l], [g], [], 2),
        ("stray", "stray", (), None, [], [g], [l], [], 1),
    ]
    task = GroundedTask.assemble((g, l), specs, frozenset(), {g})
    result = find_top_k(task, Limits(k=1))
    assert (result.plans, result.status) == ((Plan((0,), 2),), "complete")
    assert agrees(task, 1) == 0


def live_tasks(paths, assets):
    for path in paths:
        problem = sample_problem(infer_facts(load_sample(path), assets), assets)
        for hypothesis in assets.catalog:
            task = hypothesis_task(problem, assets, hypothesis)
            if task.goal is not None:
                yield task


@pytest.mark.parametrize("strict", [False, True])
def test_live_corpus_tasks(strict):
    tasks = list(live_tasks(CORPUS, HuntAssets.load(strict_domain=strict)))
    assert tasks
    for task in tasks:
        for k in KS:
            agrees(task, k)


def test_live_long_trace_tasks(tmp_path):
    paths = [gen.long_trace(7, index, tmp_path, events=300).path for index in range(21)]
    tasks = list(live_tasks(paths, HuntAssets.load()))
    assert len(tasks) >= 21
    for task in tasks:
        for k in KS:
            agrees(task, k)
