"""Goals with an atom outside the task's atoms settle as no_plan without
search: a differential test against the exhaustive search the check skips,
and the catalog whose dead hypotheses used to run out their budget.
"""

import random
from dataclasses import replace

import pytest

from planhunt import defaults
from planhunt.hunt import HuntAssets, hypothesis_plans, hypothesis_task, infer_facts, sample_problem
from planhunt.planner import Limits, find_top_k
from planhunt.planning_model.ground import GroundedTask
from planhunt.planning_model.state import pose
from planhunt.telemetry import load_sample
from taskgen import random_task, state_atoms
from test_ground_program import CORPUS, CORPUS_DIR, unreachable_pivots


def padded(task: GroundedTask, goal: set) -> GroundedTask:
    """The task with the goal atoms it lacks added to its atoms, and
    ``goal`` as its mask. No action or init holds the added atoms, so every
    state and plan is unchanged, but the goal has a mask and the full
    search runs."""
    atoms = task.atoms + tuple(a for a in goal if a not in task.atoms)
    index = {a: i for i, a in enumerate(atoms)}
    return replace(task, atoms=atoms, goal=sum(1 << index[a] for a in goal))


def settles_like_search(task: GroundedTask, goal: set) -> bool:
    """Compare find_top_k with the search on the padded task; return
    whether the goal was settled without search."""
    result = find_top_k(task)
    searched = find_top_k(padded(task, goal))
    assert (result.plans, result.status) == (searched.plans, searched.status)
    settled = task.goal is None
    assert settled == any(a not in task.atoms for a in goal)
    assert (result.expanded == 0) is settled
    return settled


def random_goal_task(rng: random.Random) -> tuple[GroundedTask, set]:
    """A random task given one or two of its atoms as its goal, plus, one
    time in three, an atom outside them."""
    task = random_task(rng)
    goal = set(rng.sample(task.atoms, rng.randint(1, 2)))
    if rng.random() < 1 / 3:
        goal.add(("outside", ()))
    specs = [
        (a.name, a.schema, a.args, a.disjunct,
         *(state_atoms(task, m) for m in (a.pre_pos, a.pre_neg, a.add, a.delete)), a.cost)
        for a in task.actions
    ]
    return GroundedTask.assemble(task.atoms, specs, state_atoms(task, task.init), goal), goal


@pytest.mark.parametrize("setup", ["bundled", "strict_domain", "wide_catalog"])
def test_corpus_goal_check_agrees_with_search(setup, tmp_path):
    if setup == "wide_catalog":
        path, _ = unreachable_pivots(tmp_path, 40, seed=3)
        assets = HuntAssets.load(overrides={defaults.CAPABILITIES_FILE: path})
    else:
        assets = HuntAssets.load(strict_domain=setup == "strict_domain")
    settled = 0
    for sample_path in CORPUS:
        problem = sample_problem(infer_facts(load_sample(sample_path), assets), assets)
        for hypothesis in assets.catalog:
            task = hypothesis_task(problem, assets, hypothesis)
            settled += settles_like_search(task, set(pose(problem, hypothesis).goal))
    assert settled > 0


def test_random_goal_check_agrees_with_search():
    settled = sum(
        settles_like_search(*random_goal_task(random.Random(seed))) for seed in range(3000)
    )
    assert 0 < settled < 3000


def test_pivots_off_a_reachable_cve_settle_without_search(tmp_path):
    # Pivots from cve_2019_2103 into CVEs no rule derives used to leave
    # multi_cve_demo's financial_fraud hypotheses searching for millions
    # of expansions until the budget ran out.
    text = defaults.asset_text(defaults.CAPABILITIES_FILE).rstrip("\n")
    rows = [f"cve_2019_2103 pivot-exploit-from-to cve_x_{i} extended" for i in range(3)]
    table = tmp_path / "cve-capabilities"
    table.write_text(text + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assets = HuntAssets.load(overrides={defaults.CAPABILITIES_FILE: table})
    facts = infer_facts(load_sample(CORPUS_DIR / "multi_cve_demo.jsonl"), assets)
    problem = sample_problem(facts, assets)
    fraud = [h for h in assets.catalog if h.threat == "financial_fraud"]
    assert len(fraud) == 2
    for hypothesis in fraud:
        _, planset = hypothesis_plans(problem, assets, hypothesis, Limits(wall_time=2.0))
        assert (planset.status, planset.expanded) == ("no_plan", 0), hypothesis.label


def test_dead_goal_settles_at_zero_wall_time():
    task = GroundedTask.assemble(
        [("a", ())], [("act", "act", (), None, [], [], [("a", ())], [], 1)],
        frozenset(), {("nowhere", ())},
    )
    result = find_top_k(task, Limits(wall_time=0.0))
    assert (result.plans, result.status, result.expanded) == ((), "no_plan", 0)
