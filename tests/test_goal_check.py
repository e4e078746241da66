"""Goals ruled out by the task's atom universe settle as no_plan without
search: unit cases for ``may_hold``, a differential test against the
exhaustive search the check skips, and the catalog whose dead hypotheses
used to run out their budget.
"""

import random
from dataclasses import replace

import pytest

from planhunt import defaults
from planhunt.hunt import HuntAssets, hypothesis_plans, hypothesis_task, infer_facts
from planhunt.planner import Limits, find_top_k
from planhunt.planning_model.ground import GroundedTask, may_hold
from planhunt.planning_model.model import default_catalog
from planhunt.telemetry import load_sample
from taskgen import random_task
from test_ground_program import CORPUS, CORPUS_DIR, unreachable_pivots

LIVE = ("atom", ("live", ()))
DEAD = ("atom", ("dead", ()))
UNIVERSE = {("live", ()): 0}


@pytest.mark.parametrize(
    "ast, possible",
    [
        (LIVE, True),
        (DEAD, False),
        (("not", DEAD), True),
        (("not", ("false",)), True),
        (("not", ("true",)), False),
        (("or", (DEAD, LIVE)), True),
        (("or", (DEAD, ("false",))), False),
        (("and", (LIVE, DEAD)), False),
        (("and", (LIVE, ("not", DEAD))), True),
        (("and", ()), True),
        (("or", ()), False),
        (("true",), True),
        (("false",), False),
    ],
)
def test_may_hold(ast, possible):
    assert may_hold(ast, UNIVERSE) is possible


def test_unknown_node_is_rejected():
    with pytest.raises(ValueError):
        may_hold(("xor", (LIVE, DEAD)), UNIVERSE)


def goal_atoms(ast):
    tag = ast[0]
    if tag == "atom":
        yield ast[1]
    elif tag == "not":
        yield from goal_atoms(ast[1])
    elif tag in ("and", "or"):
        for part in ast[1]:
            yield from goal_atoms(part)


def padded(task: GroundedTask) -> GroundedTask:
    """The task with its goal's missing atoms added to the universe. No
    action or init holds them, so every state and plan is unchanged, but
    the goal check passes and the full search runs."""
    missing = [a for a in dict.fromkeys(goal_atoms(task.goal_ast)) if a not in task.atom_index]
    atoms = task.atoms + tuple(missing)
    return replace(task, atoms=atoms, atom_index={a: i for i, a in enumerate(atoms)})


def settles_like_search(task: GroundedTask) -> bool:
    """Compare find_top_k with the search on the padded task; return
    whether the goal was settled without search."""
    result = find_top_k(task)
    wide = padded(task)
    assert may_hold(wide.goal_ast, wide.atom_index)
    searched = find_top_k(wide)
    assert (result.plans, result.status) == (searched.plans, searched.status)
    settled = not may_hold(task.goal_ast, task.atom_index)
    assert (result.expanded == 0) is settled
    return settled


@pytest.mark.parametrize("setup", ["bundled", "strict_domain", "wide_catalog"])
def test_corpus_goal_check_agrees_with_search(setup, tmp_path):
    if setup == "wide_catalog":
        path, _ = unreachable_pivots(tmp_path, 40, seed=3)
        assets = HuntAssets.load(overrides={defaults.CAPABILITIES_FILE: path})
    else:
        assets = HuntAssets.load(strict_domain=setup == "strict_domain")
    settled = 0
    for sample_path in CORPUS:
        facts = infer_facts(load_sample(sample_path), assets)
        for hypothesis in default_catalog():
            settled += settles_like_search(hypothesis_task(facts, assets, hypothesis))
    assert settled > 0


def test_random_goal_check_agrees_with_search():
    settled = sum(settles_like_search(random_task(random.Random(seed))) for seed in range(3000))
    assert settled > 0


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
    fraud = [h for h in default_catalog() if h.threat == "financial_fraud"]
    assert len(fraud) == 2
    for hypothesis in fraud:
        _, planset = hypothesis_plans(facts, assets, hypothesis, Limits(wall_time=2.0))
        assert (planset.status, planset.expanded) == ("no_plan", 0), hypothesis.label


def test_dead_goal_settles_at_zero_wall_time():
    task = GroundedTask.assemble(
        [("a", ())], [("act", "act", (), None, [], [], [("a", ())], [], 1)],
        frozenset(), ("atom", ("nowhere", ())),
    )
    result = find_top_k(task, Limits(wall_time=0.0))
    assert (result.plans, result.status, result.expanded) == ((), "no_plan", 0)
