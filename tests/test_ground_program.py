"""Grounding as a rule program: differential test against the Cartesian
reference grounder it replaced (tests/oracles/cartesian_ground.py), through
``ground_task`` and through the hunt's own ``hypothesis_task``, and catalogs
too sparse for the reference to ground.
"""

import random
from dataclasses import replace
from pathlib import Path

import pytest

from oracles.cartesian_ground import ground_task as cartesian_ground_task
from planhunt import defaults
from planhunt.hunt import (
    HuntAssets,
    hypothesis_problem,
    hypothesis_task,
    identify_threats,
    infer_facts,
)
from planhunt.planning_model import ground
from planhunt.planning_model.ground import ground_task
from planhunt.planning_model.model import default_catalog
from planhunt.telemetry import load_sample
from test_ground import random_instance

CORPUS_DIR = Path("src/planhunt/assets/corpus")
CORPUS = sorted(path for path in CORPUS_DIR.iterdir() if path.suffix in (".jsonl", ".csv"))


def unreachable_pivots(out_dir: Path, extra: int, seed: int = 0) -> tuple[Path, list[str]]:
    """Write the bundled capability table plus ``extra`` CVEs that pivot
    only among themselves, so no rule or plan can reach one; return the
    table's path and the added CVEs."""
    rng = random.Random(seed)
    cves = [f"cve_2031_{n}" for n in rng.sample(range(10000, 100000), extra)]
    rows = [
        f"{cve} pivot-exploit-from-to {cves[(i + 1 + rng.randrange(extra - 1)) % extra]} extended"
        for i, cve in enumerate(cves)
    ]
    rows += [f"{cve} enables-sensor screen extended" for cve in cves[::20]]
    text = defaults.asset_text(defaults.CAPABILITIES_FILE).rstrip("\n")
    path = out_dir / "cve-capabilities"
    path.write_text(text + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path, cves


def assert_same_task(task, reference):
    assert task.atoms == reference.atoms
    assert task.init == reference.init
    assert task.goal == reference.goal
    assert [
        (a.name, a.args, a.disjunct, a.cost, a.pre_pos, a.pre_neg, a.add, a.delete)
        for a in task.actions
    ] == [
        (a.name, a.args, a.disjunct, a.cost, a.pre_pos, a.pre_neg, a.add, a.delete)
        for a in reference.actions
    ]


@pytest.mark.parametrize("setup", ["bundled", "strict_domain", "wide_catalog"])
def test_corpus_tasks_match_the_cartesian_grounder(setup, tmp_path):
    if setup == "wide_catalog":
        path, _ = unreachable_pivots(tmp_path, 40)
        assets = HuntAssets.load(overrides={defaults.CAPABILITIES_FILE: path})
    else:
        assets = HuntAssets.load(strict_domain=setup == "strict_domain")
    for sample_path in CORPUS:
        facts = infer_facts(load_sample(sample_path), assets)
        for hypothesis in default_catalog():
            problem = hypothesis_problem(facts, assets, hypothesis)
            reference = cartesian_ground_task(assets.domain, problem)
            assert_same_task(ground_task(assets.domain, problem), reference)
            assert_same_task(hypothesis_task(facts, assets, hypothesis), reference)


def test_wide_catalog_tasks_match_fresh_grounding(tmp_path):
    # The Cartesian grounder explodes at this size, so the hunt's tasks,
    # grounded from the bundle's seed, are compared with the same problems
    # grounded from an empty store.
    path, _ = unreachable_pivots(tmp_path, 1600)
    assets = HuntAssets.load(overrides={defaults.CAPABILITIES_FILE: path})
    for sample_path in CORPUS:
        facts = infer_facts(load_sample(sample_path), assets)
        for hypothesis in default_catalog():
            problem = hypothesis_problem(facts, assets, hypothesis)
            assert problem.world is assets.world
            assert_same_task(
                hypothesis_task(facts, assets, hypothesis),
                ground_task(assets.domain, replace(problem, world=None)),
            )


def test_random_tasks_match_the_cartesian_grounder():
    for seed in range(600):
        domain, problem = random_instance(random.Random(seed))
        assert_same_task(
            ground_task(domain, problem), cartesian_ground_task(domain, problem)
        )


def test_sparse_catalog_grounds_without_explosion(tmp_path):
    # 1,200 extra CVEs make 1.44M typed pivot bindings, past the default
    # limit of 10**6 ground actions; only reachable pivots may ground.
    path, added = unreachable_pivots(tmp_path, 1200)
    assets = HuntAssets.load(overrides={defaults.CAPABILITIES_FILE: path})
    facts = infer_facts(load_sample(CORPUS_DIR / "pivot_demo.jsonl"), assets)
    hypothesis = next(h for h in default_catalog() if h.label == "surveillance/exploit")
    task = ground_task(assets.domain, hypothesis_problem(facts, assets, hypothesis))
    assert task.find_action("pivot-exploit", ("cve_2019_2194", "cve_2019_2103")) is not None
    assert not any(set(added) & set(action.args) for action in task.actions)


def test_exploration_program_compiles_once_per_domain(monkeypatch):
    calls = []
    compile_domain = ground.explore_domain

    def counting(domain):
        calls.append(domain)
        return compile_domain(domain)

    monkeypatch.setattr(ground, "explore_domain", counting)
    assets = HuntAssets.load()
    assert calls == []
    for name in ("pivot_demo.jsonl", "big_mix_demo.jsonl"):
        identify_threats(load_sample(CORPUS_DIR / name), assets)
    assert calls == [assets.domain]
