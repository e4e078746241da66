"""Acceptance gate: the eight shipping criteria, one test per criterion.

Each test is one criterion; the -v line for the test is its pass/fail
line. Tests also print a short PASS summary (visible with -s or on
failure) so the gate reads as a checklist.
"""

import random
import time
from pathlib import Path

import pytest

from planhunt.defaults import corpus_paths
from planhunt.errors import NegationCycle
from planhunt.hunt import HuntAssets, HuntConfig, batch_hunt, identify_threats
from planhunt.inference.engine import evaluate, stratify
from planhunt.inference.rules import parse_rule_pack
from planhunt.planner import Limits, find_top_k, validate_plan
from planhunt.planning_model.ground import ground_task
from planhunt.planning_model.model import ThreatHypothesis
from planhunt.planning_model.state import StaticWorld, build_problem, pose
from planhunt.telemetry import Fact, events_to_facts, load_sample

from oracles.enumerate import CapExceeded, oracle_enumerate
from oracles.naive_datalog import evaluate_naive
from taskgen import dijkstra_cost, random_task
from test_engine import PACKS, build_pack, random_base

CORPUS = Path("src/planhunt/assets/corpus")
EXPECTED_SUMMARY = Path("tests/data/expected_summary.csv")


def passed(criterion, text):
    print(f"criterion {criterion}: PASS - {text}")


def hypothesis_planset(sample, assets, label, limits=None):
    """Raw pipeline for one hypothesis: facts, problem, task, top-k plans."""
    threat, _, mechanism = label.partition("/")
    hypothesis = ThreatHypothesis(threat=threat, mechanism=mechanism)
    base = events_to_facts(sample)
    derived = evaluate(assets.program, base).facts
    world = StaticWorld.build(assets.domain, assets.capabilities)
    problem = pose(build_problem(derived, sample, world, assets.mapping), hypothesis)
    task = ground_task(assets.domain, problem)
    return derived, task, find_top_k(task, limits or Limits())


def assert_contract(task, planset):
    """Plan-set invariants every enumeration must satisfy."""
    costs = [plan.cost for plan in planset.plans]
    assert costs == sorted(costs)
    assert len({plan.steps for plan in planset.plans}) == len(planset.plans)
    for plan in planset.plans:
        assert validate_plan(task, plan).ok
    optimum = dijkstra_cost(task)
    if planset.plans:
        assert planset.plans[0].cost == optimum
    elif planset.status == "no_plan":
        assert optimum is None


def test_criterion_1_privilege_escalation_case_study():
    start = time.monotonic()
    sample = load_sample(CORPUS / "dirtycow_demo.jsonl")
    assets = HuntAssets.load()
    derived, task, planset = hypothesis_planset(
        sample, assets, "surveillance/permission"
    )
    assert Fact("exploited", ("cve_2016_5195",)) in derived
    top = planset.plans[0]
    steps = tuple(task.actions[i].render() for i in top.steps)
    assert steps == (
        "(grant-permission-to-sensor app cve_2016_5195 camera)",
        "(surveillance-via-permission app camera)",
    )
    assert len(top.steps) == 2
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    assert_contract(task, planset)
    passed(1, f"2-step escalation plan in {elapsed:.3f}s")


def test_criterion_2_pivot_chain_case_study():
    start = time.monotonic()
    sample = load_sample(CORPUS / "pivot_demo.jsonl")
    assets = HuntAssets.load()
    derived, task, planset = hypothesis_planset(
        sample, assets, "surveillance/exploit"
    )
    assert Fact("exploited", ("cve_2019_2194",)) in derived
    top = planset.plans[0]
    steps = tuple(task.actions[i].render() for i in top.steps)
    assert steps == (
        "(pivot-exploit cve_2019_2194 cve_2019_2103)",
        "(surveillance-via-exploit app cve_2019_2103 screen)",
    )
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    assert_contract(task, planset)
    passed(2, f"2-step pivot chain in {elapsed:.3f}s")


def test_criterion_3_restricted_domain_has_no_fraud_permission_plans():
    strict_assets = HuntAssets.load(strict_domain=True)
    for path in corpus_paths():
        report = identify_threats(load_sample(path), strict_assets, HuntConfig())
        (finding,) = [
            f for f in report.findings if f.label == "financial_fraud/permission"
        ]
        assert finding.plans == (), path.stem

    full_assets = HuntAssets.load()
    report = identify_threats(
        load_sample(CORPUS / "fraud_demo.jsonl"), full_assets, HuntConfig()
    )
    (finding,) = [
        f for f in report.findings if f.label == "financial_fraud/permission"
    ]
    assert len(finding.plans) >= 1
    passed(3, "restricted domain: 0 fraud/permission plans; producers restore them")


def test_criterion_4_topk_matches_oracle_on_random_tasks():
    start = time.monotonic()
    rng = random.Random(20250821)
    compared = 0
    attempts = 0
    while compared < 100 and attempts < 400:
        attempts += 1
        task = random_task(rng, max_atoms=12, max_actions=10)
        try:
            slow = oracle_enumerate(task, k=10, cap=500_000)
        except CapExceeded:
            continue
        fast = find_top_k(task, Limits(k=10))
        assert list(fast.plans) == list(slow.plans), f"attempt {attempts}"
        assert_contract(task, fast)
        compared += 1
    elapsed = time.monotonic() - start
    assert compared >= 100
    assert elapsed < 60.0
    passed(4, f"{compared} random tasks matched the oracle in {elapsed:.1f}s")


def test_criterion_5_planner_contract_and_limits():
    limits = Limits()
    assert limits.k == 10
    assert limits.wall_time == 3600.0
    assert limits.memory == 8 * 2**30

    rng = random.Random(5)
    checked = 0
    for _ in range(40):
        task = random_task(rng)
        planset = find_top_k(task, Limits(k=10))
        assert planset.status in (
            "complete", "truncated_k", "truncated_limit", "timed_out", "no_plan",
        )
        assert_contract(task, planset)
        checked += 1

    exhausted = find_top_k(random_task(random.Random(99)), Limits(wall_time=0.0))
    assert exhausted.status == "timed_out"
    assert exhausted.plans == ()
    passed(5, f"contract held on {checked} plan sets; zero budget times out cleanly")


def test_criterion_6_seminaive_equals_naive_saturation():
    rng = random.Random(20240817)
    runs = 0
    for directives, rules in PACKS:
        pack = build_pack(directives, rules)
        program = stratify(pack)
        for _ in range(50):
            base = random_base(pack, rng)
            assert evaluate(program, base).facts == evaluate_naive(pack, base)
            runs += 1
    assert runs == 200

    order_rng = random.Random(7)
    for directives, rules in PACKS:
        base = random_base(build_pack(directives, rules), order_rng)
        order = list(range(len(rules)))
        reference = None
        for _ in range(4):
            order_rng.shuffle(order)
            result = evaluate(stratify(build_pack(directives, rules, order)), base).facts
            reference = result if reference is None else reference
            assert result == reference

    cyclic = parse_rule_pack(
        "#pred move/2 extensional\n"
        "#pred win/1 intensional\n"
        "win(X) :- move(X, Y), not win(Y).\n"
    )
    with pytest.raises(NegationCycle):
        stratify(cyclic)
    passed(6, "200 bases agree, rule order irrelevant, negation cycle rejected")


def test_criterion_7_batch_reports_are_deterministic(tmp_path):
    paths = corpus_paths()
    assert len(paths) == 20
    serial_dir = tmp_path / "workers1"
    pooled_dir = tmp_path / "workers4"
    batch_hunt(paths, report_dir=serial_dir, workers=1)
    batch_hunt(paths, report_dir=pooled_dir, workers=4)

    names = sorted(p.name for p in serial_dir.iterdir())
    assert names == sorted(p.name for p in pooled_dir.iterdir())
    assert len(names) == 21  # 20 reports + summary.csv
    for name in names:
        assert (serial_dir / name).read_bytes() == (pooled_dir / name).read_bytes(), name
    assert (serial_dir / "summary.csv").read_text() == EXPECTED_SUMMARY.read_text()
    passed(7, "20-sample corpus byte-identical across 1 and 4 workers")


def test_criterion_8_possible_set_mirrors_raw_planner_output():
    assets = HuntAssets.load()
    config = HuntConfig()
    assert config.confirm is False
    world = StaticWorld.build(assets.domain, assets.capabilities)
    checked = 0
    for path in corpus_paths():
        sample = load_sample(path)
        report = identify_threats(sample, assets, config)
        base = events_to_facts(sample)
        problem = build_problem(evaluate(assets.program, base).facts, sample, world, assets.mapping)
        for hypothesis in assets.catalog:
            planset = find_top_k(ground_task(assets.domain, pose(problem, hypothesis)), Limits())
            label = f"{hypothesis.threat}/{hypothesis.mechanism}"
            assert (label in report.possible_threats) == bool(planset.plans), (
                path.stem, label,
            )
            checked += 1
    assert checked == 80
    passed(8, "possible-threat membership equals plan-set nonemptiness on all 80 cells")
