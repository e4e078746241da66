"""The static world: problems built on a bundle's shared world, against the
reference builder that typed each problem's whole init
(tests/oracles/build_problem.py), and per-hypothesis work that must not
grow with the capability catalog."""

import pickle

import pytest

from oracles.build_problem import build_problem as reference_build_problem
from oracles.cartesian_ground import ground_task as cartesian_ground_task
from planhunt import defaults
from planhunt.errors import PlanHuntError
from planhunt.hunt import (
    HuntAssets,
    HuntConfig,
    hypothesis_problem,
    hypothesis_task,
    identify_threats,
    infer_facts,
    report_to_json,
)
from planhunt.inference.engine import Relations
from planhunt.planning_model import ground, state
from planhunt.planning_model.ground import ground_task
from planhunt.planning_model.model import ThreatHypothesis, default_catalog
from planhunt.planning_model.state import (
    StaticWorld,
    build_problem,
    load_capability_table,
    load_mapping_table,
)
from planhunt.telemetry import Fact, SampleRecord, load_sample
from test_ground_program import CORPUS, CORPUS_DIR, assert_same_task, unreachable_pivots


def outcome(build):
    """A problem's name, objects, init and goal, or the error building it."""
    try:
        problem = build()
    except PlanHuntError as exc:
        return type(exc).__name__, str(exc)
    return problem.name, problem.objects, problem.init, problem.goal


def load_assets(setup, tmp_path):
    if setup.startswith("extra_"):
        path, _ = unreachable_pivots(tmp_path, int(setup.removeprefix("extra_")))
        return HuntAssets.load(overrides={defaults.CAPABILITIES_FILE: path})
    return HuntAssets.load(strict_domain=setup == "strict_domain")


@pytest.mark.parametrize("setup", ["bundled", "strict_domain", "extra_40", "extra_1600"])
def test_corpus_problems_match_the_reference_builder(setup, tmp_path):
    assets = load_assets(setup, tmp_path)
    for path in CORPUS:
        facts = infer_facts(load_sample(path), assets)
        for hypothesis in default_catalog():
            assert outcome(lambda: hypothesis_problem(facts, assets, hypothesis)) == outcome(
                lambda: reference_build_problem(
                    facts.derived, facts.sample, assets.domain, assets.capabilities,
                    assets.mapping, hypothesis,
                )
            ), (path.name, hypothesis.label)


BUNDLED_MAP = defaults.asset_text(defaults.STATE_MAP_FILE)
WIDGET = "cve_1 enables-sensor widget core\n"  # widget: not a template object


@pytest.mark.parametrize(
    "capabilities,mapping,facts",
    [
        pytest.param("", "haunted/1 (haunted $1)\n", [("haunted", ("app",))], id="undeclared"),
        pytest.param(
            "", "exploited/2 (exploited $1 $2)\n", [("exploited", ("cve_1", "extra"))], id="arity"
        ),
        pytest.param(
            None, "perm-granted/2 (perm-granted $2 $1)\n",
            [("perm-granted", ("camera", "camera"))], id="type-clash",
        ),
        # objects outside the world, typed by the mapped atoms alone
        pytest.param(
            None, BUNDLED_MAP,
            [("a11y-service-active", ("other_app",)), ("perm-granted", ("other_app", "camera"))],
            id="own-objects",
        ),
        # an object typed by a capability atom and named by a mapped atom
        pytest.param(
            WIDGET, BUNDLED_MAP,
            [("perm-granted", ("app", "widget")), ("exploited", ("cve_1",))], id="shared",
        ),
        pytest.param(WIDGET, BUNDLED_MAP, [("exploited", ("widget",))], id="shared-clash"),
        pytest.param(
            WIDGET, BUNDLED_MAP, [("a11y-service-active", ("widget",))], id="shared-clash-first"
        ),
        # capability atoms that fail their own checks
        pytest.param(
            "cve_1 enables-sensor app core\n", BUNDLED_MAP, [("exploited", ("cve_1",))],
            id="world-clash",
        ),
        pytest.param(
            "cve_1 enables-sensor app core\n", BUNDLED_MAP,
            [("a11y-service-active", ("cve_1",))], id="world-clash-later",
        ),
    ],
)
def test_hand_made_tables_match_the_reference_builder(capabilities, mapping, facts):
    domain = HuntAssets.load().domain
    table = load_capability_table(
        defaults.asset_text(defaults.CAPABILITIES_FILE) if capabilities is None else capabilities
    )
    mapping = load_mapping_table(mapping)
    derived = Relations([Fact(p, args) for p, args in facts])
    sample = SampleRecord(sample_id="s1", events=(), permissions=(), intents=())
    hypothesis = ThreatHypothesis("surveillance", "permission")
    world = StaticWorld.build(domain, table)
    built = outcome(lambda: build_problem(derived, sample, world, mapping, hypothesis))
    assert built == outcome(
        lambda: reference_build_problem(derived, sample, domain, table, mapping, hypothesis)
    )
    try:
        problem = build_problem(derived, sample, world, mapping, hypothesis)
    except PlanHuntError:
        return
    assert_same_task(ground_task(domain, problem), cartesian_ground_task(domain, problem))


def corpus_work(assets, monkeypatch):
    """Per (sample, hypothesis): the atoms build_problem type-checks and the
    rows ground_task adds to its store before saturating, once the bundle's
    world and grounding seed exist."""
    facts = [infer_facts(load_sample(path), assets) for path in CORPUS]
    hypothesis_task(facts[0], assets, default_catalog()[0])  # builds the world and seed
    counted: list[int] = []
    type_atoms, add_rows = state._type_atoms, ground.add_rows

    def counting_type_atoms(atoms, objects, domain):
        counted.append(len(atoms))
        type_atoms(atoms, objects, domain)

    def counting_add_rows(relations, domain, atoms, objects):
        before = len(relations)
        add_rows(relations, domain, atoms, objects)
        counted.append(len(relations) - before)

    with monkeypatch.context() as patch:
        patch.setattr(state, "_type_atoms", counting_type_atoms)
        patch.setattr(ground, "add_rows", counting_add_rows)
        for sample_facts in facts:
            for hypothesis in default_catalog():
                hypothesis_task(sample_facts, assets, hypothesis)
    return counted


def test_per_hypothesis_work_does_not_grow_with_the_catalog(tmp_path, monkeypatch):
    bundled = corpus_work(HuntAssets.load(), monkeypatch)
    wide = corpus_work(load_assets("extra_400", tmp_path), monkeypatch)
    assert len(bundled) == 2 * len(CORPUS) * len(default_catalog())
    assert wide == bundled


def corpus_tasks(assets):
    tasks = []
    for path in CORPUS:
        facts = infer_facts(load_sample(path), assets)
        tasks += [hypothesis_task(facts, assets, h) for h in default_catalog()]
    return tasks


def test_alternating_bundles_ground_like_fresh_loads(tmp_path):
    path, _ = unreachable_pivots(tmp_path, 40)

    def wide_load():
        return HuntAssets.load(overrides={defaults.CAPABILITIES_FILE: path})

    bundled, wide = HuntAssets.load(), wide_load()
    for assets, load in ((bundled, HuntAssets.load), (wide, wide_load), (bundled, HuntAssets.load)):
        for task, fresh in zip(corpus_tasks(assets), corpus_tasks(load()), strict=True):
            assert_same_task(task, fresh)


def test_pickled_assets_keep_their_world(tmp_path):
    assets = load_assets("extra_40", tmp_path)
    config = HuntConfig(confirm=True)
    sample = load_sample(CORPUS_DIR / "pivot_demo.jsonl")
    report = report_to_json(identify_threats(sample, assets, config), include_wall_time=False)
    assert "seed" in vars(assets.world)  # first use built the grounding seed

    copy = pickle.loads(pickle.dumps(assets))
    assert copy.world.domain is copy.domain  # so grounding starts from the seed
    assert report_to_json(identify_threats(sample, copy, config), include_wall_time=False) == report
    for task, original in zip(corpus_tasks(copy), corpus_tasks(assets), strict=True):
        assert_same_task(task, original)
