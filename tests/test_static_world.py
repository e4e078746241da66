"""The static world: problems built on a bundle's shared world, against the
reference builder that typed each problem's whole init
(tests/oracles/build_problem.py); capability tables the world rejects at
load; and per-sample and per-hypothesis work that must not grow with the
capability catalog."""

import pickle
from dataclasses import replace

import pytest

from oracles.build_problem import build_problem as reference_build_problem
from planhunt import defaults
from planhunt.errors import InputError, PlanHuntError
from planhunt.hunt import (
    HuntAssets,
    HuntConfig,
    hypothesis_task,
    identify_threats,
    infer_facts,
    report_to_json,
    sample_problem,
)
from planhunt.inference.engine import Relations
from planhunt.planning_model import ground, state
from planhunt.planning_model.ground import ground_task
from planhunt.planning_model.model import ThreatHypothesis
from planhunt.planning_model.state import (
    StaticWorld,
    build_problem,
    load_capability_table,
    load_mapping_table,
    pose,
)
from planhunt.telemetry import Fact, SampleRecord, load_sample
from test_ground_program import (
    CORPUS,
    CORPUS_DIR,
    assert_same_task,
    cartesian_task,
    unreachable_pivots,
)


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
        for hypothesis in assets.catalog:
            assert outcome(lambda: pose(sample_problem(facts, assets), hypothesis)) == outcome(
                lambda: reference_build_problem(
                    facts.derived, facts.sample, assets.domain, assets.capabilities,
                    assets.mapping, hypothesis,
                )
            ), (path.name, hypothesis.label)


BUNDLED_CAPS = defaults.asset_text(defaults.CAPABILITIES_FILE)
BUNDLED_MAP = defaults.asset_text(defaults.STATE_MAP_FILE)
WIDGET = "cve_1 enables-sensor widget core\n"  # widget: not a template object
APP_AS_SENSOR = "cve_1 enables-sensor app core\n"


def assert_load_rejects(text, message, tmp_path, monkeypatch):
    """``HuntAssets.load`` with ``text`` as its capability table raises one
    InputError: ``message`` after the table's path, which is the override's
    path, DIR/cve-capabilities, or the bundled name."""
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    for name in (defaults.DOMAIN_FILE, defaults.RULES_FILE, defaults.STATE_MAP_FILE,
                 defaults.INDICATOR_MAP_FILE):
        (bundle / name).write_text(defaults.asset_text(name), encoding="utf-8")
    table = bundle / defaults.CAPABILITIES_FILE
    table.write_text(text, encoding="utf-8")
    override = tmp_path / "caps"
    override.write_text(text, encoding="utf-8")
    monkeypatch.setattr(defaults, "BUNDLE", bundle)
    loads = {
        str(override): lambda: HuntAssets.load(overrides={defaults.CAPABILITIES_FILE: override}),
        str(table): lambda: HuntAssets.load(root=bundle),
        defaults.CAPABILITIES_FILE: HuntAssets.load,
    }
    for where, load in loads.items():
        with pytest.raises(InputError) as info:
            load()
        assert str(info.value) == f"{where}: {message}"


@pytest.mark.parametrize(
    "capabilities,mapping,facts,expected",
    [
        pytest.param(
            "", "haunted/1 (haunted $1)\n", [("haunted", ("app",))], None, id="undeclared"
        ),
        pytest.param(
            "", "exploited/2 (exploited $1 $2)\n", [("exploited", ("cve_1", "extra"))], None,
            id="arity",
        ),
        pytest.param(
            None, "perm-granted/2 (perm-granted $2 $1)\n",
            [("perm-granted", ("camera", "camera"))], None, id="type-clash",
        ),
        # objects outside the world, typed by the mapped atoms alone
        pytest.param(
            None, BUNDLED_MAP,
            [("a11y-service-active", ("other_app",)), ("perm-granted", ("other_app", "camera"))],
            None, id="own-objects",
        ),
        # an object typed by a capability atom and named by a mapped atom
        pytest.param(
            WIDGET, BUNDLED_MAP,
            [("perm-granted", ("app", "widget")), ("exploited", ("cve_1",))], None, id="shared",
        ),
        pytest.param(WIDGET, BUNDLED_MAP, [("exploited", ("widget",))], None, id="shared-clash"),
        # The reference builder meets the mapped atom first and blames the
        # table; the world's types come first, so the sample is to blame.
        pytest.param(
            WIDGET, BUNDLED_MAP, [("a11y-service-active", ("widget",))],
            ("problem", "object 'widget' used as app but declared as sensor"),
            id="shared-clash-first",
        ),
        # capability atoms that fail their own checks: no world, whatever the sample
        pytest.param(
            APP_AS_SENSOR, BUNDLED_MAP, [("exploited", ("cve_1",))],
            ("world", "object 'app' used as sensor but declared as app"), id="world-clash",
        ),
        pytest.param(
            APP_AS_SENSOR, BUNDLED_MAP, [("a11y-service-active", ("cve_1",))],
            ("world", "object 'app' used as sensor but declared as app"),
            id="world-clash-later",
        ),
    ],
)
def test_hand_made_tables_match_the_reference_builder(
    capabilities, mapping, facts, expected, tmp_path, monkeypatch
):
    """The problem, or the error, of the reference builder; where a case
    expects an error, exactly that error instead: from building the
    problem, or from building the world, which also stops
    ``HuntAssets.load``."""
    domain = HuntAssets.load().domain
    text = BUNDLED_CAPS if capabilities is None else capabilities
    table = load_capability_table(text)
    mapping = load_mapping_table(mapping)
    derived = Relations([Fact(p, args) for p, args in facts])
    sample = SampleRecord(sample_id="s1", events=(), permissions=(), intents=())
    hypothesis = ThreatHypothesis("surveillance", "permission")
    stage, message = expected or (None, None)
    if stage == "world":
        with pytest.raises(InputError) as info:
            StaticWorld.build(domain, table)
        assert str(info.value) == message
        assert_load_rejects(text, message, tmp_path, monkeypatch)
        return
    world = StaticWorld.build(domain, table)
    built = outcome(lambda: pose(build_problem(derived, sample, world, mapping), hypothesis))
    if stage == "problem":
        assert built == ("InputError", message)
        return
    assert built == outcome(
        lambda: reference_build_problem(derived, sample, domain, table, mapping, hypothesis)
    )
    try:
        problem = pose(build_problem(derived, sample, world, mapping), hypothesis)
    except PlanHuntError:
        return
    assert_same_task(ground_task(domain, problem), cartesian_task(domain, problem))


@pytest.mark.parametrize(
    "row,name,declared",
    [
        ("cve_1 pivot-exploit-from-to camera extended", "camera", "sensor"),
        ("cve_1 pivot-exploit-from-to app extended", "app", "app"),
        ("screen enables-privilege-escalation - core", "screen", "sensor"),
        ("acct enables-privilege-escalation - core", "acct", "account"),
        ("cve_1 pivot-exploit-from-to sms_otp extended", "sms_otp", "factor"),
    ],
)
def test_a_cve_named_like_a_template_object_is_rejected_at_load(
    row, name, declared, tmp_path, monkeypatch
):
    text = f"{BUNDLED_CAPS}{row}\n"
    message = f"object {name!r} used as vuln but declared as {declared}"
    with pytest.raises(InputError) as info:
        StaticWorld.build(HuntAssets.load().domain, load_capability_table(text))
    assert str(info.value) == message
    assert_load_rejects(text, message, tmp_path, monkeypatch)


def test_capability_tokens_are_case_insensitive(tmp_path):
    path = tmp_path / "cve-capabilities"
    path.write_text(BUNDLED_CAPS.upper(), encoding="utf-8")
    upper = HuntAssets.load(overrides={defaults.CAPABILITIES_FILE: path})
    bundled = HuntAssets.load()
    assert upper.capabilities == bundled.capabilities
    for sample in map(load_sample, CORPUS):
        assert report_to_json(identify_threats(sample, upper), include_wall_time=False) == (
            report_to_json(identify_threats(sample, bundled), include_wall_time=False)
        )
    dirtycow = identify_threats(load_sample(CORPUS_DIR / "dirtycow_demo.jsonl"), upper)
    assert "surveillance/permission" in dirtycow.possible_threats


def corpus_work(assets, monkeypatch):
    """The atoms build_problem type-checks, per sample, and the rows
    ground_task adds to its store before saturating, per call that grounds,
    once the bundle's world and grounding seed exist."""
    facts = [infer_facts(load_sample(path), assets) for path in CORPUS]
    first = sample_problem(facts[0], assets)
    hypothesis_task(first, assets, assets.catalog[0])  # builds the world and seed
    typed: list[int] = []
    added: list[int] = []
    type_atoms, add_rows = state._type_atoms, ground.add_rows

    def counting_type_atoms(atoms, objects, domain):
        typed.append(len(atoms))
        type_atoms(atoms, objects, domain)

    def counting_add_rows(relations, domain, atoms, objects):
        before = len(relations)
        rows = add_rows(relations, domain, atoms, objects)
        added.append(len(relations) - before)
        return rows

    with monkeypatch.context() as patch:
        patch.setattr(state, "_type_atoms", counting_type_atoms)
        patch.setattr(ground, "add_rows", counting_add_rows)
        for sample_facts in facts:
            problem = sample_problem(sample_facts, assets)
            for hypothesis in assets.catalog:
                hypothesis_task(problem, assets, hypothesis)
    return typed, added


def test_per_hypothesis_work_does_not_grow_with_the_catalog(tmp_path, monkeypatch):
    # A sample's hypotheses pose their goals on one problem, typed once, and
    # share its own rows, so the world's memo grounds each sample at most once.
    assets = HuntAssets.load()
    bundled = corpus_work(assets, monkeypatch)
    wide = corpus_work(load_assets("extra_400", tmp_path), monkeypatch)
    typed, added = bundled
    assert len(typed) == len(CORPUS)
    assert len(added) <= len(CORPUS)
    assert wide == bundled


def test_the_memo_grounds_like_an_empty_store(tmp_path):
    """Every corpus sample and hypothesis grounds on the world as it does
    without one, goal mask included, whatever the memo holds: in catalog
    order, in reverse, and interleaved with another sample's problems and
    with those of a bundle with 40 more CVEs."""
    assets = HuntAssets.load()
    path, _ = unreachable_pivots(tmp_path, 40)
    wide = HuntAssets.load(overrides={defaults.CAPABILITIES_FILE: path})
    pivot = sample_problem(infer_facts(load_sample(CORPUS_DIR / "pivot_demo.jsonl"), assets), assets)
    wide_pivot = sample_problem(infer_facts(load_sample(CORPUS_DIR / "pivot_demo.jsonl"), wide), wide)

    def check(problem, bundle):
        reference = ground_task(bundle.domain, replace(problem, world=None))
        assert_same_task(ground_task(bundle.domain, problem), reference)

    for sample_path in CORPUS:
        sample = sample_problem(infer_facts(load_sample(sample_path), assets), assets)
        problems = [pose(sample, h) for h in assets.catalog]
        for problem in problems + problems[::-1]:
            check(problem, assets)
        for problem, hypothesis in zip(problems, assets.catalog):
            check(pose(pivot, hypothesis), assets)
            check(pose(wide_pivot, hypothesis), wide)
            check(problem, assets)


def corpus_tasks(assets):
    tasks = []
    for path in CORPUS:
        problem = sample_problem(infer_facts(load_sample(path), assets), assets)
        tasks += [hypothesis_task(problem, assets, h) for h in assets.catalog]
    return tasks


def test_unreachable_catalog_rows_leave_every_task_as_it_is(tmp_path):
    # A task holds only fluent atoms, and unreachable CVEs add none, nor
    # any action: atoms, init, goal and masks match the bundled table's.
    bundled = corpus_tasks(HuntAssets.load())
    for task, wide in zip(bundled, corpus_tasks(load_assets("extra_400", tmp_path)), strict=True):
        assert_same_task(wide, task)


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
    assert "model" in vars(assets.world)  # the first grounding built the model

    copy = pickle.loads(pickle.dumps(assets))
    assert copy.world.domain is copy.domain  # so grounding extends the model
    assert report_to_json(identify_threats(sample, copy, config), include_wall_time=False) == report
    for task, original in zip(corpus_tasks(copy), corpus_tasks(assets), strict=True):
        assert_same_task(task, original)
