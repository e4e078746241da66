"""The whole hunt against the reference pipeline (tests/oracles/pipeline.py),
byte for byte: every report ``identify_threats`` writes, and every problem
``plan --dump-problem`` prints, must equal what the reference stages
compose, on the corpus under the bundled domain, the strict domain, a
catalog with 40 unreachable CVEs, a domain with a third threat and a bundle
with negation (``negation_bundle``), and on seeded long traces."""

import pytest

from benchmarks import gen
from oracles.pipeline import reference_hunt
from planhunt import defaults
from planhunt.hunt import (
    HuntAssets,
    HuntConfig,
    identify_threats,
    infer_facts,
    report_to_json,
    sample_problem,
)
from planhunt.planning_model.pddl import render_problem
from planhunt.planning_model.state import pose
from planhunt.telemetry import load_sample
from test_catalog import extra_threat_domain

CONFIG = HuntConfig(confirm=True)

# A zero-cost action whose disjuncts read static predicates negated, among
# them the mapped cross-sandbox-reads: a sample that derives one of those
# is grounded from scratch, not on the world's model.
PROBE_ACTION = """
  (:action sandbox-probe
    :parameters (?a - app ?s - sensor)
    :precondition (or (and (not (cross-sandbox-reads ?a))
                           (or (perm-granted ?a ?s) (not (a11y-service-active ?a))))
                      (and (clipboard-readable ?a) (not (login-ui-observed ?a))))
    :effect (and (threat-possible surveillance permission ?a)
                 (increase (total-cost) 0)))
)
"""


def negation_bundle(tmp_path) -> dict:
    """Overrides adding ``PROBE_ACTION`` with an ``@N`` template, and a rule
    with a negated literal whose head is mapped onto a predicate the action
    reads negated."""
    texts = {name: defaults.asset_text(name) for name in (
        defaults.DOMAIN_FILE, defaults.RULES_FILE, defaults.STATE_MAP_FILE,
        defaults.INDICATOR_MAP_FILE)}
    texts[defaults.DOMAIN_FILE] = texts[defaults.DOMAIN_FILE].rstrip().removesuffix(")") + PROBE_ACTION
    texts[defaults.RULES_FILE] += (
        "#pred unguarded-clipboard/1 intensional\n"
        "unguarded-clipboard(A) :- clipboard-readable(A), not notification-accessible(A).\n"
    )
    texts[defaults.STATE_MAP_FILE] += "unguarded-clipboard/1 (login-ui-observed $1)\n"
    texts[defaults.INDICATOR_MAP_FILE] += "sandbox-probe@2 permission-audit sensor=$2\n"
    overrides = {}
    for name, text in texts.items():
        overrides[name] = tmp_path / name
        overrides[name].write_text(text, encoding="utf-8")
    return overrides


def assert_hunts_match(paths, assets):
    for path in paths:
        report, problems = reference_hunt(path, assets, CONFIG)
        sample = load_sample(path)
        hunted = identify_threats(sample, assets, CONFIG)
        assert report_to_json(hunted, include_wall_time=False) == report, path.name
        problem = sample_problem(infer_facts(sample, assets), assets)
        assert [render_problem(pose(problem, h)) for h in assets.catalog] == problems, path.name


@pytest.mark.parametrize(
    "setup", ["bundled", "strict_domain", "wide_catalog", "third_threat", "negation"]
)
def test_corpus_hunts_match_the_reference_pipeline(setup, tmp_path):
    if setup == "negation":
        assets = HuntAssets.load(overrides=negation_bundle(tmp_path))
        assert assets.domain.exploration.negated == {
            "cross-sandbox-reads", "a11y-service-active", "login-ui-observed"}
    elif setup == "wide_catalog":
        table = gen.wide_catalog(5, tmp_path, 40).path
        assets = HuntAssets.load(overrides={defaults.CAPABILITIES_FILE: table})
    elif setup == "third_threat":
        assets = HuntAssets.load(overrides={defaults.DOMAIN_FILE: extra_threat_domain(tmp_path)})
        assert len(assets.catalog) == 6
    else:
        assets = HuntAssets.load(strict_domain=setup == "strict_domain")
    assert_hunts_match(defaults.corpus_paths(), assets)


def test_long_trace_hunts_match_the_reference_pipeline(tmp_path):
    traces = [gen.long_trace(7, index, tmp_path, events=100) for index in range(3)]
    traces.append(gen.long_trace(7, 3, tmp_path, events=100, planted=False))
    assert_hunts_match([truth.path for truth in traces], HuntAssets.load())
