"""The whole hunt against the reference pipeline (tests/oracles/pipeline.py),
byte for byte: every report ``identify_threats`` writes, and every problem
``plan --dump-problem`` prints, must equal what the reference stages
compose, on the corpus under the bundled domain, the strict domain, a
catalog with 40 unreachable CVEs and a domain with a third threat, and on
seeded long traces."""

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


def assert_hunts_match(paths, assets):
    for path in paths:
        report, problems = reference_hunt(path, assets, CONFIG)
        sample = load_sample(path)
        hunted = identify_threats(sample, assets, CONFIG)
        assert report_to_json(hunted, include_wall_time=False) == report, path.name
        problem = sample_problem(infer_facts(sample, assets), assets)
        assert [render_problem(pose(problem, h)) for h in assets.catalog] == problems, path.name


@pytest.mark.parametrize("setup", ["bundled", "strict_domain", "wide_catalog", "third_threat"])
def test_corpus_hunts_match_the_reference_pipeline(setup, tmp_path):
    if setup == "wide_catalog":
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
