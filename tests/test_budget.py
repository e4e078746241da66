"""The one count budget, ``inference.engine.FACT_LIMIT``: the rows rule
programs derive into a store, where an overlay starts from its base's
count. Grounding on a bundle's world counts the world's rows for every
task, so it trips at the same limit as grounding from an empty store, and
inference trips one row short of what a sample derives."""

import pickle
from dataclasses import replace

import pytest

from planhunt import defaults
from planhunt.errors import ResourceLimit
from planhunt.hunt import HuntAssets, infer_facts, sample_problem
from planhunt.inference.engine import evaluate
from planhunt.planning_model.ground import ground_task
from planhunt.planning_model.state import pose
from planhunt.telemetry import events_to_facts, load_sample
from test_hunt import within

CORPUS = defaults.corpus_paths()

# The least limit at which surveillance/permission grounds, per sample.
TRIP_POINTS = {"big_mix_demo": 16, "clipboard_demo": 19, "camera_perm_demo": 6}


@pytest.fixture(scope="module")
def assets():
    return HuntAssets.load()


def passes(limit, call):
    """Whether ``call`` returns with the count budget at ``limit``."""
    try:
        within(limit, call)()
    except ResourceLimit as exc:
        assert exc.limit == limit
        return False
    return True


def trip_point(call):
    """The least limit at which ``call`` passes, by bisection."""
    low, high = 0, 1000
    assert passes(high, call)
    while low < high:
        middle = (low + high) // 2
        if passes(middle, call):
            high = middle
        else:
            low = middle + 1
    return low


def grounding(assets, problem):
    return lambda: ground_task(assets.domain, problem)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_world_and_empty_store_trip_at_the_same_limit(assets, path):
    sample = sample_problem(infer_facts(load_sample(path), assets), assets)
    for hypothesis in assets.catalog:
        problem = pose(sample, hypothesis)
        limit = trip_point(grounding(assets, problem))
        if hypothesis.label == "surveillance/permission" and path.stem in TRIP_POINTS:
            assert limit == TRIP_POINTS[path.stem]
        for task in (problem, replace(problem, world=None)):
            outcomes = [passes(at, grounding(assets, task)) for at in (limit - 1, limit, limit + 1)]
            assert outcomes == [False, True, True], (path.stem, hypothesis.label, task.world)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_inference_passes_at_exactly_the_derived_count(assets, path):
    base = events_to_facts(load_sample(path))
    model = evaluate(assets.program, base)
    derived = len(model.facts)
    assert (base.spent, model.relations.spent) == (0, derived)

    def infer():
        evaluate(assets.program, base)

    assert passes(derived, infer) and not passes(derived - 1, infer)


def test_a_pickled_world_model_keeps_its_count(assets):
    camera = infer_facts(load_sample(defaults.BUNDLE / "corpus/camera_perm_demo.jsonl"), assets)
    (hypothesis,) = [h for h in assets.catalog if h.label == "surveillance/permission"]
    assert trip_point(grounding(assets, pose(sample_problem(camera, assets), hypothesis))) == 6
    model = assets.world.model
    assert pickle.loads(pickle.dumps(model)).spent == model.spent > 0
    copy = pickle.loads(pickle.dumps(assets))
    assert "model" in vars(copy.world)  # grounding extends the copied model
    problem = pose(sample_problem(camera, copy), hypothesis)
    assert trip_point(grounding(copy, problem)) == 6
