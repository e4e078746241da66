"""Tests of the benchmark itself: generators, output checks and spans."""

import json
import time
from pathlib import Path

import pytest

from benchmarks import gen, harness, tracing, workloads
from planhunt import hunt
from planhunt.inference.engine import evaluate
from planhunt.planning_model.state import load_capability_table
from planhunt.telemetry import events_to_facts, load_sample

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def assets():
    return hunt.HuntAssets.load()


@pytest.fixture
def small_long_trace(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "LONG_TRACE_EVENTS", 80)
    monkeypatch.setattr(workloads, "LONG_TRACE_SAMPLES", 3)
    workload = workloads.LongTrace(ROOT, 5, tmp_path)
    workload.prepare()
    return workload


def test_generators_are_deterministic(tmp_path):
    a, b, c = (tmp_path / name for name in "abc")
    for directory in (a, b, c):
        directory.mkdir()
    for index in range(3):
        first = gen.long_trace(11, index, a, events=90)
        again = gen.long_trace(11, index, b, events=90)
        other = gen.long_trace(12, index, c, events=90)
        assert first.path.read_bytes() == again.path.read_bytes()
        assert first == gen.TraceTruth(**{**vars(again), "path": first.path})
        assert first.path.read_bytes() != other.path.read_bytes()
    first = gen.wide_catalog(11, a, extra=30)
    again = gen.wide_catalog(11, b, extra=30)
    other = gen.wide_catalog(12, c, extra=30)
    assert first.path.read_bytes() == again.path.read_bytes()
    assert first.extra_cves == again.extra_cves
    assert first.path.read_bytes() != other.path.read_bytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_long_trace_background_never_completes_a_rule(tmp_path, assets, seed):
    for index in range(len(gen.PLANTS)):
        background = gen.long_trace(seed, index, tmp_path, events=120, planted=False)
        derived = evaluate(assets.program, events_to_facts(load_sample(background.path)))
        assert len(derived.facts) == 0

        planted = gen.long_trace(seed, index, tmp_path, events=120)
        derived = evaluate(assets.program, events_to_facts(load_sample(planted.path)))
        exploited = {f.args[0] for f in derived.facts if f.predicate == "exploited"}
        assert exploited == set(planted.exploited)
        assert not any(f.predicate == "cross-sandbox-reads" for f in derived.facts)


def test_wide_catalog_adds_only_unreachable_cves(tmp_path):
    truth = gen.wide_catalog(4, tmp_path, extra=50)
    table = load_capability_table(truth.path.read_text(encoding="utf-8"))
    extra = set(truth.extra_cves)
    for row in table.rows:
        if row.capability == "pivot-exploit-from-to" and row.cve not in extra:
            assert row.argument not in extra
        if row.cve in extra:
            assert row.capability != "enables-privilege-escalation"
    assert len(table.rows) == 4 + truth.rows_added


def _corrupting(original, sample_id: str, old: str, new: str):
    def report_to_json(report, include_wall_time=True):
        text = original(report, include_wall_time=include_wall_time)
        return text.replace(old, new) if report.sample_id == sample_id else text

    return report_to_json


def test_corrupted_long_trace_report_fails_only_its_sample(small_long_trace, assets, monkeypatch):
    outcomes, _ = small_long_trace.run_pass(assets)
    assert all(o.ok for o in outcomes)

    victim = small_long_trace.truths[small_long_trace.paths[0]].sample_id
    corrupt = _corrupting(hunt.report_to_json, victim, '"unconfirmed"', '"confirmed"')
    monkeypatch.setattr(hunt, "report_to_json", corrupt)
    outcomes, _ = small_long_trace.run_pass(assets)
    assert [o.ok for o in outcomes] == [o.sample != victim for o in outcomes]


def test_corrupted_corpus_report_fails_its_pass(tmp_path, assets, monkeypatch):
    corpus = workloads.Corpus(ROOT, 1, tmp_path)
    corpus.prepare()
    # Dropping the cheapest plan of one sample keeps the report consistent
    # but changes the summary, which only the oracle's CSV catches.
    victim = "pivot_demo"
    original = hunt.report_to_json

    def drop_a_plan(report, include_wall_time=True):
        text = original(report, include_wall_time=include_wall_time)
        if report.sample_id != victim:
            return text
        doc = json.loads(text)
        finding = next(f for f in doc["findings"] if f["plans"])
        del finding["plans"][0], finding["indicators"][0]
        return json.dumps(doc)

    monkeypatch.setattr(hunt, "report_to_json", drop_a_plan)
    outcomes, _ = corpus.run_pass(assets)
    assert len(outcomes) == 20 and not any(o.ok for o in outcomes)
    assert all(o.latency_s is not None for o in outcomes)


def test_raising_hunt_is_counted_not_fatal(small_long_trace, assets, monkeypatch):
    victim = small_long_trace.paths[1]
    original = hunt.load_sample

    def load_sample(path, *args, **kwargs):
        if Path(path) == victim:
            raise OSError("unreadable")
        return original(path, *args, **kwargs)

    monkeypatch.setattr(hunt, "load_sample", load_sample)
    outcomes, _ = small_long_trace.run_pass(assets)
    assert [o.ok for o in outcomes] == [o.sample != victim.stem for o in outcomes]
    metrics, info = harness.end_to_end_metrics(
        [harness.PartResult(outcomes, 1.0, 1, 1024, setup_s=[0.01])]
    )
    assert info["failed_ratio"] == pytest.approx(1 / 3)
    assert harness.fastest_latencies(outcomes)[victim.stem] == float("inf")


def test_span_self_times_add_up_to_traced_time(small_long_trace, assets):
    tracer = tracing.Tracer()
    busy = 0.0
    start = time.perf_counter_ns()
    with tracer.installed():
        for _ in range(2):
            tracer.pass_index += 1
            outcomes, pass_busy = small_long_trace.run_pass(assets)
            busy += pass_busy
    wall_ns = time.perf_counter_ns() - start
    assert all(o.ok for o in outcomes)

    own = tracing.self_times_ns(tracer.spans)
    assert min(own.values()) >= 0
    roots = sum(s.end_ns - s.start_ns for s in tracer.spans if s.parent is None)
    assert sum(own.values()) == roots
    # Only the benchmark's own loop (checks, bookkeeping) lies outside the
    # root spans; the gaps between them inside a sample's latency are tiny.
    assert roots <= busy * 1e9 <= wall_ns
    assert busy * 1e9 - roots < 0.05 * busy * 1e9

    assert tracing.counts_repeat(tracer.spans)
    metrics = tracing.sample_metrics(tracer.spans, samples=6, passes=2)
    assert metrics["planning_model.ground.ground_task.calls"][0] == 4
    assert metrics["telemetry.facts_in"][0] == 3 * 80
    assert {s.sample for s in tracer.spans} == {p.stem for p in small_long_trace.paths}


def test_each_sample_counts_at_its_fastest_hunt():
    outcomes = [
        workloads.Outcome("a", 0.3, True),
        workloads.Outcome("a", 0.1, True),
        workloads.Outcome("b", 0.05, False),
        workloads.Outcome("b", 0.2, True),
        workloads.Outcome("c", 0.4, True),
    ]
    assert harness.fastest_latencies(outcomes) == {"a": 0.1, "b": float("inf"), "c": 0.4}
    metrics, info = harness.end_to_end_metrics(
        [harness.PartResult(outcomes, 1.05, 2, 1024, setup_s=[0.03, 0.01, 0.02])]
    )
    # The failed sample drops out of the throughput and counts as slowest.
    assert metrics["samples_per_s"][0] == pytest.approx(2 / 0.5)
    assert metrics["sample_latency_p50_ms"][0] == pytest.approx(400.0)
    assert metrics["setup_s"][0] == 0.02
    assert info["samples"] == 3 and info["hunts"] == 5
