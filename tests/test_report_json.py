"""Differential test: the report writer against the serializer it replaced.

``tests/oracles/report_json.py`` keeps the old writer, a payload of dicts
and lists through ``json.dumps(..., indent=2, sort_keys=True)``.
``hunt.report_to_json`` writes the same layout directly; on every report,
with and without the wall time, both must give the same bytes.
"""

from hypothesis import example, given, settings, strategies as st

from planhunt.defaults import corpus_paths
from planhunt.hunt import (
    CONFIRM_CONFIRMED,
    STATUS_NO_PLAN,
    STATUS_POSSIBLE,
    STATUS_TIMED_OUT,
    HuntAssets,
    HuntConfig,
    HuntReport,
    IoCRecord,
    ThreatFinding,
    identify_threats,
    report_to_json,
)
from planhunt.telemetry import load_sample
from oracles.report_json import report_to_json as reference

# Every string field draws on characters json escapes: quotes, backslashes,
# control characters, DEL, non-ASCII and astral characters, a lone surrogate.
SPECIAL = '"\\/\x00\x08\x1f\x7f\xe9 \ud800\U0001f600'
texts = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters()), max_size=6)
statuses = st.one_of(st.sampled_from([STATUS_POSSIBLE, STATUS_NO_PLAN, STATUS_TIMED_OUT]), texts)
records = st.builds(
    IoCRecord,
    kind=texts,
    # Unique keys in any order: the writer sorts them.
    detail=st.dictionaries(texts, texts, max_size=3).map(lambda d: tuple(d.items())),
    source_step=st.integers(),
)
findings = st.builds(
    ThreatFinding,
    threat=texts,
    mechanism=texts,
    status=statuses,
    planner_status=statuses,
    plans=st.lists(st.tuples(st.integers(), st.lists(texts, max_size=3).map(tuple)), max_size=3)
    .map(tuple),
    indicators=st.lists(st.lists(records, max_size=3).map(tuple), max_size=3).map(tuple),
    confirmation=texts,
)
wall_times = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-0.0005, 0.0005),  # rounds to 0.0 or -0.0
    st.floats(1e15, 1e300),
    st.integers(0, 10**20),
)
reports = st.builds(
    HuntReport,
    sample_id=texts,
    unknown_tokens=st.lists(texts, max_size=3).map(tuple),
    findings=st.lists(findings, max_size=3).map(tuple),
    strict_domain=st.booleans(),
    confirm=st.booleans(),
    k=st.integers(),
    wall_time_s=wall_times,
)

EMPTY_FINDING = ThreatFinding("t", "m", STATUS_POSSIBLE, "complete", ((0, ()),), ((),))
# The writer renders a (kind, detail) recurring across plans once; each
# occurrence keeps its own source step.
AUDIT = ("permission-audit", (("sensor", "camera"), ("app", "x")))
RECURRING = ThreatFinding(
    "surveillance", "permission", STATUS_POSSIBLE, "complete",
    ((1, ("(a)",)), (2, ("(a)", "(b)"))),
    ((IoCRecord(*AUDIT, 0), IoCRecord("k", (), 0)), (IoCRecord(*AUDIT, 1),)),
    CONFIRM_CONFIRMED,
)


@settings(max_examples=150, deadline=None)
@given(report=reports)
@example(report=HuntReport("", (), (), False, False, 0, 0.0))
@example(report=HuntReport("s", ("",), (EMPTY_FINDING,), True, True, 10, 1e-4))
@example(report=HuntReport("s", (), (ThreatFinding("t", "m", "x", "y", (), ()),), False, True, 1, 7))
@example(report=HuntReport("s", (), (RECURRING, RECURRING), False, False, 3, 123456789.98765))
def test_writer_matches_reference(report):
    for include_wall_time in (True, False):
        assert report_to_json(report, include_wall_time) == reference(report, include_wall_time)


def test_corpus_reports_match_reference():
    assets = HuntAssets.load()
    for path in corpus_paths():
        report = identify_threats(load_sample(path), assets, HuntConfig(confirm=True))
        for include_wall_time in (True, False):
            assert report_to_json(report, include_wall_time) == reference(report, include_wall_time)

