"""Confirmation reads the model: differential test against body matching.

``confirm_threat`` confirms a syscall-pattern indicator by probing the
saturated store for ``exploited(cve)``. The check it replaced matched the
pack's bodies for that CVE against the same store, each alternative on its
own. ``body_matching_confirm`` below keeps that check as the oracle, with the
reference matcher of ``tests/oracles/match_body.py``, and the two must
agree on every corpus plan under three asset setups and on random traces
shaped like the pack's event rules. Every probe goes through the name
``planhunt.hunt.match_body``, which the benchmark's tracer times.
"""

import random

import pytest

from planhunt import defaults, hunt
from planhunt.hunt import (
    HuntAssets,
    IoCRecord,
    confirm_threat,
    construct_indicators,
    cve_patterns,
    hypothesis_plans,
    infer_facts,
)
from planhunt.inference.engine import Fact, Relations, evaluate
from planhunt.inference.rules import Literal, Var, parse_rule_pack, render_body
from planhunt.planner import Limits
from planhunt.planning_model.model import default_catalog
from planhunt.telemetry import load_sample
from oracles.match_body import match_body
from test_ground_program import CORPUS, unreachable_pivots
from test_relations import rule_event_patterns


def lifting_bodies(pack):
    """cve -> the bodies of the pack's ``exploited(cve)`` rules, a body that
    is one evidence atom replaced by that atom's own rule bodies."""
    by_head = {}
    for rule in pack.rules:
        by_head.setdefault(rule.head, []).append(rule.body)
    bodies = {}
    for head, lifting in by_head.items():
        if head.predicate != "exploited" or isinstance(head.args[0], Var):
            continue
        for body in lifting:
            evidence = body[0] if len(body) == 1 else None
            if isinstance(evidence, Literal) and not evidence.negated and not evidence.atom.args:
                bodies.setdefault(head.args[0], []).extend(by_head.get(evidence.atom, []))
            else:
                bodies.setdefault(head.args[0], []).append(body)
    return bodies


def body_matching_confirm(records, relations, bodies):
    """The check ``confirm_threat`` replaced: a syscall-pattern record needs
    one of its CVE's bodies to match the store. Other records go to
    ``confirm_threat`` itself, whose checks for them are unchanged."""
    for record in records:
        if record.kind == "syscall-pattern":
            alternatives = bodies.get(record.detail_dict().get("cve"), ())
            if not any(body and match_body(body, relations) for body in alternatives):
                return False
        elif not confirm_threat((record,), relations):
            return False
    return True


def syscall_record(cve):
    return IoCRecord("syscall-pattern", (("cve", cve),), 0)


@pytest.fixture(scope="module")
def bundled():
    return HuntAssets.load()


def test_listed_patterns_are_the_oracle_bodies(bundled):
    bodies = lifting_bodies(bundled.pack)
    assert bundled.patterns == {
        cve: " | ".join(render_body(body) for body in alternatives)
        for cve, alternatives in bodies.items()
    }


@pytest.mark.parametrize("setup", ["bundled", "strict_domain", "wide_catalog"])
def test_corpus_plans_confirm_as_body_matching_does(setup, tmp_path):
    if setup == "wide_catalog":
        path, _ = unreachable_pivots(tmp_path, 40, seed=3)
        assets = HuntAssets.load(overrides={defaults.CAPABILITIES_FILE: path})
    else:
        assets = HuntAssets.load(strict_domain=setup == "strict_domain")
    bodies = lifting_bodies(assets.pack)
    outcomes = {True: 0, False: 0}
    syscall_outcomes = {True: 0, False: 0}
    for sample_path in CORPUS:
        facts = infer_facts(load_sample(sample_path), assets)
        for hypothesis in default_catalog():
            task, planset = hypothesis_plans(facts, assets, hypothesis, Limits())
            for plan in planset.plans:
                records = construct_indicators(
                    task, plan, assets.indicator_specs, assets.patterns
                )
                expected = body_matching_confirm(records, facts.relations, bodies)
                assert confirm_threat(records, facts.relations) == expected, (
                    sample_path.name, hypothesis.label, plan
                )
                outcomes[expected] += 1
                for record in records:
                    if record.kind == "syscall-pattern":
                        alone = body_matching_confirm((record,), facts.relations, bodies)
                        assert confirm_threat((record,), facts.relations) == alone
                        syscall_outcomes[alone] += 1
    assert min(outcomes.values()) > 0
    assert min(syscall_outcomes.values()) > 0


def random_trace(rng, patterns):
    """Up to 12 events on two or three pids with timestamps 0-3, so that
    pids interleave and timestamps tie; most events are shaped like a body
    atom of the pack's event rules."""
    pids = [f"p{n}" for n in range(rng.choice((2, 3)))]
    base = Relations()
    for _ in range(rng.randrange(1, 13)):
        syscall, obj, mode = rng.choice(patterns)
        if mode is None or rng.random() < 0.1:
            mode = rng.choice(("read", "write", "read_or_write", "exec_or_read"))
        base.add(
            "invoked",
            (rng.randrange(4), syscall, rng.choice(pids), "wildcard", obj, mode,
             0 if rng.random() < 0.9 else 1),
        )
    return base


def test_random_traces_confirm_as_body_matching_does(bundled):
    rng = random.Random(11)
    bodies = lifting_bodies(bundled.pack)
    patterns = rule_event_patterns(bundled.pack)
    cves = sorted(bodies)
    dirty = bodies["cve_2016_5195"]
    assert len(dirty) == 2
    agreed = {True: 0, False: 0}
    dirty_alone = [0, 0]
    for _ in range(2000):
        relations = evaluate(bundled.program, random_trace(rng, patterns)).relations
        for cve in cves:
            record = syscall_record(cve)
            expected = body_matching_confirm((record,), relations, bodies)
            assert confirm_threat((record,), relations) == expected, (
                cve, sorted(str(fact) for fact in relations)
            )
            agreed[expected] += 1
        matches = [match_body(body, relations) for body in dirty]
        if matches.count(True) == 1:
            assert confirm_threat((syscall_record("cve_2016_5195"),), relations)
            dirty_alone[matches.index(True)] += 1
        assert not confirm_threat((syscall_record("cve_0000_0000"),), relations)
        assert not confirm_threat((IoCRecord("syscall-pattern", (), 0),), relations)
    assert min(agreed.values()) > 200
    # Either Dirty COW body, taken alone, suffices.
    assert min(dirty_alone) > 0


def test_variable_exploited_head_lists_no_patterns():
    pack = parse_rule_pack(
        "#pred seen/1 extensional\n"
        "#pred exploited/1 intensional\n"
        "exploited(X) :- seen(X).\n"
        "exploited(cve_x) :- seen(y).\n"
    )
    assert cve_patterns(pack) == {"cve_x": "seen(y)"}


def test_record_without_its_probe_field_fails():
    relations = Relations(
        [Fact("perm-granted", ("app", "camera")), Fact("clipboard-readable", ("app",))]
    )
    sensor = IoCRecord("permission-audit", (("sensor", "camera"),), 0)
    surface = IoCRecord("clipboard-access", (("app", "app"),), 0)
    api = IoCRecord("api-call", (("api", "sensor-capture"),), 0)
    assert confirm_threat((sensor, surface, api), relations)
    for kind in ("syscall-pattern", "permission-audit", "clipboard-access"):
        assert not confirm_threat((IoCRecord(kind, (("other", "camera"),), 0),), relations)


def test_every_probe_goes_through_the_traced_name(bundled, monkeypatch):
    # The benchmark's tracer wraps hunt.match_body; a probe that bypassed
    # it would leave the traced probe count reading 0.
    probe = hunt.match_body
    results = []

    def counted(*args):
        results.append(probe(*args))
        return results[-1]

    monkeypatch.setattr(hunt, "match_body", counted)
    checkable = {
        "syscall-pattern", "permission-audit", "notification-access", "clipboard-access",
        "ui-overlay",
    }
    probed = {True: 0, False: 0}
    for sample_path in CORPUS:
        facts = infer_facts(load_sample(sample_path), bundled)
        for hypothesis in default_catalog():
            task, planset = hypothesis_plans(facts, bundled, hypothesis, Limits())
            for plan in planset.plans:
                records = construct_indicators(
                    task, plan, bundled.indicator_specs, bundled.patterns
                )
                results.clear()
                confirmed = confirm_threat(records, facts.relations)
                count = sum(record.kind in checkable for record in records)
                # One probe per checkable record, up to the first that fails.
                if confirmed:
                    assert results == [True] * count
                else:
                    assert results == [True] * (len(results) - 1) + [False]
                    assert len(results) <= count
                probed[confirmed] += len(results)
    assert min(probed.values()) > 0
