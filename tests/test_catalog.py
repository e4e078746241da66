"""The hunt's hypotheses come from the loaded domain's constants: every
threat constant with every mechanism constant, threat-major, in
declaration order."""

import csv
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from planhunt import defaults
from planhunt import hunt as hunt_module
from planhunt.cli import main
from planhunt.errors import InputError
from planhunt.hunt import STATUS_POSSIBLE, STATUS_TIMED_OUT, HuntAssets, HuntConfig, identify_threats
from planhunt.planner import Limits
from planhunt.planning_model.model import hypothesis_catalog
from planhunt.planning_model.pddl import parse_domain
from planhunt.telemetry import load_sample

CORPUS = Path("src/planhunt/assets/corpus")
BUNDLED = defaults.asset_text(defaults.DOMAIN_FILE)
THREATS = "surveillance financial_fraud - threat"
BUNDLED_LABELS = [
    "surveillance/permission",
    "surveillance/exploit",
    "financial_fraud/permission",
    "financial_fraud/exploit",
]
RANSOMWARE_ACTION = """
  (:action ransomware-via-exploit
    :parameters (?a - app ?v - vuln)
    :precondition (and (exploited ?v) (enables-privilege-escalation ?v))
    :effect (and (threat-possible ransomware exploit ?a)
                 (increase (total-cost) 1)))
)
"""


def sample(name):
    return str(CORPUS / name)


def write_domain(tmp_path, text):
    path = tmp_path / "domain.pddl"
    path.write_text(text, encoding="utf-8")
    return path


def extra_threat_domain(tmp_path):
    """The bundled domain plus a ransomware threat, which one action
    reaches by exploit."""
    assert BUNDLED.count(THREATS) == 1
    text = BUNDLED.replace(THREATS, "surveillance financial_fraud ransomware - threat")
    return write_domain(tmp_path, text.rstrip().removesuffix(")") + RANSOMWARE_ACTION)


def reduced_domain(tmp_path):
    """The bundled domain without financial_fraud and the actions that use it."""
    head, *actions = BUNDLED.replace(THREATS, "surveillance - threat").split("\n  (:action ")
    kept = [action for action in actions if "financial_fraud" not in action]
    assert len(kept) == len(actions) - 2
    return write_domain(tmp_path, "\n  (:action ".join([head, *kept]))


def hunt_json(argv, capsys):
    assert main(["hunt", *argv]) == 0
    return json.loads(capsys.readouterr().out)


def test_bundled_catalog():
    assert [h.label for h in HuntAssets.load().catalog] == BUNDLED_LABELS


def test_threat_major_declaration_order_with_subtypes():
    domain = parse_domain(
        "(define (domain d) (:types threat mechanism - object insider - threat)"
        " (:constants b a - mechanism z - threat y - insider))"
    )
    assert [h.label for h in hypothesis_catalog(domain)] == ["z/b", "z/a", "y/b", "y/a"]


@pytest.mark.parametrize("text", [
    "(define (domain d) (:types threat mechanism) (:constants t - threat))",
    "(define (domain d) (:types threat mechanism) (:constants m - mechanism))",
])
def test_domain_without_threats_or_mechanisms_fails_at_load(text, tmp_path):
    path = write_domain(tmp_path, text)
    with pytest.raises(InputError) as err:
        HuntAssets.load(overrides={defaults.DOMAIN_FILE: path})
    assert str(err.value).startswith(f"{path}: domain ")


def test_empty_domain_is_one_error_naming_it(tmp_path, capsys):
    path = write_domain(tmp_path, "(define (domain empty))")
    assert main(["hunt", sample("pivot_demo.jsonl"), "--domain", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: domain empty needs a threat constant and a mechanism constant\n"
    )


class TestExtraThreat:
    def test_hunt_reports_every_hypothesis_in_declaration_order(self, tmp_path, capsys):
        domain = extra_threat_domain(tmp_path)
        bundled = hunt_json([sample("dirtycow_demo.jsonl")], capsys)
        report = hunt_json([sample("dirtycow_demo.jsonl"), "--domain", str(domain)], capsys)
        labels = [f"{f['threat']}/{f['mechanism']}" for f in report["findings"]]
        assert labels == [*BUNDLED_LABELS, "ransomware/permission", "ransomware/exploit"]
        # The new action may pad a bundled hypothesis's longer plans, so
        # only their statuses are compared.
        statuses = [f["status"] for f in report["findings"]]
        assert statuses[:4] == [f["status"] for f in bundled["findings"]]
        assert statuses[5] == STATUS_POSSIBLE
        assert report["possible_threats"] == [*bundled["possible_threats"], "ransomware/exploit"]

    def test_batch_summary_has_a_row_per_hypothesis(self, tmp_path, capsys):
        domain = extra_threat_domain(tmp_path)
        summary = tmp_path / "summary.csv"
        argv = [sample("dirtycow_demo.jsonl"), sample("clean_demo.jsonl")]
        assert main(["batch", *argv, "--domain", str(domain), "--summary", str(summary)]) == 0
        rows = list(csv.reader(summary.read_text(encoding="utf-8").splitlines()))
        assert [row[:2] for row in rows[1:]] == [label.split("/") for label in (
            *BUNDLED_LABELS, "ransomware/permission", "ransomware/exploit")]
        assert rows[-1][:3] == ["ransomware", "exploit", "1"]

    def test_plan_and_validate(self, tmp_path, capsys):
        domain = ["--domain", str(extra_threat_domain(tmp_path))]
        target = [sample("dirtycow_demo.jsonl"), "ransomware/exploit"]
        plans = tmp_path / "plans.txt"
        assert main(["plan", *target, *domain, "-o", str(plans)]) == 0
        first = plans.read_text(encoding="utf-8").split("; plan 1\n", 1)[1].split("; plan 2\n")[0]
        assert first.startswith("(ransomware-via-exploit app cve_2016_5195)")
        (tmp_path / "first.plan").write_text(first, encoding="utf-8")
        assert main(["validate", *target, str(tmp_path / "first.plan"), *domain]) == 0
        assert capsys.readouterr().out.startswith("valid: 1 steps, cost 1")


class TestReducedDomain:
    def test_hunt_reports_only_the_domains_threats(self, tmp_path, capsys):
        domain = reduced_domain(tmp_path)
        report = hunt_json([sample("fraud_demo.jsonl"), "--domain", str(domain)], capsys)
        assert [f"{f['threat']}/{f['mechanism']}" for f in report["findings"]] == BUNDLED_LABELS[:2]

    def test_plan_of_a_threat_the_domain_lacks_lists_its_catalog(self, tmp_path, capsys):
        domain = reduced_domain(tmp_path)
        argv = ["plan", sample("fraud_demo.jsonl"), "financial_fraud/exploit", "--domain", str(domain)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: unknown hypothesis 'financial_fraud/exploit'; threat/mechanism is one of "
            "surveillance/permission, surveillance/exploit\n"
        )


@pytest.mark.parametrize("elapsed, timed_out", [(59.0, False), (60.0, True)])
def test_default_sample_deadline_is_one_planner_budget_per_hypothesis(
    elapsed, timed_out, tmp_path, monkeypatch
):
    # Six hypotheses at 10 s each: the sample's deadline is 60 s after its
    # start, so a clock at 59 s leaves each hypothesis a budget and one at
    # 60 s leaves none.
    assets = HuntAssets.load(overrides={defaults.DOMAIN_FILE: extra_threat_domain(tmp_path)})
    assert len(assets.catalog) == 6
    ticks = iter([0.0])
    clock = SimpleNamespace(monotonic=lambda: next(ticks, elapsed))
    monkeypatch.setattr(hunt_module, "time", clock)
    config = HuntConfig(limits=Limits(wall_time=10.0))
    report = identify_threats(load_sample(sample("dirtycow_demo.jsonl")), assets, config)
    assert len(report.findings) == 6
    assert all((f.status == STATUS_TIMED_OUT) is timed_out for f in report.findings)
