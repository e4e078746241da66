"""Indicator construction, confirmation, per-sample reports, batch mode."""

import itertools
import json
import logging
from pathlib import Path

import pytest

from planhunt import defaults
from planhunt import hunt as hunt_module
from planhunt.defaults import corpus_paths
from planhunt.errors import DuplicateSampleId, InputError
from planhunt.hunt import (
    CONFIRM_CONFIRMED,
    CONFIRM_NOT_ATTEMPTED,
    CONFIRM_UNCONFIRMED,
    STATUS_NO_PLAN,
    STATUS_POSSIBLE,
    STATUS_TIMED_OUT,
    BatchSummary,
    HuntAssets,
    HuntConfig,
    HuntReport,
    IoCRecord,
    ThreatFinding,
    aggregate,
    batch_hunt,
    confirm_threat,
    construct_indicators,
    hypothesis_plans,
    identify_threats,
    infer_facts,
    parse_indicator_map,
    report_to_json,
    sample_problem,
    summary_to_csv,
)
from planhunt.inference.engine import Relations
from planhunt.inference.engine import evaluate as real_evaluate
from planhunt.planner import Limits, Plan
from planhunt.planning_model.ground import GroundAction, GroundedTask
from planhunt.planning_model.ground import ground_task as real_ground_task
from planhunt.planning_model.model import ThreatHypothesis
from planhunt.telemetry import Fact, load_sample

CORPUS = Path("src/planhunt/assets/corpus")

DIRTY_PATTERNS = (
    "invoked(T1, finit_module, P, _, module, _, 0),"
    " invoked(T2, mmap, P, _, buffer, read_or_write, 0), T1 < T2"
    " | invoked(T1, read, P, _, buffer, read, 0),"
    " invoked(T2, mmap, P, _, buffer, exec_or_read, 0), T1 < T2"
)


@pytest.fixture(scope="module")
def assets():
    return HuntAssets.load()


def hunt(name, assets, **kwargs):
    sample = load_sample(CORPUS / f"{name}.jsonl")
    return identify_threats(sample, assets, HuntConfig(**kwargs))


def within(limit, function):
    """``function`` run with the count budget at ``limit``, so only its own
    work meets that budget."""

    def limited(*args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("planhunt.inference.engine.FACT_LIMIT", limit)
            return function(*args)

    return limited


def patterns_for_cve(assets, cve):
    """The rendered texts of the patterns that lift ``cve``."""
    text = assets.patterns.get(cve)
    return [] if text is None else text.split(" | ")


def by_label(report, label):
    (finding,) = [f for f in report.findings if f.label == label]
    return finding


class TestIndicatorMapParsing:
    def test_fields_and_disjuncts(self, assets):
        specs = parse_indicator_map(
            "# comment\n\n"
            "pivot-exploit syscall-pattern cve=$1\n"
            "fin-fraud-mechanism-exploit@2 clipboard-access app=$1\n"
            "surveillance-via-exploit api-call api=sensor-capture sensor=$3\n",
            assets.domain,
        )
        assert len(specs) == 3
        assert specs[0].schema == "pivot-exploit"
        assert specs[0].disjunct is None
        assert specs[1].disjunct == 2
        assert specs[2].fields == (("api", "sensor-capture"), ("sensor", "$3"))

    @pytest.mark.parametrize(
        "line",
        [
            "pivot-exploit",
            "pivot-exploit@0 syscall-pattern cve=$1",
            "pivot-exploit@x syscall-pattern cve=$1",
            "pivot-exploit syscall-pattern cve",
        ],
    )
    def test_bad_lines(self, line, assets):
        with pytest.raises(InputError):
            parse_indicator_map(line + "\n", assets.domain)

    def test_the_first_bad_line_wins(self, tmp_path):
        # Each line is checked as it is read, against the domain too: a slot
        # out of range on line 1 is reported before line 2's missing kind.
        path = tmp_path / "indicator-map"
        path.write_text("pivot-exploit api-call api=$9\npivot-exploit\n", encoding="utf-8")
        with pytest.raises(InputError) as err:
            HuntAssets.load(overrides={defaults.INDICATOR_MAP_FILE: path})
        assert str(err.value) == (
            f"{path}: line 1: indicator template pivot-exploit api-call: slot $9 out of range"
            " for (pivot-exploit ?from ?to)"
        )


class TestPatternsForCve:
    def test_lifting_rules_expand_to_evidence_bodies(self, assets):
        patterns = patterns_for_cve(assets, "cve_2016_5195")
        assert len(patterns) == 2
        assert all("T1 < T2" in p for p in patterns)
        assert patterns[0].startswith("invoked(T1, finit_module")

    def test_single_pattern_cve(self, assets):
        patterns = patterns_for_cve(assets, "cve_2019_2194")
        assert patterns == [
            "invoked(T1, mmap, P, _, device, read_or_write, 0),"
            " invoked(T2, write, P, _, device, write, 0), T1 < T2"
        ]

    def test_unknown_cve(self, assets):
        assert patterns_for_cve(assets, "cve_0000_0000") == []


def tiny_task(args=("app", "cve_x"), disjunct=None):
    """One-action task, just enough structure for indicator templating."""
    atom = ("done", ())
    action = GroundAction(
        name="probe" if disjunct is None else f"probe~or{disjunct}",
        schema="probe",
        args=tuple(args),
        disjunct=disjunct,
        cost=1,
        pre_pos=0,
        pre_neg=0,
        add=1,
        delete=0,
    )
    return GroundedTask(
        atoms=(atom,),
        actions=(action,),
        init=0,
        goal=1,
    )


class TestConstructIndicators:
    def test_slot_substitution_and_literals(self, assets):
        task = tiny_task()
        specs = parse_indicator_map("probe api-call api=ping target=$1 via=$2\n", assets.domain)
        records = construct_indicators(task, Plan((0,), 1), specs, assets.patterns)
        assert records == (
            IoCRecord(
                "api-call",
                (("api", "ping"), ("target", "app"), ("via", "cve_x")),
                0,
            ),
        )

    def test_duplicate_records_keep_first_step(self, assets):
        task = tiny_task()
        specs = parse_indicator_map(
            "probe api-call api=ping\nprobe api-call api=ping\n", assets.domain
        )
        records = construct_indicators(task, Plan((0,), 1), specs, assets.patterns)
        assert len(records) == 1
        assert records[0].source_step == 0

    def test_disjunct_restriction(self, assets):
        task = tiny_task(disjunct=2)
        specs = parse_indicator_map(
            "probe@1 notification-access app=$1\n"
            "probe@2 clipboard-access app=$1\n"
            "probe api-call api=always\n",
            assets.domain,
        )
        records = construct_indicators(task, Plan((0,), 1), specs, assets.patterns)
        assert [r.kind for r in records] == ["clipboard-access", "api-call"]

    def test_each_action_expands_once_per_hypothesis(self, assets, monkeypatch):
        # A hypothesis's plans share most steps: each action's templates are
        # expanded once, and every plan still gets the records a fresh
        # expansion gives it, each at its earliest step.
        expand = hunt_module._expand
        calls = []

        def counting(action, specs, patterns):
            calls.append(action)
            return expand(action, specs, patterns)

        for path in corpus_paths():
            with monkeypatch.context() as patch:
                patch.setattr(hunt_module, "_expand", counting)
                report = identify_threats(load_sample(path), assets)
            problem = sample_problem(infer_facts(load_sample(path), assets), assets)
            for finding in report.findings:
                hypothesis = ThreatHypothesis(finding.threat, finding.mechanism)
                task, planset = hypothesis_plans(problem, assets, hypothesis, Limits())
                actions = {index for plan in planset.plans for index in plan.steps}
                assert sorted(calls[: len(actions)], key=task.actions.index) == [
                    task.actions[index] for index in sorted(actions)
                ]
                del calls[: len(actions)]
                assert finding.indicators == tuple(
                    construct_indicators(task, plan, assets.indicator_specs, assets.patterns)
                    for plan in planset.plans
                )
        assert calls == []

    def test_slot_out_of_range(self, tmp_path):
        # Slots are checked once, when the assets load, against the full
        # domain: a producer action --strict-domain drops is checked too.
        bundled = defaults.asset_text(defaults.INDICATOR_MAP_FILE)
        path = tmp_path / "indicator-map"
        lineno = len(bundled.splitlines()) + 1
        cases = [
            ("surveillance-via-permission permission-audit sensor=$3", "$3"),
            ("capture-otp notification-access app=$0", "$0"),
            ("pivot-exploit syscall-pattern cve=$x", "$x"),
        ]
        for (line, slot), strict in itertools.product(cases, (False, True)):
            path.write_text(f"{bundled}{line}\n", encoding="utf-8")
            with pytest.raises(InputError) as err:
                HuntAssets.load(overrides={defaults.INDICATOR_MAP_FILE: path}, strict_domain=strict)
            head, kind = line.split()[:2]
            assert str(err.value).startswith(
                f"{path}: line {lineno}: indicator template {head} {kind}: slot {slot} out of range")

    def test_disjunct_suffix_out_of_range(self, tmp_path):
        # A single-disjunct schema's ground actions carry no disjunct, so a
        # suffix on its template could never fire; the check runs against
        # the full domain, so capture-otp fails under --strict-domain too.
        path = tmp_path / "indicator-map"
        cases = [
            "pivot-exploit@1 syscall-pattern cve=$1",
            "capture-otp@1 notification-access app=$1",
            "fin-fraud-mechanism-exploit@4 ui-overlay app=$1",
        ]
        for line, strict in itertools.product(cases, (False, True)):
            path.write_text(line + "\n", encoding="utf-8")
            with pytest.raises(InputError) as err:
                HuntAssets.load(overrides={defaults.INDICATOR_MAP_FILE: path}, strict_domain=strict)
            head, kind = line.split()[:2]
            assert str(err.value).startswith(
                f"{path}: line 1: indicator template {head} {kind}: suffix out of range")
        path.write_text(
            "fin-fraud-mechanism-exploit@3 ui-overlay app=$1\nprobe@7 api-call via=$1\n",
            encoding="utf-8",
        )
        assets = HuntAssets.load(overrides={defaults.INDICATOR_MAP_FILE: path})
        assert [spec.disjunct for spec in assets.indicator_specs] == [3, 7]

    @pytest.mark.parametrize(
        "line, key",
        [
            ("pivot-exploit syscall-pattern cve=$1 cve=$2", "cve"),
            ("probe api-call api=ping via=$1 api=pong", "api"),
            ("pivot-exploit syscall-pattern cve=$1 patterns=x", "patterns"),
        ],
    )
    def test_repeated_or_hunt_filled_field_fails_at_load(self, tmp_path, line, key):
        # A record's detail has one value per key: a repeated key used to
        # keep only its last value in the report, and construct_indicators
        # appends a syscall pattern's ``patterns`` itself.
        bundled = defaults.asset_text(defaults.INDICATOR_MAP_FILE)
        path = tmp_path / "indicator-map"
        path.write_text(f"{bundled}{line}\n", encoding="utf-8")
        lineno = len(bundled.splitlines()) + 1
        with pytest.raises(InputError) as err:
            HuntAssets.load(overrides={defaults.INDICATOR_MAP_FILE: path})
        assert str(err.value).startswith(f"{path}: line {lineno}: field {key!r} ")
        path.write_text("probe api-call api=ping patterns=x\n", encoding="utf-8")
        assets = HuntAssets.load(overrides={defaults.INDICATOR_MAP_FILE: path})
        assert assets.indicator_specs[0].fields == (("api", "ping"), ("patterns", "x"))

    def test_slots_of_undeclared_actions_are_not_checked(self, tmp_path):
        # A custom domain may omit an action the indicator map names.
        path = tmp_path / "indicator-map"
        path.write_text("probe api-call via=$9\n", encoding="utf-8")
        assets = HuntAssets.load(overrides={defaults.INDICATOR_MAP_FILE: path})
        assert [spec.schema for spec in assets.indicator_specs] == ["probe"]

    def test_syscall_pattern_records_attach_rule_bodies(self, assets):
        task = tiny_task(args=("cve_2019_2103",))
        specs = parse_indicator_map("probe syscall-pattern cve=$1\n", assets.domain)
        (record,) = construct_indicators(task, Plan((0,), 1), specs, assets.patterns)
        assert record.detail_dict()["cve"] == "cve_2019_2103"
        assert "sendmsg" in record.detail_dict()["patterns"]


    def test_syscall_pattern_records_carry_the_pack_bodies(self, assets):
        task = tiny_task(args=("cve_2016_5195",))
        specs = parse_indicator_map("probe syscall-pattern cve=$1\n", assets.domain)
        (record,) = construct_indicators(task, Plan((0,), 1), specs, assets.patterns)
        assert record.detail_dict()["patterns"] == DIRTY_PATTERNS


class TestConfirmThreat:
    BASE = Relations(
        [
            Fact("invoked", (1, "sendmsg", "p1", "wildcard", "socket", "write", 0)),
            Fact("invoked", (2, "recvmsg", "p1", "wildcard", "socket", "read", 0)),
            Fact("perm-granted", ("app", "camera")),
            Fact("notification-accessible", ("app",)),
        ]
    )

    def syscall_record(self, patterns):
        return IoCRecord("syscall-pattern", (("cve", "x"), ("patterns", patterns)), 0)

    def test_matching_pattern(self):
        # The pack's model holds exploited(x): some body lifting x matched.
        record = self.syscall_record(
            "invoked(T1, sendmsg, P, _, socket, write, 0),"
            " invoked(T2, recvmsg, P, _, socket, read, 0), T1 < T2"
        )
        assert confirm_threat((record,), Relations([*self.BASE, Fact("exploited", ("x",))]))

    def test_failing_pattern(self):
        record = self.syscall_record("invoked(T1, ptrace, P, _, file, read, 0)")
        assert not confirm_threat((record,), self.BASE)

    def test_permission_audit(self):
        granted = IoCRecord("permission-audit", (("sensor", "camera"),), 0)
        missing = IoCRecord("permission-audit", (("sensor", "gps"),), 0)
        assert confirm_threat((granted,), self.BASE)
        assert not confirm_threat((missing,), self.BASE)

    def test_derived_surface_audits(self):
        notify = IoCRecord("notification-access", (("app", "app"),), 0)
        clipboard = IoCRecord("clipboard-access", (("app", "app"),), 0)
        assert confirm_threat((notify,), self.BASE)
        assert not confirm_threat((clipboard,), self.BASE)

    def test_api_call_records_are_prospective(self):
        record = IoCRecord("api-call", (("api", "sensor-capture"),), 0)
        assert confirm_threat((record,), self.BASE)
        assert confirm_threat((), self.BASE)

    def test_all_records_must_pass(self):
        good = IoCRecord("permission-audit", (("sensor", "camera"),), 0)
        bad = IoCRecord("permission-audit", (("sensor", "gps"),), 1)
        assert not confirm_threat((good, bad), self.BASE)


class TestIdentifyThreats:
    def test_privilege_escalation_sample(self, assets):
        report = hunt("dirtycow_demo", assets, confirm=True)
        assert report.possible_threats == ("surveillance/permission",)
        finding = by_label(report, "surveillance/permission")
        assert finding.status == STATUS_POSSIBLE
        assert finding.planner_status == "truncated_k"
        assert finding.confirmation == CONFIRM_UNCONFIRMED
        cost, steps = finding.plans[0]
        assert cost == 2
        assert steps == (
            "(grant-permission-to-sensor app cve_2016_5195 camera)",
            "(surveillance-via-permission app camera)",
        )
        assert finding.indicators[0] == (
            IoCRecord(
                "syscall-pattern",
                (("cve", "cve_2016_5195"), ("patterns", DIRTY_PATTERNS)),
                0,
            ),
            IoCRecord("permission-audit", (("sensor", "camera"),), 0),
        )

    def test_pivot_sample(self, assets):
        report = hunt("pivot_demo", assets, confirm=True)
        assert report.possible_threats == ("surveillance/exploit",)
        finding = by_label(report, "surveillance/exploit")
        assert finding.planner_status == "complete"
        assert finding.plans == (
            (
                2,
                (
                    "(pivot-exploit cve_2019_2194 cve_2019_2103)",
                    "(surveillance-via-exploit app cve_2019_2103 screen)",
                ),
            ),
        )
        kinds = [r.kind for r in finding.indicators[0]]
        assert kinds == ["syscall-pattern", "syscall-pattern", "api-call"]
        # The pivot target was never observed in telemetry, so its pattern
        # audit fails and the finding stays unconfirmed.
        assert finding.confirmation == CONFIRM_UNCONFIRMED

    def test_direct_permission_sample_confirms(self, assets):
        report = hunt("camera_perm_demo", assets, confirm=True)
        finding = by_label(report, "surveillance/permission")
        assert finding.plans[0] == (1, ("(surveillance-via-permission app camera)",))
        assert finding.confirmation == CONFIRM_CONFIRMED

    def test_fraud_sample_confirms(self, assets):
        report = hunt("fraud_demo", assets, confirm=True)
        assert report.possible_threats == ("financial_fraud/permission",)
        finding = by_label(report, "financial_fraud/permission")
        assert finding.confirmation == CONFIRM_CONFIRMED
        assert finding.plans[0][1] == (
            "(harvest-credentials app acct)",
            "(capture-otp app sms_otp)",
            "(fin-fraud-mechanism-permission app acct sms_otp)",
        )

    def test_clean_sample(self, assets):
        report = hunt("clean_demo", assets, confirm=True)
        assert report.possible_threats == ()
        assert all(f.status == STATUS_NO_PLAN for f in report.findings)
        assert all(
            f.confirmation == CONFIRM_NOT_ATTEMPTED for f in report.findings
        )

    def test_findings_follow_catalog_order(self, assets):
        report = hunt("clean_demo", assets)
        assert [f.label for f in report.findings] == [
            "surveillance/permission",
            "surveillance/exploit",
            "financial_fraud/permission",
            "financial_fraud/exploit",
        ]

    def test_confirmation_off_by_default(self, assets):
        report = hunt("camera_perm_demo", assets)
        finding = by_label(report, "surveillance/permission")
        assert finding.confirmation == CONFIRM_NOT_ATTEMPTED

    def test_exhausted_sample_budget(self, assets):
        report = hunt("camera_perm_demo", assets, sample_wall_time=0.0)
        assert all(f.status == STATUS_TIMED_OUT for f in report.findings)
        assert all(f.plans == () for f in report.findings)
        assert report.possible_threats == ()

    def test_one_problem_per_sample_and_one_grounding_per_hypothesis(self, assets, monkeypatch):
        calls = []

        def counted(name):
            real = getattr(hunt_module, name)
            return lambda *args: calls.append(name) or real(*args)

        for name in ("build_problem", "ground_task"):
            monkeypatch.setattr(hunt_module, name, counted(name))
        for path in corpus_paths():
            calls.clear()
            identify_threats(load_sample(path), assets)
            assert calls == ["build_problem", *["ground_task"] * len(assets.catalog)], path.name

    def test_a_mapping_error_surfaces_with_the_sample_budget_spent(self, assets, tmp_path):
        # The sample's problem is built before its first hypothesis is
        # budgeted, so a mapped atom that contradicts the world's types is
        # the sample's error even when no time is left for any hypothesis.
        mapping = tmp_path / "state-mapping"
        text = defaults.asset_text(defaults.STATE_MAP_FILE)
        mapping.write_text(
            text.replace("(perm-granted $1 $2)", "(perm-granted $1 $1)"), encoding="utf-8")
        clashing = HuntAssets.load(overrides={defaults.STATE_MAP_FILE: mapping})
        with pytest.raises(InputError) as err:
            hunt("big_mix_demo", clashing, sample_wall_time=0.0)
        assert str(err.value) == "object 'app' used as sensor but declared as app"
        # clean_demo derives no perm-granted.
        assert hunt("clean_demo", clashing, sample_wall_time=0.0).findings

    def test_ground_action_budget_leaves_the_hypothesis_undecided(self, assets, monkeypatch):
        # Only the surveillance/permission task gets a ground-action budget
        # it exceeds; the sample's other hypotheses are still hunted.
        unlimited = hunt("camera_perm_demo", assets)

        def ground_task(domain, problem):
            ((_, (threat, mechanism, _)),) = problem.goal
            limited = (threat, mechanism) == ("surveillance", "permission")
            return within(5 if limited else 10**6, real_ground_task)(domain, problem)

        monkeypatch.setattr("planhunt.hunt.ground_task", ground_task)
        report = hunt("camera_perm_demo", assets)
        finding = by_label(report, "surveillance/permission")
        assert (finding.status, finding.planner_status) == (STATUS_TIMED_OUT, "truncated_limit")
        assert (finding.plans, finding.indicators) == ((), ())
        others = [f for f in unlimited.findings if f.label != finding.label]
        assert [f for f in report.findings if f is not finding] == others

    def test_batch_reports_a_sample_over_the_ground_action_budget(self, assets, monkeypatch):
        monkeypatch.setattr("planhunt.hunt.ground_task", within(5, real_ground_task))
        names = ("camera_perm_demo", "clean_demo", "pivot_demo")
        reports, summary = batch_hunt([CORPUS / f"{name}.jsonl" for name in names], assets)
        assert [r.sample_id for r in reports] == list(names)
        assert summary.failures == () and summary.timed_out == 2
        for report in reports:
            undecided = report.sample_id != "clean_demo"
            assert all(
                (f.status, f.planner_status) == (STATUS_TIMED_OUT, "truncated_limit")
                for f in report.findings
            ) is undecided

    def test_derived_fact_budget_leaves_every_hypothesis_undecided(self, assets, monkeypatch):
        monkeypatch.setattr("planhunt.hunt.evaluate", within(1, real_evaluate))
        report = hunt("pivot_demo", assets, confirm=True)
        assert [f.label for f in report.findings] == [h.label for h in assets.catalog]
        for finding in report.findings:
            assert (finding.status, finding.planner_status) == (STATUS_TIMED_OUT, "truncated_limit")
            assert (finding.plans, finding.indicators) == ((), ())
            assert finding.confirmation == CONFIRM_NOT_ATTEMPTED

    def test_batch_reports_every_sample_over_the_derived_fact_budget(self, assets, monkeypatch):
        derived = {
            path.stem: len(infer_facts(load_sample(path), assets).derived)
            for path in corpus_paths()
        }
        monkeypatch.setattr("planhunt.hunt.evaluate", within(1, real_evaluate))
        reports, summary = batch_hunt(corpus_paths(), assets)
        assert summary.failures == ()
        assert sorted(r.sample_id for r in reports) == sorted(derived)
        assert summary.timed_out == sum(count > 1 for count in derived.values()) > 0
        for report in reports:
            over = derived[report.sample_id] > 1
            assert all(
                (f.status, f.planner_status) == (STATUS_TIMED_OUT, "truncated_limit")
                for f in report.findings
            ) is over

    def test_search_cut_by_memory_budget_is_timed_out(self, assets, caplog):
        # One byte of frontier memory ends the search before its first plan,
        # which leaves the hypothesis undecided, not refuted.
        config = HuntConfig(limits=Limits(memory=1))
        with caplog.at_level(logging.WARNING):
            reports, summary = batch_hunt([CORPUS / "camera_perm_demo.jsonl"], assets, config)
        finding = by_label(reports[0], "surveillance/permission")
        assert (finding.status, finding.planner_status) == (STATUS_TIMED_OUT, "truncated_limit")
        assert summary.timed_out == 1
        assert "batch: 1 of 1 samples ran out of budget" in caplog.text


class TestReportJson:
    def test_deterministic_and_parseable(self, assets):
        report = hunt("camera_perm_demo", assets)
        text = report_to_json(report, include_wall_time=False)
        assert text == report_to_json(report, include_wall_time=False)
        payload = json.loads(text)
        assert payload["schema_version"] == "1"
        assert payload["sample_id"] == "camera_perm_demo"
        assert payload["possible_threats"] == ["surveillance/permission"]
        assert "wall_time_s" not in payload["meta"]
        assert payload["meta"]["k"] == 10

    def test_wall_time_included_by_default(self, assets):
        report = hunt("clean_demo", assets)
        payload = json.loads(report_to_json(report))
        assert "wall_time_s" in payload["meta"]


def make_finding(threat, mechanism, status, n_plans=0):
    return ThreatFinding(
        threat=threat,
        mechanism=mechanism,
        status=status,
        planner_status="complete" if status != STATUS_TIMED_OUT else "timed_out",
        plans=((1, ("(x)",)),) * n_plans,
        indicators=((),) * n_plans,
    )


def make_report(sample_id, findings):
    return HuntReport(
        sample_id=sample_id,
        unknown_tokens=(),
        findings=tuple(findings),
        strict_domain=False,
        confirm=False,
        k=10,
        wall_time_s=0.0,
    )


class TestAggregation:
    def test_counts(self):
        reports = [
            make_report(
                "s1",
                [
                    make_finding("surveillance", "permission", STATUS_POSSIBLE, 3),
                    make_finding("surveillance", "exploit", STATUS_NO_PLAN),
                ],
            ),
            make_report(
                "s2",
                [
                    make_finding("surveillance", "permission", STATUS_POSSIBLE, 2),
                    make_finding("surveillance", "exploit", STATUS_TIMED_OUT),
                ],
            ),
            make_report(
                "s3",
                [
                    make_finding("surveillance", "permission", STATUS_NO_PLAN),
                    make_finding("surveillance", "exploit", STATUS_NO_PLAN),
                ],
            ),
        ]
        summary = aggregate(reports)
        assert summary.cells == (
            ("surveillance", "permission", 2, 5),
            ("surveillance", "exploit", 0, 0),
        )
        assert summary.samples == 3
        assert summary.detected == 2
        assert summary.timed_out == 1

    def test_csv_rendering(self):
        summary = BatchSummary(
            cells=(("surveillance", "permission", 2, 5),),
            samples=3,
            detected=2,
            timed_out=0,
        )
        assert summary_to_csv(summary) == (
            "threat,mechanism,sample_count,plan_count\n"
            "surveillance,permission,2,5\n"
        )


class TestBatchHunt:
    SUBSET = ("a11y_demo", "camera_perm_demo", "clean_demo", "pivot_demo")

    def paths(self):
        return [p for p in corpus_paths() if p.stem in self.SUBSET]

    def test_reports_sorted_and_files_written(self, tmp_path):
        reports, summary = batch_hunt(self.paths(), report_dir=tmp_path)
        assert [r.sample_id for r in reports] == sorted(self.SUBSET)
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == [f"{n}.json" for n in sorted(self.SUBSET)] + ["summary.csv"]
        assert (tmp_path / "summary.csv").read_text() == summary_to_csv(summary)
        body = (tmp_path / "camera_perm_demo.json").read_text()
        assert "wall_time_s" not in body

    def test_worker_pool_matches_serial(self, tmp_path):
        serial_dir = tmp_path / "serial"
        pooled_dir = tmp_path / "pooled"
        batch_hunt(self.paths(), report_dir=serial_dir, workers=1)
        batch_hunt(self.paths(), report_dir=pooled_dir, workers=2)
        for name in sorted(serial_dir.iterdir()):
            assert name.read_bytes() == (pooled_dir / name.name).read_bytes()

    def renamed(self, tmp_path, old, new):
        """The bundle with the pack's predicate ``old`` renamed ``new``, in
        the pack and in the state map's key, so the map still sends it to
        the domain's ``old``."""
        rules, state_map = tmp_path / "threat.rules", tmp_path / "state-mapping"
        for path, before, after in [(rules, old, new), (state_map, f"{old}/", f"{new}/")]:
            text = defaults.asset_text(path.name)
            assert before in text
            path.write_text(text.replace(before, after), encoding="utf-8")
        return HuntAssets.load(
            overrides={defaults.RULES_FILE: rules, defaults.STATE_MAP_FILE: state_map})

    def confirmed_as_bundled(self, renamed, tmp_path):
        """Batch the corpus with ``--confirm`` under the bundled assets and
        under ``renamed``: reports and summary must match byte for byte."""
        config = HuntConfig(confirm=True)
        reports, _ = batch_hunt(corpus_paths(), config=config, report_dir=tmp_path / "bundled")
        batch_hunt(corpus_paths(), renamed, config, report_dir=tmp_path / "renamed")
        for path in sorted((tmp_path / "bundled").iterdir()):
            assert path.read_bytes() == (tmp_path / "renamed" / path.name).read_bytes(), path.name
        return reports

    def test_confirmation_probes_the_mapped_atoms(self, tmp_path):
        # Confirmation probes domain predicates, so it reads the atoms the
        # planner started from: a pack that derives has-perm, mapped to
        # perm-granted, confirms every finding as the bundled pack does.
        renamed = self.renamed(tmp_path, "perm-granted", "has-perm")
        reports = self.confirmed_as_bundled(renamed, tmp_path)
        camera = next(r for r in reports if r.sample_id == "camera_perm_demo")
        assert by_label(camera, "surveillance/permission").confirmation == CONFIRM_CONFIRMED

    def test_syscall_patterns_follow_the_map_to_exploited(self, assets, tmp_path):
        # The lifting rules are the heads the map sends to exploited, so a
        # pack that calls it pwned lists the bundled patterns and confirms
        # every finding as the bundled pack does.
        renamed = self.renamed(tmp_path, "exploited", "pwned")
        assert renamed.patterns == assets.patterns
        assert len(assets.patterns) == 4
        self.confirmed_as_bundled(renamed, tmp_path)

    @pytest.mark.parametrize("edit", [
        *range(len(defaults.asset_text(defaults.STATE_MAP_FILE).splitlines())), "swap"])
    def test_a_broken_state_map_fails_at_load_or_not_at_all(self, edit, tmp_path):
        # Every single-line deletion of the bundled map, and its one slot
        # swap, either fails at load with one error naming the map, or
        # hunts the whole corpus with no sample failing.
        text = defaults.asset_text(defaults.STATE_MAP_FILE)
        if edit == "swap":
            edited = text.replace("(perm-granted $1 $2)", "(perm-granted $2 $1)")
        else:
            lines = text.splitlines(keepends=True)
            edited = "".join(lines[:edit] + lines[edit + 1:])
        assert edited != text
        state_map = tmp_path / "state-mapping"
        state_map.write_text(edited, encoding="utf-8")
        try:
            bundle = HuntAssets.load(overrides={defaults.STATE_MAP_FILE: state_map})
        except InputError as err:
            assert str(err).startswith(f"{state_map}: ")
            return
        _, summary = batch_hunt(corpus_paths(), bundle, HuntConfig(confirm=True))
        assert (summary.samples, summary.failures) == (20, ())

    def test_duplicate_sample_ids_abort(self, tmp_path):
        line = (
            '{"type": "meta", "sample_id": "twin"}\n'
            '{"type": "permission", "name": "android.permission.CAMERA"}\n'
        )
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        first.write_text(line)
        second.write_text(line)
        with pytest.raises(DuplicateSampleId):
            batch_hunt([first, second])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_samples_are_listed_in_path_order(self, tmp_path, workers):
        bad = tmp_path / "a_bad.jsonl"
        bad.write_text('{"type": "event", "ts": 1, "pid": "p1"}\n')
        missing = tmp_path / "z_missing.jsonl"
        good = CORPUS / "camera_perm_demo.jsonl"
        reports, summary = batch_hunt([missing, good, bad], workers=workers)
        assert [r.sample_id for r in reports] == ["camera_perm_demo"]
        assert summary.samples == 1
        assert [name for name, _ in summary.failures] == ["z_missing.jsonl", "a_bad.jsonl"]
        assert str(missing) in summary.failures[0][1]
        assert summary.failures[1][1] == f"{bad}: line 1: event missing 'syscall'"

    def test_unusable_report_dir_raises_before_any_hunt(self, tmp_path, monkeypatch):
        hunted = []
        monkeypatch.setattr(
            "planhunt.hunt.identify_threats", lambda *args: hunted.append(args)
        )
        occupied = tmp_path / "occupied"
        occupied.write_text("")
        with pytest.raises(FileExistsError):
            batch_hunt(self.paths(), report_dir=occupied)
        assert hunted == []

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            batch_hunt([], workers=0)

    def test_unknown_tokens_stay_out_of_the_sample_log(self, assets, caplog):
        with caplog.at_level(logging.WARNING):
            report = hunt("big_mix_demo", assets)
        assert report.unknown_tokens
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []

    def test_batch_logs_unknown_tokens_once(self, assets, caplog):
        with caplog.at_level(logging.WARNING):
            batch_hunt(corpus_paths(), assets)
        lines = [r.getMessage() for r in caplog.records if "unknown tokens" in r.getMessage()]
        assert lines == ["batch: 1 of 20 samples have unknown tokens"]


class TestAssetLoading:
    @pytest.mark.parametrize("strict", [False, True])
    def test_report_flag_follows_the_assets(self, strict, tmp_path):
        assets = HuntAssets.load(strict_domain=strict)
        assert assets.strict_domain is strict
        report = hunt("fraud_demo", assets)
        assert report.strict_domain is strict
        assert ("financial_fraud/permission" in report.possible_threats) is not strict
        batch_hunt([CORPUS / "fraud_demo.jsonl"], assets, workers=2, report_dir=tmp_path)
        for text in (report_to_json(report), (tmp_path / "fraud_demo.json").read_text()):
            assert json.loads(text)["meta"]["strict_domain"] is strict

    def test_strict_domain_drops_extended_actions(self):
        assets = HuntAssets.load(strict_domain=True)
        names = [a.name for a in assets.domain.actions]
        assert "harvest-credentials" not in names
        assert "capture-otp" not in names
        assert "pivot-exploit" in names

    def test_environment_does_not_move_the_asset_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PLANHUNT_ASSETS", str(tmp_path / "missing"))
        assets = HuntAssets.load()
        bundled = defaults.asset_text(defaults.CAPABILITIES_FILE)
        assert [row.cve for row in assets.capabilities.rows] == [
            line.split()[0] for line in bundled.splitlines() if line.split("#")[0].strip()
        ]
        assert corpus_paths()

    def test_override_replaces_one_file(self, tmp_path):
        override = tmp_path / "caps"
        override.write_text("cve_x enables-privilege-escalation - core\n")
        assets = HuntAssets.load(overrides={"cve-capabilities": override})
        assert [row.cve for row in assets.capabilities.rows] == ["cve_x"]
