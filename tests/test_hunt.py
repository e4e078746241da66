"""Indicator construction, confirmation, per-sample reports, batch mode."""

import json
from pathlib import Path

import pytest

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
    identify_threats,
    parse_indicator_map,
    patterns_for_cve,
    report_to_json,
    summary_to_csv,
)
from planhunt.planner import Plan
from planhunt.planning_model.ground import GroundAction, GroundedTask
from planhunt.telemetry import Fact, FactBase, load_sample

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


def by_label(report, label):
    (finding,) = [f for f in report.findings if f.label == label]
    return finding


class TestIndicatorMapParsing:
    def test_fields_and_disjuncts(self):
        specs = parse_indicator_map(
            "# comment\n\n"
            "pivot-exploit syscall-pattern cve=$1\n"
            "fin-fraud-mechanism-exploit@2 clipboard-access app=$1\n"
            "surveillance-via-exploit api-call api=sensor-capture sensor=$3\n"
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
    def test_bad_lines(self, line):
        with pytest.raises(InputError):
            parse_indicator_map(line + "\n")


class TestPatternsForCve:
    def test_lifting_rules_expand_to_evidence_bodies(self, assets):
        patterns = patterns_for_cve(assets.pack, "cve_2016_5195")
        assert len(patterns) == 2
        assert all("T1 < T2" in p for p in patterns)
        assert patterns[0].startswith("invoked(T1, finit_module")

    def test_single_pattern_cve(self, assets):
        patterns = patterns_for_cve(assets.pack, "cve_2019_2194")
        assert patterns == [
            "invoked(T1, mmap, P, _, device, read_or_write, 0),"
            " invoked(T2, write, P, _, device, write, 0), T1 < T2"
        ]

    def test_unknown_cve(self, assets):
        assert patterns_for_cve(assets.pack, "cve_0000_0000") == []


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
        atom_index={atom: 0},
        actions=(action,),
        init=0,
        goal_ast=("atom", atom),
    )


class TestConstructIndicators:
    def test_slot_substitution_and_literals(self, assets):
        task = tiny_task()
        specs = parse_indicator_map("probe api-call api=ping target=$1 via=$2\n")
        records = construct_indicators(task, Plan((0,), 1), specs, assets.pack)
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
            "probe api-call api=ping\nprobe api-call api=ping\n"
        )
        records = construct_indicators(task, Plan((0,), 1), specs, assets.pack)
        assert len(records) == 1
        assert records[0].source_step == 0

    def test_disjunct_restriction(self, assets):
        task = tiny_task(disjunct=2)
        specs = parse_indicator_map(
            "probe@1 notification-access app=$1\n"
            "probe@2 clipboard-access app=$1\n"
            "probe api-call api=always\n"
        )
        records = construct_indicators(task, Plan((0,), 1), specs, assets.pack)
        assert [r.kind for r in records] == ["clipboard-access", "api-call"]

    def test_slot_out_of_range(self, assets):
        task = tiny_task(args=("app",))
        specs = parse_indicator_map("probe api-call via=$2\n")
        with pytest.raises(InputError) as err:
            construct_indicators(task, Plan((0,), 1), specs, assets.pack)
        assert "slot $2" in str(err.value)

    def test_syscall_pattern_records_attach_rule_bodies(self, assets):
        task = tiny_task(args=("cve_2019_2103",))
        specs = parse_indicator_map("probe syscall-pattern cve=$1\n")
        (record,) = construct_indicators(task, Plan((0,), 1), specs, assets.pack)
        assert record.source_cve == "cve_2019_2103"
        assert "sendmsg" in record.detail_dict()["patterns"]


class TestConfirmThreat:
    BASE = FactBase(
        [
            Fact("invoked", (1, "sendmsg", "p1", "wildcard", "socket", "write", 0)),
            Fact("invoked", (2, "recvmsg", "p1", "wildcard", "socket", "read", 0)),
            Fact("perm-granted", ("app", "camera")),
            Fact("notification-accessible", ("app",)),
        ]
    )

    def syscall_record(self, patterns):
        return IoCRecord(
            "syscall-pattern", (("cve", "x"), ("patterns", patterns)), 0, "x"
        )

    def test_matching_pattern(self):
        record = self.syscall_record(
            "invoked(T1, sendmsg, P, _, socket, write, 0),"
            " invoked(T2, recvmsg, P, _, socket, read, 0), T1 < T2"
        )
        assert confirm_threat((record,), self.BASE)

    def test_failing_pattern(self):
        record = self.syscall_record("invoked(T1, ptrace, P, _, file, read, 0)")
        assert not confirm_threat((record,), self.BASE)

    def test_any_alternative_suffices(self):
        record = self.syscall_record(
            "invoked(T1, ptrace, P, _, file, read, 0)"
            " | invoked(T1, recvmsg, P, _, socket, read, 0)"
        )
        assert confirm_threat((record,), self.BASE)

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
                "cve_2016_5195",
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
        assert summary.clean == 1

    def test_csv_rendering(self):
        summary = BatchSummary(
            cells=(("surveillance", "permission", 2, 5),),
            samples=3,
            detected=2,
            timed_out=0,
            clean=1,
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

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            batch_hunt([], workers=0)


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

    def test_override_replaces_one_file(self, tmp_path):
        override = tmp_path / "caps"
        override.write_text("cve_x enables-privilege-escalation - core\n")
        assets = HuntAssets.load(overrides={"cve-capabilities": override})
        assert [row.cve for row in assets.capabilities.rows] == ["cve_x"]
