"""Command-line behavior: subcommands, output shapes, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planhunt
from planhunt import defaults
from planhunt.cli import _OVERRIDE_FLAGS, build_parser, main

CORPUS = Path("src/planhunt/assets/corpus")
PROBLEMS = Path(__file__).parent / "data" / "problems"


def sample(name):
    return str(CORPUS / name)


def sensorless_indicator_map(tmp_path):
    """The bundled indicator map with the surveillance-via-permission
    permission audit's ``sensor`` field dropped."""
    text = defaults.asset_text(defaults.INDICATOR_MAP_FILE)
    line = "surveillance-via-permission permission-audit"
    assert f"\n{line} sensor=$2\n" in text
    out = tmp_path / "indicator-map"
    out.write_text(text.replace(f"\n{line} sensor=$2\n", f"\n{line}\n"))
    return out


class TestInfer:
    def test_derived_facts_only(self, capsys):
        assert main(["infer", sample("dirtycow_demo.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "exploited(cve_2016_5195)." in out
        assert "% extensional" not in out
        assert "invoked(" not in out

    def test_dump_facts_includes_extensional(self, capsys):
        assert main(["infer", sample("dirtycow_demo.jsonl"), "--dump-facts"]) == 0
        out = capsys.readouterr().out
        extensional, _, derived = out.partition("% derived")
        assert extensional.startswith("% extensional")
        assert "invoked(" in extensional
        assert "exploited(cve_2016_5195)." in derived

    def test_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "facts.txt"
        assert main(["infer", sample("clean_demo.jsonl"), "-o", str(out_file)]) == 0
        assert capsys.readouterr().out == ""
        assert out_file.read_text().endswith("\n")

    def test_csv_sample_with_sidecar_mapping(self, capsys):
        assert main(["infer", sample("cross_sandbox_demo.csv")]) == 0
        assert "cross-sandbox-reads(" in capsys.readouterr().out

    def test_missing_sample_file(self, capsys):
        assert main(["infer", str(CORPUS / "no_such.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err


class TestPlan:
    def test_plans_for_hypothesis(self, capsys):
        code = main(["plan", sample("pivot_demo.jsonl"), "surveillance/exploit"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("; status = complete\n; plan 1\n")
        assert "(pivot-exploit cve_2019_2194 cve_2019_2103)\n" in out
        assert "; cost = 2\n" in out

    def test_dump_problem(self, capsys):
        code = main(
            ["plan", sample("pivot_demo.jsonl"), "surveillance/exploit", "--dump-problem"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("(define (problem hunt-")
        assert "(:goal" in out

    @pytest.mark.parametrize("golden", sorted(p.name for p in PROBLEMS.glob("*.pddl")))
    def test_dump_problem_matches_golden(self, golden, capsys):
        # Golden files are named SAMPLE.THREAT.MECHANISM.pddl.
        stem, threat, mechanism, _ = golden.split(".")
        (path,) = [p for p in CORPUS.glob(f"{stem}.*") if p.suffix in (".jsonl", ".csv")]
        assert main(["plan", str(path), f"{threat}/{mechanism}", "--dump-problem"]) == 0
        assert capsys.readouterr().out == (PROBLEMS / golden).read_text(encoding="utf-8")

    def test_unparseable_hypothesis(self, capsys):
        assert main(["plan", sample("pivot_demo.jsonl"), "surveillance"]) == 1
        assert "threat/mechanism" in capsys.readouterr().err

    def test_input_error_is_printed_once(self):
        # A separate interpreter: under pytest the root logger already has
        # handlers, so a log line would not reach stderr in-process.
        src = str(Path(planhunt.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "planhunt.cli", "plan", sample("pivot_demo.jsonl"), "bogus"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert result.returncode == 1
        assert result.stderr == (
            "error: unknown hypothesis 'bogus'; threat/mechanism is one of "
            "surveillance/permission, surveillance/exploit, "
            "financial_fraud/permission, financial_fraud/exploit\n"
        )

    def test_unknown_hypothesis_parts(self, capsys):
        assert main(["plan", sample("pivot_demo.jsonl"), "surveillance/magic"]) == 1
        assert capsys.readouterr().err == (
            "error: unknown hypothesis 'surveillance/magic'; threat/mechanism is one of "
            "surveillance/permission, surveillance/exploit, "
            "financial_fraud/permission, financial_fraud/exploit\n"
        )


class TestHunt:
    def test_report_json(self, tmp_path):
        out_file = tmp_path / "report.json"
        code = main(
            ["hunt", sample("camera_perm_demo.jsonl"), "--confirm", "-o", str(out_file)]
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["sample_id"] == "camera_perm_demo"
        assert payload["possible_threats"] == ["surveillance/permission"]
        confirmations = {
            f["threat"] + "/" + f["mechanism"]: f["confirmation"]
            for f in payload["findings"]
        }
        assert confirmations["surveillance/permission"] == "confirmed"
        assert confirmations["surveillance/exploit"] == "not_attempted"

    def test_record_without_its_probe_field_is_unconfirmed(self, tmp_path, capsys):
        indicator_map = sensorless_indicator_map(tmp_path)
        argv = ["hunt", sample("camera_perm_demo.jsonl"), "--confirm"]
        assert main([*argv, "--indicator-map", str(indicator_map)]) == 0
        payload = json.loads(capsys.readouterr().out)
        confirmations = {
            f["threat"] + "/" + f["mechanism"]: f["confirmation"]
            for f in payload["findings"]
        }
        assert confirmations["surveillance/permission"] == "unconfirmed"

    def test_derived_fact_budget_is_a_reported_status(self, monkeypatch, capsys):
        monkeypatch.setattr("planhunt.inference.engine.FACT_LIMIT", 1)
        assert main(["hunt", sample("pivot_demo.jsonl"), "--confirm"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["possible_threats"] == []
        assert {(f["status"], f["planner_status"]) for f in payload["findings"]} == {
            ("timed_out", "truncated_limit")
        }

    def test_strict_domain_silences_producer_threats(self, capsys):
        assert main(["hunt", sample("fraud_demo.jsonl"), "--strict-domain"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["possible_threats"] == []
        assert payload["meta"]["strict_domain"] is True

    def test_indicator_slot_out_of_range_fails_at_load(self, tmp_path, capsys):
        text = defaults.asset_text(defaults.INDICATOR_MAP_FILE)
        line = "surveillance-via-permission permission-audit sensor="
        indicator_map = tmp_path / "indicator-map"
        indicator_map.write_text(text.replace(f"{line}$2", f"{line}$5"), encoding="utf-8")
        argv = ["--indicator-map", str(indicator_map)]
        assert main(["hunt", sample("clean_demo.jsonl"), *argv]) == 1
        err = capsys.readouterr().err
        lineno = text.splitlines().index(f"{line}$2") + 1
        assert err.startswith(
            f"error: {indicator_map}: line {lineno}: indicator template surveillance-via-permission")
        assert main(["batch", str(CORPUS), *argv]) == 1
        assert capsys.readouterr().err == err

    def test_repeated_indicator_field_fails_at_load(self, tmp_path, capsys):
        text = defaults.asset_text(defaults.INDICATOR_MAP_FILE)
        line = "pivot-exploit syscall-pattern cve=$1"
        indicator_map = tmp_path / "indicator-map"
        indicator_map.write_text(text.replace(line, f"{line} cve=$2"), encoding="utf-8")
        lineno = text.splitlines().index(line) + 1
        argv = ["hunt", sample("pivot_demo.jsonl"), "--indicator-map", str(indicator_map)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {indicator_map}: line {lineno}: field 'cve' ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize(
        "flag,old,new,message",
        [
            ("--domain", "(increase (total-cost) 1)", "(increase (total-cost) ²)",
             "expected (increase (total-cost) N)"),
            ("--indicator-map", "fin-fraud-mechanism-exploit@1 ",
             "fin-fraud-mechanism-exploit@² ", "bad disjunct suffix '²'"),
        ],
        ids=["domain-cost", "indicator-suffix"],
    )
    def test_a_non_ascii_digit_fails_at_load(self, tmp_path, capsys, flag, old, new, message):
        # '²' passes str.isdigit(), but int() refuses it.
        name = _OVERRIDE_FLAGS[flag][0]
        text = defaults.asset_text(name)
        assert old in text
        path = tmp_path / name
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
        assert main(["hunt", sample("pivot_demo.jsonl"), flag, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: ")
        assert captured.err.rstrip("\n").endswith(message)
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_k_is_threaded_through(self, capsys):
        assert main(["hunt", sample("clean_demo.jsonl"), "-k", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["k"] == 3


class TestValidate:
    def plan_file(self, tmp_path, text):
        path = tmp_path / "candidate.plan"
        path.write_text(text)
        return str(path)

    def test_replaying_planner_output(self, tmp_path, capsys):
        out_file = tmp_path / "plans.txt"
        main(
            [
                "plan", sample("pivot_demo.jsonl"), "surveillance/exploit",
                "-o", str(out_file), "-k", "1",
            ]
        )
        plan_text = out_file.read_text().split("; plan 1\n", 1)[1]
        code = main(
            [
                "validate", sample("pivot_demo.jsonl"), "surveillance/exploit",
                self.plan_file(tmp_path, plan_text),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("valid: 2 steps, cost 2")

    def test_plan_output_with_one_plan_validates_whole(self, tmp_path, capsys):
        out_file = tmp_path / "plans.txt"
        argv = [sample("dirtycow_demo.jsonl"), "surveillance/permission"]
        assert main(["plan", *argv, "-o", str(out_file), "-k", "1"]) == 0
        assert main(["validate", *argv, str(out_file)]) == 0
        assert capsys.readouterr() == ("valid: 2 steps, cost 2\n", "")

    def test_plan_output_with_many_plans_is_refused_at_the_second(self, tmp_path, capsys):
        # Joined, the 10 plans read as one of cost 3 whose steps sum to 26.
        out_file = tmp_path / "plans.txt"
        argv = [sample("dirtycow_demo.jsonl"), "surveillance/permission"]
        assert main(["plan", *argv, "-o", str(out_file)]) == 0
        assert out_file.read_text().count("; plan ") == 10
        assert main(["validate", *argv, str(out_file)]) == 1
        assert capsys.readouterr() == (
            "", f"error: {out_file}: line 7: step after the plan's cost line: one plan per file\n"
        )

    def test_a_cost_line_that_is_not_an_integer_is_refused(self, tmp_path, capsys):
        argv = [sample("dirtycow_demo.jsonl"), "surveillance/permission"]
        plan = self.plan_file(
            tmp_path,
            "(grant-permission-to-sensor app cve_2016_5195 camera)\n; cost = two\n"
            "(grant-permission-to-sensor app cve_2016_5195 gps)\n"
            "(surveillance-via-permission app gps)\n",
        )
        assert main(["validate", *argv, plan]) == 1
        assert capsys.readouterr() == ("", f"error: {plan}: line 2: plan cost is not an integer\n")

    def test_rejects_inapplicable_plan(self, tmp_path, capsys):
        code = main(
            [
                "validate", sample("pivot_demo.jsonl"), "surveillance/exploit",
                self.plan_file(
                    tmp_path, "(surveillance-via-exploit app cve_2019_2103 screen)\n"
                ),
            ]
        )
        assert code == 1
        assert capsys.readouterr().out.startswith("invalid:")

    def test_aliased_action_names(self, tmp_path, capsys):
        # Underscored renderings resolve through planning_model.aliases.
        text = (
            "(pivot_exploit cve_2019_2194 cve_2019_2103)\n"
            "(surveillance_possible_mechanism_exploit app cve_2019_2103 screen)\n"
            "; cost = 2\n"
        )
        argv = ["validate", sample("pivot_demo.jsonl"), "surveillance/exploit"]
        assert main([*argv, self.plan_file(tmp_path, text)]) == 0
        assert capsys.readouterr() == ("valid: 2 steps, cost 2\n", "")

    def test_rejects_unknown_action(self, tmp_path, capsys):
        code = main(
            [
                "validate", sample("pivot_demo.jsonl"), "surveillance/exploit",
                self.plan_file(tmp_path, "(warp app)\n"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestBatch:
    def corpus_subset(self, tmp_path, names):
        target = tmp_path / "samples"
        target.mkdir()
        for name in names:
            data = (CORPUS / name).read_bytes()
            (target / name).write_bytes(data)
        return target

    def test_directory_run_writes_everything(self, tmp_path, capsys):
        target = self.corpus_subset(
            tmp_path, ["camera_perm_demo.jsonl", "clean_demo.jsonl"]
        )
        reports = tmp_path / "reports"
        summary = tmp_path / "summary.csv"
        code = main(
            [
                "batch", str(target),
                "--reports", str(reports), "--summary", str(summary),
            ]
        )
        assert code == 0
        csv_text = capsys.readouterr().out
        assert csv_text.startswith("threat,mechanism,sample_count,plan_count\n")
        assert summary.read_text() == csv_text
        assert (reports / "summary.csv").read_text() == csv_text
        assert sorted(p.name for p in reports.iterdir()) == [
            "camera_perm_demo.json",
            "clean_demo.json",
            "summary.csv",
        ]

    def test_upper_case_suffix_is_a_sample(self, tmp_path):
        # load_sample reads P.JSONL as JSONL, so batch must pick it up too.
        target = tmp_path / "samples"
        target.mkdir()
        (target / "P.JSONL").write_bytes((CORPUS / "dirtycow_demo.jsonl").read_bytes())
        reports = tmp_path / "reports"
        assert main(["batch", str(target), "--reports", str(reports)]) == 0
        assert sorted(p.name for p in reports.iterdir()) == ["P.json", "summary.csv"]
        report = json.loads((reports / "P.json").read_text())
        assert report["sample_id"] == "P"

    def test_seed_corpus(self, tmp_path, capsys):
        target = tmp_path / "seeded"
        assert main(["batch", "--seed-corpus", str(target)]) == 0
        expected = len(defaults.corpus_paths())
        assert f"seeded {expected} samples" in capsys.readouterr().out
        names = {p.name for p in target.iterdir()}
        assert "dirtycow_demo.jsonl" in names
        assert "cross_sandbox_demo.colmap" in names

    def test_requires_inputs(self, capsys):
        assert main(["batch"]) == 1
        assert "needs sample files" in capsys.readouterr().err

    def test_rejects_sampleless_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["batch", str(empty)]) == 1
        assert "no .jsonl or .csv samples found" in capsys.readouterr().err

    def test_malformed_sample_fails_alike_in_a_worker_pool(self, tmp_path, capsys):
        target = self.corpus_subset(tmp_path, ["clean_demo.jsonl"])
        (target / "bad.jsonl").write_text('{"type": "event", "ts": 1, "pid": "p1"}\n')
        errs = []
        for workers in ("1", "2"):
            assert main(["batch", str(target), "--workers", workers]) == 1
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        bad = target / "bad.jsonl"
        assert errs[0] == f"error: {bad}: line 1: event missing 'syscall' (bad.jsonl)\n"

    def test_malformed_sample_leaves_the_rest_reported(self, tmp_path, capsys):
        good = self.corpus_subset(tmp_path, ["camera_perm_demo.jsonl", "clean_demo.jsonl"])
        assert main(["batch", str(good), "--reports", str(tmp_path / "good")]) == 0
        expected_out = capsys.readouterr().out
        expected = {p.name: p.read_bytes() for p in (tmp_path / "good").iterdir()}
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        for path in good.iterdir():
            (mixed / path.name).write_bytes(path.read_bytes())
        (mixed / "bad.jsonl").write_text('{"type": "event", "ts": 1, "pid": "p1"}\n')
        for workers in ("1", "2"):
            reports = tmp_path / f"reports{workers}"
            code = main(["batch", str(mixed), "--workers", workers, "--reports", str(reports)])
            assert code == 1
            out, err = capsys.readouterr()
            assert out == expected_out
            bad = mixed / "bad.jsonl"
            assert err == f"error: {bad}: line 1: event missing 'syscall' (bad.jsonl)\n"
            assert {p.name: p.read_bytes() for p in reports.iterdir()} == expected

    def test_non_utf8_sample_leaves_the_rest_reported(self, tmp_path, capsys):
        good = self.corpus_subset(tmp_path, ["camera_perm_demo.jsonl"])
        assert main(["batch", str(good), "--reports", str(tmp_path / "good")]) == 0
        expected_out = capsys.readouterr().out
        expected = {p.name: p.read_bytes() for p in (tmp_path / "good").iterdir()}
        (good / "bad.jsonl").write_bytes(b'{"type": "meta"}\r\n{"type": "\xff"}\n')
        reports = tmp_path / "reports"
        assert main(["batch", str(good), "--reports", str(reports)]) == 1
        out, err = capsys.readouterr()
        assert out == expected_out
        assert err == f"error: {good / 'bad.jsonl'}: line 2: not valid UTF-8 (bad.jsonl)\n"
        assert {p.name: p.read_bytes() for p in reports.iterdir()} == expected

    def test_record_without_its_probe_field_leaves_the_batch_whole(self, tmp_path, capsys):
        indicator_map = sensorless_indicator_map(tmp_path)
        summary = tmp_path / "summary.csv"
        argv = ["batch", str(CORPUS), "--confirm", "--summary", str(summary)]
        assert main([*argv, "--indicator-map", str(indicator_map)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.startswith("threat,mechanism,sample_count,plan_count\n")
        assert summary.read_text() == out

    def test_sample_id_cannot_leave_the_report_directory(self, tmp_path, capsys):
        target = self.corpus_subset(tmp_path, ["camera_perm_demo.jsonl"])
        for name, sample_id in (("up", "../escaped"), ("down", "sub/dir")):
            meta = json.dumps({"type": "meta", "sample_id": sample_id})
            (target / f"{name}.jsonl").write_text(meta + "\n", encoding="utf-8")
        out = tmp_path / "out"
        reports = out / "reports"
        assert main(["batch", str(target), "--reports", str(reports)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout.startswith("threat,mechanism,sample_count,plan_count\n")
        assert err == (
            f"error: {target}/down.jsonl: line 1: sample_id 'sub/dir' is not a file name"
            " (down.jsonl)\n"
            f"error: {target}/up.jsonl: line 1: sample_id '../escaped' is not a file name"
            " (up.jsonl)\n"
        )
        assert sorted(p.name for p in reports.iterdir()) == ["camera_perm_demo.json", "summary.csv"]
        assert sorted(p.name for p in out.iterdir()) == ["reports"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "samples"]

    def test_bad_summary_path_fails_before_hunting(self, tmp_path, capsys):
        target = self.corpus_subset(tmp_path, ["camera_perm_demo.jsonl"])
        reports = tmp_path / "reports"
        argv = ["batch", str(target), "--reports", str(reports), "--summary", str(tmp_path)]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "Is a directory" in err
        assert not reports.exists()


class TestSinglePipelinePath:
    """plan and validate reach the same tasks and plans as hunt."""

    @pytest.mark.parametrize("path", defaults.corpus_paths(), ids=lambda p: p.stem)
    def test_plan_and_validate_agree_with_hunt(self, path, tmp_path, capsys):
        assert main(["hunt", str(path)]) == 0
        findings = json.loads(capsys.readouterr().out)["findings"]
        assert len(findings) == 4
        plan_file = tmp_path / "candidate.plan"
        for finding in findings:
            label = f"{finding['threat']}/{finding['mechanism']}"
            assert main(["plan", str(path), label]) == 0
            header, *chunks = capsys.readouterr().out.split("; plan ")
            assert header == f"; status = {finding['planner_status']}\n", label
            plans = []
            for number, chunk in enumerate(chunks, start=1):
                text = chunk.removeprefix(f"{number}\n")
                *steps, cost = text.splitlines()
                plans.append({"cost": int(cost.removeprefix("; cost = ")), "steps": steps})
                plan_file.write_text(text)
                assert main(["validate", str(path), label, str(plan_file)]) == 0
                assert capsys.readouterr().out.startswith("valid:"), (label, number)
            assert plans == finding["plans"], label


@pytest.mark.parametrize(
    "argv",
    [
        ["hunt", sample("pivot_demo.jsonl"), "-k", "0"],
        ["plan", sample("pivot_demo.jsonl"), "surveillance/exploit", "-k", "0"],
        ["batch", sample("pivot_demo.jsonl"), "--workers", "0"],
        ["hunt", sample("pivot_demo.jsonl"), "--time-limit", "-1"],
        ["hunt", sample("pivot_demo.jsonl"), "--time-limit", "nan"],
        ["hunt", sample("pivot_demo.jsonl"), "--sample-time-limit", "-0.5"],
        ["batch", sample("pivot_demo.jsonl"), "--sample-time-limit", "nan"],
        ["hunt", sample("pivot_demo.jsonl"), "--memory-limit", "-5"],
        ["batch", sample("pivot_demo.jsonl"), "--memory-limit", "0"],
    ],
    ids=[
        "hunt-k", "plan-k", "batch-workers", "hunt-time-limit", "hunt-time-limit-nan",
        "hunt-sample-time-limit", "batch-sample-time-limit-nan", "hunt-memory-limit",
        "batch-memory-limit",
    ],
)
def test_bad_flag_value_is_an_input_error(argv):
    assert_one_error_line(argv)


@pytest.mark.parametrize(
    "command", ["hunt-out", "hunt-rules", "batch-reports", "batch-summary"]
)
def test_unusable_path_is_an_input_error(command, tmp_path):
    occupied = tmp_path / "occupied"
    occupied.write_text("")
    argv = {
        "hunt-out": ["hunt", sample("pivot_demo.jsonl"), "-o", str(tmp_path)],
        "hunt-rules": ["hunt", sample("pivot_demo.jsonl"), "--rules", str(tmp_path)],
        "batch-reports": ["batch", str(CORPUS), "--reports", str(occupied)],
        "batch-summary": ["batch", str(CORPUS), "--summary", str(tmp_path)],
    }[command]
    assert_one_error_line(argv)


@pytest.mark.parametrize(
    "record",
    [
        '{"type": "event", "ts": 1, "syscall": true, "pid": 1}',
        '{"type": "permission", "name": false}',
    ],
    ids=["syscall", "permission-name"],
)
def test_boolean_token_is_an_input_error(record, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(record + "\n")
    assert_one_error_line(["hunt", str(bad)])


def test_non_utf8_sample_is_an_input_error(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'{"type": "meta", "note": "caf\xe9"}\n')
    assert_one_error_line(["hunt", str(bad)])


# One malformed line per asset flag.
BAD_ASSET_LINES = {
    "--domain": "(define (domain broken) (:action\n",
    "--rules": "exploited(X) :-\n",
    "--capabilities": "cve_x enables-sensor - core\n",
    "--state-map": "bogus\n",
    "--indicator-map": "pivot-exploit\n",
}


@pytest.mark.parametrize("command", ["hunt", "batch"])
@pytest.mark.parametrize("content", ["non-utf8", "malformed"])
@pytest.mark.parametrize("flag", list(BAD_ASSET_LINES))
def test_bad_asset_file_is_one_error_naming_it(flag, content, command, tmp_path, capsys):
    bad = tmp_path / "asset"
    bad.write_bytes(b"\xff" if content == "non-utf8" else BAD_ASSET_LINES[flag].encode())
    out = tmp_path / "out"
    target = {
        "hunt": [sample("pivot_demo.jsonl"), "-o", str(out)],
        "batch": [str(CORPUS), "--reports", str(out)],
    }[command]
    assert main([command, *target, flag, str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: line ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    if content == "non-utf8":
        assert captured.err == f"error: {bad}: line 1: not valid UTF-8\n"
    assert captured.out == "" and not out.exists()


# Capability rows that parse but fail the domain's checks, with the error.
WORLD_ERRORS = {
    "type-clash": (
        "cve_1 enables-sensor app core", "object 'app' used as sensor but declared as app"
    ),
    "template-name": (
        "cve_1 pivot-exploit-from-to camera extended",
        "object 'camera' used as vuln but declared as sensor",
    ),
}


@pytest.mark.parametrize(
    "command", [["hunt", "-o"], ["batch", "--reports"], ["batch", "--workers", "2", "--reports"]],
    ids=["hunt", "batch", "batch-workers-2"],
)
@pytest.mark.parametrize("row", list(WORLD_ERRORS))
def test_capability_table_failing_the_domain_is_one_error_at_load(row, command, tmp_path, capsys):
    line, message = WORLD_ERRORS[row]
    bad = tmp_path / "cve-capabilities"
    bad.write_text(f"{defaults.asset_text(defaults.CAPABILITIES_FILE)}{line}\n", encoding="utf-8")
    out = tmp_path / "out"
    target = sample("dirtycow_demo.jsonl") if command[0] == "hunt" else str(CORPUS)
    assert main([command[0], target, *command[1:], str(out), "--capabilities", str(bad)]) == 1
    assert capsys.readouterr() == ("", f"error: {bad}: {message}\n")
    assert not out.exists()


def test_bad_file_in_asset_directory_is_named(tmp_path, capsys):
    for name, _ in _OVERRIDE_FLAGS.values():
        (tmp_path / name).write_text(defaults.asset_text(name), encoding="utf-8")
    path = tmp_path / defaults.STATE_MAP_FILE
    path.write_bytes(b"exploited/1 (exploited $1)\n\xff\n")
    assert main(["hunt", sample("pivot_demo.jsonl"), "--assets", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: line 2: not valid UTF-8\n"


def test_non_utf8_plan_file_is_an_input_error(tmp_path, capsys):
    plan = tmp_path / "candidate.plan"
    plan.write_bytes(b"(pivot-exploit cve_2019_2194 cve_2019_2103)\n\xff\n")
    argv = ["validate", sample("pivot_demo.jsonl"), "surveillance/exploit", str(plan)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {plan}: line 2: not valid UTF-8\n"


def named_error_cases(tmp_path):
    """Per case, a command whose input file is bad and the error it must
    print after ``error: ``, which starts with that file's path."""
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "event", "syscall": "mmap", "pid": "p1"}\n', encoding="utf-8")
    colmap = (CORPUS / "cross_sandbox_demo.colmap").read_text(encoding="utf-8")
    misspelled = tmp_path / "misspelled.colmap"
    misspelled.write_text(colmap.replace("\nobject = ", "\nobjct = "), encoding="utf-8")
    no_ts = tmp_path / "no_ts.colmap"
    no_ts.write_text(colmap.replace("\nts = time\n", "\n"), encoding="utf-8")
    plan = tmp_path / "candidate.plan"
    plan.write_text("(warp app)\n", encoding="utf-8")
    csv = sample("cross_sandbox_demo.csv")
    bundled_map = defaults.asset_text(defaults.STATE_MAP_FILE)
    misnamed = tmp_path / "misnamed-state-map"
    misnamed.write_text(bundled_map.replace("(exploited $1)", "(exploted $1)"), encoding="utf-8")
    short = tmp_path / "short-state-map"
    short.write_text(bundled_map.replace("(perm-granted $1 $2)", "(perm-granted $1)"),
                     encoding="utf-8")
    swapped = tmp_path / "swapped-state-map"
    swapped.write_text(bundled_map.replace("(perm-granted $1 $2)", "(perm-granted $2 $1)"),
                       encoding="utf-8")
    indicators = defaults.asset_text(defaults.INDICATOR_MAP_FILE)
    slot_map, suffix_map = tmp_path / "slot-indicator-map", tmp_path / "suffix-indicator-map"
    line = "surveillance-via-permission permission-audit sensor=$2"
    slot_map.write_text(indicators.replace(line, line.replace("$2", "$5")), encoding="utf-8")
    line = "pivot-exploit syscall-pattern cve=$1"
    suffix_map.write_text(indicators.replace(line, line.replace(" ", "@1 ", 1)), encoding="utf-8")
    domain = defaults.asset_text(defaults.DOMAIN_FILE)
    twice = tmp_path / "constant-twice.pddl"
    twice.write_text(domain.replace(" exploit - mechanism)", " exploit exploit - mechanism)"),
                     encoding="utf-8")
    return {
        "jsonl-line": (["hunt", str(bad)], f"{bad}: line 1: event missing 'ts'"),
        "colmap-key": (
            ["hunt", csv, "--column-map", str(misspelled)],
            f"{misspelled}: line 6: unknown column map key 'objct'",
        ),
        "colmap-without-ts": (
            ["hunt", csv, "--column-map", str(no_ts)],
            f"{no_ts}: column map missing required key 'ts'",
        ),
        "plan-file": (
            ["validate", sample("pivot_demo.jsonl"), "surveillance/exploit", str(plan)],
            f"{plan}: line 1: unknown action (warp app)",
        ),
        # Checked at load, so batch fails once instead of once per sample
        # that derives the predicate.
        "state-map-target": (
            ["batch", str(CORPUS), "--state-map", str(misnamed)],
            f"{misnamed}: exploited/1 maps to (exploted $1): undeclared predicate 'exploted'",
        ),
        "state-map-slots": (
            ["hunt", sample("clean_demo.jsonl"), "--state-map", str(short)],
            f"{short}: perm-granted/2 maps to (perm-granted $1): predicate takes 2, template has 1",
        ),
        "state-map-head-constant": (
            ["batch", str(CORPUS), "--state-map", str(swapped)],
            f"{swapped}: perm-granted/2 maps to (perm-granted $2 $1): object 'camera' used as app"
            " but declared as sensor, in rule head perm-granted(A, camera)",
        ),
        "indicator-map-slot": (
            ["hunt", sample("clean_demo.jsonl"), "--indicator-map", str(slot_map)],
            f"{slot_map}: line 9: indicator template surveillance-via-permission permission-audit:"
            " slot $5 out of range for (surveillance-via-permission ?a ?s)",
        ),
        "indicator-map-suffix": (
            ["batch", str(CORPUS), "--strict-domain", "--indicator-map", str(suffix_map)],
            f"{suffix_map}: line 5: indicator template pivot-exploit@1 syscall-pattern: suffix out"
            " of range for pivot-exploit, which has 1 precondition disjunct(s); a single one takes"
            " no suffix",
        ),
        "domain-constant-twice": (
            ["hunt", sample("clean_demo.jsonl"), "--domain", str(twice)],
            f"{twice}: line 9, col 3: constant exploit declared twice",
        ),
    }


@pytest.mark.parametrize("case", [
    "jsonl-line", "colmap-key", "colmap-without-ts", "plan-file", "state-map-target",
    "state-map-slots", "state-map-head-constant", "indicator-map-slot", "indicator-map-suffix",
    "domain-constant-twice",
])
def test_input_error_names_its_file(case, tmp_path, capsys):
    argv, message = named_error_cases(tmp_path)[case]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_over_wide_precondition_is_one_error_at_load(tmp_path, capsys):
    # Seven two-way ors: 128 DNF disjuncts, past the bound of 64.
    either = "(or (notification-accessible ?a) (clipboard-readable ?a))"
    action = (
        f"(:action wide :parameters (?a - app) :precondition (and {' '.join([either] * 7)})"
        " :effect (cross-sandbox-reads ?a))"
    )
    domain = tmp_path / "wide.pddl"
    text = defaults.asset_text(defaults.DOMAIN_FILE).rstrip()
    assert text.endswith(")")
    domain.write_text(f"{text[:-1]}\n  {action})\n", encoding="utf-8")
    assert main(["hunt", sample("pivot_demo.jsonl"), "--domain", str(domain)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {domain}: line ")
    assert err.endswith(": action wide: precondition has more than 64 disjuncts\n")


def assert_one_error_line(argv):
    """Run the CLI in a separate interpreter and check that it exits 1 with
    a single ``error:`` line and no traceback."""
    src = str(Path(planhunt.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "planhunt.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    assert "Traceback" not in result.stderr


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("planhunt ")

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["prowl"])
        assert exit_info.value.code == 2

    def test_only_hunt_and_batch_take_a_sample_time_limit(self, capsys):
        # plan poses one hypothesis, so a budget across the catalog has nothing to bound.
        for argv in (["hunt", "s.jsonl"], ["batch", "s.jsonl"]):
            args = build_parser().parse_args([*argv, "--sample-time-limit", "0.5"])
            assert args.sample_time_limit == 0.5
        with pytest.raises(SystemExit) as exit_info:
            main(["plan", "s.jsonl", "surveillance/exploit", "--sample-time-limit", "0.5"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --sample-time-limit" in capsys.readouterr().err
