"""Command-line behavior: subcommands, output shapes, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planhunt
from planhunt import defaults
from planhunt.cli import main

CORPUS = Path("src/planhunt/assets/corpus")


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
            "error: hypothesis must look like threat/mechanism, got 'bogus'\n"
        )

    def test_unknown_hypothesis_parts(self, capsys):
        assert main(["plan", sample("pivot_demo.jsonl"), "surveillance/magic"]) == 1
        assert "error:" in capsys.readouterr().err


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

    def test_strict_domain_silences_producer_threats(self, capsys):
        assert main(["hunt", sample("fraud_demo.jsonl"), "--strict-domain"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["possible_threats"] == []
        assert payload["meta"]["strict_domain"] is True

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
        assert "error: line 1: event missing 'syscall'" in errs[0]

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
            assert err == "error: line 1: event missing 'syscall' (bad.jsonl)\n"
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
        assert err == "error: line 2: not valid UTF-8 (bad.jsonl)\n"
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
        ["plan", sample("pivot_demo.jsonl"), "surveillance/exploit", "--sample-time-limit", "-0.5"],
        ["batch", sample("pivot_demo.jsonl"), "--sample-time-limit", "nan"],
        ["hunt", sample("pivot_demo.jsonl"), "--memory-limit", "-5"],
        ["batch", sample("pivot_demo.jsonl"), "--memory-limit", "0"],
    ],
    ids=[
        "hunt-k", "plan-k", "batch-workers", "hunt-time-limit", "hunt-time-limit-nan",
        "plan-sample-time-limit", "batch-sample-time-limit-nan", "hunt-memory-limit",
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
