"""Command-line behavior: subcommands, output shapes, exit codes."""

import json
from pathlib import Path

import pytest

from planhunt import defaults
from planhunt.cli import main

CORPUS = Path("src/planhunt/assets/corpus")


def sample(name):
    return str(CORPUS / name)


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
