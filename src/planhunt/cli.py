"""Command-line interface.

Subcommands cover the pipeline at increasing depth: ``infer`` shows derived
facts, ``plan`` shows planning problems and plans for one hypothesis,
``hunt`` emits a full per-sample report, ``validate`` replays a plan file,
and ``batch`` processes whole directories with worker processes.

Exit codes: 0 success, 1 bad input (malformed samples, rules, domains,
missing files), 2 unexpected errors.
"""

import argparse
import logging
import sys
from pathlib import Path

from . import defaults, __version__
from .errors import InputError, PlanHuntError
from .hunt import (
    HuntAssets,
    HuntConfig,
    batch_hunt,
    hypothesis_plans,
    hypothesis_problem,
    hypothesis_task,
    identify_threats,
    infer_facts,
    report_to_json,
    summary_to_csv,
)
from .planner import Limits, parse_plan_text, render_plan, validate_plan
from .planning_model.model import ThreatHypothesis
from .planning_model.pddl import render_problem
from .telemetry import SampleRecord, load_sample

logger = logging.getLogger(__name__)

_OVERRIDE_FLAGS = {
    "domain": defaults.DOMAIN_FILE,
    "rules": defaults.RULES_FILE,
    "capabilities": defaults.CAPABILITIES_FILE,
    "state_map": defaults.STATE_MAP_FILE,
    "indicator_map": defaults.INDICATOR_MAP_FILE,
}


def _asset_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("assets")
    group.add_argument(
        "--assets", type=Path, metavar="DIR",
        help="directory replacing the bundled asset set",
    )
    group.add_argument("--domain", type=Path, help="PDDL domain override")
    group.add_argument("--rules", type=Path, help="rule pack override")
    group.add_argument("--capabilities", type=Path, help="capability table override")
    group.add_argument("--state-map", type=Path, help="state mapping override")
    group.add_argument("--indicator-map", type=Path, help="indicator map override")
    group.add_argument(
        "--strict-domain", action="store_true",
        help="drop the extended producer actions from the domain",
    )


def _limit_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("limits")
    group.add_argument("-k", type=int, default=10, help="plans per hypothesis (default 10)")
    group.add_argument(
        "--time-limit", type=float, default=3600.0, metavar="SECONDS",
        help="planner wall-clock budget per hypothesis (default 3600)",
    )
    group.add_argument(
        "--sample-time-limit", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget across one sample's catalog (default 4x planner budget)",
    )
    group.add_argument(
        "--memory-limit", type=int, default=8 * 2**30, metavar="BYTES",
        help="planner frontier memory budget (default 8 GiB)",
    )


def _overrides(args: argparse.Namespace) -> dict[str, Path]:
    out: dict[str, Path] = {}
    for attr, filename in _OVERRIDE_FLAGS.items():
        value = getattr(args, attr, None)
        if value is not None:
            out[filename] = value
    return out


def _assets(args: argparse.Namespace) -> HuntAssets:
    return HuntAssets.load(
        root=args.assets,
        overrides=_overrides(args),
        strict_domain=args.strict_domain,
    )


def _config(args: argparse.Namespace) -> HuntConfig:
    return HuntConfig(
        limits=Limits(
            k=args.k,
            wall_time=args.time_limit,
            memory=args.memory_limit,
        ),
        confirm=getattr(args, "confirm", False),
        sample_wall_time=args.sample_time_limit,
    )


def _sample(args: argparse.Namespace) -> SampleRecord:
    return load_sample(args.sample, column_map=args.column_map)


def _hypothesis(label: str) -> ThreatHypothesis:
    threat, sep, mechanism = label.partition("/")
    if not sep:
        raise InputError(f"hypothesis must look like threat/mechanism, got {label!r}")
    try:
        return ThreatHypothesis(threat=threat, mechanism=mechanism)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _write_out(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


# --- subcommands ----------------------------------------------------------------


def _cmd_infer(args: argparse.Namespace) -> int:
    facts = infer_facts(_sample(args), _assets(args))
    lines: list[str] = []
    if args.dump_facts:
        lines.append("% extensional")
        lines.extend(str(fact) for fact in facts.base.sorted())
        lines.append("% derived")
    lines.extend(str(fact) for fact in facts.derived.sorted())
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    assets = _assets(args)
    sample = _sample(args)
    hypothesis = _hypothesis(args.hypothesis)
    facts = infer_facts(sample, assets)
    if args.dump_problem:
        problem = hypothesis_problem(facts, assets, hypothesis)
        _write_out(render_problem(problem), args.out)
        return 0
    task, planset = hypothesis_plans(facts, assets, hypothesis, _config(args).limits)
    chunks = [f"; status = {planset.status}\n"]
    for i, plan in enumerate(planset.plans, start=1):
        chunks.append(f"; plan {i}\n{render_plan(task, plan)}")
    _write_out("".join(chunks), args.out)
    return 0


def _cmd_hunt(args: argparse.Namespace) -> int:
    report = identify_threats(_sample(args), _assets(args), _config(args))
    _write_out(report_to_json(report), args.out)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    assets = _assets(args)
    sample = _sample(args)
    hypothesis = _hypothesis(args.hypothesis)
    task = hypothesis_task(infer_facts(sample, assets), assets, hypothesis)
    try:
        plan = parse_plan_text(task, Path(args.plan_file).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    result = validate_plan(task, plan)
    if result.ok:
        print(f"valid: {len(plan.steps)} steps, cost {plan.cost}")
        return 0
    print(f"invalid: {result.reason}")
    return 1


def _collect_samples(inputs: list[Path]) -> list[Path]:
    paths: list[Path] = []
    for item in inputs:
        if item.is_dir():
            paths.extend(
                sorted(p for p in item.iterdir() if p.suffix in (".jsonl", ".csv"))
            )
        elif item.is_file():
            paths.append(item)
        else:
            raise FileNotFoundError(str(item))
    return paths


def _cmd_batch(args: argparse.Namespace) -> int:
    if args.seed_corpus is not None:
        target = args.seed_corpus
        target.mkdir(parents=True, exist_ok=True)
        count = 0
        for source in defaults.corpus_paths(args.assets):
            (target / source.name).write_bytes(source.read_bytes())
            colmap = source.with_suffix(".colmap")
            if colmap.is_file():
                (target / colmap.name).write_bytes(colmap.read_bytes())
            count += 1
        print(f"seeded {count} samples into {target}")
        if not args.inputs:
            return 0
    if not args.inputs:
        raise InputError("batch needs sample files or directories (or --seed-corpus)")
    paths = _collect_samples(args.inputs)
    if not paths:
        raise InputError("no .jsonl or .csv samples found")
    reports, summary = batch_hunt(
        paths,
        assets=_assets(args),
        config=_config(args),
        workers=args.workers,
        report_dir=args.reports,
    )
    csv_text = summary_to_csv(summary)
    if args.summary is not None:
        args.summary.write_text(csv_text, encoding="utf-8")
    sys.stdout.write(csv_text)
    detected = [r.sample_id for r in reports if r.possible_threats]
    logger.info("detected samples: %s", ", ".join(detected) or "none")
    return 0


# --- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planhunt",
        description="Plan-space threat hunting over device telemetry.",
    )
    parser.add_argument("--version", action="version", version=f"planhunt {__version__}")
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="-v for progress, -vv for debug output",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    infer = sub.add_parser("infer", help="show facts derived from one sample")
    infer.add_argument("sample", type=Path)
    infer.add_argument("--column-map", type=Path, help="CSV column mapping file")
    infer.add_argument("--dump-facts", action="store_true", help="include extensional facts")
    infer.add_argument("-o", "--out", type=Path, help="write to a file instead of stdout")
    _asset_args(infer)
    infer.set_defaults(func=_cmd_infer)

    plan = sub.add_parser("plan", help="plan one hypothesis against one sample")
    plan.add_argument("sample", type=Path)
    plan.add_argument("hypothesis", help="threat/mechanism, e.g. surveillance/permission")
    plan.add_argument("--column-map", type=Path, help="CSV column mapping file")
    plan.add_argument("--dump-problem", action="store_true", help="print the problem instead of planning")
    plan.add_argument("-o", "--out", type=Path, help="write to a file instead of stdout")
    _asset_args(plan)
    _limit_args(plan)
    plan.set_defaults(func=_cmd_plan)

    hunt = sub.add_parser("hunt", help="full report for one sample")
    hunt.add_argument("sample", type=Path)
    hunt.add_argument("--column-map", type=Path, help="CSV column mapping file")
    hunt.add_argument("--confirm", action="store_true", help="audit indicators against derived facts")
    hunt.add_argument("-o", "--out", type=Path, help="write to a file instead of stdout")
    _asset_args(hunt)
    _limit_args(hunt)
    hunt.set_defaults(func=_cmd_hunt)

    validate = sub.add_parser("validate", help="replay a plan file against one sample")
    validate.add_argument("sample", type=Path)
    validate.add_argument("hypothesis", help="threat/mechanism the plan targets")
    validate.add_argument("plan_file", type=Path)
    validate.add_argument("--column-map", type=Path, help="CSV column mapping file")
    _asset_args(validate)
    validate.set_defaults(func=_cmd_validate)

    batch = sub.add_parser("batch", help="hunt over directories of samples")
    batch.add_argument("inputs", nargs="*", type=Path, help="sample files or directories")
    batch.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    batch.add_argument("--reports", type=Path, metavar="DIR", help="write per-sample reports here")
    batch.add_argument("--summary", type=Path, metavar="FILE", help="also write summary.csv here")
    batch.add_argument(
        "--seed-corpus", type=Path, metavar="DIR",
        help="copy the bundled demo corpus into DIR",
    )
    batch.add_argument("--confirm", action="store_true", help="audit indicators against derived facts")
    _asset_args(batch)
    _limit_args(batch)
    batch.set_defaults(func=_cmd_batch)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (PlanHuntError, FileNotFoundError) as exc:
        logger.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # pragma: no cover - defensive
        logger.exception("unexpected failure")
        return 2


if __name__ == "__main__":
    sys.exit(main())
