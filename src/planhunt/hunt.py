"""End-to-end threat hunting over telemetry samples.

One sample flows through four stages: facts are extracted from telemetry,
the rule pack derives exploit and capability facts, each catalog hypothesis
becomes a planning problem whose top-k plans are enumerated, and every plan
is translated into indicator-of-compromise records. A hypothesis counts as
a possible threat exactly when at least one plan was found; optional
confirmation then audits the checkable indicators against the derived
facts.

``infer_facts``, ``hypothesis_problem``, ``hypothesis_task`` and
``hypothesis_plans`` are the one path from a sample to its plans; the
hunt, batch and single-stage CLI commands all go through them.
"""

import csv
import io
import json
import logging
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import defaults
from .errors import DuplicateSampleId, InputError, PlanHuntError
from .inference.engine import Relations, StratifiedProgram, evaluate, stratify
from .inference.rules import Atom, Literal, Rule, RulePack, Var, render_body
from .planner import Limits, Plan, PlanSet, find_top_k
from .planning_model.ground import GroundedTask, ground_task
from .planning_model.model import (
    DomainModel,
    ProblemInstance,
    ThreatHypothesis,
    default_catalog,
)
from .planning_model.state import CapabilityTable, MappingTable, build_problem
from .telemetry import SampleRecord, events_to_facts, load_sample, unknown_tokens

logger = logging.getLogger(__name__)

__all__ = [
    "IndicatorSpec",
    "IoCRecord",
    "ThreatFinding",
    "HuntReport",
    "HuntAssets",
    "HuntConfig",
    "SampleFacts",
    "BatchSummary",
    "parse_indicator_map",
    "construct_indicators",
    "cve_patterns",
    "confirm_threat",
    "infer_facts",
    "hypothesis_problem",
    "hypothesis_task",
    "hypothesis_plans",
    "identify_threats",
    "report_to_json",
    "aggregate",
    "summary_to_csv",
    "batch_hunt",
]

STATUS_POSSIBLE = "threat_possible"
STATUS_NO_PLAN = "no_plan"
STATUS_TIMED_OUT = "timed_out"

CONFIRM_NOT_ATTEMPTED = "not_attempted"
CONFIRM_CONFIRMED = "confirmed"
CONFIRM_UNCONFIRMED = "unconfirmed"

REPORT_SCHEMA_VERSION = "1"


# --- indicator templates ------------------------------------------------------


@dataclass(frozen=True)
class IndicatorSpec:
    """One template line: which action step emits which record."""

    schema: str
    disjunct: int | None
    kind: str
    fields: tuple[tuple[str, str], ...]  # (key, "$N" slot or literal)


def parse_indicator_map(text: str) -> tuple[IndicatorSpec, ...]:
    """Parse ``action[@disjunct] kind key=value ...`` lines."""
    specs: list[IndicatorSpec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise InputError(f"indicator map line {lineno}: need action and kind")
        head = parts[0]
        disjunct: int | None = None
        if "@" in head:
            head, _, tail = head.partition("@")
            if not tail.isdigit() or int(tail) < 1:
                raise InputError(
                    f"indicator map line {lineno}: bad disjunct suffix {tail!r}"
                )
            disjunct = int(tail)
        fields: list[tuple[str, str]] = []
        for item in parts[2:]:
            if "=" not in item:
                raise InputError(
                    f"indicator map line {lineno}: field {item!r} has no '='"
                )
            key, _, value = item.partition("=")
            fields.append((key, value))
        specs.append(IndicatorSpec(head, disjunct, parts[1], tuple(fields)))
    return tuple(specs)


@dataclass(frozen=True)
class IoCRecord:
    """One indicator: what to look for, and which plan step produced it."""

    kind: str
    detail: tuple[tuple[str, str], ...]
    source_step: int

    def detail_dict(self) -> dict[str, str]:
        return dict(self.detail)


def cve_patterns(pack: RulePack) -> dict[str, str]:
    """Per cve, the `` | ``-joined text of the rule bodies that lift
    ``exploited(cve)``: the ``patterns`` detail of its syscall-pattern
    indicators. Confirmation probes the model for ``exploited(cve)``, which
    holds exactly when one of these bodies matches.

    A lifting rule whose body is a single evidence predicate expands to
    that predicate's own rule bodies, so the patterns reference telemetry
    directly. An ``exploited(X)`` head names no cve and is skipped.
    """
    by_head: dict[Atom, list[Rule]] = {}
    for rule in pack.rules:
        by_head.setdefault(rule.head, []).append(rule)
    patterns: dict[str, str] = {}
    for head, lifting in by_head.items():
        if head.predicate != "exploited" or len(head.args) != 1 or isinstance(head.args[0], Var):
            continue
        rules: list[Rule] = []
        for rule in lifting:
            evidence = rule.body[0] if len(rule.body) == 1 else None
            if isinstance(evidence, Literal) and not evidence.negated and not evidence.atom.args:
                rules += by_head.get(evidence.atom, [])
            else:
                rules.append(rule)
        if rules:
            patterns[head.args[0]] = " | ".join(render_body(rule.body) for rule in rules)
    return patterns


def construct_indicators(
    task: GroundedTask,
    plan: Plan,
    specs: tuple[IndicatorSpec, ...],
    patterns: dict[str, str],
) -> tuple[IoCRecord, ...]:
    """Expand each plan step through the indicator templates; a
    syscall-pattern record gets its CVE's ``patterns``.

    Records equal up to their source step are deduplicated, keeping the
    earliest step.
    """
    records: list[IoCRecord] = []
    seen: set[tuple] = set()
    for step, index in enumerate(plan.steps):
        action = task.actions[index]
        for spec in specs:
            if spec.schema != action.schema:
                continue
            if spec.disjunct is not None and spec.disjunct != action.disjunct:
                continue
            detail: list[tuple[str, str]] = []
            for key, value in spec.fields:
                if value.startswith("$"):
                    slot = value[1:]
                    if not slot.isdigit() or not 1 <= int(slot) <= len(action.args):
                        raise InputError(
                            f"indicator template {spec.schema}: slot {value} "
                            f"out of range for ({action.schema} {' '.join(action.args)})"
                        )
                    detail.append((key, action.args[int(slot) - 1]))
                else:
                    detail.append((key, value))
            cve = dict(detail).get("cve")
            if spec.kind == "syscall-pattern" and cve in patterns:
                detail.append(("patterns", patterns[cve]))
            key = (spec.kind, tuple(detail))
            if key in seen:
                continue
            seen.add(key)
            records.append(IoCRecord(spec.kind, tuple(detail), step))
    return tuple(records)


# Per indicator kind checkable against already-captured telemetry, the
# probe of the model: a predicate and, per argument, the detail field that
# fills it or None for any value. api-call records describe future behavior
# and stay out of confirmation.
_PROBES = {
    "syscall-pattern": ("exploited", ("cve",)),
    "permission-audit": ("perm-granted", (None, "sensor")),
    "notification-access": ("notification-accessible", ("app",)),
    "clipboard-access": ("clipboard-readable", ("app",)),
    "ui-overlay": ("login-ui-observed", ("app",)),
}

# The benchmark traces probes by this name until ROADMAP item 1 repoints it.
match_body = Relations.holds


def confirm_threat(records: tuple[IoCRecord, ...], relations: Relations) -> bool:
    """Audit the checkable records against the model ``evaluate`` saturated
    for a sample, ``relations``, with one ``holds`` probe each:
    ``exploited(cve)`` for a syscall pattern, ``perm-granted(_, sensor)``
    for a permission audit, the app's surface fact for a surface audit. A
    record without its probe's field fails; api-call records pass. All
    probes read one store, so the indexes one builds serve the next."""
    for record in records:
        probe = _PROBES.get(record.kind)
        if probe is None:
            continue
        predicate, fields = probe
        detail = record.detail_dict()
        if not all(name in detail for name in fields if name is not None):
            return False
        pattern = tuple(None if name is None else detail[name] for name in fields)
        if not match_body(relations, predicate, pattern):
            return False
    return True


# --- per-sample pipeline ------------------------------------------------------


@dataclass(frozen=True)
class ThreatFinding:
    threat: str
    mechanism: str
    status: str
    planner_status: str
    plans: tuple[tuple[int, tuple[str, ...]], ...]  # (cost, rendered steps)
    indicators: tuple[tuple[IoCRecord, ...], ...]  # one tuple per plan
    confirmation: str = CONFIRM_NOT_ATTEMPTED

    @property
    def label(self) -> str:
        return f"{self.threat}/{self.mechanism}"


@dataclass(frozen=True)
class HuntReport:
    sample_id: str
    unknown_tokens: tuple[str, ...]
    findings: tuple[ThreatFinding, ...]
    strict_domain: bool
    confirm: bool
    k: int
    wall_time_s: float

    @property
    def possible_threats(self) -> tuple[str, ...]:
        return tuple(
            f.label for f in self.findings if f.status == STATUS_POSSIBLE
        )


@dataclass(frozen=True)
class HuntAssets:
    """Everything the pipeline needs besides the sample itself."""

    domain: DomainModel
    pack: RulePack
    program: StratifiedProgram
    # cve -> its syscall-pattern indicators' patterns text; see cve_patterns.
    patterns: dict[str, str]
    capabilities: CapabilityTable
    mapping: MappingTable
    indicator_specs: tuple[IndicatorSpec, ...]
    # Whether the extended producer actions were dropped from ``domain``.
    strict_domain: bool = False

    @classmethod
    def load(
        cls,
        root: Path | None = None,
        overrides: dict[str, Path] | None = None,
        strict_domain: bool = False,
    ) -> "HuntAssets":
        """Load the asset bundle, honoring per-file overrides.

        ``overrides`` keys are the bundled file names (threat-domain.pddl,
        threat.rules, cve-capabilities, state-mapping, indicator-map).
        """

        def text(name: str) -> str:
            if overrides and name in overrides:
                return Path(overrides[name]).read_text(encoding="utf-8")
            return defaults.asset_text(name, root)

        from .planning_model.pddl import parse_domain
        from .planning_model.state import load_capability_table, load_mapping_table
        from .inference.rules import parse_rule_pack

        domain = parse_domain(text(defaults.DOMAIN_FILE))
        if strict_domain:
            domain = domain.without_actions(defaults.EXTENDED_ACTIONS)
        pack = parse_rule_pack(text(defaults.RULES_FILE))
        return cls(
            domain=domain,
            pack=pack,
            program=stratify(pack),
            patterns=cve_patterns(pack),
            capabilities=load_capability_table(text(defaults.CAPABILITIES_FILE)),
            mapping=load_mapping_table(text(defaults.STATE_MAP_FILE)),
            indicator_specs=parse_indicator_map(text(defaults.INDICATOR_MAP_FILE)),
            strict_domain=strict_domain,
        )


@dataclass(frozen=True)
class HuntConfig:
    limits: Limits = field(default_factory=Limits)
    confirm: bool = False
    # Wall-clock budget across a sample's whole catalog; None means four
    # planner budgets.
    sample_wall_time: float | None = None

    def sample_budget(self) -> float:
        if self.sample_wall_time is not None:
            return self.sample_wall_time
        return 4.0 * self.limits.wall_time


@dataclass(frozen=True)
class SampleFacts:
    """A sample with its extensional facts, the facts derived from them,
    and the store that holds both, which confirmation reads."""

    sample: SampleRecord
    base: Relations
    derived: Relations
    relations: Relations


def infer_facts(sample: SampleRecord, assets: HuntAssets) -> SampleFacts:
    """Extract the sample's facts and run the rule program over them."""
    base = events_to_facts(sample)
    model = evaluate(assets.program, base)
    return SampleFacts(sample, base, model.facts, model.relations)


def hypothesis_problem(
    facts: SampleFacts, assets: HuntAssets, hypothesis: ThreatHypothesis
) -> ProblemInstance:
    """The planning problem one hypothesis poses over a sample's facts."""
    return build_problem(
        facts.derived, facts.sample, assets.domain, assets.capabilities,
        assets.mapping, hypothesis,
    )


def hypothesis_task(
    facts: SampleFacts, assets: HuntAssets, hypothesis: ThreatHypothesis
) -> GroundedTask:
    return ground_task(assets.domain, hypothesis_problem(facts, assets, hypothesis))


def hypothesis_plans(
    facts: SampleFacts,
    assets: HuntAssets,
    hypothesis: ThreatHypothesis,
    limits: Limits,
) -> tuple[GroundedTask, PlanSet]:
    """Ground one hypothesis and enumerate its top-k plans."""
    task = hypothesis_task(facts, assets, hypothesis)
    return task, find_top_k(task, limits)


def identify_threats(
    sample: SampleRecord, assets: HuntAssets, config: HuntConfig | None = None
) -> HuntReport:
    """Run the full pipeline for one sample and return its report."""
    config = config or HuntConfig()
    start = time.monotonic()
    deadline = start + config.sample_budget()

    facts = infer_facts(sample, assets)
    flagged = unknown_tokens(sample, assets.pack.token_table)

    findings: list[ThreatFinding] = []
    for hypothesis in default_catalog():
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            findings.append(ThreatFinding(
                hypothesis.threat, hypothesis.mechanism, STATUS_TIMED_OUT, STATUS_TIMED_OUT, (), ()
            ))
            continue
        limits = replace(
            config.limits, wall_time=min(config.limits.wall_time, remaining)
        )
        task, planset = hypothesis_plans(facts, assets, hypothesis, limits)
        findings.append(
            _finding_from_planset(
                hypothesis, task, planset, assets, facts.relations, config
            )
        )
    return HuntReport(
        sample_id=sample.sample_id,
        unknown_tokens=tuple(flagged),
        findings=tuple(findings),
        strict_domain=assets.strict_domain,
        confirm=config.confirm,
        k=config.limits.k,
        wall_time_s=time.monotonic() - start,
    )


def _finding_from_planset(
    hypothesis: ThreatHypothesis,
    task: GroundedTask,
    planset: PlanSet,
    assets: HuntAssets,
    relations: Relations,
    config: HuntConfig,
) -> ThreatFinding:
    if planset.plans:
        status = STATUS_POSSIBLE
    elif planset.status == "timed_out":
        status = STATUS_TIMED_OUT
    else:
        status = STATUS_NO_PLAN

    plans: list[tuple[int, tuple[str, ...]]] = []
    indicators: list[tuple[IoCRecord, ...]] = []
    for plan in planset.plans:
        plans.append(
            (plan.cost, tuple(task.actions[i].render() for i in plan.steps))
        )
        indicators.append(
            construct_indicators(task, plan, assets.indicator_specs, assets.patterns)
        )

    confirmation = CONFIRM_NOT_ATTEMPTED
    if config.confirm and status == STATUS_POSSIBLE:
        confirmed = any(
            confirm_threat(records, relations) for records in indicators
        )
        confirmation = CONFIRM_CONFIRMED if confirmed else CONFIRM_UNCONFIRMED

    return ThreatFinding(
        threat=hypothesis.threat,
        mechanism=hypothesis.mechanism,
        status=status,
        planner_status=planset.status,
        plans=tuple(plans),
        indicators=tuple(indicators),
        confirmation=confirmation,
    )


# --- report serialization -----------------------------------------------------


def report_to_json(report: HuntReport, include_wall_time: bool = True) -> str:
    """Serialize a report deterministically; batch files drop the wall time
    so repeated runs stay byte-identical."""
    meta: dict[str, object] = {
        "k": report.k,
        "strict_domain": report.strict_domain,
        "confirm": report.confirm,
    }
    if include_wall_time:
        meta["wall_time_s"] = round(report.wall_time_s, 3)
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "sample_id": report.sample_id,
        "unknown_tokens": list(report.unknown_tokens),
        "possible_threats": list(report.possible_threats),
        "findings": [
            {
                "threat": f.threat,
                "mechanism": f.mechanism,
                "status": f.status,
                "planner_status": f.planner_status,
                "confirmation": f.confirmation,
                "plans": [
                    {"cost": cost, "steps": list(steps)} for cost, steps in f.plans
                ],
                "indicators": [
                    [
                        {
                            "kind": r.kind,
                            "detail": r.detail_dict(),
                            "source_step": r.source_step,
                        }
                        for r in records
                    ]
                    for records in f.indicators
                ],
            }
            for f in report.findings
        ],
        "meta": meta,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# --- batch mode -----------------------------------------------------------------


@dataclass(frozen=True)
class BatchSummary:
    """Aggregate counts per catalog hypothesis plus sample totals."""

    cells: tuple[tuple[str, str, int, int], ...]  # threat, mechanism, samples, plans
    samples: int
    detected: int
    timed_out: int
    clean: int
    # (file name, message) per sample that could not be hunted, in path order.
    failures: tuple[tuple[str, str], ...] = ()


def aggregate(reports: list[HuntReport]) -> BatchSummary:
    order: list[tuple[str, str]] = []
    samples_with: dict[tuple[str, str], int] = {}
    plan_totals: dict[tuple[str, str], int] = {}
    for report in reports:
        for finding in report.findings:
            key = (finding.threat, finding.mechanism)
            if key not in samples_with:
                order.append(key)
                samples_with[key] = 0
                plan_totals[key] = 0
            if finding.status == STATUS_POSSIBLE:
                samples_with[key] += 1
            plan_totals[key] += len(finding.plans)
    detected = sum(1 for r in reports if r.possible_threats)
    timed_out = sum(
        1
        for r in reports
        if any(f.status == STATUS_TIMED_OUT for f in r.findings)
    )
    return BatchSummary(
        cells=tuple(
            (threat, mechanism, samples_with[(threat, mechanism)], plan_totals[(threat, mechanism)])
            for threat, mechanism in order
        ),
        samples=len(reports),
        detected=detected,
        timed_out=timed_out,
        clean=len(reports) - detected,
    )


def summary_to_csv(summary: BatchSummary) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["threat", "mechanism", "sample_count", "plan_count"])
    for threat, mechanism, sample_count, plan_count in summary.cells:
        writer.writerow([threat, mechanism, sample_count, plan_count])
    return out.getvalue()


def _hunt_path(
    path: Path, assets: HuntAssets, config: HuntConfig
) -> HuntReport | tuple[str, str]:
    """Hunt one sample file; a sample that cannot be loaded or hunted comes
    back as (file name, message), so it does not sink the batch."""
    try:
        return identify_threats(load_sample(path), assets, config)
    except (PlanHuntError, OSError) as exc:
        return path.name, str(exc)


# Worker-process state: assets and config arrive once per worker, not per sample.
_WORKER: dict = {}


def _init_worker(assets: HuntAssets, config: HuntConfig) -> None:
    _WORKER["assets"] = assets
    _WORKER["config"] = config


def _worker_run(path: Path) -> HuntReport | tuple[str, str]:
    return _hunt_path(path, _WORKER["assets"], _WORKER["config"])


def batch_hunt(
    paths: list[Path],
    assets: HuntAssets | None = None,
    config: HuntConfig | None = None,
    workers: int = 1,
    report_dir: Path | None = None,
) -> tuple[list[HuntReport], BatchSummary]:
    """Hunt over many samples, optionally in parallel worker processes.

    ``assets`` defaults to the bundled set. Reports come back sorted by
    sample id regardless of worker scheduling; two samples with the same id
    abort the batch. A sample that fails to load or hunt is left out of the
    reports and listed in ``BatchSummary.failures``. When ``report_dir`` is
    given, it is created before any sample is hunted, and per-sample
    reports (without wall times) and summary.csv are written there.
    """
    assets = assets or HuntAssets.load()
    config = config or HuntConfig()
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if report_dir is not None:
        report_dir.mkdir(parents=True, exist_ok=True)

    if workers == 1:
        outcomes = [_hunt_path(path, assets, config) for path in paths]
    else:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(assets, config),
        ) as pool:
            outcomes = list(pool.map(_worker_run, paths))
    reports = [o for o in outcomes if isinstance(o, HuntReport)]
    failures = tuple(o for o in outcomes if not isinstance(o, HuntReport))

    for sample_id, count in Counter(report.sample_id for report in reports).items():
        if count > 1:
            raise DuplicateSampleId(sample_id)
    reports.sort(key=lambda r: r.sample_id)
    summary = replace(aggregate(reports), failures=failures)
    flagged = sum(1 for report in reports if report.unknown_tokens)
    if flagged:
        logger.warning("batch: %d of %d samples have unknown tokens", flagged, len(reports))

    if report_dir is not None:
        for report in reports:
            out = report_dir / f"{report.sample_id}.json"
            out.write_text(report_to_json(report, include_wall_time=False), encoding="utf-8")
        (report_dir / "summary.csv").write_text(summary_to_csv(summary), encoding="utf-8")
    logger.info(
        "batch: %d samples, %d detected, %d timed out, %d failed",
        summary.samples,
        summary.detected,
        summary.timed_out,
        len(failures),
    )
    return reports, summary
