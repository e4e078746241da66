"""End-to-end threat hunting over telemetry samples.

One sample flows through four stages: facts are extracted from telemetry,
the rule pack derives exploit and capability facts, which become the
sample's one planning problem, each hypothesis of the domain's catalog (its
threat constants times its mechanism constants) poses its goal on that
problem and its top-k plans are enumerated, and every plan is translated
into indicator-of-compromise records. A hypothesis counts as a possible
threat exactly when at least one plan was found; optional confirmation
then audits the checkable indicators against the sample's mapped atoms, the
init the planner read, so it sees domain predicates under any state map.
``HuntAssets.load`` checks that the map covers every derived predicate, so
no mapping error waits for a sample.

``infer_facts``, ``sample_problem``, ``hypothesis_task`` and
``hypothesis_plans`` are the one path from a sample to its plans; the
hunt, batch and single-stage CLI commands all go through them.
"""

import csv
import io
import json
import logging
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import defaults
from .errors import (
    DuplicateSampleId,
    MalformedRecord,
    PlanHuntError,
    ResourceLimit,
)
from .inference.engine import Fact, Relations, StratifiedProgram, evaluate, stratify
from .inference.rules import Atom, Literal, Rule, RulePack, Var, parse_rule_pack, render_body
from .planner import Limits, Plan, PlanSet, find_top_k
from .planning_model.ground import GroundedTask, ground_task
from .planning_model.model import (
    DomainModel,
    ProblemInstance,
    ThreatHypothesis,
    hypothesis_catalog,
)
from .planning_model.pddl import parse_domain
from .planning_model.state import (
    CapabilityTable,
    MappingTable,
    StaticWorld,
    build_problem,
    load_capability_table,
    load_mapping_table,
    pose,
)
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
    "sample_problem",
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
# A hypothesis whose budget runs out before its search is undecided: the
# sample's time (timed_out), or the derived facts or ground actions (truncated_limit).
_OUT_OF_TIME, _OUT_OF_COUNT = PlanSet((), STATUS_TIMED_OUT), PlanSet((), "truncated_limit")

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


def parse_indicator_map(text: str, domain: DomainModel) -> tuple[IndicatorSpec, ...]:
    """Parse ``action[@disjunct] kind key=value ...`` lines, each checked as
    it is read; the first bad line raises MalformedRecord. On a line whose
    action ``domain`` declares, an ``@N`` suffix must number one of that
    action's two or more precondition disjuncts (a single disjunct's ground
    actions carry none), and each ``$N`` value one of its parameters. Lines
    for actions the domain lacks are not checked against it: a custom domain
    may omit them."""
    actions = {action.name: action for action in domain.actions}
    specs: list[IndicatorSpec] = []
    for lineno, line in defaults.table_lines(text):
        parts = line.split()
        if len(parts) < 2:
            raise MalformedRecord(lineno, "need action and kind")
        (head, at, tail), kind = parts[0].partition("@"), parts[1]
        action, disjunct = actions.get(head), None
        if at:
            if not (tail.isascii() and tail.isdigit()) or int(tail) < 1:
                raise MalformedRecord(lineno, f"bad disjunct suffix {tail!r}")
            disjunct = int(tail)
            count = len(action.precondition) if action else 0
            if action and (count == 1 or disjunct > count):
                raise MalformedRecord(lineno, (
                    f"indicator template {head}@{disjunct} {kind}: suffix out of range for {head}, "
                    f"which has {count} precondition disjunct(s); a single one takes no suffix"))
        fields: list[tuple[str, str]] = []
        for item in parts[2:]:
            if "=" not in item:
                raise MalformedRecord(lineno, f"field {item!r} has no '='")
            key, _, value = item.partition("=")
            if key in dict(fields) or (key, kind) == ("patterns", "syscall-pattern"):
                raise MalformedRecord(lineno, f"field {key!r} repeated or filled by the hunt")
            slot = value[1:]
            if action and value.startswith("$") and not (
                    slot.isascii() and slot.isdigit() and 1 <= int(slot) <= len(action.parameters)):
                params = " ".join(p.name for p in action.parameters)
                raise MalformedRecord(lineno, (
                    f"indicator template {head} {kind}: slot {value} out of range for ({head} {params})"))
            fields.append((key, value))
        specs.append(IndicatorSpec(head, disjunct, kind, tuple(fields)))
    return tuple(specs)


@dataclass(frozen=True)
class IoCRecord:
    """One indicator: what to look for, and which plan step produced it."""

    kind: str
    detail: tuple[tuple[str, str], ...]
    source_step: int

    def detail_dict(self) -> dict[str, str]:
        return dict(self.detail)


def cve_patterns(pack: RulePack, mapping: MappingTable) -> dict[str, str]:
    """Per cve, the `` | ``-joined text of the rule bodies that lift it to
    ``exploited(cve)``, the atom confirmation probes: the ``patterns``
    detail of its syscall-pattern indicators. Lifting rules are those whose
    heads the state map sends to ``exploited``, whatever the pack calls
    them, and the cve is the head's argument at the entry's slot; a head
    with a variable there is skipped. A lifting rule whose body is a single
    evidence predicate expands to that predicate's own rule bodies, so the
    patterns reference telemetry directly.
    """
    by_head: dict[Atom, list[Rule]] = {}
    for rule in pack.rules:
        by_head.setdefault(rule.head, []).append(rule)
    target = _PROBES["syscall-pattern"][0]
    patterns: dict[str, str] = {}
    for head, lifting in by_head.items():
        name, slots = mapping.entries.get((head.predicate, len(head.args)), (None, ()))
        cve = head.args[slots[0] - 1] if name == target and slots else None
        if cve is None or isinstance(cve, Var):
            continue
        rules: list[Rule] = []
        for rule in lifting:
            evidence = rule.body[0] if len(rule.body) == 1 else None
            if isinstance(evidence, Literal) and not evidence.negated and not evidence.atom.args:
                rules += by_head.get(evidence.atom, [])
            else:
                rules.append(rule)
        if rules:
            patterns[str(cve)] = " | ".join(render_body(rule.body) for rule in rules)
    return patterns


def construct_indicators(
    task: GroundedTask,
    plan: Plan,
    specs: tuple[IndicatorSpec, ...],
    patterns: dict[str, str],
    expanded: dict[int, tuple[tuple[str, tuple], ...]] | None = None,
) -> tuple[IoCRecord, ...]:
    """Expand each plan step through the indicator templates, whose slots
    ``parse_indicator_map`` checked; a syscall-pattern record gets its CVE's
    ``patterns``.

    Records equal up to their source step are deduplicated, keeping the
    earliest step. ``expanded`` keeps each action's (kind, detail) pairs
    across the plans of one task, so an action shared by several plans is
    expanded once.
    """
    if expanded is None:
        expanded = {}
    records: list[IoCRecord] = []
    seen: set[tuple] = set()
    for step, index in enumerate(plan.steps):
        pairs = expanded.get(index)
        if pairs is None:
            pairs = expanded[index] = _expand(task.actions[index], specs, patterns)
        for key in pairs:
            if key not in seen:
                seen.add(key)
                records.append(IoCRecord(*key, step))
    return tuple(records)


def _expand(action, specs, patterns) -> tuple[tuple[str, tuple], ...]:
    """One ground action's (kind, detail) pairs, in template order."""
    pairs = []
    for spec in specs:
        if spec.schema != action.schema:
            continue
        if spec.disjunct is not None and spec.disjunct != action.disjunct:
            continue
        detail = [
            (key, action.args[int(value[1:]) - 1] if value.startswith("$") else value)
            for key, value in spec.fields
        ]
        cve = dict(detail).get("cve")
        if spec.kind == "syscall-pattern" and cve in patterns:
            detail.append(("patterns", patterns[cve]))
        pairs.append((spec.kind, tuple(detail)))
    return tuple(pairs)


# Per indicator kind checkable against already-captured telemetry, the
# probe of the mapped atoms: a domain predicate and, per argument, the
# detail field that fills it or None for any value. api-call records
# describe future behavior and stay out of confirmation.
_PROBES = {
    "syscall-pattern": ("exploited", ("cve",)),
    "permission-audit": ("perm-granted", (None, "sensor")),
    "notification-access": ("notification-accessible", ("app",)),
    "clipboard-access": ("clipboard-readable", ("app",)),
    "ui-overlay": ("login-ui-observed", ("app",)),
}

# The benchmark traces probes by this name until ROADMAP item 1 repoints it.
match_body = Relations.holds


def confirm_threat(
    records: tuple[IoCRecord, ...],
    relations: Relations,
    probed: dict[tuple, bool] | None = None,
) -> bool:
    """Audit the checkable records against ``relations``, in the hunt the
    sample's mapped atoms (``problem.init.own``), with one ``holds`` probe each:
    ``exploited(cve)`` for a syscall pattern, ``perm-granted(_, sensor)``
    for a permission audit, the app's surface fact for a surface audit. A
    record without its probe's field fails; api-call records pass. All
    probes read one store, so the indexes one builds serve the next.
    ``probed`` keeps each (kind, detail)'s outcome across the plans of one
    finding, so a record shared by several plans is probed once."""
    if probed is None:
        probed = {}
    for record in records:
        probe = _PROBES.get(record.kind)
        if probe is None:
            continue
        key = (record.kind, record.detail)
        if key not in probed:
            predicate, fields = probe
            detail = record.detail_dict()
            probed[key] = False
            if all(name in detail for name in fields if name is not None):
                pattern = tuple(None if name is None else detail[name] for name in fields)
                probed[key] = match_body(relations, predicate, pattern)
        if not probed[key]:
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
    # The hypotheses hunted, in report order; see hypothesis_catalog.
    catalog: tuple[ThreatHypothesis, ...]
    program: StratifiedProgram
    # cve -> its syscall-pattern indicators' patterns text; see cve_patterns.
    patterns: dict[str, str]
    capabilities: CapabilityTable
    # The static part of every problem: ``capabilities`` checked against ``domain``.
    world: StaticWorld
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
        """Load the asset bundle. Each file is the per-file override if
        ``overrides`` has one (keys are the bundled file names:
        threat-domain.pddl, threat.rules, cve-capabilities, state-mapping,
        indicator-map), else ``root/<name>`` if ``root`` is given, else the
        bundled copy. A file that does not decode or parse, a domain without
        a threat or a mechanism constant, a capability table whose atoms
        fail the domain's checks, or a state map entry whose target the
        domain does not declare at its slot count, or into which a rule head
        sends a constant of a type that does not fit, or a map that neither
        maps nor ignores a predicate the pack derives (``MappingTable.check``),
        raises one InputError whose message starts with its path (the
        bundled name for a bundled file). So does an indicator template whose
        ``@N`` suffix or ``$N`` slot is out of range for its action in the
        full domain, as ``<path>: line N: indicator template ...``, with or
        without ``strict_domain``.
        """

        overrides = overrides or {}

        def parsed(name: str, parse):
            path = overrides.get(name) or (root / name if root else None)
            with defaults.naming(path or name):
                return parse(defaults.read_input(Path(path or defaults.BUNDLE / name)).read())

        def domain_and_catalog(text: str) -> tuple[DomainModel, tuple[ThreatHypothesis, ...]]:
            domain = parse_domain(text)
            return domain, hypothesis_catalog(domain)

        domain, catalog = parsed(defaults.DOMAIN_FILE, domain_and_catalog)
        specs = parsed(defaults.INDICATOR_MAP_FILE, lambda text: parse_indicator_map(text, domain))
        if strict_domain:
            domain = domain.without_actions(defaults.EXTENDED_ACTIONS)
        pack = parsed(defaults.RULES_FILE, parse_rule_pack)

        def table_and_world(text: str) -> tuple[CapabilityTable, StaticWorld]:
            table = load_capability_table(text)
            return table, StaticWorld.build(domain, table)

        capabilities, world = parsed(defaults.CAPABILITIES_FILE, table_and_world)

        def checked_mapping(text: str) -> MappingTable:
            mapping = load_mapping_table(text)
            mapping.check(world, pack)
            return mapping

        mapping = parsed(defaults.STATE_MAP_FILE, checked_mapping)
        return cls(
            domain=domain,
            catalog=catalog,
            program=stratify(pack),
            patterns=cve_patterns(pack, mapping),
            capabilities=capabilities,
            world=world,
            mapping=mapping,
            indicator_specs=specs,
            strict_domain=strict_domain,
        )


@dataclass(frozen=True)
class HuntConfig:
    limits: Limits = field(default_factory=Limits)
    confirm: bool = False
    # Wall-clock budget across a sample's catalog; None: one planner budget per hypothesis.
    sample_wall_time: float | None = None


@dataclass(frozen=True)
class SampleFacts:
    """A sample with its extensional facts and the facts derived from them."""

    sample: SampleRecord
    base: Relations
    derived: Relations


def infer_facts(sample: SampleRecord, assets: HuntAssets) -> SampleFacts:
    """Extract the sample's facts and run the rule program over them."""
    base = events_to_facts(sample)
    model = evaluate(assets.program, base)
    return SampleFacts(sample, base, model.facts)


def sample_problem(facts: SampleFacts, assets: HuntAssets) -> ProblemInstance:
    """A sample's planning problem, on which each hypothesis poses its goal."""
    return build_problem(facts.derived, facts.sample, assets.world, assets.mapping)


def hypothesis_task(
    problem: ProblemInstance, assets: HuntAssets, hypothesis: ThreatHypothesis
) -> GroundedTask:
    return ground_task(assets.domain, pose(problem, hypothesis))


def hypothesis_plans(
    problem: ProblemInstance, assets: HuntAssets, hypothesis: ThreatHypothesis, limits: Limits
) -> tuple[GroundedTask, PlanSet]:
    """Ground one hypothesis's goal on a sample's problem and enumerate its top-k plans."""
    task = hypothesis_task(problem, assets, hypothesis)
    return task, find_top_k(task, limits)


def identify_threats(
    sample: SampleRecord, assets: HuntAssets, config: HuntConfig | None = None
) -> HuntReport:
    """Run the full pipeline for one sample and return its report."""
    config = config or HuntConfig()
    start = time.monotonic()
    budget = config.sample_wall_time
    deadline = start + (len(assets.catalog) * config.limits.wall_time if budget is None else budget)

    try:
        facts = infer_facts(sample, assets)
    except ResourceLimit:
        facts = None
    problem = None if facts is None else sample_problem(facts, assets)
    flagged = unknown_tokens(sample, assets.program.pack.token_table)

    findings: list[ThreatFinding] = []
    mapped = None  # the problem's own atoms, the store confirmation probes
    for hypothesis in assets.catalog:
        remaining = deadline - time.monotonic()
        task, planset = None, _OUT_OF_COUNT if facts is None else _OUT_OF_TIME
        if facts is not None and remaining > 0:
            limits = config.limits
            if remaining < limits.wall_time:
                limits = replace(limits, wall_time=remaining)
            try:
                task, planset = hypothesis_plans(problem, assets, hypothesis, limits)
            except ResourceLimit:
                planset = _OUT_OF_COUNT
        if config.confirm and planset.plans and mapped is None:
            mapped = Relations(Fact(*atom) for atom in problem.init.own)
        findings.append(_finding_from_planset(hypothesis, task, planset, assets, mapped, config))
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
    task: GroundedTask | None,
    planset: PlanSet,
    assets: HuntAssets,
    mapped: Relations | None,
    config: HuntConfig,
) -> ThreatFinding:
    # Without a plan, only an exhausted search says no_plan; a time or
    # memory budget that ran out first leaves the hypothesis undecided.
    if planset.plans:
        status = STATUS_POSSIBLE
    elif planset.status == STATUS_NO_PLAN:
        status = STATUS_NO_PLAN
    else:
        status = STATUS_TIMED_OUT

    plans: list[tuple[int, tuple[str, ...]]] = []
    indicators: list[tuple[IoCRecord, ...]] = []
    # Per action index, shared by the plans: its records and its step name.
    expanded: dict[int, tuple] = {}
    names: dict[int, str] = {}
    for plan in planset.plans:
        for i in plan.steps:
            if i not in names:
                names[i] = task.actions[i].render()
        plans.append((plan.cost, tuple(names[i] for i in plan.steps)))
        indicators.append(construct_indicators(
            task, plan, assets.indicator_specs, assets.patterns, expanded))

    confirmation = CONFIRM_NOT_ATTEMPTED
    if config.confirm and status == STATUS_POSSIBLE:
        probed: dict[tuple, bool] = {}
        confirmed = any(
            confirm_threat(records, mapped, probed) for records in indicators
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


# Reports are written directly in the layout of ``json.dumps(payload, indent=2,
# sort_keys=True)``, whose ``indent`` runs the pure-Python encoder before
# Python 3.13: keys as sorted literals, strings through the C escaper. The
# payload version in ``tests/oracles/report_json.py`` is the reference.
_str = json.encoder.encode_basestring_ascii


def _layout(pad: int, brackets: str = "[]"):
    """Lay out rendered items as a JSON list (object members with "{}") opened at ``pad``."""
    inner = "\n" + " " * (pad + 2)
    head, sep, tail = brackets[0] + inner, "," + inner, "\n" + " " * pad + brackets[1]
    return lambda items: head + sep.join(items) + tail if items else brackets


_list2, _list6, _list8, _list10 = (_layout(pad) for pad in (2, 6, 8, 10))
_meta, _detail = _layout(2, "{}"), _layout(12, "{}")
_REPORT = _layout(0, "{}")([f'"{key}": %s' for key in (
    "findings", "meta", "possible_threats", "sample_id", "schema_version", "unknown_tokens")]) + "\n"
_FINDING = _layout(4, "{}")([f'"{key}": %s' for key in (
    "confirmation", "indicators", "mechanism", "planner_status", "plans", "status", "threat")])
_PLAN = _layout(8, "{}")(['"cost": %d', '"steps": %s'])
# A record's text before and after its source step.
_RECORD, _RECORD_END = _layout(10, "{}")(['"detail": %s', '"kind": %s', '"source_step": @']).split("@")


def _finding_json(f: ThreatFinding) -> str:
    seen: dict[tuple, str] = {}  # a record's (kind, detail) recurs across plans

    def record(r: IoCRecord) -> str:
        if (r.kind, r.detail) not in seen:
            detail = [f"{_str(key)}: {_str(value)}" for key, value in sorted(r.detail)]
            seen[r.kind, r.detail] = _RECORD % (_detail(detail), _str(r.kind))
        return f"{seen[r.kind, r.detail]}{r.source_step:d}{_RECORD_END}"

    indicators = [_list8([*map(record, records)]) for records in f.indicators]
    plans = [_PLAN % (cost, _list10([*map(_str, steps)])) for cost, steps in f.plans]
    return _FINDING % (
        _str(f.confirmation), _list6(indicators), _str(f.mechanism),
        _str(f.planner_status), _list6(plans), _str(f.status), _str(f.threat),
    )


def report_to_json(report: HuntReport, include_wall_time: bool = True) -> str:
    """Serialize a report deterministically, byte for byte as
    ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``; batch files
    drop the wall time so repeated runs stay byte-identical."""
    meta = [f'"confirm": {json.dumps(report.confirm)}', f'"k": {report.k:d}',
            f'"strict_domain": {json.dumps(report.strict_domain)}']
    if include_wall_time:
        meta.append(f'"wall_time_s": {json.dumps(round(report.wall_time_s, 3))}')
    return _REPORT % (
        _list2([_finding_json(f) for f in report.findings]), _meta(meta),
        _list2([*map(_str, report.possible_threats)]), _str(report.sample_id),
        _str(REPORT_SCHEMA_VERSION), _list2([*map(_str, report.unknown_tokens)]),
    )


# --- batch mode -----------------------------------------------------------------


@dataclass(frozen=True)
class BatchSummary:
    """Aggregate counts per catalog hypothesis plus sample totals."""

    cells: tuple[tuple[str, str, int, int], ...]  # threat, mechanism, samples, plans
    samples: int
    detected: int
    timed_out: int
    # (file name, message) per sample that could not be hunted, in path order.
    failures: tuple[tuple[str, str], ...] = ()


def aggregate(reports: list[HuntReport]) -> BatchSummary:
    # (threat, mechanism) -> (samples, plans), in order of first appearance
    cells: dict[tuple[str, str], tuple[int, int]] = {}
    for report in reports:
        for f in report.findings:
            samples, plans = cells.get((f.threat, f.mechanism), (0, 0))
            cells[f.threat, f.mechanism] = (
                samples + (f.status == STATUS_POSSIBLE), plans + len(f.plans))
    return BatchSummary(
        cells=tuple((*key, *counts) for key, counts in cells.items()),
        samples=len(reports),
        detected=sum(1 for r in reports if r.possible_threats),
        timed_out=sum(
            1 for r in reports if any(f.status == STATUS_TIMED_OUT for f in r.findings)
        ),
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
        # Imported here: the process pool's multiprocessing machinery adds
        # about 2 MB to the resident set of every process that loads it.
        from concurrent.futures import ProcessPoolExecutor

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
    if summary.timed_out:
        logger.warning(
            "batch: %d of %d samples ran out of budget before a hypothesis was decided",
            summary.timed_out, len(reports),
        )

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
