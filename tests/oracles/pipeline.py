"""Reference hunt: the whole pipeline, composed from the reference stages.

``reference_hunt`` writes the report ``hunt.identify_threats`` gives a
sample, without its wall time, when no budget runs out, and the problem
each hypothesis poses as ``plan --dump-problem`` prints it. No stage shares
the package's fast path:

- a JSON-lines sample is read by the reference reader (a CSV sample, which
  has no reference reader, by ``telemetry.load_sample``), and its events,
  permissions and intents become facts one ``Fact`` at a time;
- the rule pack runs under the naive Datalog evaluator;
- each hypothesis gets its own problem from the reference builder, which
  types its whole init, and the Cartesian grounder grounds it;
- exhaustive enumeration lists its top-k plans, unless a goal atom lies
  outside the task's atoms, so no state holds it and the task has no plan
  (tests/test_goal_check.py checks that against the enumeration);
- each plan step is expanded through the indicator templates here;
- confirmation matches each checkable record's probe as a one-atom body
  against the init of the hypothesis's own reference problem;
- the json.dumps report writer serializes the report.

Shared with the package are only the loaded asset bundle (domain, rule
pack, tables, indicator templates and each CVE's patterns text), the data
classes, ``telemetry.unknown_tokens`` and ``pddl.render_problem``.
"""

from pathlib import Path

from planhunt.hunt import (
    CONFIRM_CONFIRMED,
    CONFIRM_NOT_ATTEMPTED,
    CONFIRM_UNCONFIRMED,
    STATUS_NO_PLAN,
    STATUS_POSSIBLE,
    HuntAssets,
    HuntConfig,
    HuntReport,
    IoCRecord,
    ThreatFinding,
)
from planhunt.inference.engine import Fact, Relations
from planhunt.inference.rules import Atom, Literal, Var
from planhunt.planning_model.pddl import render_problem
from planhunt.telemetry import SampleRecord, load_sample, unknown_tokens
from planhunt.vocab import APP, DECLARED_INTENT, DECLARED_PERMISSION, INVOKED

from oracles.build_problem import build_problem
from oracles.cartesian_ground import ground_task
from oracles.enumerate import oracle_enumerate
from oracles.jsonl_reader import load_jsonl
from oracles.match_body import match_body
from oracles.naive_datalog import evaluate_naive
from oracles.report_json import report_to_json

# Per checkable indicator kind, the atom a record's probe matches: its
# predicate and, per argument, the detail field that fills it or None for
# any value. Other kinds (api-call) pass.
PROBES = {
    "syscall-pattern": ("exploited", ("cve",)),
    "permission-audit": ("perm-granted", (None, "sensor")),
    "notification-access": ("notification-accessible", ("app",)),
    "clipboard-access": ("clipboard-readable", ("app",)),
    "ui-overlay": ("login-ui-observed", ("app",)),
}


def base_facts(sample: SampleRecord) -> Relations:
    """One invoked/7 fact per event and one declared fact per permission and intent."""
    facts = [Fact(INVOKED, tuple(event)) for event in sample.events]
    facts += [Fact(DECLARED_PERMISSION, (APP, name)) for name in sample.permissions]
    facts += [Fact(DECLARED_INTENT, (APP, action)) for action in sample.intents]
    return Relations(facts)


def indicators(task, plan, assets: HuntAssets) -> tuple[IoCRecord, ...]:
    """Each step's records, template by template; a record equal to an
    earlier one up to its step is dropped."""
    records: list[IoCRecord] = []
    seen: set[tuple] = set()
    for step, index in enumerate(plan.steps):
        action = task.actions[index]
        for spec in assets.indicator_specs:
            if spec.schema != action.schema or spec.disjunct not in (None, action.disjunct):
                continue
            detail = [
                (key, action.args[int(value[1:]) - 1] if value.startswith("$") else value)
                for key, value in spec.fields
            ]
            cve = dict(detail).get("cve")
            if spec.kind == "syscall-pattern" and cve in assets.patterns:
                detail.append(("patterns", assets.patterns[cve]))
            if (spec.kind, tuple(detail)) not in seen:
                seen.add((spec.kind, tuple(detail)))
                records.append(IoCRecord(spec.kind, tuple(detail), step))
    return tuple(records)


def confirmed(records: tuple[IoCRecord, ...], init: Relations) -> bool:
    """Whether every checkable record's probe matches ``init``, a store of a
    problem's init atoms; a record without a field its probe needs fails."""
    for record in records:
        if record.kind not in PROBES:
            continue
        predicate, fields = PROBES[record.kind]
        detail = record.detail_dict()
        if any(name is not None and name not in detail for name in fields):
            return False
        args = tuple(
            Var(f"_{i}") if name is None else detail[name] for i, name in enumerate(fields)
        )
        if not match_body((Literal(Atom(predicate, args)),), init):
            return False
    return True


def reference_hunt(path: Path, assets: HuntAssets, config: HuntConfig) -> tuple[str, list[str]]:
    """The report of the sample at ``path``, as ``report_to_json(...,
    include_wall_time=False)`` writes it, and per hypothesis of the
    catalog, its problem rendered as PDDL."""
    sample = load_jsonl(path) if path.suffix == ".jsonl" else load_sample(path)
    base = base_facts(sample)
    derived = evaluate_naive(assets.program.pack, base)
    findings, problems = [], []
    for hypothesis in assets.catalog:
        problem = build_problem(
            derived, sample, assets.domain, assets.capabilities, assets.mapping, hypothesis
        )
        problems.append(render_problem(problem))
        task = ground_task(assets.domain, problem)
        planset = oracle_enumerate(task, k=config.limits.k)
        plans = tuple(
            (plan.cost, tuple(task.actions[i].render() for i in plan.steps))
            for plan in planset.plans
        )
        records = tuple(indicators(task, plan, assets) for plan in planset.plans)
        confirmation = CONFIRM_NOT_ATTEMPTED
        if config.confirm and plans:
            init = Relations([Fact(*atom) for atom in problem.init])
            hit = any(confirmed(each, init) for each in records)
            confirmation = CONFIRM_CONFIRMED if hit else CONFIRM_UNCONFIRMED
        findings.append(ThreatFinding(
            threat=hypothesis.threat,
            mechanism=hypothesis.mechanism,
            status=STATUS_POSSIBLE if plans else STATUS_NO_PLAN,
            planner_status=planset.status,
            plans=plans,
            indicators=records,
            confirmation=confirmation,
        ))
    report = HuntReport(
        sample_id=sample.sample_id,
        unknown_tokens=tuple(unknown_tokens(sample, assets.program.pack.token_table)),
        findings=tuple(findings),
        strict_domain=assets.strict_domain,
        confirm=config.confirm,
        k=config.limits.k,
        wall_time_s=0.0,
    )
    return report_to_json(report, include_wall_time=False), problems
