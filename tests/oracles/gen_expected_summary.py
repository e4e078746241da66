"""Freeze the expected batch summary into tests/data/expected_summary.csv.

Independence from the production path: facts are derived with the naive
reference evaluator and plans are counted with the exhaustive enumerator,
so the only shared code is parsing and grounding. Rerun after deliberate
corpus or asset edits:

    PYTHONPATH=src python tests/oracles/gen_expected_summary.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from oracles.enumerate import oracle_enumerate
from oracles.naive_datalog import evaluate_naive

from planhunt import defaults
from planhunt.hunt import HuntAssets
from planhunt.planning_model.ground import ground_task
from planhunt.planning_model.model import default_catalog
from planhunt.planning_model.state import build_problem
from planhunt.telemetry import events_to_facts, load_sample

OUT = Path(__file__).resolve().parent.parent / "data" / "expected_summary.csv"
K = 10


def build() -> str:
    assets = HuntAssets.load()
    catalog = default_catalog()
    samples_with = {(h.threat, h.mechanism): 0 for h in catalog}
    plan_totals = {(h.threat, h.mechanism): 0 for h in catalog}
    for path in defaults.corpus_paths():
        sample = load_sample(path)
        derived = evaluate_naive(assets.pack, events_to_facts(sample))
        for hypothesis in catalog:
            problem = build_problem(
                derived, sample, assets.domain, assets.capabilities,
                assets.mapping, hypothesis,
            )
            task = ground_task(assets.domain, problem)
            planset = oracle_enumerate(task, cost_bound=None, k=K)
            key = (hypothesis.threat, hypothesis.mechanism)
            if planset.plans:
                samples_with[key] += 1
            plan_totals[key] += len(planset.plans)
    lines = ["threat,mechanism,sample_count,plan_count"]
    for h in catalog:
        key = (h.threat, h.mechanism)
        lines.append(f"{h.threat},{h.mechanism},{samples_with[key]},{plan_totals[key]}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(build(), encoding="utf-8")
    print(f"wrote {OUT}")
