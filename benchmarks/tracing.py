"""Spans around the calls into each planhunt layer.

``Tracer.installed`` replaces names in ``planhunt.hunt`` with wrappers for
the duration of a ``with`` block. ``identify_threats`` looks those names up
at call time, so the spans follow whatever the pipeline actually calls.
Each wrapper records one span (name, start, end, parent span, sample id,
pass index) in memory, plus counts read from the wrapped function's return
value.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from planhunt import hunt

# Wrapped name in planhunt.hunt -> metric prefix (layer.function).
SPAN_METRICS = {
    "load_sample": "telemetry.load_sample",
    "events_to_facts": "telemetry.events_to_facts",
    "evaluate": "inference.evaluate",
    "match_body": "inference.match_body",
    "build_problem": "planning_model.state.build_problem",
    "ground_task": "planning_model.ground.ground_task",
    "find_top_k": "planner.find_top_k",
    "construct_indicators": "hunt.construct_indicators",
    "confirm_threat": "hunt.confirm_threat",
    "report_to_json": "hunt.report_to_json",
    "identify_threats": "hunt.identify_threats",
}


def _counts(name: str, result) -> dict[str, int]:
    """Work counts carried by one call's return value."""
    if name == "events_to_facts":
        return {"telemetry.facts_in": len(result)}
    if name == "evaluate":
        return {"inference.facts_derived": len(result.facts)}
    if name == "build_problem":
        return {"planning_model.state.init_atoms": len(result.init)}
    if name == "ground_task":
        return {
            "planning_model.ground.atoms": len(result.atoms),
            "planning_model.ground.actions": len(result.actions),
        }
    if name == "find_top_k":
        return {
            "planner.expanded": result.expanded,
            "planner.plans": len(result.plans),
            "planner.no_plan": int(result.status == "no_plan"),
        }
    if name == "construct_indicators":
        return {"hunt.indicator_records": len(result)}
    if name == "confirm_threat":
        return {"hunt.confirmed": int(bool(result))}
    if name == "report_to_json":
        return {"hunt.report_bytes": len(result.encode("utf-8"))}
    return {}


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    sample: str | None
    pass_index: int
    start_ns: int
    end_ns: int = 0
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Collects spans in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_index = 0
        self._sample: str | None = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if name in ("identify_threats", "report_to_json"):
                self._sample = args[0].sample_id
            span = Span(
                span_id=len(self.spans),
                parent=self._stack[-1] if self._stack else None,
                name=name,
                sample=self._sample,
                pass_index=self.pass_index,
                start_ns=time.perf_counter_ns(),
            )
            self.spans.append(span)
            self._stack.append(span.span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
            if name == "load_sample":
                span.sample = self._sample = result.sample_id
            span.counts = _counts(name, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap the traced names in planhunt.hunt; restore them on exit."""
        originals = {name: getattr(hunt, name) for name in SPAN_METRICS}
        try:
            for name, fn in originals.items():
                setattr(hunt, name, self._wrap(name, fn))
            yield self
        finally:
            for name, fn in originals.items():
                setattr(hunt, name, fn)


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the durations of its direct children."""
    own = {span.span_id: span.end_ns - span.start_ns for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end_ns - span.start_ns
    return own


def pass_counts(spans: list[Span]) -> dict[int, dict[str, int]]:
    """Pass index -> work counts summed over that pass, with call counts."""
    out: dict[int, dict[str, int]] = {}
    for span in spans:
        counts = out.setdefault(span.pass_index, {})
        calls = f"{SPAN_METRICS[span.name]}.calls"
        counts[calls] = counts.get(calls, 0) + 1
        for key, value in span.counts.items():
            counts[key] = counts.get(key, 0) + value
    return out


def sample_metrics(
    spans: list[Span], samples: int, passes: int
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the per-sample spans, as (value, unit).

    Times are self time per sample over every traced pass. Counts are
    totals over one pass of the workload's sample set, from the first traced
    pass, except ``ground_task.calls``, which is per sample.
    """
    own = self_times_ns(spans)
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_METRICS:
        total = sum(own[s.span_id] for s in spans if s.name == name)
        suffix = "self_ms" if name == "identify_threats" else "ms"
        metrics[f"{SPAN_METRICS[name]}.{suffix}"] = (total / samples / 1e6, "ms/sample")

    by_pass = pass_counts(spans)
    counts = by_pass[min(by_pass)] if by_pass else {}

    def count(key: str) -> int:
        return counts.get(key, 0)

    def share(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    searches = count("planner.find_top_k.calls")
    for key in (
        "telemetry.facts_in",
        "inference.facts_derived",
        "inference.match_body.calls",
        "planning_model.state.init_atoms",
    ):
        metrics[key] = (count(key), "count")
    metrics["planning_model.ground.ground_task.calls"] = (
        count("planning_model.ground.ground_task.calls") / (samples / passes),
        "count/sample",
    )
    for key in (
        "planning_model.ground.atoms",
        "planning_model.ground.actions",
        "planner.expanded",
        "planner.plans",
    ):
        metrics[key] = (count(key), "count")
    metrics["planner.no_plan_share"] = (share(count("planner.no_plan"), searches), "ratio")
    metrics["planner.plans_per_expansion"] = (
        share(count("planner.plans"), count("planner.expanded")),
        "ratio",
    )
    metrics["hunt.indicator_records"] = (count("hunt.indicator_records"), "count")
    metrics["hunt.confirmed_share"] = (
        share(count("hunt.confirmed"), count("hunt.confirm_threat.calls")),
        "ratio",
    )
    metrics["hunt.report_bytes"] = (count("hunt.report_bytes"), "bytes")
    return metrics


def counts_repeat(spans: list[Span]) -> bool:
    """Whether every traced pass did exactly the same counted work."""
    by_pass = list(pass_counts(spans).values())
    return all(counts == by_pass[0] for counts in by_pass)


def layer_self_ms(spans: list[Span], samples: int) -> dict[str, float]:
    """Layer -> self time per sample in ms, summed over its spans."""
    own = self_times_ns(spans)
    out: dict[str, float] = {}
    for span in spans:
        layer = SPAN_METRICS[span.name].rsplit(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own[span.span_id] / samples / 1e6
    return out
