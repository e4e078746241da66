"""Reference report serializer for cross-checking ``hunt.report_to_json``.

The writer as it was before reports were written directly: a payload of
dicts and lists handed to ``json.dumps(..., indent=2, sort_keys=True)``,
which on Python 3.12 and older runs the pure-Python encoder. The body is
kept as it was, so its bytes are the report format's definition.
"""

import json

from planhunt.hunt import REPORT_SCHEMA_VERSION, HuntReport


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
