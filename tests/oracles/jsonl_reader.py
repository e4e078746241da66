"""Reference JSON-lines reader for cross-checking ``telemetry.load_sample``.

The reader as it was before the loader decoded lines with the JSON
scanner: ``json.loads`` on every stripped line, and a token memo keyed by
(type, value) for every value. ``_load_jsonl``, ``_required_token``,
``_event_from_mapping`` and ``_token_memo`` are kept as they were, except
that a boolean ``syscall``, ``name`` or ``action``, and a ``sample_id``
that is not a plain file name (empty, ``.``, ``..``, or holding ``/``,
``\\`` or NUL), raise MalformedRecord with their line, and that every
error starts with the file's path, as the loader now does: this reader is
the reference for decoding, not for those errors.
Only the sample containers and the token normalizer come from the
package, so a result compares equal to the loader's.
"""

import json
from pathlib import Path

from planhunt.defaults import naming
from planhunt.errors import MalformedRecord
from planhunt.telemetry import (
    Arg,
    SampleRecord,
    TelemetryEvent,
    _finish_sample,
    _normalize_token,
)
from planhunt.vocab import WILDCARD


def _token_memo():
    """``_normalize_token`` memoized for one load. The key holds the type
    because ``True == 1``: a boolean must not reuse an integer's token."""
    memo: dict[tuple[type, object], Arg] = {}

    def normalize(value: object) -> Arg:
        key = (type(value), value)
        try:
            token = memo.get(key)
        except TypeError:  # an unhashable value, such as a JSON list
            return _normalize_token(value)
        if token is None:
            token = memo[key] = _normalize_token(value)
        return token

    return normalize


def _load_jsonl(path: Path) -> SampleRecord:
    sample_id = path.stem
    events: list[TelemetryEvent] = []
    permissions: list[str] = []
    intents: list[str] = []
    meta: list[tuple[str, str]] = []
    normalize = _token_memo()
    with path.open(encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(lineno, f"invalid JSON: {exc.msg}") from exc
            if not isinstance(record, dict):
                raise MalformedRecord(lineno, "record is not an object")
            kind = record.get("type")
            if kind == "event":
                events.append(_event_from_mapping(record, lineno, normalize))
            elif kind == "permission":
                permissions.append(_required_token(record, "name", lineno, normalize))
            elif kind == "intent":
                intents.append(_required_token(record, "action", lineno, normalize))
            elif kind == "meta":
                if "sample_id" in record:
                    sample_id = str(record["sample_id"])
                    if sample_id in ("", ".", "..") or any(c in sample_id for c in "/\\\0"):
                        raise MalformedRecord(
                            lineno, f"sample_id {sample_id!r} is not a file name"
                        )
                meta.extend(
                    (str(k), str(v)) for k, v in sorted(record.items()) if k != "type"
                )
            else:
                raise MalformedRecord(lineno, f"unknown record type {kind!r}")
    return _finish_sample(sample_id, events, permissions, intents, meta)


def _required_token(record: dict, key: str, lineno: int, normalize) -> str:
    if key not in record:
        raise MalformedRecord(lineno, f"missing field {key!r}")
    try:
        token = normalize(record[key])
    except ValueError as exc:
        raise MalformedRecord(lineno, str(exc)) from exc
    if isinstance(token, int):
        raise MalformedRecord(lineno, f"field {key!r} must be symbolic")
    return token


def _event_from_mapping(record: dict, lineno: int, normalize) -> TelemetryEvent:
    if "ts" not in record:
        raise MalformedRecord(lineno, "event missing 'ts'")
    if "syscall" not in record:
        raise MalformedRecord(lineno, "event missing 'syscall'")
    ts = record["ts"]
    # int() would take True as 1 and truncate 2.9 to 2.
    if isinstance(ts, bool) or (isinstance(ts, float) and not ts.is_integer()):
        raise MalformedRecord(lineno, "event 'ts' is not an integer")
    try:
        ts = int(ts)
    except (TypeError, ValueError) as exc:
        raise MalformedRecord(lineno, "event 'ts' is not an integer") from exc
    if ts < 0:
        raise MalformedRecord(lineno, "event 'ts' is negative")
    try:
        syscall = normalize(record["syscall"])
    except ValueError as exc:
        raise MalformedRecord(lineno, str(exc)) from exc
    if isinstance(syscall, int):
        raise MalformedRecord(lineno, "event 'syscall' must be symbolic")
    if "pid" not in record:
        raise MalformedRecord(lineno, "event missing 'pid'")
    try:
        return TelemetryEvent(
            ts=ts,
            syscall=syscall,
            pid=normalize(record["pid"]),
            tid=normalize(record.get("tid", WILDCARD)),
            obj=normalize(record.get("object", WILDCARD)),
            mode=normalize(record.get("mode", WILDCARD)),
            ret=normalize(record.get("ret", WILDCARD)),
        )
    except ValueError as exc:
        raise MalformedRecord(lineno, str(exc)) from exc


def load_jsonl(path: str | Path) -> SampleRecord:
    """Load one JSON-lines sample the way the package did before."""
    path = Path(path)
    with naming(path):
        return _load_jsonl(path)
