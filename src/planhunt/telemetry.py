"""Telemetry ingestion: sample files to normalized fact stores.

Two input layouts are supported:

* JSON lines (format A): one object per line with a ``type`` field drawn from
  ``event | permission | intent | meta``. Event objects carry ``ts, syscall,
  pid, tid, object, mode, ret``.
* CSV (format B): one event per row, column names bound through a user
  supplied key=value mapping file. Mapping keys ``ts, syscall, pid`` are
  required; ``tid, object, mode, ret`` are optional per-event columns;
  ``permissions, intents, sample_id`` name columns read from the first data
  row (list cells are ``;``-separated).

Both layouts, and the column mapping file, must be UTF-8: a file that is
not raises MalformedRecord on the line of its first undecodable byte.

Facts render as ``pred(arg1,...,argN).``; bare ``pred.`` is the
zero-argument form. Integer arguments stay
integers; every other argument is a lowercase token. A field the source did
not report becomes the reserved constant ``wildcard``.
"""

import csv
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import MalformedRecord
from .inference.engine import Fact, Relations
from .vocab import (
    APP,
    DECLARED_INTENT,
    DECLARED_PERMISSION,
    INVOKED,
    WILDCARD,
)

__all__ = [
    "TelemetryEvent",
    "SampleRecord",
    "Fact",
    "load_sample",
    "events_to_facts",
    "unknown_tokens",
]

Arg = str | int

_INT_RE = re.compile(r"-?[0-9]+\Z")
_UNSAFE_TOKEN_RE = re.compile(r"[^a-z0-9_-]")
# Prefixes commonly carried by platform permission/intent identifiers.
_STRIP_PREFIXES = ("android.permission.", "android.intent.action.", "android.intent.")
# The C scanner behind json.loads: one value at an index, no whitespace skip.
_scan = json.JSONDecoder().scan_once


def _normalize_token(value: object) -> Arg:
    """Map a raw field value onto a fact argument (int or lowercase token)."""
    if isinstance(value, bool):
        raise ValueError("boolean field value")
    if isinstance(value, int):
        return value
    text = str(value).strip()
    if text in ("", "_"):
        return WILDCARD
    if _INT_RE.match(text):
        return int(text)
    lowered = text.lower()
    for prefix in _STRIP_PREFIXES:
        if lowered.startswith(prefix):
            lowered = lowered[len(prefix):]
            break
    token = _UNSAFE_TOKEN_RE.sub("_", lowered).strip("_-")
    if not token or not token[0].isalpha():
        token = "x_" + token
    return token


def _token_memo():
    """``_normalize_token`` memoized for one load. A string is its own key;
    any other key holds the type because ``True == 1``: a boolean must not
    reuse an integer's token."""
    memo: dict[object, Arg] = {}

    def normalize(value: object) -> Arg:
        key = value if type(value) is str else (type(value), value)
        try:
            token = memo.get(key)
        except TypeError:  # an unhashable value, such as a JSON list
            return _normalize_token(value)
        if token is None:
            token = memo[key] = _normalize_token(value)
        return token

    return normalize


class TelemetryEvent(NamedTuple):
    """One observed system call, in invoked/7 field order: an event is its
    own invoked row."""

    ts: int
    syscall: str
    pid: Arg
    tid: Arg = WILDCARD
    obj: Arg = WILDCARD
    mode: Arg = WILDCARD
    ret: Arg = 0


@dataclass(frozen=True)
class SampleRecord:
    """A normalized telemetry sample: events sorted by timestamp, file order
    preserved between equal timestamps."""

    sample_id: str
    events: tuple[TelemetryEvent, ...]
    permissions: tuple[str, ...]
    intents: tuple[str, ...]
    meta: tuple[tuple[str, str], ...] = ()


# --- loading ------------------------------------------------------------------


def load_sample(path: str | Path, column_map: str | Path | None = None) -> SampleRecord:
    """Load one telemetry sample from a JSON-lines or CSV file.

    CSV files need a column mapping: either pass ``column_map`` or place a
    ``<stem>.colmap`` file next to the CSV. Raises FileNotFoundError for a
    missing file and MalformedRecord for records that cannot be normalized.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(str(path))
    if path.suffix.lower() == ".csv":
        return _load_csv(path, column_map)
    return _load_jsonl(path)


def _utf8_lines(path: Path, newline: str | None = None) -> io.StringIO:
    """The file's text as a stream of lines (universal newlines unless
    ``newline`` says otherwise). A byte that is not UTF-8 rejects the whole
    file, as a MalformedRecord on that byte's line."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise MalformedRecord(line, "not valid UTF-8") from None
    return io.StringIO(text, newline=newline)


def _load_jsonl(path: Path) -> SampleRecord:
    sample_id = path.stem
    events: list[TelemetryEvent] = []
    permissions: list[str] = []
    intents: list[str] = []
    meta: list[tuple[str, str]] = []
    normalize = _token_memo()
    for lineno, raw in enumerate(_utf8_lines(path), start=1):
        # The scanner takes a line that opens with its value and has only
        # whitespace after it; json.loads of the stripped line gives any
        # other line (blank, indented, trailing data, bad JSON) its outcome.
        try:
            record, stop = _scan(raw, 0)
            scanned = not raw[stop:].strip()
        except (StopIteration, json.JSONDecodeError):
            scanned = False
        if not scanned:
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
    if type(ts) is not int:
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
            ts,
            syscall,
            normalize(record["pid"]),
            normalize(record.get("tid", WILDCARD)),
            normalize(record.get("object", WILDCARD)),
            normalize(record.get("mode", WILDCARD)),
            normalize(record.get("ret", WILDCARD)),
        )
    except ValueError as exc:
        raise MalformedRecord(lineno, str(exc)) from exc


def _load_csv(path: Path, column_map: str | Path | None) -> SampleRecord:
    map_path = Path(column_map) if column_map else path.with_suffix(".colmap")
    if not map_path.is_file():
        raise FileNotFoundError(str(map_path))
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(_utf8_lines(map_path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MalformedRecord(lineno, f"column map line has no '=': {line!r}")
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    for required in ("ts", "syscall", "pid"):
        if required not in mapping:
            raise MalformedRecord(0, f"column map missing required key {required!r}")

    events: list[TelemetryEvent] = []
    permissions: list[str] = []
    intents: list[str] = []
    sample_id = path.stem
    normalize = _token_memo()
    reader = csv.DictReader(_utf8_lines(path, newline=""))
    if reader.fieldnames is None:
        raise MalformedRecord(1, "CSV file has no header row")
    for key, column in mapping.items():
        if column not in reader.fieldnames:
            raise MalformedRecord(1, f"mapped column {column!r} not in header")
    for rowno, row in enumerate(reader, start=2):
        record: dict[str, object] = {"type": "event"}
        for key in ("ts", "syscall", "pid", "tid", "object", "mode", "ret"):
            column = mapping.get(key)
            if column is not None and row.get(column, "") != "":
                record[key] = row[column]
        events.append(_event_from_mapping(record, rowno, normalize))
        if rowno == 2:
            if "sample_id" in mapping and row.get(mapping["sample_id"]):
                sample_id = str(row[mapping["sample_id"]])
            for key, sink in (("permissions", permissions), ("intents", intents)):
                column = mapping.get(key)
                if column and row.get(column):
                    for item in str(row[column]).split(";"):
                        if item.strip():
                            token = normalize(item)
                            if not isinstance(token, int):
                                sink.append(token)
    return _finish_sample(sample_id, events, permissions, intents, [])


def _finish_sample(
    sample_id: str,
    events: list[TelemetryEvent],
    permissions: list[str],
    intents: list[str],
    meta: list[tuple[str, str]],
) -> SampleRecord:
    # Stable sort: equal timestamps keep file order.
    ordered = tuple(sorted(events, key=lambda e: e.ts))
    return SampleRecord(
        sample_id=sample_id,
        events=ordered,
        permissions=tuple(permissions),
        intents=tuple(intents),
        meta=tuple(meta),
    )


# --- fact construction --------------------------------------------------------


def events_to_facts(sample: SampleRecord) -> Relations:
    """Translate a sample into its fact store.

    Every event is its own invoked/7 row, every permission one
    declared_permission/2 row, every intent one declared_intent/2 row, so
    the result holds exactly ``|events| + |permissions| + |intents|`` facts
    up to duplicates.
    """
    base = Relations()
    for event in sample.events:
        base.add(INVOKED, event)
    for permission in sample.permissions:
        base.add(DECLARED_PERMISSION, (APP, permission))
    for intent in sample.intents:
        base.add(DECLARED_INTENT, (APP, intent))
    return base


def unknown_tokens(
    sample: SampleRecord, token_table: dict[str, frozenset[str]]
) -> list[str]:
    """Flag event vocabulary not present in a rule pack's token table.

    Unknown tokens are preserved in the fact store; this reports them as
    ``class:token`` strings for report metadata.
    """
    flagged: set[str] = set()
    vocab_syscall = token_table.get("syscall")
    vocab_object = token_table.get("object")
    vocab_mode = token_table.get("mode")
    for event in sample.events:
        if vocab_syscall is not None and event.syscall not in vocab_syscall:
            flagged.add(f"syscall:{event.syscall}")
        if (
            vocab_object is not None
            and isinstance(event.obj, str)
            and event.obj != WILDCARD
            and event.obj not in vocab_object
        ):
            flagged.add(f"object:{event.obj}")
        if (
            vocab_mode is not None
            and isinstance(event.mode, str)
            and event.mode != WILDCARD
            and event.mode not in vocab_mode
        ):
            flagged.add(f"mode:{event.mode}")
    return sorted(flagged)

