"""Telemetry ingestion: sample files to normalized fact stores.

Two input layouts are supported:

* JSON lines (format A): one object per line with a ``type`` field drawn from
  ``event | permission | intent | meta``. Event objects carry ``ts, syscall,
  pid, tid, object, mode, ret``.
* CSV (format B): one event per row, column names bound through a user
  supplied key=value mapping file. Mapping keys ``ts, syscall, pid`` are
  required; ``tid, object, mode, ret`` are optional per-event columns;
  ``permissions, intents, sample_id`` name columns read from the first data
  row (list cells are ``;``-separated). Any other key raises MalformedRecord,
  and so does a row with more or fewer cells than the header.

Both layouts, and the column mapping file, must be UTF-8: a file that is
not raises MalformedRecord on the line of its first undecodable byte.

Facts render as ``pred(arg1,...,argN).``; bare ``pred.`` is the
zero-argument form. Integer arguments stay
integers; every other argument is a lowercase token. A field the source did
not report becomes the reserved constant ``wildcard``.
"""

import csv
import json
import re
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .defaults import naming, read_input
from .errors import InputError, MalformedRecord
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
    """``_normalize_token`` memoized for one load, and its memo. A string
    is its own key; any other key holds the type because ``True == 1``: a
    boolean must not reuse an integer's token. So a string is a key only
    once this load has normalized it."""
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

    return normalize, memo


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
    missing file and MalformedRecord for records that cannot be normalized;
    an error in a file starts with that file's path.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(str(path))
    if path.suffix.lower() == ".csv":
        map_path = Path(column_map) if column_map else path.with_suffix(".colmap")
        if not map_path.is_file():
            raise FileNotFoundError(str(map_path))
        with naming(map_path):
            mapping = _column_map(map_path)
        with naming(path):
            return _load_csv(path, mapping)
    with naming(path):
        return _load_jsonl(path)


def _load_jsonl(path: Path) -> SampleRecord:
    sample_id = path.stem
    events: list[TelemetryEvent] = []
    permissions: list[str] = []
    intents: list[str] = []
    meta: list[tuple[str, str]] = []
    normalize, memo = _token_memo()
    for lineno, raw in enumerate(read_input(path), start=1):
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
            # The common event, built with no call per field: integer ts and
            # ret, and five strings this load has normalized before. Any
            # other takes the checked path.
            try:
                ts, ret, syscall = record["ts"], record["ret"], memo[record["syscall"]]
                row = (ts, syscall, memo[record["pid"]], memo[record["tid"]],
                       memo[record["object"]], memo[record["mode"]], ret)
            except (KeyError, TypeError):
                row = None
            if row and type(ts) is int and ts >= 0 and type(ret) is int and type(syscall) is str:
                events.append(tuple.__new__(TelemetryEvent, row))
            else:
                events.append(_event_from_mapping(record, lineno, normalize))
        elif kind == "permission":
            permissions.append(_required_token(record, "name", lineno, normalize))
        elif kind == "intent":
            intents.append(_required_token(record, "action", lineno, normalize))
        elif kind == "meta":
            if "sample_id" in record:
                sample_id = _sample_id(record["sample_id"], lineno)
            meta.extend(
                (str(k), str(v)) for k, v in sorted(record.items()) if k != "type"
            )
        else:
            raise MalformedRecord(lineno, f"unknown record type {kind!r}")
    return _finish_sample(sample_id, events, permissions, intents, meta)


def _sample_id(value: object, lineno: int) -> str:
    """A sample id names its report file, so it must be one path component."""
    sample_id = str(value)
    if sample_id in ("", ".", "..") or any(c in sample_id for c in "/\\\0"):
        raise MalformedRecord(lineno, f"sample_id {sample_id!r} is not a file name")
    return sample_id


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


_EVENT_KEYS = ("ts", "syscall", "pid", "tid", "object", "mode", "ret")
_COLUMN_KEYS = (*_EVENT_KEYS, "permissions", "intents", "sample_id")


def _column_map(map_path: Path) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(read_input(map_path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MalformedRecord(lineno, f"column map line has no '=': {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _COLUMN_KEYS:
            raise MalformedRecord(lineno, f"unknown column map key {key!r}")
        mapping[key] = value.strip()
    for required in ("ts", "syscall", "pid"):
        if required not in mapping:
            raise InputError(f"column map missing required key {required!r}")
    return mapping


def _load_csv(path: Path, mapping: dict[str, str]) -> SampleRecord:
    events: list[TelemetryEvent] = []
    permissions: list[str] = []
    intents: list[str] = []
    sample_id = path.stem
    normalize, _memo = _token_memo()
    reader = csv.DictReader(read_input(path, newline=""))
    if reader.fieldnames is None:
        raise MalformedRecord(1, "CSV file has no header row")
    for key, column in mapping.items():
        if column not in reader.fieldnames:
            raise MalformedRecord(1, f"mapped column {column!r} not in header")
    width = len(reader.fieldnames)
    for row in reader:
        # The row's last line: csv skips blank lines, and a quoted cell may span lines.
        rowno = reader.line_num
        # csv keys a long row's extra cells by None and fills a short row with None.
        if None in row or None in row.values():
            raise MalformedRecord(rowno, f"row does not have the header's {width} cells")
        record: dict[str, object] = {"type": "event"}
        for key in _EVENT_KEYS:
            column = mapping.get(key)
            if column is not None and row.get(column, "") != "":
                record[key] = row[column]
        events.append(_event_from_mapping(record, rowno, normalize))
        if len(events) == 1:
            if "sample_id" in mapping and row.get(mapping["sample_id"]):
                sample_id = _sample_id(row[mapping["sample_id"]], rowno)
            for key, sink in (("permissions", permissions), ("intents", intents)):
                column = mapping.get(key)
                if column and row.get(column):
                    for item in str(row[column]).split(";"):
                        if item.strip():
                            sink.append(_required_token({key: item}, key, rowno, normalize))
    return _finish_sample(sample_id, events, permissions, intents, [])


def _finish_sample(
    sample_id: str,
    events: list[TelemetryEvent],
    permissions: list[str],
    intents: list[str],
    meta: list[tuple[str, str]],
) -> SampleRecord:
    # Stable sort: equal timestamps keep file order.
    ordered = tuple(sorted(events, key=itemgetter(0)))
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
    base.update(INVOKED, sample.events)
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
    for syscall, obj, mode in set(map(itemgetter(1, 4, 5), sample.events)):
        if vocab_syscall is not None and syscall not in vocab_syscall:
            flagged.add(f"syscall:{syscall}")
        if (
            vocab_object is not None
            and isinstance(obj, str)
            and obj != WILDCARD
            and obj not in vocab_object
        ):
            flagged.add(f"object:{obj}")
        if (
            vocab_mode is not None
            and isinstance(mode, str)
            and mode != WILDCARD
            and mode not in vocab_mode
        ):
            flagged.add(f"mode:{mode}")
    return sorted(flagged)

