"""Telemetry ingestion: sample files to normalized fact bases.

Two input layouts are supported:

* JSON lines (format A): one object per line with a ``type`` field drawn from
  ``event | permission | intent | meta``. Event objects carry ``ts, syscall,
  pid, tid, object, mode, ret``.
* CSV (format B): one event per row, column names bound through a user
  supplied key=value mapping file. Mapping keys ``ts, syscall, pid`` are
  required; ``tid, object, mode, ret`` are optional per-event columns;
  ``permissions, intents, sample_id`` name columns read from the first data
  row (list cells are ``;``-separated).

Facts render as ``pred(arg1,...,argN).``; bare ``pred.`` is the
zero-argument form. Integer arguments stay
integers; every other argument is a lowercase token. A field the source did
not report becomes the reserved constant ``wildcard``.
"""

import csv
import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import ArityConflict, MalformedRecord
from .vocab import (
    APP,
    DECLARED_INTENT,
    DECLARED_PERMISSION,
    INVOKED,
    WILDCARD,
)

logger = logging.getLogger(__name__)

__all__ = [
    "TelemetryEvent",
    "SampleRecord",
    "Fact",
    "FactBase",
    "load_sample",
    "events_to_facts",
    "unknown_tokens",
]

Arg = str | int

_INT_RE = re.compile(r"-?[0-9]+\Z")
# Prefixes commonly carried by platform permission/intent identifiers.
_STRIP_PREFIXES = ("android.permission.", "android.intent.action.", "android.intent.")


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
    token = re.sub(r"[^a-z0-9_-]", "_", lowered).strip("_-")
    if not token or not token[0].isalpha():
        token = "x_" + token
    return token


@dataclass(frozen=True)
class TelemetryEvent:
    """One observed system call: fields mirror the invoked/7 fact shape."""

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


@dataclass(frozen=True)
class Fact:
    predicate: str
    args: tuple[Arg, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return f"{self.predicate}."
        rendered = ",".join(str(a) for a in self.args)
        return f"{self.predicate}({rendered})."


class FactBase:
    """A set of ground facts with a per-predicate arity table.

    Adding a fact whose arity disagrees with an earlier use of the same
    predicate raises ArityConflict.
    """

    def __init__(self, facts: "list[Fact] | set[Fact] | tuple[Fact, ...] | None" = None):
        self._facts: set[Fact] = set()
        self.arity: dict[str, int] = {}
        for fact in facts or ():
            self.add(fact)

    def add(self, fact: Fact) -> None:
        known = self.arity.get(fact.predicate)
        if known is None:
            self.arity[fact.predicate] = len(fact.args)
        elif known != len(fact.args):
            raise ArityConflict(fact.predicate, len(fact.args), known)
        self._facts.add(fact)

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._facts

    def __iter__(self):
        return iter(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FactBase) and self._facts == other._facts

    def by_predicate(self, predicate: str) -> list[Fact]:
        return [f for f in self._facts if f.predicate == predicate]

    def sorted(self) -> list[Fact]:
        return sorted(self._facts, key=lambda f: (f.predicate, tuple(map(str, f.args))))


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


def _load_jsonl(path: Path) -> SampleRecord:
    sample_id = path.stem
    events: list[TelemetryEvent] = []
    permissions: list[str] = []
    intents: list[str] = []
    meta: list[tuple[str, str]] = []
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
                events.append(_event_from_mapping(record, lineno))
            elif kind == "permission":
                permissions.append(_required_token(record, "name", lineno))
            elif kind == "intent":
                intents.append(_required_token(record, "action", lineno))
            elif kind == "meta":
                if "sample_id" in record:
                    sample_id = str(record["sample_id"])
                meta.extend(
                    (str(k), str(v)) for k, v in sorted(record.items()) if k != "type"
                )
            else:
                raise MalformedRecord(lineno, f"unknown record type {kind!r}")
    return _finish_sample(sample_id, events, permissions, intents, meta)


def _required_token(record: dict, key: str, lineno: int) -> str:
    if key not in record:
        raise MalformedRecord(lineno, f"missing field {key!r}")
    token = _normalize_token(record[key])
    if isinstance(token, int):
        raise MalformedRecord(lineno, f"field {key!r} must be symbolic")
    return token


def _event_from_mapping(record: dict, lineno: int) -> TelemetryEvent:
    if "ts" not in record:
        raise MalformedRecord(lineno, "event missing 'ts'")
    if "syscall" not in record:
        raise MalformedRecord(lineno, "event missing 'syscall'")
    try:
        ts = int(record["ts"])
    except (TypeError, ValueError) as exc:
        raise MalformedRecord(lineno, "event 'ts' is not an integer") from exc
    if ts < 0:
        raise MalformedRecord(lineno, "event 'ts' is negative")
    syscall = _normalize_token(record["syscall"])
    if isinstance(syscall, int):
        raise MalformedRecord(lineno, "event 'syscall' must be symbolic")
    if "pid" not in record:
        raise MalformedRecord(lineno, "event missing 'pid'")
    try:
        return TelemetryEvent(
            ts=ts,
            syscall=syscall,
            pid=_normalize_token(record["pid"]),
            tid=_normalize_token(record.get("tid", WILDCARD)),
            obj=_normalize_token(record.get("object", WILDCARD)),
            mode=_normalize_token(record.get("mode", WILDCARD)),
            ret=_normalize_token(record.get("ret", WILDCARD)),
        )
    except ValueError as exc:
        raise MalformedRecord(lineno, str(exc)) from exc


def _load_csv(path: Path, column_map: str | Path | None) -> SampleRecord:
    map_path = Path(column_map) if column_map else path.with_suffix(".colmap")
    if not map_path.is_file():
        raise FileNotFoundError(str(map_path))
    mapping: dict[str, str] = {}
    with map_path.open(encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
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
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
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
            events.append(_event_from_mapping(record, rowno))
            if rowno == 2:
                if "sample_id" in mapping and row.get(mapping["sample_id"]):
                    sample_id = str(row[mapping["sample_id"]])
                for key, sink in (("permissions", permissions), ("intents", intents)):
                    column = mapping.get(key)
                    if column and row.get(column):
                        for item in str(row[column]).split(";"):
                            if item.strip():
                                token = _normalize_token(item)
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


def events_to_facts(sample: SampleRecord, app: str = APP) -> FactBase:
    """Translate a sample into its fact base.

    Every event becomes one invoked/7 fact, every permission one
    declared_permission/2 fact, every intent one declared_intent/2 fact, so
    the result holds exactly ``|events| + |permissions| + |intents|`` facts
    up to duplicates.
    """
    base = FactBase()
    for event in sample.events:
        base.add(
            Fact(
                INVOKED,
                (
                    event.ts,
                    event.syscall,
                    event.pid,
                    event.tid,
                    event.obj,
                    event.mode,
                    event.ret,
                ),
            )
        )
    for permission in sample.permissions:
        base.add(Fact(DECLARED_PERMISSION, (app, permission)))
    for intent in sample.intents:
        base.add(Fact(DECLARED_INTENT, (app, intent)))
    return base


def unknown_tokens(
    sample: SampleRecord, token_table: dict[str, frozenset[str]]
) -> list[str]:
    """Flag event vocabulary not present in a rule pack's token table.

    Unknown tokens are preserved in the fact base; this reports them as
    ``class:token`` strings for logging and report metadata.
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
    result = sorted(flagged)
    if result:
        logger.warning("sample %s: unknown tokens %s", sample.sample_id, result)
    return result

