"""Differential test: the JSON-lines loader against the reader it replaced.

``tests/oracles/jsonl_reader.py`` keeps the old reader, which ran
``json.loads`` on every stripped line. The loader decodes a line with the
JSON scanner and falls back to ``json.loads`` for any line the scanner does
not take whole. On every input both must load equal samples (compared with
the type of each event field) or raise the same exception type, line and
message.

The loader builds an event with no per-field calls when its ts and ret are
integers and its five token fields are strings the load has normalized
before. Files of complete event records, each repeated so that its second
copy can take that path, check it and the checked path against the oracle.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from planhunt import telemetry
from planhunt.errors import MalformedRecord
from planhunt.telemetry import load_sample
from oracles.jsonl_reader import load_jsonl

EVENT = '{"type": "event", "ts": 1, "syscall": "mmap", "pid": "p1", "ret": 0}'
META = '{"type": "meta", "sample_id": "alpha"}'
FULL = (
    '{"type": "event", "ts": 1, "syscall": "mmap", "pid": "7", "tid": "t0",'
    ' "object": "buffer", "mode": "read", "ret": 0}'
)


def outcome(load, path):
    try:
        sample = load(path)
    except Exception as exc:  # the type is part of the outcome
        return ("raised", type(exc), getattr(exc, "line", None), str(exc))
    events = tuple(
        (type(event), tuple((type(value), value) for value in event))
        for event in sample.events
    )
    return ("loaded", sample.sample_id, events, sample.permissions, sample.intents, sample.meta)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("jsonl") / "s.jsonl"


def assert_same(path, text):
    path.write_text(text, encoding="utf-8", newline="")
    expected = outcome(load_jsonl, path)
    assert outcome(load_sample, path) == expected, repr(text)
    return expected


CASES = {
    "blank-and-whitespace-lines": f"\n   \n\t\n{EVENT}\n \u3000 \n",
    "leading-spaces": f"  {EVENT}\n {META}\n",
    "trailing-nbsp": f"{EVENT}\xa0\n{META}\xa0",
    "crlf": f"{META}\r\n{EVENT}\r\n\r\n{EVENT}",
    "lone-cr": f"{META}\r{EVENT}\r\r{{nope\r",
    "value-spans-two-lines": f'{EVENT}\n{{"type": "meta",\n "sample_id": "x"}}\n',
    "two-values-on-one-line": f"{EVENT}\n{EVENT} {META}\n",
    "two-values-no-space": f"{META}{META}\n",
    "joined-lines-would-parse": f'{{"c":[[\n]]}}\n{META} {META}\n',
    "nan-pid": '{"type": "event", "ts": 1, "syscall": "mmap", "pid": NaN}\n',
    "nan-ts": '{"type": "event", "ts": NaN, "syscall": "mmap", "pid": 1}\n',
    "unterminated-string": f'{EVENT}\n{{"type": "meta", "x": "abc\n"}}\n',
    "nested-lists": '{"type": "event", "ts": 1, "syscall": "mmap", "pid": [[1, [2]], []]}\n',
    "raw-u2028-in-string": '{"type": "meta", "sample_id": "a\u2028b\x85c"}\n',
    "u2028-after-value": f"{META}\u2028\n{EVENT}\x85\n",
    "u2028-before-value": f"\u2028{META}\n",
    "bom": f"\ufeff{META}\n",
    "trailing-data": f"{META}x\n",
    "null-line": "null\n",
    "list-line": "[1, 2]\n",
    "number-line": "12 \n",
    "empty-object": "{}\n",
    "bare-word": "nope\n",
    "boolean-after-integer": (
        '{"type": "event", "ts": 1, "syscall": "mmap", "pid": 1, "ret": 1}\n'
        '{"type": "event", "ts": 2, "syscall": "mmap", "pid": 1, "ret": true}\n'
    ),
    "float-timestamps": (
        '{"type": "event", "ts": 3.0, "syscall": "mmap", "pid": 1}\n'
        '{"type": "event", "ts": 2.5, "syscall": "mmap", "pid": 1}\n'
    ),
    "string-timestamp": '{"type": "event", "ts": " 7 ", "syscall": "mmap", "pid": 1}\n',
    "deep-nesting": "[" * 100 + "]" * 100 + "\n",
    "boolean-syscall": f'{META}\n{{"type": "event", "ts": 1, "syscall": true, "pid": 1}}\n',
    "boolean-permission-name": f'{EVENT}\n{{"type": "permission", "name": false}}\n',
    "boolean-intent-action": f'{META}\n{{"type": "intent", "action": true}}\n',
    "sample-id-leaves-the-directory": f'{EVENT}\n{{"type": "meta", "sample_id": "../x"}}\n',
    "sample-id-with-backslash": f'{EVENT}\n{{"type": "meta", "sample_id": "a\\\\b"}}\n',
    "empty-sample-id": f'{EVENT}\n{{"type": "meta", "sample_id": ""}}\n',
    # Each second event has only tokens the first normalized.
    "known-token-as-syscall": FULL + "\n" + FULL.replace('"mmap"', '"7"') + "\n",
    "negative-ts-after-its-tokens": FULL + "\n" + FULL.replace('"ts": 1', '"ts": -1') + "\n",
    "float-ts-after-its-tokens": FULL + "\n" + FULL.replace('"ts": 1', '"ts": 2.0') + "\n",
    "boolean-ret-after-its-tokens": FULL + "\n" + FULL.replace('"ret": 0', '"ret": false') + "\n",
    "string-ret-after-its-tokens": FULL + "\n" + FULL.replace('"ret": 0', '"ret": "7"') + "\n",
}


@pytest.mark.parametrize("text", CASES.values(), ids=CASES.keys())
def test_hand_written_cases(scratch, text):
    assert_same(scratch, text)


@pytest.mark.parametrize("case", [name for name in CASES if name.startswith("boolean-")])
def test_boolean_token_is_a_malformed_record(scratch, case):
    result = assert_same(scratch, CASES[case])
    assert result[1:] == (MalformedRecord, 2, f"{scratch}: line 2: boolean field value")


@pytest.mark.parametrize("case", [name for name in CASES if "sample-id" in name])
def test_sample_id_that_is_not_a_file_name(scratch, case):
    result = assert_same(scratch, CASES[case])
    assert result[0] == "raised" and result[1:3] == (MalformedRecord, 2)
    assert result[3].endswith("is not a file name")


def test_two_values_on_one_line_is_rejected(scratch):
    # The scanner alone would take the first value and drop the second.
    result = assert_same(scratch, f"{EVENT}\n{EVENT} {META}\n")
    assert result[0] == "raised"
    assert result[2:] == (2, f"{scratch}: line 2: invalid JSON: Extra data")


_SCALARS = st.one_of(
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.sampled_from(
        ["1", "-2", "1.0", " 7 ", "", "_", "mmap", " Mmap ", "android.permission.CAMERA",
         "\xfc", "a\u2028b", "a\x85b", "x\r", ".", "..", "a/b", "a\\b"]
    ),
    st.text(max_size=4),
)
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=2))
_KEYS = ["ts", "syscall", "pid", "tid", "object", "mode", "ret", "name", "action", "sample_id"]
_RECORDS = st.builds(
    lambda kind, fields: {"type": kind, **fields} if kind else fields,
    st.sampled_from(["event", "event", "permission", "intent", "meta", "other", None]),
    st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=7),
)
_PADDING = st.sampled_from(["", "", " ", "\t", "\xa0", "\u2028", "\x85", "\x0c", "\ufeff"])
_JUNK = st.one_of(
    st.sampled_from(["", "{", "]", '"', "x", "null", "1", '{"c":[[', "]]}", "NaN", "-"]),
    st.text(alphabet='{}[]":,.0123456789aeflnrstu \t\xa0\u2028', max_size=12),
)


@st.composite
def _lines(draw):
    if draw(st.integers(0, 5)) == 0:
        body = draw(_JUNK)
    else:
        body = json.dumps(draw(_RECORDS), ensure_ascii=draw(st.booleans()))
    if draw(st.integers(0, 7)) == 0:
        body += draw(_PADDING) + draw(_JUNK)
    return draw(_PADDING) + body + draw(_PADDING)


@st.composite
def _files(draw):
    lines = draw(st.lists(_lines(), max_size=8))
    endings = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]), min_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, endings))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=300, deadline=None)
@given(_files())
def test_generated_files(scratch, text):
    assert_same(scratch, text)



_TOKENS = st.sampled_from(
    ["7", "-2", "", "_", "mmap", "MMap", " read ", "P1", "android.permission.CAMERA",
     "Android.Intent.Action.VIEW", "0", "x/y"]
)
_NON_STRINGS = st.one_of(
    st.integers(-2, 2), st.booleans(), st.sampled_from([1.0, 2.5, -1.0]), st.none()
)


@st.composite
def _event_records(draw):
    """Records with all seven event fields. Most fields hold what a trace
    has, an integer ts or ret or a token from a pool of up to three per
    file, so tokens recur, often in another field, where a token such as
    "7" becomes an integer and so not a syscall; any field may hold any
    scalar."""
    token = st.sampled_from(draw(st.lists(_TOKENS, min_size=1, max_size=3, unique=True)))
    odd = st.one_of(token, st.integers(-2, 9), _TOKENS, _NON_STRINGS)
    records = []
    for _ in range(draw(st.integers(1, 6))):
        record = {"type": "event"}
        for key in telemetry._EVENT_KEYS:
            common = st.integers(-1, 9) if key in ("ts", "ret") else token
            record[key] = draw(common if draw(st.integers(0, 4)) else odd)
        records.append(record)
    return records


@settings(max_examples=300, deadline=None)
@given(_event_records())
def test_complete_event_records(scratch, records):
    lines = [json.dumps(record) for record in records]
    assert_same(scratch, "\n".join(lines + lines) + "\n")


def test_a_repeated_event_skips_the_checked_path(scratch, monkeypatch):
    checked = []
    event = telemetry._event_from_mapping
    monkeypatch.setattr(
        telemetry, "_event_from_mapping", lambda *args: checked.append(args[1]) or event(*args)
    )
    # A float ts is no int, so its line takes the checked path.
    float_ts = FULL.replace('"ts": 1', '"ts": 1.0')
    assert_same(scratch, "\n".join([FULL, FULL, float_ts, FULL]) + "\n")
    assert checked == [1, 3]
