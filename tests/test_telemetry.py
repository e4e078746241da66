"""Telemetry loading, normalization, and fact construction."""

import json
import pickle

import pytest

from planhunt.errors import ArityConflict, InputError, MalformedRecord
from planhunt.inference.engine import Relations
from planhunt.telemetry import (
    Fact,
    events_to_facts,
    load_sample,
    unknown_tokens,
)


def write_jsonl(tmp_path, name, records):
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    return path


EVENT = {"type": "event", "ts": 1, "syscall": "mmap", "pid": "p1", "ret": 0}


class TestJsonlLoading:
    def test_minimal_event(self, tmp_path):
        sample = load_sample(write_jsonl(tmp_path, "s.jsonl", [EVENT]))
        assert sample.sample_id == "s"
        event = sample.events[0]
        assert (event.ts, event.syscall, event.pid) == (1, "mmap", "p1")
        # Unreported fields become the wildcard constant.
        assert event.tid == "wildcard"
        assert event.obj == "wildcard"
        assert event.ret == 0

    def test_events_sorted_by_ts_stable(self, tmp_path):
        records = [
            dict(EVENT, ts=5, pid="a"),
            dict(EVENT, ts=1, pid="b"),
            dict(EVENT, ts=5, pid="c"),
        ]
        sample = load_sample(write_jsonl(tmp_path, "s.jsonl", records))
        assert [e.pid for e in sample.events] == ["b", "a", "c"]

    def test_permission_and_intent_normalization(self, tmp_path):
        records = [
            {"type": "permission", "name": "android.permission.CAMERA"},
            {"type": "intent", "action": "android.intent.action.BOOT_COMPLETED"},
        ]
        sample = load_sample(write_jsonl(tmp_path, "s.jsonl", records))
        assert sample.permissions == ("camera",)
        assert sample.intents == ("boot_completed",)

    def test_meta_sets_sample_id(self, tmp_path):
        records = [{"type": "meta", "sample_id": "alpha", "build": "XYZ"}]
        sample = load_sample(write_jsonl(tmp_path, "s.jsonl", records))
        assert sample.sample_id == "alpha"
        assert ("build", "XYZ") in sample.meta

    # A sample id names the sample's report file, so it must be one plain
    # path component.
    BAD_IDS = ["", ".", "..", "../escaped", "sub/dir", "a\\b", "nul\0"]

    @pytest.mark.parametrize("sample_id", BAD_IDS)
    def test_sample_id_that_is_not_a_file_name(self, tmp_path, sample_id):
        records = [EVENT, {"type": "meta", "sample_id": sample_id}]
        with pytest.raises(MalformedRecord) as err:
            load_sample(write_jsonl(tmp_path, "s.jsonl", records))
        assert err.value.line == 2
        assert "is not a file name" in str(err.value)

    def test_dotted_sample_id_is_a_file_name(self, tmp_path):
        records = [{"type": "meta", "sample_id": "..a.b"}]
        assert load_sample(write_jsonl(tmp_path, "s.jsonl", records)).sample_id == "..a.b"

    @pytest.mark.parametrize(
        "record,needle",
        [
            ({"type": "event", "syscall": "mmap", "pid": "p"}, "ts"),
            ({"type": "event", "ts": 1, "pid": "p"}, "syscall"),
            ({"type": "event", "ts": 1, "syscall": "mmap"}, "pid"),
            ({"type": "event", "ts": -4, "syscall": "mmap", "pid": "p"}, "negative"),
            ({"type": "oddity"}, "oddity"),
            ({"type": "permission"}, "name"),
        ],
    )
    def test_malformed_records(self, tmp_path, record, needle):
        path = write_jsonl(tmp_path, "s.jsonl", [EVENT, record])
        with pytest.raises(MalformedRecord) as err:
            load_sample(path)
        assert err.value.line == 2
        assert needle in str(err.value)

    def test_boolean_field_raises_after_an_equal_integer(self, tmp_path):
        # True == 1: a token memo keyed by the value alone would hand the
        # boolean the token of the integer loaded before it.
        records = [dict(EVENT, ret=1, pid=1), dict(EVENT, ts=2, ret=True)]
        path = write_jsonl(tmp_path, "s.jsonl", records)
        with pytest.raises(MalformedRecord) as err:
            load_sample(path)
        assert err.value.line == 2
        assert "boolean" in str(err.value)

    @pytest.mark.parametrize("ts", [True, 2.9, float("inf")])
    def test_boolean_or_fractional_timestamp_raises(self, tmp_path, ts):
        path = write_jsonl(tmp_path, "s.jsonl", [EVENT, dict(EVENT, ts=ts)])
        with pytest.raises(MalformedRecord) as err:
            load_sample(path)
        assert err.value.line == 2
        assert "event 'ts' is not an integer" in str(err.value)

    def test_whole_number_timestamps_load(self, tmp_path):
        records = [dict(EVENT, ts=3.0), dict(EVENT, ts="7"), dict(EVENT, ts=5)]
        sample = load_sample(write_jsonl(tmp_path, "s.jsonl", records))
        assert [e.ts for e in sample.events] == [3, 5, 7]
        assert all(type(e.ts) is int for e in sample.events)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps(EVENT) + "\n{nope\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as err:
            load_sample(path)
        assert err.value.line == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_sample(tmp_path / "absent.jsonl")

    def test_memo_keeps_value_types_apart(self, tmp_path):
        records = [dict(EVENT, ts=ts, pid=pid) for ts, pid in ((1, 1), (2, 1.0), (3, "1"))]
        sample = load_sample(write_jsonl(tmp_path, "s.jsonl", records))
        assert [e.pid for e in sample.events] == [1, "x_1_0", 1]
        assert [type(e.pid) for e in sample.events] == [int, str, int]

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_bytes(json.dumps(EVENT).encode() + b"\r\n\r{\"type\": \"caf\xe9\"}\n")
        with pytest.raises(MalformedRecord) as err:
            load_sample(path)
        assert (err.value.line, err.value.reason) == (3, "not valid UTF-8")


class TestCsvLoading:
    def write_csv(self, tmp_path, body, colmap=None):
        path = tmp_path / "t.csv"
        path.write_text(body, encoding="utf-8")
        if colmap is not None:
            (tmp_path / "t.colmap").write_text(colmap, encoding="utf-8")
        return path

    COLMAP = "ts=time\nsyscall=call\npid=proc\nmode=access\npermissions=perms\n"

    def test_round_trip(self, tmp_path):
        path = self.write_csv(
            tmp_path,
            "time,call,proc,access,perms\n2,mmap,p1,read,CAMERA;INTERNET\n1,read,p2,read,\n",
            self.COLMAP,
        )
        sample = load_sample(path)
        assert sample.sample_id == "t"
        assert [e.syscall for e in sample.events] == ["read", "mmap"]
        # Permission list comes from the first data row only.
        assert sample.permissions == ("camera", "internet")

    @pytest.mark.parametrize("key", ["permissions", "intents"])
    def test_numeric_list_item(self, tmp_path, key):
        # As in JSONL, a permission or intent must be a name, not a number.
        path = self.write_csv(
            tmp_path,
            "time,call,proc,names\n1,mmap,p1,x\n2,read,p1,7;CAMERA\n",
            f"ts=time\nsyscall=call\npid=proc\n{key}=names\n",
        )
        assert getattr(load_sample(path), key) == ("x",)  # the first row's cell only
        path.write_text("time,call,proc,names\n1,mmap,p1,7;CAMERA\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as err:
            load_sample(path)
        assert (err.value.line, err.value.reason) == (2, f"field {key!r} must be symbolic")

    @pytest.mark.parametrize("sample_id", ["..", "../escaped", "sub/dir", "a\\b"])
    def test_sample_id_that_is_not_a_file_name(self, tmp_path, sample_id):
        path = self.write_csv(
            tmp_path,
            f"time,call,proc,name\n1,mmap,p1,{sample_id}\n",
            "ts=time\nsyscall=call\npid=proc\nsample_id=name\n",
        )
        with pytest.raises(MalformedRecord) as err:
            load_sample(path)
        assert err.value.line == 2
        assert repr(sample_id) in str(err.value)

    def test_sample_id_column(self, tmp_path):
        colmap = "ts=time\nsyscall=call\npid=proc\nsample_id=name\n"
        path = self.write_csv(tmp_path, "time,call,proc,name\n1,mmap,p1,beta\n2,read,p1,x/y\n", colmap)
        # Only the first data row names the sample.
        assert load_sample(path).sample_id == "beta"

    def test_missing_colmap(self, tmp_path):
        path = self.write_csv(tmp_path, "time,call,proc\n1,mmap,p\n")
        with pytest.raises(FileNotFoundError):
            load_sample(path)

    def test_colmap_missing_required_key(self, tmp_path):
        path = self.write_csv(tmp_path, "time,call\n1,mmap\n", "ts=time\nsyscall=call\n")
        # The error is about the whole map, so it names no line.
        with pytest.raises(InputError) as err:
            load_sample(path)
        assert str(err.value) == f"{tmp_path / 't.colmap'}: column map missing required key 'pid'"

    def test_colmap_unknown_key(self, tmp_path):
        # A misspelled key would leave its column unread and the events
        # without that field.
        colmap = "ts=time\nsyscall=call\npid=proc\n# object\nobjct=target\n"
        path = self.write_csv(tmp_path, "time,call,proc,target\n1,mmap,p1,file\n", colmap)
        with pytest.raises(MalformedRecord) as err:
            load_sample(path)
        assert (err.value.line, err.value.reason) == (5, "unknown column map key 'objct'")

    @pytest.mark.parametrize(
        "row", ["100,openat,7,7,file", "100,openat,7,7,file,read,0,extra"], ids=["short", "long"]
    )
    def test_row_width_must_match_the_header(self, tmp_path, row):
        # Unchecked, csv would give a short row's missing cells None (the
        # token "none") and set a long row's extra cells apart.
        colmap = "ts=ts\nsyscall=sys\npid=pid\ntid=tid\nobject=obj\nmode=mode\nret=ret\n"
        header = "ts,sys,pid,tid,obj,mode,ret\n"
        path = self.write_csv(tmp_path, f"{header}1,read,7,7,file,read,0\n{row}\n", colmap)
        with pytest.raises(MalformedRecord) as err:
            load_sample(path)
        assert (err.value.line, err.value.reason) == (3, "row does not have the header's 7 cells")
        assert str(err.value).startswith(f"{path}: line 3: ")

    @pytest.mark.parametrize(
        "body",
        ["ts,sys,pid\n1,read,p1\n\n2,read\n", 'ts,sys,pid\n1,read,"p\n1"\n2,read\n'],
        ids=["blank-line", "quoted-cell-over-two-lines"],
    )
    def test_row_error_names_the_file_line(self, tmp_path, body):
        # Both short rows sit on line 4 but are the file's second record.
        path = self.write_csv(tmp_path, body, "ts=ts\nsyscall=sys\npid=pid\n")
        with pytest.raises(MalformedRecord) as err:
            load_sample(path)
        assert (err.value.line, err.value.reason) == (4, "row does not have the header's 3 cells")

    def test_first_data_row_after_a_blank_line_names_the_sample(self, tmp_path):
        colmap = "ts=time\nsyscall=call\npid=proc\nsample_id=name\npermissions=perms\n"
        body = "time,call,proc,name,perms\n\n1,mmap,p1,beta,CAMERA\n2,read,p1,gamma,INTERNET\n"
        sample = load_sample(self.write_csv(tmp_path, body, colmap))
        assert (sample.sample_id, sample.permissions) == ("beta", ("camera",))

    def test_non_utf8_csv_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"time,call,proc\n1,mmap,p1\n2,re\xffad,p1\n")
        (tmp_path / "t.colmap").write_text("ts=time\nsyscall=call\npid=proc\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as err:
            load_sample(path)
        assert (err.value.line, err.value.reason) == (3, "not valid UTF-8")

    def test_non_utf8_column_map(self, tmp_path):
        path = self.write_csv(tmp_path, "time,call,proc\n1,mmap,p1\n")
        (tmp_path / "t.colmap").write_bytes(b"# caf\xe9\nts=time\n")
        with pytest.raises(MalformedRecord) as err:
            load_sample(path)
        assert (err.value.line, err.value.reason) == (1, "not valid UTF-8")

    def test_explicit_column_map_argument(self, tmp_path):
        path = self.write_csv(tmp_path, "time,call,proc\n1,mmap,p1\n")
        other = tmp_path / "other.colmap"
        other.write_text("ts=time\nsyscall=call\npid=proc\n", encoding="utf-8")
        sample = load_sample(path, column_map=other)
        assert sample.events[0].syscall == "mmap"


class TestFactConstruction:
    def test_counts_and_shape(self, tmp_path):
        records = [
            EVENT,
            {"type": "permission", "name": "CAMERA"},
            {"type": "intent", "action": "SHIPPED"},
        ]
        base = events_to_facts(load_sample(write_jsonl(tmp_path, "s.jsonl", records)))
        assert len(base) == 3
        assert base.arity["invoked"] == 7
        (invoked,) = [f for f in base if f.predicate == "invoked"]
        assert invoked.args == (1, "mmap", "p1", "wildcard", "wildcard", "wildcard", 0)
        assert Fact("declared_permission", ("app", "camera")) in base
        assert Fact("declared_intent", ("app", "shipped")) in base

    def test_each_event_is_its_invoked_row(self, tmp_path):
        records = [EVENT, dict(EVENT, ts=2, object="file", mode="read", tid=7), dict(EVENT, ts=3)]
        sample = load_sample(write_jsonl(tmp_path, "s.jsonl", records))
        assert events_to_facts(sample).rows("invoked") == {tuple(e) for e in sample.events}

    def test_events_are_immutable(self, tmp_path):
        (event,) = load_sample(write_jsonl(tmp_path, "s.jsonl", [EVENT])).events
        with pytest.raises(AttributeError):
            event.pid = "p2"

    def test_sample_survives_pickling(self, tmp_path):
        records = [EVENT, {"type": "permission", "name": "CAMERA"}, {"type": "meta", "k": 1}]
        sample = load_sample(write_jsonl(tmp_path, "s.jsonl", records))
        copy = pickle.loads(pickle.dumps(sample))
        assert copy == sample
        assert type(copy.events[0]) is type(sample.events[0])

    def test_arity_conflict(self):
        base = Relations([Fact("p", ("a",))])
        with pytest.raises(ArityConflict):
            base.add("p", ("a", "b"))

    def test_unknown_tokens(self, tmp_path):
        records = [
            dict(EVENT, syscall="frobnicate", object="gizmo", mode="read"),
            dict(EVENT, syscall="mmap"),
        ]
        sample = load_sample(write_jsonl(tmp_path, "s.jsonl", records))
        table = {
            "syscall": frozenset({"mmap"}),
            "object": frozenset({"buffer"}),
            "mode": frozenset({"read"}),
        }
        # Wildcards (unreported fields) are never flagged.
        assert unknown_tokens(sample, table) == ["object:gizmo", "syscall:frobnicate"]

