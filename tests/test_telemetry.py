"""Telemetry loading, normalization, and fact construction."""

import json

import pytest

from planhunt.errors import ArityConflict, MalformedRecord
from planhunt.telemetry import (
    Fact,
    FactBase,
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

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps(EVENT) + "\n{nope\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as err:
            load_sample(path)
        assert err.value.line == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_sample(tmp_path / "absent.jsonl")


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

    def test_missing_colmap(self, tmp_path):
        path = self.write_csv(tmp_path, "time,call,proc\n1,mmap,p\n")
        with pytest.raises(FileNotFoundError):
            load_sample(path)

    def test_colmap_missing_required_key(self, tmp_path):
        path = self.write_csv(tmp_path, "time,call\n1,mmap\n", "ts=time\nsyscall=call\n")
        with pytest.raises(MalformedRecord):
            load_sample(path)

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
        invoked = base.by_predicate("invoked")[0]
        assert invoked.args == (1, "mmap", "p1", "wildcard", "wildcard", "wildcard", 0)
        assert Fact("declared_permission", ("app", "camera")) in base
        assert Fact("declared_intent", ("app", "shipped")) in base

    def test_arity_conflict(self):
        base = FactBase([Fact("p", ("a",))])
        with pytest.raises(ArityConflict):
            base.add(Fact("p", ("a", "b")))

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

