"""Trace artifact round trips and corruption detection."""

import json

import pytest

from repro.obs import SpanRecord, TraceCorrupt, read_trace, write_trace
from repro.obs.trace import TRACE_SCHEMA


def _records():
    return [
        SpanRecord(1, None, "campaign", 0.0, 2.0,
                   attrs={"engine": "shm"},
                   counters={"events": 1000}),
        SpanRecord(2, 1, "chunk", 0.1, 1.5, attrs={"index": 0},
                   worker="pid:31"),
    ]


class TestRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, _records(), meta={"run_id": "r1"})
        header, records = read_trace(path)
        assert header["schema"] == TRACE_SCHEMA
        assert header["kind"] == "trace"
        assert header["run_id"] == "r1"
        assert records == _records()

    def test_empty_trace_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, [])
        header, records = read_trace(path)
        assert records == []

    def test_write_creates_parent_directories(self, tmp_path):
        path = tmp_path / "runs" / "r1" / "trace.jsonl"
        write_trace(path, _records())
        assert read_trace(path)[1] == _records()

    def test_write_replaces_atomically(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, _records())
        write_trace(path, _records()[:1])
        assert len(read_trace(path)[1]) == 1
        assert list(tmp_path.iterdir()) == [path]  # no temp litter


class TestCorruption:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceCorrupt, match="unreadable"):
            read_trace(tmp_path / "absent.jsonl")

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, _records())
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # trailer gone
        with pytest.raises(TraceCorrupt):
            read_trace(path)

    def test_flipped_byte_fails_the_checksum(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, _records())
        text = path.read_text().replace('"campaign"', '"campaignX"', 1)
        path.write_text(text)
        with pytest.raises(TraceCorrupt, match="checksum mismatch"):
            read_trace(path)

    def test_not_a_trace_artifact(self, tmp_path):
        path = tmp_path / "other.jsonl"
        import hashlib

        body = json.dumps({"kind": "cell"}) + "\n"
        trailer = json.dumps(
            {"sha256": hashlib.sha256(body.encode()).hexdigest()})
        path.write_text(body + trailer + "\n")
        with pytest.raises(TraceCorrupt, match="not a trace"):
            read_trace(path)

    def test_bad_span_record(self, tmp_path):
        import hashlib

        header = json.dumps({"kind": "trace", "schema": TRACE_SCHEMA})
        body = header + "\n" + json.dumps({"name": "no-id"}) + "\n"
        trailer = json.dumps(
            {"sha256": hashlib.sha256(body.encode()).hexdigest()})
        path = tmp_path / "trace.jsonl"
        path.write_text(body + trailer + "\n")
        with pytest.raises(TraceCorrupt, match="bad span record"):
            read_trace(path)
