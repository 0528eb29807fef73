"""Tests for trace file persistence."""

from __future__ import annotations

import pytest

from repro.bufmgr.tags import PageId
from repro.errors import WorkloadError
from repro.workloads import TraceWorkload, load_trace, save_trace
from repro.workloads.traces import SyntheticTrace


class TestTraceRoundTrip:
    def test_save_and_load(self, tmp_path):
        trace = SyntheticTrace(seed=1).zipf("hot", 50, 200).accesses
        path = tmp_path / "trace.txt"
        assert save_trace(path, trace) == 200
        assert load_trace(path) == trace

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# header\n\nitems 3\n# more\nitems 4\n")
        assert load_trace(path) == [PageId("items", 3), PageId("items", 4)]

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("items 3\nbogus line here\n")
        with pytest.raises(WorkloadError, match=":2:"):
            load_trace(path)

    def test_non_integer_block_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("items x\n")
        with pytest.raises(WorkloadError, match="integer"):
            load_trace(path)

    def test_file_cut_mid_character_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_bytes(b"t 1\nt 2\n\xe2\x82")
        with pytest.raises(WorkloadError, match="not UTF-8") as info:
            load_trace(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_file_cut_mid_line_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_bytes(b"t 1\nt 2\nt")
        with pytest.raises(WorkloadError, match=":3: expected"):
            load_trace(path)

    def test_empty_trace_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# nothing but comments\n")
        with pytest.raises(WorkloadError, match="no accesses"):
            load_trace(path)

    def test_workload_from_file(self, tmp_path):
        original = SyntheticTrace(seed=2).loop("loop", 5, 20).accesses
        path = tmp_path / "trace.txt"
        save_trace(path, original)
        workload = TraceWorkload.from_file(path,
                                           accesses_per_transaction=7)
        stream = workload.transaction_stream(0)
        replayed = []
        while len(replayed) < len(original):
            replayed.extend(next(stream).pages)
        assert replayed[:len(original)] == original

    def test_loaded_trace_drives_hit_ratio_replay(self, tmp_path):
        from repro.analysis.hitratio import replay
        trace = SyntheticTrace(seed=3).zipf("t", 100, 1000).accesses
        path = tmp_path / "trace.txt"
        save_trace(path, trace)
        direct = replay("lru", trace, capacity=20)
        loaded = replay("lru", load_trace(path), capacity=20)
        assert direct.hits == loaded.hits
