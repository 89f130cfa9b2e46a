"""Hierarchical spans: determinism, merging, and schema validation."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    SPAN_SCHEMA,
    SchemaError,
    SpanTracker,
    span_id,
    validate_span_file,
    validate_span_record,
)


def _small_tree(seed: int = 7) -> SpanTracker:
    tracker = SpanTracker(seed)
    run = tracker.open("run", "run", seed=seed)
    with tracker.span("sweep", "sweep", points=2):
        with tracker.span("chunk-0000", "chunk", points=2) as chunk:
            chunk.observe("queue_depth", 3.0)
            chunk.observe("queue_depth", 1.0)
            with tracker.span("point-a", "point", key="a", requests=10):
                pass
            with tracker.span("point-b", "point", key="b", requests=12):
                pass
    tracker.close(run)
    return tracker


class TestIdentity:
    def test_span_id_is_pure_function_of_seed_and_path(self):
        assert span_id(7, "run/sweep") == span_id(7, "run/sweep")
        assert span_id(7, "run/sweep") != span_id(8, "run/sweep")
        assert span_id(7, "run/sweep") != span_id(7, "run/chunk")
        assert len(span_id(7, "run")) == 16

    def test_two_builds_are_byte_identical(self):
        assert _small_tree().to_jsonl() == _small_tree().to_jsonl()

    def test_records_are_path_sorted_parents_first(self):
        records = _small_tree().records()
        paths = [r["path"] for r in records]
        assert paths == sorted(paths)
        ids = {r["path"]: r["id"] for r in records}
        for record in records:
            if record["parent"] is not None:
                parent_path = record["path"].rsplit("/", 1)[0]
                assert record["parent"] == ids[parent_path]

    def test_observations_aggregate_count_sum_min_max(self):
        records = _small_tree().records()
        chunk = next(r for r in records if r["kind"] == "chunk")
        stats = chunk["observations"]["queue_depth"]
        assert stats == {"count": 2, "sum": 4.0, "min": 1.0, "max": 3.0}


class TestDiscipline:
    def test_duplicate_path_rejected(self):
        tracker = SpanTracker(1)
        with tracker.span("run", "run"):
            pass
        with pytest.raises(ValueError, match="duplicate"):
            tracker.open("run", "run")

    def test_closing_non_innermost_rejected(self):
        tracker = SpanTracker(1)
        outer = tracker.open("run", "run")
        tracker.open("sweep", "sweep")
        with pytest.raises(ValueError, match="innermost"):
            tracker.close(outer)

    def test_records_while_open_rejected(self):
        tracker = SpanTracker(1)
        tracker.open("run", "run")
        with pytest.raises(ValueError, match="still open"):
            tracker.records()

    def test_unknown_kind_and_slash_name_rejected(self):
        tracker = SpanTracker(1)
        with pytest.raises(ValueError, match="hierarchy"):
            tracker.open("run", "epoch")
        with pytest.raises(ValueError, match="no '/'"):
            tracker.open("a/b", "run")


class TestWorkerMerge:
    def test_prefixed_worker_records_link_to_parent_chunk(self):
        parent = SpanTracker(7)
        run = parent.open("run", "run")
        with parent.span("chunk-0000", "chunk") as chunk:
            chunk_path = chunk.path
        worker = SpanTracker(7, prefix=chunk_path)
        with worker.span("point-a", "point", key="a"):
            pass
        parent.extend(worker.records())
        parent.close(run)
        records = parent.records()
        point = next(r for r in records if r["kind"] == "point")
        assert point["path"] == "run/chunk-0000/point-a"
        assert point["parent"] == span_id(7, chunk_path)

    def _shards(self):
        """Two worker shards' records under one parent chunk path."""
        shards = []
        for key in ("a", "b"):
            worker = SpanTracker(7, prefix=f"run/chunk-000{key}")
            with worker.span(f"point-{key}", "point", key=key):
                pass
            shards.append(worker.records())
        return shards

    def _merged(self, shards) -> str:
        parent = SpanTracker(7)
        with parent.span("run", "run"):
            for shard in shards:
                parent.extend(shard)
        return parent.to_jsonl()

    def test_extend_order_independent(self):
        a, b = self._shards()
        assert self._merged([a, b]) == self._merged([b, a])

    def test_extend_rejects_duplicates(self):
        a, _ = self._shards()
        parent = SpanTracker(7)
        parent.extend(a)
        with pytest.raises(ValueError, match="duplicate"):
            parent.extend(a)


class TestValidation:
    def test_tree_validates(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        _small_tree().write(path)
        stats = validate_span_file(path)
        assert stats.spans == 5
        assert stats.roots == 1

    def test_record_with_wrong_id_rejected(self):
        record = _small_tree().records()[0]
        record["id"] = "0" * 16
        with pytest.raises(SchemaError, match="id"):
            validate_span_record(record)

    def test_record_with_wrong_schema_rejected(self):
        record = _small_tree().records()[0]
        record["schema"] = "repro.obs/spans/v0"
        with pytest.raises(SchemaError, match="schema"):
            validate_span_record(record)

    def test_unsorted_file_rejected(self, tmp_path):
        records = _small_tree().records()
        path = tmp_path / "spans.jsonl"
        path.write_text(
            "".join(
                json.dumps(r, sort_keys=True) + "\n"
                for r in reversed(records)
            )
        )
        with pytest.raises(SchemaError, match="order"):
            validate_span_file(path)

    def test_orphan_record_rejected(self, tmp_path):
        records = [
            r for r in _small_tree().records() if r["kind"] != "chunk"
        ]
        path = tmp_path / "spans.jsonl"
        path.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
        with pytest.raises(SchemaError, match="parent"):
            validate_span_file(path)

    def test_schema_tag_exported(self):
        assert all(
            r["schema"] == SPAN_SCHEMA for r in _small_tree().records()
        )
