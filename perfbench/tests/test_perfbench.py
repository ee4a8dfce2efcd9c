"""Tests of the benchmark itself: streams, metric names, statistics, spans.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import threading
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import harness
import measure
import run
from opstream import WORKLOADS, read_stream, write_stream
from repro.bench.datasets import freebase_dataset
from repro.query.spec import QuerySpec
from serving import Op
from tracing import Recorder, Span, layer_metrics

BENCHMARK = json.loads((Path(harness.ROOT) / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def dataset():
    return freebase_dataset(0.1)


# -- operation streams --------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_stream(dataset, name):
    workload = WORKLOADS[name]
    if workload.distinct:  # the small test graph has fewer distinct queries
        workload = replace(workload, distinct=300)
    first = read_stream(workload, dataset.graph, seed=7, length=300)
    again = read_stream(workload, dataset.graph, seed=7, length=300)
    other = read_stream(workload, dataset.graph, seed=8, length=300)
    assert first == again
    assert first != other
    assert read_stream(workload, dataset.graph, seed=7, length=3000)[:300] == first
    # The program receives only generated, fully specified requests.
    assert all(isinstance(spec, QuerySpec) for spec in first)


def test_workload_mixes(dataset):
    wide = read_stream(WORKLOADS["wide-read"], dataset.graph, seed=3, length=2000)
    share = sum(spec.mode == "topk" for spec in wide) / len(wide)
    assert 0.75 < share < 0.85
    assert any(spec.entity_type for spec in wide)
    sharded = read_stream(WORKLOADS["sharded-topk"], dataset.graph, seed=3, length=500)
    assert sharded == [spec for spec in wide if spec.mode == "topk"][:500]
    hot = read_stream(replace(WORKLOADS["hot-http"], distinct=300), dataset.graph, 3, 2000)
    assert 100 < len(set(hot)) <= 300
    with pytest.raises(ValueError):
        read_stream(WORKLOADS["hot-http"], dataset.graph, seed=3, length=10)


def test_same_seed_gives_identical_updates(dataset):
    vectors = dataset.model.entity_vectors()
    first = write_stream(dataset.graph, vectors, seed=5, length=40)
    again = write_stream(dataset.graph, vectors, seed=5, length=40)
    assert [u[0] for u in first] == ["set_vector", "add_edge"] * 20
    for a, b in zip(first, again):
        assert a[:-1] == b[:-1] and np.array_equal(a[-1], b[-1])
    edges = [u[1:] for u in first if u[0] == "add_edge"]
    assert len(set(edges)) == len(edges)
    assert not any(dataset.graph.has_triple(*edge) for edge in edges)


def test_seed_is_a_command_line_argument():
    args = run._parse(["--workload", "wide-read", "--seed", "11", "--seconds", "3"])
    assert (args.seed, args.trace) == (11, 0)
    with pytest.raises(SystemExit):
        run._parse(["--workload", "wide-read", "--seconds", "3"])


# -- printed metric names -----------------------------------------------------


def _fake_run(trace: bool):
    spec = QuerySpec(entity=0, relation=0, k=10)
    reads = [Op(i, spec, 0.001 + 1e-6 * i, None, done=i / 600) for i in range(1200)]
    if not trace:
        return harness._result(
            [0.01] * 5, [harness.Slice(False, 0.0, 2.0, reads)], harness.Quality(
                seen={"a": (None, 1.0), "b": (None, 0.9)}), None, {"peak_rss_mb": 80.0}, trace,
        )
    slices = [
        harness.Slice(False, 0.0, 1.0, reads[:600]),
        harness.Slice(True, 1.0, 1.0, reads[600:], counters={"splits": 6}),
    ]
    quality = harness.Quality(seen={"a": (None, 1.0), "b": (None, 0.9)})
    truth = SimpleNamespace(scan_seconds=[0.001])
    server = {
        "peak_rss_mb": 80.0, "layers": {}, "cache": {"hits": 1, "misses": 1, "invalidations": 0},
        "counters": {"splits": 6}, "node_count": 9, "busy_skew": 1.0, "wal_bytes": 0,
    }
    return harness._result([0.01] * 5, slices, quality, truth, server, trace)


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_printed_end_to_end_metrics_match_benchmark_json():
    result = _fake_run(trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared("end_to_end") == harness.E2E
    assert result["metrics"]["recall_at_k"]["value"] == pytest.approx(0.95)
    assert result["metrics"]["read_ops_per_s"]["value"] == pytest.approx(600.0)


def test_printed_per_layer_metrics_match_benchmark_json():
    result = _fake_run(trace=True)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared("per_layer") == harness.PER_LAYER
    assert result["metrics"]["index.splits"]["value"] == pytest.approx(0.01)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)


# -- statistics -----------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert measure.supports(1000, 0.99) and not measure.supports(999, 0.99)
    assert measure.supports(200, 0.95) and not measure.supports(199, 0.95)
    assert measure.percentile(range(1000), 0.99) == pytest.approx(989.01)
    with pytest.raises(measure.TooFewSamples):
        measure.percentile(range(999), 0.99)
    assert measure.percentile_or_zero(range(999), 0.99) == 0.0
    assert measure.percentile([5.0] * 20, 0.5) == 5.0


def test_windowed_statistics_shrug_off_one_stalled_window():
    calm = np.full(1000, 2.0)
    stalled = np.concatenate([np.full(960, 2.0), np.full(40, 50.0)])
    samples = np.concatenate([calm, stalled, calm])
    assert measure.windowed(samples, 0.99, size=1000) == pytest.approx(2.0)
    assert measure.percentile(samples, 0.99) > 2.0
    assert measure.windowed(samples, 0.50, size=200) == pytest.approx(2.0)
    with pytest.raises(measure.TooFewSamples):
        measure.windowed(samples[:999], 0.99, size=1000)
    with pytest.raises(measure.TooFewSamples):
        measure.windowed(samples, 0.99, size=200)  # a window this small has no p99
    times = np.concatenate([np.linspace(0, 4, 400, endpoint=False), np.linspace(4, 6, 20)])
    assert measure.windowed_rate(times, 0.0, 6.0) == pytest.approx(100.0)  # not 420 / 6


def _span(span_id, parent, start, end, name="x"):
    return Span(span_id, parent, 1, name, start, end)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),  # overlaps its sibling: counted once
        _span(4, 2, 2.0, 3.0),
        _span(5, 1, 9.0, 12.0),  # runs past its parent: clipped
    ]
    selfs = measure.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(3.0)


# -- tracing --------------------------------------------------------------------


class _Layer:
    def outer(self, pool):
        return pool.execute(lambda engine: self.inner())

    def inner(self):
        return threading.current_thread().name


def test_spans_follow_a_request_into_the_pool_and_uninstall_restores():
    from repro.service.pool import EnginePool

    original = EnginePool.__dict__["execute"]
    recorder = Recorder()
    recorder.wrap(_Layer, "outer", "layer.outer")
    recorder.wrap(_Layer, "inner", "layer.inner")
    recorder.wrap_pool(EnginePool)
    pool = EnginePool(object(), workers=1)
    try:
        recorder.enabled = True
        with recorder.span("client.op"):
            worker = _Layer().outer(pool)
        recorder.enabled = False
        _Layer().outer(pool)  # not recorded
    finally:
        pool.shutdown()
        recorder.uninstall()
    assert worker != threading.current_thread().name
    assert EnginePool.__dict__["execute"] is original
    spans = {span.name: span for span in recorder.spans}
    assert len(recorder.spans) == 4 and len(recorder.queue_waits) == 1
    assert spans["layer.inner"].parent == spans["service.pool"].span_id
    assert spans["service.pool"].parent == spans["layer.outer"].span_id
    assert spans["layer.outer"].parent == spans["client.op"].span_id
    assert {span.request for span in recorder.spans} == {spans["client.op"].span_id}


def test_layer_metrics_per_op():
    recorder = Recorder()
    recorder.spans = [
        _span(1, 0, 0.0, 0.004, "query.engine.topk"),
        _span(2, 1, 0.001, 0.002, "index.search"),
        _span(3, 1, 0.002, 0.003, "index.search"),
    ]
    recorder.spans[0].attrs = {"returned": 10, "examined": 40}
    metrics = layer_metrics(recorder, ops=2)
    assert metrics["query.engine.topk_ms"] == pytest.approx(4.0)
    assert metrics["query.topk.useful_ratio"] == pytest.approx(0.25)
    assert metrics["index.search_calls"] == pytest.approx(1.0)
    assert metrics["index.search_ms"] == pytest.approx(1.0)


def test_slice_plan_alternates_evenly():
    assert harness.slice_plan(15, trace=False) == [(False, 15)]
    plan = harness.slice_plan(15, trace=True)
    assert len(plan) % 2 == 0 and sum(length for _, length in plan) == pytest.approx(15)
    assert [traced for traced, _ in plan] == [False, True] * (len(plan) // 2)
