"""HTTP-level observability: Prometheus exposition, /debug/traces,
scrape memoization, chaos annotations — the acceptance surface."""

import json
import time
import urllib.request

import pytest

from repro.errors import IndexError_
from repro.obs import trace
from repro.query.spec import QuerySpec
from repro.resilience import chaos
from repro.resilience.chaos import ChaosController
from repro.service.server import QueryService, _ScrapeMemo, start_in_thread


@pytest.fixture
def http_service(engine):
    service = QueryService(engine, workers=2, max_queue=32, trace_threshold=0.0)
    server, thread = start_in_thread(service, port=0)
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    try:
        yield base, service, server
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read(), dict(response.headers)


def _get_json(url):
    status, body, _ = _get(url)
    return status, json.loads(body)


def _query_url(base, dataset, k=5):
    graph, world = dataset
    user = graph.entities.name_of(world.members("user")[0])
    return f"{base}/v1/query?entity={user}&relation=likes&k={k}"


# -- Prometheus exposition ---------------------------------------------------


def test_metrics_prometheus_format_over_http(http_service, dataset):
    base, _, server = http_service
    status, _ = _get_json(_query_url(base, dataset))
    assert status == 200
    server.memo.clear()
    status, body, headers = _get(f"{base}/metrics?format=prometheus")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    text = body.decode("utf-8")
    assert "# TYPE repro_requests_total counter" in text
    assert "repro_requests_total 1" in text
    assert "# TYPE repro_request_latency_seconds histogram" in text
    assert 'repro_request_latency_seconds_bucket{le="+Inf"} 1' in text
    assert "repro_request_latency_seconds_count 1" in text
    assert "repro_queue_depth 0" in text


# -- scrape memoization ------------------------------------------------------


def test_scrape_memo_ttl_unit():
    memo = _ScrapeMemo(ttl=0.05)
    calls = []

    def build():
        calls.append(1)
        return len(calls)

    assert memo.get(("k",), build) == 1
    assert memo.get(("k",), build) == 1  # cached
    time.sleep(0.06)
    assert memo.get(("k",), build) == 2  # expired
    assert _ScrapeMemo(ttl=0.0).get(("k",), build) == 3  # ttl 0 disables


def test_metrics_and_healthz_are_memoized_over_http(http_service, dataset):
    base, _, server = http_service
    url = _query_url(base, dataset)

    _get_json(url)
    status, first = _get_json(f"{base}/metrics?format=json")
    assert status == 200 and first["counters"]["requests"] == 1
    _get_json(url)  # cached=True, still a request
    # Within the memo TTL the scrape is served from cache: same body.
    status, second = _get_json(f"{base}/metrics?format=json")
    assert second["counters"]["requests"] == 1
    status, health_a = _get_json(f"{base}/healthz")
    status, health_b = _get_json(f"{base}/healthz")
    assert health_a == health_b

    # A fresh memo window sees both requests.
    server.memo.clear()
    status, third = _get_json(f"{base}/metrics?format=json")
    assert third["counters"]["requests"] == 2


# -- the acceptance criterion: a slow query's trace, end to end -------------


def test_debug_traces_decomposes_request_latency(http_service, dataset):
    base, service, _ = http_service
    trace.enable()
    try:
        status, payload = _get_json(_query_url(base, dataset, k=4))
        assert status == 200
    finally:
        trace.disable()

    status, body = _get_json(f"{base}/debug/traces")
    assert status == 200
    assert body["stats"]["recorded"] >= 1
    record = body["traces"][-1]
    assert record["root_name"] == "http.request"
    spans = {span["name"]: span for span in record["spans"]}

    # The decomposition: queue wait, index traversal, probability
    # scoring, serialization — all present, all inside the root.
    for required in (
        "pool.queue_wait",
        "pool.execute",
        "engine.topk",
        "query.topk",
        "index.probe",
        "index.search",
        "query.probability",
        "http.serialize",
    ):
        assert required in spans, f"missing span {required}"

    engine_span = spans["engine.topk"]
    assert engine_span["attributes"]["points_examined"] > 0
    assert "splits_triggered" in engine_span["attributes"]
    assert "contour_size" in engine_span["attributes"]
    search_span = spans["index.search"]
    assert "partition_accesses" in search_span["attributes"]
    topk_span = spans["query.topk"]
    assert topk_span["attributes"]["k"] == 4
    assert topk_span["attributes"]["returned"] == 4

    # Spans nest inside the root and durations are sane.
    root = spans["http.request"]
    assert root["parent_id"] is None
    assert spans["pool.execute"]["duration_seconds"] <= record["duration_seconds"]
    assert spans["query.topk"]["parent_id"] == engine_span["span_id"]

    # The ?limit knob keeps the tail.
    status, limited = _get_json(f"{base}/debug/traces?limit=1")
    assert len(limited["traces"]) == 1


def test_debug_traces_empty_when_tracing_disabled(http_service, dataset):
    base, _, _ = http_service
    _get_json(_query_url(base, dataset))
    status, body = _get_json(f"{base}/debug/traces")
    assert status == 200
    assert body["tracing_enabled"] is False
    assert body["traces"] == []


# -- chaos events on traces (fault injection is observable) ------------------


def test_injected_fault_appears_as_span_event(engine):
    controller = ChaosController(seed=1)
    controller.on("service.query", delay=0.001, max_fires=1)
    with QueryService(engine, workers=1, trace_threshold=0.0) as service:
        with chaos.activate(controller):
            with trace.capture() as records:
                service.execute(QuerySpec(entity=5, relation=0, k=3))
    assert controller.fired("service.query") == 1
    events = [
        event
        for record in records
        for span in record.spans
        for event in span["events"]
        if event["name"] == "chaos.fired"
    ]
    assert len(events) == 1
    assert events[0]["attributes"]["point"] == "service.query"
    assert events[0]["attributes"]["delay"] == 0.001


def test_degradation_appears_as_span_event(engine):
    controller = ChaosController(seed=2)
    controller.on("engine.topk", exc=IndexError_, max_fires=1)
    with QueryService(engine, workers=1, trace_threshold=0.0) as service:
        with chaos.activate(controller):
            with trace.capture() as records:
                result = service.execute(QuerySpec(entity=5, relation=0, k=3)).result
    assert len(result.entities) == 3  # answered despite the injected fault
    events = [
        event
        for record in records
        for span in record.spans
        for event in span["events"]
    ]
    names = {event["name"] for event in events}
    assert "chaos.fired" in names
    assert "degrade.downgrade" in names
    downgrade = next(e for e in events if e["name"] == "degrade.downgrade")
    assert downgrade["attributes"]["mode"] == "bulk"
