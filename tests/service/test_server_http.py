"""End-to-end tests of the JSON HTTP front-end (stdlib client only)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.service.server import QueryService, start_in_thread


@pytest.fixture
def http_service(engine):
    service = QueryService(engine, workers=2, max_queue=32)
    server, thread = start_in_thread(service, port=0)
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    try:
        yield base, service
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


def test_healthz(http_service):
    base, _ = http_service
    status, payload = _get_json(f"{base}/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert "queue_depth" in payload


def test_topk_by_name_and_cached_flag(http_service, dataset):
    base, service = http_service
    graph, world = dataset
    user = graph.entities.name_of(world.members("user")[0])
    url = f"{base}/v1/query?entity={user}&relation=likes&k=5"
    status, first = _get_json(url)
    assert status == 200
    result = first["result"]
    assert len(result["entities"]) == 5
    assert len(result["names"]) == 5
    assert result["distances"] == sorted(result["distances"])
    assert first["meta"]["cached"] is False
    status, second = _get_json(url)
    assert second["meta"]["cached"] is True
    assert second["result"]["entities"] == result["entities"]
    # Probabilities decrease with distance and top-1 has probability 1.
    assert second["result"]["probabilities"][0] == pytest.approx(1.0)


def test_topk_by_numeric_id(http_service, dataset):
    base, service = http_service
    graph, world = dataset
    user = world.members("user")[0]
    likes = graph.relations.id_of("likes")
    status, payload = _get_json(f"{base}/v1/query?entity={user}&relation={likes}&k=3")
    assert status == 200
    assert len(payload["result"]["entities"]) == 3


def test_aggregate_endpoint(http_service, dataset):
    base, _ = http_service
    graph, world = dataset
    user = graph.entities.name_of(world.members("user")[0])
    status, payload = _get_json(
        f"{base}/v1/query?entity={user}&relation=likes&kind=count&p_tau=0.25"
    )
    assert status == 200
    assert payload["meta"]["mode"] == "aggregate"
    result = payload["result"]
    assert result["kind"] == "count"
    assert result["ball_size"] >= result["accessed"] >= 0


def test_metrics_text_and_json(http_service, dataset):
    base, _ = http_service
    graph, world = dataset
    user = graph.entities.name_of(world.members("user")[0])
    _get_json(f"{base}/v1/query?entity={user}&relation=likes&k=4")
    status, body, headers = _get(f"{base}/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    assert b"serving metrics" in body
    status, snap = _get_json(f"{base}/metrics?format=json")
    assert snap["counters"]["requests"] >= 1
    assert "p99" in snap["latency"]


def test_missing_params_is_400(http_service):
    base, _ = http_service
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(f"{base}/v1/query?relation=likes")
    assert excinfo.value.code == 400
    assert json.loads(excinfo.value.read())["error"]["code"] == "bad_request"


def test_unknown_entity_is_400(http_service):
    base, _ = http_service
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(f"{base}/v1/query?entity=zzz-nope&relation=likes")
    assert excinfo.value.code == 400


def test_unknown_path_is_404(http_service):
    base, _ = http_service
    for path in ("/nope", "/topk?entity=0&relation=0", "/aggregate?entity=0&relation=0"):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{base}{path}")
        assert excinfo.value.code == 404
