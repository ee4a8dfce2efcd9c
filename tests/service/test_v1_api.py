"""Tests for the ``/v1/query`` API.

The contract under test: one POST (or GET) endpoint takes a QuerySpec-
shaped request, responds with a ``{result, meta, error}`` envelope, and
errors carry stable machine-readable codes.
"""

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
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), dict(err.headers)


def _post(url, body):
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), dict(err.headers)


def _canonical(payload):
    return json.dumps(payload, sort_keys=True)


class TestEnvelope:
    def test_post_topk_envelope(self, http_service, dataset):
        base, _ = http_service
        graph, world = dataset
        user = graph.entities.name_of(world.members("user")[0])
        status, payload, _ = _post(
            f"{base}/v1/query",
            {"entity": user, "relation": "likes", "k": 5},
        )
        assert status == 200
        assert payload["error"] is None
        assert payload["meta"]["api"] == "v1"
        assert payload["meta"]["mode"] == "topk"
        assert payload["meta"]["cached"] is False
        result = payload["result"]
        assert len(result["entities"]) == 5
        assert result["distances"] == sorted(result["distances"])
        assert set(result) == {"entities", "names", "distances", "probabilities"}

    def test_post_aggregate_envelope(self, http_service, dataset):
        base, _ = http_service
        graph, world = dataset
        user = graph.entities.name_of(world.members("user")[0])
        status, payload, _ = _post(
            f"{base}/v1/query",
            {"entity": user, "relation": "likes", "mode": "aggregate",
             "agg": "count", "p_tau": 0.25},
        )
        assert status == 200
        assert payload["meta"]["mode"] == "aggregate"
        assert payload["result"]["kind"] == "count"
        assert payload["result"]["ball_size"] >= payload["result"]["accessed"]

    def test_get_v1_query_and_cached_flag(self, http_service, dataset):
        base, _ = http_service
        graph, world = dataset
        user = graph.entities.name_of(world.members("user")[1])
        url = f"{base}/v1/query?entity={user}&relation=likes&k=4"
        status, first, _ = _get(url)
        assert status == 200 and first["meta"]["cached"] is False
        status, second, _ = _get(url)
        assert status == 200 and second["meta"]["cached"] is True
        assert second["result"] == first["result"]

    def test_native_json_types_and_strings_spell_the_same_spec(
        self, http_service, dataset
    ):
        base, _ = http_service
        graph, world = dataset
        user = world.members("user")[2]
        likes = graph.relations.id_of("likes")
        _, native, _ = _post(
            f"{base}/v1/query", {"entity": user, "relation": likes, "k": 3}
        )
        _, strings, _ = _post(
            f"{base}/v1/query",
            {"entity": str(user), "relation": str(likes), "k": "3"},
        )
        assert _canonical(native["result"]) == _canonical(strings["result"])


class TestLegacyParity:
    def test_legacy_kind_parameter_still_selects_aggregate(
        self, http_service, dataset
    ):
        base, _ = http_service
        graph, world = dataset
        user = graph.entities.name_of(world.members("user")[5])
        status, payload, _ = _post(
            f"{base}/v1/query",
            {"entity": user, "relation": "likes", "kind": "count", "p_tau": 0.2},
        )
        assert status == 200
        assert payload["meta"]["mode"] == "aggregate"


class TestErrorCodes:
    def test_missing_entity_is_bad_request(self, http_service):
        base, _ = http_service
        status, payload, _ = _post(f"{base}/v1/query", {"relation": "likes"})
        assert status == 400
        assert payload["result"] is None
        assert payload["error"]["code"] == "bad_request"
        assert "entity" in payload["error"]["message"]

    def test_unknown_name_is_bad_request(self, http_service):
        base, _ = http_service
        status, payload, _ = _post(
            f"{base}/v1/query", {"entity": "nobody:0", "relation": "likes"}
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_invalid_spec_is_bad_request(self, http_service, dataset):
        base, _ = http_service
        graph, world = dataset
        user = graph.entities.name_of(world.members("user")[0])
        status, payload, _ = _post(
            f"{base}/v1/query",
            {"entity": user, "relation": "likes", "direction": "sideways"},
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"

    def test_malformed_body_is_bad_request(self, http_service):
        base, _ = http_service
        request = urllib.request.Request(
            f"{base}/v1/query", data=b"[1, 2]", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400
        payload = json.loads(err.value.read())
        assert payload["error"]["code"] == "bad_request"

    def test_post_elsewhere_is_not_found(self, http_service):
        base, _ = http_service
        status, payload, _ = _post(f"{base}/topk", {"entity": 0})
        assert status == 404
