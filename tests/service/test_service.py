"""QueryService façade: caching, invalidation, and backpressure."""

import threading
import time

import pytest

from repro.dynamic.updater import OnlineUpdater
from repro.errors import DeadlineExceededError, QueueFullError, VocabularyError
from repro.index.rtree_base import RTreeBase
from repro.query.spec import QuerySpec
from repro.service.server import QueryService
from repro.shard.engine import ShardedEngine, ShardRouter


@pytest.fixture
def service(engine):
    with QueryService(engine, workers=2, max_queue=32) as svc:
        yield svc


def _a_user_and_relation(dataset):
    graph, world = dataset
    return world.members("user")[0], graph.relations.id_of("likes")


def test_topk_matches_direct_engine_call(make_engine, dataset):
    user, likes = _a_user_and_relation(dataset)
    baseline = make_engine().topk_tails(user, likes, 5)
    with QueryService(make_engine(), workers=2) as service:
        served = service.topk(user, likes, k=5)
    assert served.entities == baseline.entities
    assert served.distances == pytest.approx(baseline.distances)


def test_second_identical_query_is_a_cache_hit(service, dataset):
    user, likes = _a_user_and_relation(dataset)
    first = service.topk_detail(user, likes, k=5)
    second = service.topk_detail(user, likes, k=5)
    assert not first.cached
    assert second.cached
    assert second.result is first.result
    snap = service.metrics_snapshot()
    assert snap["counters"]["cache_hits"] == 1
    assert snap["counters"]["cache_misses"] == 1
    assert snap["cache"]["size"] == 1


def test_name_resolution_matches_ids(service, dataset):
    graph, world = dataset
    user, likes = _a_user_and_relation(dataset)
    by_name = service.topk(graph.entities.name_of(user), "likes", k=5)
    by_id = service.topk(user, likes, k=5)
    assert by_name.entities == by_id.entities


def test_unknown_entity_maps_to_vocabulary_error(service):
    with pytest.raises(VocabularyError):
        service.topk("no-such-entity", "likes", k=3)
    assert service.metrics_snapshot()["counters"]["errors"] >= 0


def test_aggregate_through_the_service(make_engine, dataset):
    user, likes = _a_user_and_relation(dataset)
    baseline_engine = make_engine()
    expected = baseline_engine.aggregate_tails(
        user, likes, "count", p_tau=0.25
    )
    with QueryService(make_engine(), workers=2) as service:
        estimate = service.aggregate(user, likes, "count", p_tau=0.25)
    assert estimate.kind == "count"
    assert estimate.value == pytest.approx(expected.value)


def test_edge_update_invalidates_exclusion_semantics(engine, dataset):
    """An added edge must disappear from E' answers immediately — the
    cached entry for the head entity is evicted, never served stale."""
    user, likes = _a_user_and_relation(dataset)
    with QueryService(engine, workers=1) as service:
        updater = OnlineUpdater(engine)
        service.attach_updater(updater)
        before = service.topk(user, likes, k=5)
        top_tail = before.entities[0]
        # Serve once more to prove it is cached.
        assert service.topk_detail(user, likes, k=5).cached
        # The predicted edge becomes a known fact -> excluded from E'.
        service.pool.execute(lambda eng: updater.add_edge(user, likes, top_tail))
        after_detail = service.topk_detail(user, likes, k=5)
        assert not after_detail.cached  # entry was evicted
        assert top_tail not in after_detail.result.entities
        assert service.metrics_snapshot()["counters"]["invalidations"] > 0


def test_vector_move_invalidates_geometrically(engine, dataset):
    """An entity whose vector moves INTO a cached query's region evicts
    that entry even though it appeared nowhere in the cached result."""
    graph, world = dataset
    user, likes = _a_user_and_relation(dataset)
    with QueryService(engine, workers=1) as service:
        updater = OnlineUpdater(engine)
        service.attach_updater(updater)
        before = service.topk(user, likes, k=5)
        # Pick a movie that is not in the current answer and teleport it
        # onto the query point: it must become the new top-1.
        target = engine.model.tail_query_point(user, likes)
        mover = next(
            m for m in world.members("movie")
            if m not in before.entities
            and m not in set(engine.graph.tails(user, likes))
        )
        service.pool.execute(
            lambda eng: updater.set_entity_vector(mover, target.copy())
        )
        after = service.topk_detail(user, likes, k=5)
        assert not after.cached
        assert after.result.entities[0] == mover
        assert after.result.distances[0] == pytest.approx(0.0, abs=1e-9)


def test_queue_full_and_deadline_surface_as_service_errors(engine):
    with QueryService(engine, workers=1, max_queue=1) as service:
        release = threading.Event()
        blocker = service.pool.submit(lambda eng: release.wait(5))
        time.sleep(0.05)  # let the worker pick up the blocker
        doomed = service.pool.submit(lambda eng: None, timeout=0.01)
        with pytest.raises(QueueFullError) as excinfo:
            service.topk(0, 0, k=3)
        assert excinfo.value.retry_after > 0
        time.sleep(0.05)  # let the doomed request's deadline lapse
        release.set()
        blocker.result(timeout=5)
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=5)
        counters = service.metrics_snapshot()["counters"]
        assert counters["rejected"] == 1


def test_typed_queries_bypass_the_cache(service, dataset):
    user, likes = _a_user_and_relation(dataset)
    first = service.topk_detail(user, likes, k=5, entity_type="movie")
    second = service.topk_detail(user, likes, k=5, entity_type="movie")
    assert not first.cached and not second.cached
    for entity in first.result.entities:
        assert service.engine.graph.entity_type(entity) == "movie"


@pytest.mark.parametrize("shards", [1, 2])
def test_serving_path_walks_no_tree_per_query(make_engine, dataset, monkeypatch, shards):
    """With tracing off, a served top-k never calls ``index.stats()``
    (a whole-tree walk; a scatter to every lane on a sharded engine)."""
    engine = make_engine()
    if shards > 1:
        engine = ShardedEngine.from_engine(engine, shards=shards, backend="thread")
    calls = []
    for owner in (RTreeBase, ShardRouter):
        original = owner.stats

        def counting(self, original=original):
            calls.append(type(self).__name__)
            return original(self)

        monkeypatch.setattr(owner, "stats", counting)
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    try:
        with QueryService(engine, workers=2) as service:
            for user in world.members("user")[:20]:
                result = service.execute(QuerySpec(entity=user, relation=likes, k=5))
                assert len(result.result.entities) == 5
    finally:
        if shards > 1:
            engine.close()
    assert calls == []
