"""Tests for batch query execution."""

import pytest

from repro.errors import QueryError, ServiceError
from repro.query.batch import BatchQuery, run_batch
from repro.query.spec import QuerySpec


@pytest.fixture
def queries(dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    users = world.members("user")[:6]
    movies = world.members("movie")[:2]
    return (
        [BatchQuery(u, likes, "tail") for u in users]
        + [BatchQuery(m, likes, "head") for m in movies]
        + [BatchQuery(users[0], likes, "tail")]  # duplicate
    )


def test_batch_results_in_input_order(engine, queries):
    report = run_batch(engine, queries, k=5)
    assert len(report.results) == len(queries)
    for query, result in zip(queries, report.results):
        spec = QuerySpec(
            entity=query.entity, relation=query.relation, direction=query.direction, k=5
        )
        expected = engine.execute(spec).topk
        assert result.entities == expected.entities


def test_batch_dedupes(engine, queries):
    report = run_batch(engine, queries, k=3)
    assert report.total_queries == len(queries)
    assert report.unique_executed == len(queries) - 1
    assert report.dedup_ratio < 1.0
    # Duplicate queries share the identical result object.
    assert report.results[0] is report.results[-1]


def test_batch_empty(engine):
    report = run_batch(engine, [], k=3)
    assert report.results == []
    assert report.dedup_ratio == 1.0


def test_batch_validates_direction(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    with pytest.raises(QueryError):
        run_batch(engine, [BatchQuery(0, likes, "sideways")], k=3)


def test_batch_counts_points(engine, queries):
    report = run_batch(engine, queries, k=3)
    assert report.points_examined > 0


def test_batch_accepts_specs_with_their_own_k(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    users = world.members("user")[:3]
    items = [
        QuerySpec(entity=users[0], relation=likes, k=7),
        BatchQuery(users[1], likes, "tail"),
        QuerySpec(entity=users[2], relation=likes, direction="head", k=2),
    ]
    report = run_batch(engine, items, k=4)
    assert len(report.results[0].entities) == 7  # spec keeps its own k
    assert len(report.results[1].entities) == 4  # BatchQuery takes the arg
    assert len(report.results[2].entities) == 2


def test_batch_rejects_aggregate_specs(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    agg = QuerySpec(
        entity=world.members("user")[0], relation=likes, mode="aggregate",
        agg="count",
    )
    with pytest.raises(ServiceError, match="top-k specs only"):
        run_batch(engine, [agg], k=3)


def test_batch_rejects_foreign_items(engine):
    with pytest.raises(QueryError, match="BatchQuery or QuerySpec"):
        run_batch(engine, [("user:0", "likes")], k=3)
