"""Tests for the EXPLAIN-style query report."""

import pytest

from repro.errors import QueryError
from repro.query.spec import QuerySpec


def test_explain_counts_work(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    user = world.members("user")[0]
    explain = engine.explain(QuerySpec(entity=user, relation=likes, k=5))
    assert len(explain.result) == 5
    assert explain.elapsed_seconds > 0
    assert explain.points_examined > 0
    assert explain.scan_equivalent_points == graph.num_entities
    assert 0 < explain.examined_fraction < 1
    # The first query on a cracking index triggers splits.
    assert explain.splits_triggered > 0


def test_explain_second_query_triggers_fewer_splits(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    user = world.members("user")[1]
    first = engine.explain(QuerySpec(entity=user, relation=likes, k=5))
    second = engine.explain(QuerySpec(entity=user, relation=likes, k=5))
    assert second.splits_triggered <= first.splits_triggered
    assert second.splits_triggered == 0  # identical query: converged


def test_explain_head_direction(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    movie = world.members("movie")[0]
    explain = engine.explain(QuerySpec(entity=movie, relation=likes, direction="head", k=3))
    assert len(explain.result) == 3


def test_explain_validates_direction(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    with pytest.raises(QueryError):
        engine.explain(
            QuerySpec(entity=world.members("user")[0], relation=likes, direction="up", k=5)
        )


def test_explain_summary_is_readable(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    explain = engine.explain(QuerySpec(entity=world.members("user")[2], relation=likes, k=5))
    text = explain.summary()
    assert "entities" in text
    assert "splits" in text
    assert f"top-{len(explain.result)}" in text
