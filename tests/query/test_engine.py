"""Tests for the QueryEngine facade."""

import numpy as np
import pytest

from repro.embedding.transh import TransH
from repro.errors import QueryError
from repro.index.linear import ExhaustiveScan
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.spec import QuerySpec


def test_from_graph_index_variants(dataset, model):
    graph, _ = dataset
    from repro.index.bulkload import BulkLoadedRTree
    from repro.index.cracking import CrackingRTree
    from repro.index.topk_splits import TopKSplitsRTree

    engine = QueryEngine.from_graph(graph, EngineConfig(index="bulk"), model=model)
    assert isinstance(engine.index, BulkLoadedRTree)
    engine = QueryEngine.from_graph(graph, EngineConfig(index="cracking"), model=model)
    assert isinstance(engine.index, CrackingRTree)
    engine = QueryEngine.from_graph(graph, EngineConfig(index="topk3"), model=model)
    assert isinstance(engine.index, TopKSplitsRTree)
    assert engine.index.num_choices == 3
    with pytest.raises(QueryError):
        QueryEngine.from_graph(graph, EngineConfig(index="nope"), model=model)


def test_rejects_non_spatial_model(dataset):
    graph, _ = dataset
    transh = TransH(graph.num_entities, graph.num_relations, dim=8, seed=0)
    with pytest.raises(QueryError):
        QueryEngine.from_graph(graph, EngineConfig(), model=transh)


def test_topk_tails_excludes_known_edges(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    user = world.members("user")[0]
    known = graph.tails(user, likes)
    result = engine.execute(QuerySpec(entity=user, relation=likes, k=10)).topk
    assert not set(result.entities) & set(known)
    assert user not in result.entities


def test_topk_heads_excludes_known_edges(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    movie = world.members("movie")[0]
    known = graph.heads(movie, likes)
    result = engine.execute(QuerySpec(entity=movie, relation=likes, direction="head", k=10)).topk
    assert not set(result.entities) & set(known)
    assert movie not in result.entities


def test_index_matches_exhaustive_ground_truth(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    agreements = []
    for user in world.members("user")[:10]:
        spec = QuerySpec(entity=user, relation=likes, k=5)
        truth = set(engine.exact_topk(spec).entities)
        got = set(engine.execute(spec).topk.entities)
        agreements.append(len(truth & got) / 5)
    assert np.mean(agreements) >= 0.9


def test_heads_direction_matches_exhaustive(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    agreements = []
    for movie in world.members("movie")[:10]:
        spec = QuerySpec(entity=movie, relation=likes, direction="head", k=5)
        truth = set(engine.exact_topk(spec).entities)
        got = set(engine.execute(spec).topk.entities)
        agreements.append(len(truth & got) / 5)
    assert np.mean(agreements) >= 0.9


def test_probabilities_anchored_and_decreasing(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    result = engine.execute(QuerySpec(entity=world.members("user")[0], relation=likes, k=5)).topk
    probs = engine.probabilities(result)
    assert probs[0] == 1.0
    assert list(probs) == sorted(probs, reverse=True)
    assert engine.probabilities(
        type(result)((), (), 0, float("inf"), None)
    ) == ()


def test_repeated_queries_reuse_index(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    user = world.members("user")[0]
    engine.execute(QuerySpec(entity=user, relation=likes, k=5))
    splits_after_first = engine.index.splits_performed
    engine.execute(QuerySpec(entity=user, relation=likes, k=5))
    assert engine.index.splits_performed == splits_after_first


@pytest.mark.parametrize("typed", [False, True])
def test_exact_topk_equals_exhaustive_scan(engine, dataset, typed):
    """The exact path: its ids are the exhaustive scan's, ties broken by
    id, for seeded typed and untyped specs."""
    graph, world = dataset
    relations = [graph.relations.id_of(name) for name in ("likes", "dislikes")]
    scan = ExhaustiveScan(engine.s1_vectors, vectorized=True)
    rng = np.random.default_rng(23)
    for _ in range(50):
        entity = int(rng.integers(graph.num_entities))
        relation = relations[int(rng.integers(len(relations)))]
        direction = "tail" if rng.random() < 0.5 else "head"
        k = int(rng.choice([1, 5, 10, 20]))
        entity_type = str(rng.choice(["movie", "user"])) if typed else None
        spec = QuerySpec(
            entity=entity, relation=relation, direction=direction, k=k,
            entity_type=entity_type,
        )
        result = engine.exact_topk(spec)
        if direction == "tail":
            point = engine.model.tail_query_point(entity, relation)
            banned = graph.tails(entity, relation) | {entity}
        else:
            point = engine.model.head_query_point(entity, relation)
            banned = graph.heads(entity, relation) | {entity}
        if entity_type is not None:
            banned |= frozenset(range(graph.num_entities)) - graph.entities_of_type(
                entity_type
            )
        want = scan.topk(point, k, banned)
        assert result.entities == tuple(e for e, _ in want)
        assert result.distances == pytest.approx([d for _, d in want], rel=1e-12)


def test_exact_topk_rejects_unknown_type(engine, dataset):
    graph, world = dataset
    spec = QuerySpec(
        entity=world.members("user")[0], relation=graph.relations.id_of("likes"),
        entity_type="robot",
    )
    with pytest.raises(QueryError, match="robot"):
        engine.exact_topk(spec)
