"""Tests for type-filtered top-k queries and threshold (ball) queries."""

import pytest

from repro.errors import QueryError
from repro.query.spec import QuerySpec
from repro.query.vkg import VirtualKnowledgeGraph


@pytest.fixture
def vkg(dataset, engine):
    graph, _ = dataset
    return VirtualKnowledgeGraph(graph, engine)


def test_typed_topk_returns_only_that_type(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    user = world.members("user")[0]
    result = engine.execute(QuerySpec(entity=user, relation=likes, k=5, entity_type="movie")).topk
    movies = set(world.members("movie"))
    assert len(result) == 5
    assert set(result.entities) <= movies


def test_typed_topk_is_consistent_with_filtered_exhaustive(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    user = world.members("user")[1]
    result = engine.execute(QuerySpec(entity=user, relation=likes, k=5, entity_type="movie")).topk
    # Filtered exhaustive ground truth.
    import numpy as np

    q = engine.model.tail_query_point(user, likes)
    movies = [m for m in world.members("movie")
              if m not in graph.tails(user, likes)]
    dists = np.linalg.norm(engine.s1_vectors[movies] - q, axis=1)
    truth = {movies[i] for i in np.argsort(dists)[:5]}
    assert len(truth & set(result.entities)) >= 4


def test_typed_topk_unknown_type_raises(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    with pytest.raises(QueryError):
        engine.execute(
            QuerySpec(entity=world.members("user")[0], relation=likes, k=5, entity_type="robot")
        )


def test_vkg_tail_type_facade(vkg):
    edges = vkg.top_tails("user:0", "likes", k=5, tail_type="movie")
    assert len(edges) == 5
    assert all(e.tail.startswith("movie:") for e in edges)


def test_vkg_head_type_facade(vkg):
    edges = vkg.top_heads("movie:0", "likes", k=5, head_type="user")
    assert all(e.head.startswith("user:") for e in edges)


def test_predict_ball_probabilities_above_threshold(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    user = world.members("user")[2]
    pairs = engine.predict_ball(user, likes, p_tau=0.3)
    assert pairs, "ball should contain at least the nearest entity"
    probs = [p for _, p in pairs]
    assert all(p >= 0.3 for p in probs)
    assert probs == sorted(probs, reverse=True)
    assert probs[0] == 1.0  # the closest entity anchors at probability 1


def test_predict_ball_shrinks_with_threshold(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    user = world.members("user")[3]
    loose = engine.predict_ball(user, likes, p_tau=0.2)
    tight = engine.predict_ball(user, likes, p_tau=0.6)
    assert len(tight) <= len(loose)
    assert {e for e, _ in tight} <= {e for e, _ in loose}


def test_predict_ball_excludes_known_edges(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    user = world.members("user")[4]
    pairs = engine.predict_ball(user, likes, p_tau=0.2)
    known = graph.tails(user, likes)
    assert not {e for e, _ in pairs} & set(known)


def test_predict_ball_validates_threshold(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    with pytest.raises(QueryError):
        engine.predict_ball(world.members("user")[0], likes, p_tau=0.0)
    with pytest.raises(QueryError):
        engine.predict_ball(world.members("user")[0], likes, p_tau=1.5)


def test_vkg_likely_tails_facade(vkg):
    edges = vkg.likely_tails("user:1", "likes", p_tau=0.4)
    assert all(e.probability >= 0.4 for e in edges)
    assert all(e.head == "user:1" for e in edges)


def test_typed_topk_sees_an_entity_tagged_after_a_typed_query():
    """The per-type row cache is dropped by set_entity_type: a typed
    query after the tag ranks the newly tagged entity."""
    import numpy as np

    from repro.embedding.pretrained import PretrainedEmbedding
    from repro.kg.generators import movielens_like
    from repro.query.engine import EngineConfig, QueryEngine

    graph, world = movielens_like(
        num_users=40, num_movies=80, num_genres=5, num_tags=10, num_ratings=600,
        seed=3,
    )
    model = PretrainedEmbedding.from_world(graph, world, dim=16, seed=0)
    engine = QueryEngine.from_graph(graph, EngineConfig(), model=model)
    likes = graph.relations.id_of("likes")
    user = world.members("user")[0]
    spec = QuerySpec(entity=user, relation=likes, k=5, entity_type="movie")
    before = engine.execute(spec).topk
    movies = graph.entities_of_type("movie")
    assert set(before.entities) <= movies

    # Tag the nearest eligible non-movie entity as a movie.
    q = engine.model.tail_query_point(user, likes)
    banned = graph.tails(user, likes) | {user} | movies
    order = np.argsort(np.linalg.norm(engine.s1_vectors - q, axis=1))
    newcomer = next(int(e) for e in order if int(e) not in banned)
    graph.set_entity_type(newcomer, "movie")

    assert newcomer in graph.entities_of_type("movie")
    assert newcomer in graph.type_rows("movie")
    after = engine.execute(spec).topk
    assert newcomer in after.entities
