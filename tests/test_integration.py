"""End-to-end integration tests across all layers.

These exercise the full pipeline — generator -> embedding training ->
JL transform -> cracking index -> query processing -> dynamic updates —
the way a downstream user would, rather than module by module.
"""

import numpy as np
import pytest

from repro import EngineConfig, TrainConfig
from repro.bench.metrics import precision_at_k
from repro.dynamic.updater import OnlineUpdater
from repro.embedding.evaluation import evaluate_ranking
from repro.embedding.pretrained import PretrainedEmbedding
from repro.embedding.trainer import train_model
from repro.kg.generators import amazon_like, freebase_like, movielens_like
from repro.kg.sampling import split_triples
from repro.query.engine import QueryEngine
from repro.query.spec import QuerySpec
from repro.query.vkg import VirtualKnowledgeGraph


@pytest.fixture(scope="module")
def movie():
    return movielens_like(
        num_users=150, num_movies=300, num_genres=8, num_tags=30, num_ratings=3000,
        seed=6,
    )


def test_full_pipeline_with_trained_transe(movie):
    """Train TransE end to end and verify the indexed query path agrees
    with the exhaustive path on the *trained* embedding."""
    graph, _ = movie
    result = train_model(graph, TrainConfig(dim=24, epochs=25, seed=0))
    engine = QueryEngine.from_graph(
        graph, EngineConfig(index="cracking", epsilon=1.0), model=result.model
    )
    likes = graph.relations.id_of("likes")
    precisions = []
    for i in range(12):
        user = graph.entities.id_of(f"user:{i}")
        spec = QuerySpec(entity=user, relation=likes, k=5)
        truth = engine.exact_topk(spec).entities
        got = engine.execute(spec).topk.entities
        precisions.append(precision_at_k(truth, got))
    assert np.mean(precisions) >= 0.9


def test_masked_edge_recovery(movie):
    """The paper's evaluation protocol: mask edges, train on the rest,
    and check the masked tails rank well among all entities."""
    graph, world = movie
    train, test = split_triples(graph, test_fraction=0.05, seed=1)
    masked_graph = graph.subgraph_without(test)
    model = PretrainedEmbedding.from_world(masked_graph, world, dim=32, seed=0)
    report = evaluate_ranking(model, masked_graph, test, max_triples=30)
    # The frozen ground-truth embedding should rank held-out edges
    # clearly better than random (random mean rank ~ num_entities / 2);
    # within-community order is noise, so the improvement is a factor,
    # not a collapse to rank 1.
    assert report.mean_rank < masked_graph.num_entities / 3
    assert report.hits_at_10 > 0.1


def test_vkg_facade_end_to_end(movie):
    graph, world = movie
    model = PretrainedEmbedding.from_world(graph, world, dim=32, seed=0)
    engine = QueryEngine.from_graph(graph, EngineConfig(index="topk2"), model=model)
    vkg = VirtualKnowledgeGraph(graph, engine)
    edges = vkg.top_tails("user:0", "likes", k=5, tail_type="movie")
    assert len(edges) == 5
    estimate = vkg.aggregate("avg", "year", head="user:0", relation="likes", p_tau=0.2)
    assert 1930 <= estimate.value <= 2018
    ball = vkg.likely_tails("user:0", "likes", p_tau=0.5)
    assert all(e.probability >= 0.5 for e in ball)


def test_dynamic_updates_keep_index_consistent(movie):
    """Interleave queries and updates; the index must stay equivalent to
    brute force over the evolving entity set."""
    graph, world = movie
    result = train_model(graph, TrainConfig(dim=16, epochs=8, seed=0))
    engine = QueryEngine.from_graph(
        graph, EngineConfig(index="cracking", epsilon=1.0), model=result.model
    )
    updater = OnlineUpdater(engine, local_epochs=3, seed=0)
    likes = graph.relations.id_of("likes")
    rng = np.random.default_rng(0)
    for step in range(10):
        user = graph.entities.id_of(f"user:{int(rng.integers(0, 150))}")
        top = engine.execute(QuerySpec(entity=user, relation=likes, k=3)).topk
        if step % 2 == 0 and top.entities:
            updater.add_edge(user, likes, top.entities[0])
        spec = QuerySpec(entity=user, relation=likes, k=3)
        truth = engine.exact_topk(spec).entities
        got = engine.execute(spec).topk.entities
        assert precision_at_k(truth, got) >= 2 / 3


def test_all_three_datasets_build_and_answer():
    """Smoke: every generator feeds the whole pipeline."""
    for maker, kwargs, relation in (
        (freebase_like, dict(num_entities=400, num_relations=12, num_edges=1500),
         "/people/person/profession"),
        (movielens_like,
         dict(num_users=60, num_movies=120, num_genres=6, num_tags=12,
              num_ratings=800), "likes"),
        (amazon_like,
         dict(num_users=60, num_products=120, num_ratings=700,
              num_coview_edges=200), "likes"),
    ):
        graph, world = maker(**kwargs)
        model = PretrainedEmbedding.from_world(graph, world, dim=24, seed=0)
        engine = QueryEngine.from_graph(
            graph, EngineConfig(index="cracking"), model=model
        )
        rel = graph.relations.id_of(relation)
        triple = next(t for t in graph.triples() if t.relation == rel)
        result = engine.execute(QuerySpec(entity=triple.head, relation=rel, k=3)).topk
        assert len(result) == 3
        count = engine.execute(
            QuerySpec(entity=triple.head, relation=rel, mode="aggregate", agg="count", p_tau=0.3)
        ).aggregate
        assert count.value >= 0


def test_counters_show_index_examines_fewer_points(movie):
    """The motivation in numbers: indexed queries touch a fraction of
    the entities the exhaustive scan touches."""
    graph, world = movie
    model = PretrainedEmbedding.from_world(graph, world, dim=32, seed=0)
    engine = QueryEngine.from_graph(graph, EngineConfig(index="cracking"), model=model)
    likes = graph.relations.id_of("likes")
    fractions = []
    for i in range(10):
        user = graph.entities.id_of(f"user:{i}")
        result = engine.execute(QuerySpec(entity=user, relation=likes, k=5)).topk
        fractions.append(result.points_examined / graph.num_entities)
    assert np.mean(fractions) < 0.7
