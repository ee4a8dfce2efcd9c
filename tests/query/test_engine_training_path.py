"""Tests for QueryEngine.from_graph's training path (model=None)."""

import numpy as np

from repro import EngineConfig, TrainConfig
from repro.embedding.transe import TransE
from repro.kg.generators import movielens_like
from repro.query.engine import QueryEngine
from repro.query.spec import QuerySpec


def test_from_graph_trains_when_no_model_given():
    graph, _ = movielens_like(
        num_users=30, num_movies=60, num_genres=4, num_tags=6, num_ratings=300,
        seed=12,
    )
    config = EngineConfig(
        index="cracking",
        train=TrainConfig(dim=12, epochs=3, seed=0),
    )
    engine = QueryEngine.from_graph(graph, config)
    assert isinstance(engine.model, TransE)
    assert engine.model.dim == 12
    likes = graph.relations.id_of("likes")
    user = graph.entities.id_of("user:0")
    result = engine.execute(QuerySpec(entity=user, relation=likes, k=3)).topk
    assert len(result) == 3


def test_from_graph_respects_engine_seed_for_transform():
    graph, _ = movielens_like(
        num_users=30, num_movies=60, num_genres=4, num_tags=6, num_ratings=300,
        seed=12,
    )
    config = EngineConfig(seed=5, train=TrainConfig(dim=12, epochs=1, seed=0))
    a = QueryEngine.from_graph(graph, config)
    b = QueryEngine.from_graph(graph, config)
    assert np.allclose(np.asarray(a.transform.matrix), np.asarray(b.transform.matrix))
    assert np.allclose(a.index.store.coords, b.index.store.coords)


def test_engine_config_defaults_are_paper_defaults():
    config = EngineConfig()
    assert config.alpha == 3  # the paper's default S2 dimensionality
    assert config.index == "cracking"
    assert config.train.dim == 50  # the paper's smaller embedding size
