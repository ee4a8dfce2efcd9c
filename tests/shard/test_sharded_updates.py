"""Dynamic updates against a sharded engine: routing, rebuilds, growth."""

import numpy as np

from repro.dynamic.updater import OnlineUpdater
from repro.embedding.pretrained import PretrainedEmbedding
from repro.index.bulkload import BulkLoadedRTree
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.spec import QuerySpec
from repro.shard import ShardedEngine


def _probe_spec(dataset, k=5):
    graph, world = dataset
    return QuerySpec(
        entity=world.members("user")[0],
        relation=graph.relations.id_of("likes"),
        k=k,
    )


def test_delete_and_reinsert_roundtrip(dataset, make_engine, make_sharded):
    spec = _probe_spec(dataset)
    want = make_engine().execute(spec).topk
    sharded = make_sharded(shards=4)
    victim = want.entities[0]
    home = sharded._shard_of(victim)

    assert sharded.index.delete(victim) is True
    assert victim not in sharded.execute(spec).topk.entities
    assert victim not in sharded.shard_ids(home)
    # Deleting an id that no shard owns is a no-op, not an error.
    assert sharded.index.delete(victim) is False

    sharded.index.insert(victim)
    assert sharded._shard_of(victim) == home  # routing is deterministic
    assert sharded.execute(spec).topk.entities == want.entities
    sharded.validate()


def test_rebuild_native_preserves_answers(dataset, make_sharded):
    spec = _probe_spec(dataset)
    sharded = make_sharded(shards=4)
    want = sharded.execute(spec).topk
    assert sharded.rebuild() == "cracking"
    got = sharded.execute(spec).topk
    assert got.entities == want.entities
    assert got.distances == want.distances


def test_rebuild_supports_the_bulk_fallback(dataset, make_sharded):
    """The degradation ladder's bulk rung swaps every shard's tree for a
    bulk-loaded one; answers must survive the swap, and the engine keeps
    its native variant."""
    spec = _probe_spec(dataset)
    sharded = make_sharded(shards=4)
    want = sharded.execute(spec).topk
    assert sharded.rebuild("bulk") == "bulk"
    assert all(isinstance(e.index, BulkLoadedRTree) for e in sharded._shard_engines)
    assert sharded.variant == "cracking"
    assert sharded.execute(spec).topk.entities == want.entities
    sharded.validate()


def _private_world():
    """A fresh graph+model copy for tests that mutate shared state."""
    from repro.kg.generators import movielens_like

    graph, world = movielens_like(
        num_users=120, num_movies=260, num_genres=8, num_tags=24,
        num_ratings=2400, seed=5,
    )
    return graph, world, PretrainedEmbedding.from_world(graph, world, dim=32, seed=0)


def test_vector_update_reindexes_through_the_router():
    graph, world, model = _private_world()
    sharded = ShardedEngine.from_engine(
        QueryEngine.from_graph(
            graph, EngineConfig(index="cracking", epsilon=1.0), model=model
        ),
        shards=4,
    )
    try:
        updater = OnlineUpdater(sharded, seed=0)
        entity = world.members("movie")[0]
        home = sharded._shard_of(entity)
        vector = np.array(model.entity_vectors()[entity]) * 1.05
        updater.set_entity_vector(entity, vector)
        assert np.allclose(model.entity_vectors()[entity], vector)
        # The re-index routed through the owning shard's lane.
        assert sharded._shard_of(entity) == home
        sharded.validate()
    finally:
        sharded.close()


def test_added_entity_routes_to_its_shard():
    graph, world, model = _private_world()
    sharded = ShardedEngine.from_engine(
        QueryEngine.from_graph(
            graph, EngineConfig(index="cracking", epsilon=1.0), model=model
        ),
        shards=4,
    )
    try:
        before = sharded.index.store.size
        updater = OnlineUpdater(sharded, seed=0)
        entity = updater.add_entity("user:new", near=world.members("user")[0])
        assert sharded.index.store.size == before + 1
        home = sharded._shard_of(entity)
        assert home in range(sharded.num_shards)
        assert entity in sharded.shard_ids(home)
        sharded.validate()
    finally:
        sharded.close()
