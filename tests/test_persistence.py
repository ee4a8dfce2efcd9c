"""Tests for engine persistence (save_engine / load_engine)."""

import json

import numpy as np
import pytest

from repro.embedding.pretrained import PretrainedEmbedding
from repro.errors import IndexError_, ReproError
from repro.index.bulkload import BulkLoadedRTree
from repro.index.cracking import CrackingRTree
from repro.index.topk_splits import TopKSplitsRTree
from repro.kg.generators import movielens_like
from repro.persistence import load_engine, save_engine
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.spec import QuerySpec
from repro.resilience.chaos import ChaosController, activate
from repro.resilience.degrade import DegradationLadder
from repro.shard import ShardedEngine


@pytest.fixture(scope="module")
def engine():
    graph, world = movielens_like(
        num_users=50, num_movies=100, num_genres=5, num_tags=10, num_ratings=700,
        seed=4,
    )
    model = PretrainedEmbedding.from_world(graph, world, dim=24, seed=0)
    return QueryEngine.from_graph(
        graph, EngineConfig(index="cracking", epsilon=0.5, alpha=3), model=model
    )


def test_roundtrip_preserves_answers(tmp_path, engine):
    save_engine(engine, tmp_path / "artifact")
    restored = load_engine(tmp_path / "artifact")
    likes = engine.graph.relations.id_of("likes")
    for i in range(5):
        user = engine.graph.entities.id_of(f"user:{i}")
        original = engine.execute(QuerySpec(entity=user, relation=likes, k=5)).topk
        loaded = restored.execute(
            QuerySpec(
                entity=restored.graph.entities.id_of(f"user:{i}"),
                relation=restored.graph.relations.id_of("likes"),
                k=5,
            )
        ).topk
        assert original.entities == loaded.entities
        assert np.allclose(original.distances, loaded.distances)


def test_roundtrip_preserves_graph(tmp_path, engine):
    save_engine(engine, tmp_path / "artifact")
    restored = load_engine(tmp_path / "artifact")
    assert restored.graph.num_entities == engine.graph.num_entities
    assert restored.graph.num_relations == engine.graph.num_relations
    assert restored.graph.num_triples == engine.graph.num_triples
    # Entity ids and names round-trip exactly.
    for i in range(0, engine.graph.num_entities, 17):
        assert restored.graph.entities.name_of(i) == engine.graph.entities.name_of(i)


def test_roundtrip_preserves_attributes_and_types(tmp_path, engine):
    save_engine(engine, tmp_path / "artifact")
    restored = load_engine(tmp_path / "artifact")
    movie = engine.graph.entities.id_of("movie:0")
    assert restored.graph.attributes.get("year", movie) == engine.graph.attributes.get(
        "year", movie
    )
    assert restored.graph.entity_type(movie) == "movie"


def test_roundtrip_preserves_config(tmp_path, engine):
    save_engine(engine, tmp_path / "artifact")
    restored = load_engine(tmp_path / "artifact")
    assert restored.transform.alpha == engine.transform.alpha
    assert restored.epsilon == engine.epsilon
    assert np.allclose(np.asarray(restored.transform.matrix),
                       np.asarray(engine.transform.matrix))


def test_load_rejects_unknown_format(tmp_path, engine):
    save_engine(engine, tmp_path / "artifact")
    meta_path = tmp_path / "artifact" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["format_version"] = 999
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ReproError):
        load_engine(tmp_path / "artifact")


def test_aggregates_survive_roundtrip(tmp_path, engine):
    save_engine(engine, tmp_path / "artifact")
    restored = load_engine(tmp_path / "artifact")
    likes = engine.graph.relations.id_of("likes")
    user = engine.graph.entities.id_of("user:1")
    a = engine.execute(
        QuerySpec(
            entity=user, relation=likes, mode="aggregate", agg="avg", attribute="year", p_tau=0.2,
        )
    ).aggregate
    b = restored.execute(
        QuerySpec(
            entity=user, relation=likes, mode="aggregate", agg="avg", attribute="year", p_tau=0.2,
        )
    ).aggregate
    assert a.value == pytest.approx(b.value)


# -- atomicity and torn-artifact rejection ----------------------------------


def test_save_is_atomic_when_writing_fails(tmp_path, engine, monkeypatch):
    """A crash mid-save must leave the previous artifact untouched and
    no temporary directory behind."""
    import repro.persistence as persistence

    artifact = tmp_path / "artifact"
    save_engine(engine, artifact)
    before = sorted(p.name for p in artifact.iterdir())

    def explode(engine, path, extra_meta):
        (path / "meta.json").write_text("{}")  # partial write, then crash
        raise OSError("disk died mid-save")

    monkeypatch.setattr(persistence, "_write_artifacts", explode)
    with pytest.raises(OSError, match="disk died"):
        save_engine(engine, artifact)

    assert sorted(p.name for p in artifact.iterdir()) == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]  # no .tmp leftovers
    load_engine(artifact)  # and the old artifact still loads


def test_overwrite_replaces_the_directory_wholesale(tmp_path, engine):
    artifact = tmp_path / "artifact"
    save_engine(engine, artifact)
    (artifact / "stale.bin").write_text("left over from another life")
    save_engine(engine, artifact)
    assert not (artifact / "stale.bin").exists()
    load_engine(artifact)


def test_keep_carries_named_files_across_a_save(tmp_path, engine):
    artifact = tmp_path / "artifact"
    save_engine(engine, artifact)
    (artifact / "updates.wal").write_text("precious log lines\n")
    save_engine(engine, artifact, keep={"updates.wal"})
    assert (artifact / "updates.wal").read_text() == "precious log lines\n"


def test_load_rejects_missing_artifact_with_clear_message(tmp_path):
    with pytest.raises(ReproError, match="meta.json is missing"):
        load_engine(tmp_path / "nope")


def test_load_rejects_invalid_meta_json(tmp_path, engine):
    artifact = tmp_path / "artifact"
    save_engine(engine, artifact)
    (artifact / "meta.json").write_text("{not json")
    with pytest.raises(ReproError, match="not valid JSON"):
        load_engine(artifact)


def test_load_rejects_missing_format_version(tmp_path, engine):
    artifact = tmp_path / "artifact"
    save_engine(engine, artifact)
    meta = json.loads((artifact / "meta.json").read_text())
    del meta["format_version"]
    (artifact / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ReproError, match="format version"):
        load_engine(artifact)


def test_load_rejects_missing_required_keys(tmp_path, engine):
    artifact = tmp_path / "artifact"
    save_engine(engine, artifact)
    meta = json.loads((artifact / "meta.json").read_text())
    del meta["alpha"], meta["index"]
    (artifact / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ReproError, match="missing required keys"):
        load_engine(artifact)


def test_load_rejects_torn_artifact_without_arrays(tmp_path, engine):
    artifact = tmp_path / "artifact"
    save_engine(engine, artifact)
    (artifact / "arrays.npz").unlink()
    with pytest.raises(ReproError, match="torn"):
        load_engine(artifact)


def test_sharded_engine_saves_its_shard_trees_variant(tmp_path, engine):
    native = QueryEngine.from_graph(
        engine.graph, EngineConfig(index="topk2", epsilon=0.5, alpha=3), model=engine.model
    )
    sharded = ShardedEngine.from_engine(native, shards=2, backend="thread")
    try:
        save_engine(sharded, tmp_path / "artifact")
    finally:
        sharded.close()
    meta = json.loads((tmp_path / "artifact" / "meta.json").read_text())
    assert meta["index"] == "topk2"
    restored = load_engine(tmp_path / "artifact")
    assert isinstance(restored.index, TopKSplitsRTree)
    assert restored.index.num_choices == 2


def test_degraded_engine_saves_its_native_variant(tmp_path, engine):
    """A checkpoint taken while the ladder serves from a bulk tree must
    not turn the artifact's cracking index into a bulk one for good."""
    degraded = QueryEngine.from_graph(
        engine.graph, EngineConfig(index="cracking", epsilon=0.5, alpha=3), model=engine.model
    )
    ladder = DegradationLadder()
    controller = ChaosController(seed=0)
    controller.on("engine.topk", exc=IndexError_, max_fires=1)
    likes = engine.graph.relations.id_of("likes")
    with activate(controller):
        ladder.run_topk(degraded, QuerySpec(entity=0, relation=likes, k=5))
    assert isinstance(degraded.index, BulkLoadedRTree)
    save_engine(degraded, tmp_path / "artifact")
    restored = load_engine(tmp_path / "artifact")
    assert isinstance(restored.index, CrackingRTree)
