"""Persistence of trained artifacts: graph, embedding, transform, config.

An engine's expensive state is the embedding and the JL projection
matrix; the cracking index is deliberately *not* persisted — it is
query-workload state that rebuilds itself for free (that is the entire
point of the paper). :func:`save_engine` therefore writes:

- ``graph.tsv`` / ``attributes.tsv`` / ``types.json`` — the knowledge
  graph (triples, entity attributes, entity type tags);
- ``arrays.npz`` — entity matrix, relation matrix, projection matrix;
- ``meta.json`` — engine configuration (alpha, epsilon, index variant,
  tree parameters).

:func:`load_engine` restores a fully functional engine whose answers are
bit-identical to the saved one's (same vectors, same projection).

Saves are **atomic at the directory level**: artifacts are written into
a temporary sibling directory and renamed into place, so a crash mid-save
can never leave a torn ``arrays.npz``/``meta.json`` pair — the artifact
directory is always either the complete old version or the complete new
one.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import numpy as np

from repro.embedding.pretrained import PretrainedEmbedding
from repro.errors import ReproError
from repro.index.store import PointStore
from repro.index.variants import build_index
from repro.kg.graph import KnowledgeGraph
from repro.kg.io import load_attributes, load_triples, save_attributes, save_triples
from repro.query.engine import QueryEngine
from repro.transform.jl import JLTransform

_FORMAT_VERSION = 1


def save_engine(
    engine: QueryEngine,
    directory: str | os.PathLike[str],
    extra_meta: dict | None = None,
    keep: set[str] | None = None,
) -> None:
    """Persist ``engine`` (graph + embedding + transform + config).

    The write is atomic: everything lands in a ``<directory>.tmp.<pid>``
    sibling first and is renamed over ``directory``. ``extra_meta``
    entries are merged into ``meta.json`` (used by the WAL to record the
    last compacted LSN); ``keep`` names files of an *existing* artifact
    directory to carry over into the new one (e.g. the live WAL).
    """
    final = Path(directory)
    final.parent.mkdir(parents=True, exist_ok=True)
    tmp = final.parent / f"{final.name}.tmp.{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    try:
        _write_artifacts(engine, tmp, extra_meta)
        if final.exists():
            for name in keep or ():
                source = final / name
                if source.exists():
                    shutil.copy2(source, tmp / name)
            trash = final.parent / f"{final.name}.old.{os.getpid()}"
            if trash.exists():
                shutil.rmtree(trash)
            os.rename(final, trash)
            os.rename(tmp, final)
            shutil.rmtree(trash)
        else:
            os.rename(tmp, final)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _write_artifacts(engine: QueryEngine, path: Path, extra_meta: dict | None) -> None:
    graph = engine.graph
    save_triples(graph, path / "graph.tsv")
    save_attributes(graph, path / "attributes.tsv")
    types = {
        graph.entities.name_of(e): t
        for e in range(graph.num_entities)
        if (t := graph.entity_type(e)) is not None
    }
    (path / "types.json").write_text(json.dumps(types))
    np.savez_compressed(
        path / "arrays.npz",
        entities=engine.model.entity_vectors(),
        relations=engine.model.relation_vectors(),
        projection=np.asarray(engine.transform.matrix),
        entity_names=np.array(list(graph.entities), dtype=object),
        relation_names=np.array(list(graph.relations), dtype=object),
    )
    meta = {
        "format_version": _FORMAT_VERSION,
        "graph_name": graph.name,
        "alpha": engine.transform.alpha,
        "epsilon": engine.epsilon,
        "index": engine.variant,
        "leaf_capacity": engine.index.leaf_capacity,
        "fanout": engine.index.fanout,
        "beta": engine.index.beta,
    }
    meta.update(extra_meta or {})
    (path / "meta.json").write_text(json.dumps(meta, indent=2))


def load_engine(directory: str | os.PathLike[str]) -> QueryEngine:
    """Restore an engine saved by :func:`save_engine`.

    The embedding comes back as a frozen
    :class:`~repro.embedding.pretrained.PretrainedEmbedding` (training
    state such as optimiser momenta is not persisted); the JL projection
    is restored exactly, so S2 coordinates — and therefore all query
    answers — match the saved engine's.
    """
    path = Path(directory)
    meta_path = path / "meta.json"
    if not meta_path.exists():
        raise ReproError(
            f"{os.fspath(directory)!r} is not an engine artifact: meta.json is missing "
            "(was the save interrupted, or is this the wrong directory?)"
        )
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise ReproError(f"meta.json is not valid JSON: {exc}") from exc
    version = meta.get("format_version")
    if version != _FORMAT_VERSION:
        raise ReproError(
            f"unsupported artifact format version {version!r} "
            f"(this build reads version {_FORMAT_VERSION}); "
            "missing version means the artifact is damaged or foreign"
        )
    required = ("graph_name", "alpha", "epsilon", "index", "leaf_capacity", "fanout", "beta")
    missing = [key for key in required if key not in meta]
    if missing:
        raise ReproError(f"meta.json is missing required keys: {missing}")
    arrays_path = path / "arrays.npz"
    if not arrays_path.exists():
        raise ReproError("artifact is torn: meta.json present but arrays.npz missing")
    with np.load(arrays_path, allow_pickle=True) as arrays:
        entities = arrays["entities"]
        relations = arrays["relations"]
        projection = arrays["projection"]
        entity_names = [str(n) for n in arrays["entity_names"]]
        relation_names = [str(n) for n in arrays["relation_names"]]

    graph = KnowledgeGraph(name=meta["graph_name"])
    # Register names first so ids match the saved matrices even for
    # entities that appear in no triple.
    for name in entity_names:
        graph.add_entity(name)
    for name in relation_names:
        graph.add_relation(name)
    load_triples(path / "graph.tsv", graph=graph)
    load_attributes(graph, path / "attributes.tsv")
    types = json.loads((path / "types.json").read_text())
    for name, type_name in types.items():
        graph.set_entity_type(graph.entities.id_of(name), type_name)

    model = PretrainedEmbedding(entities, relations)
    transform = _transform_from_matrix(projection)
    store = PointStore(transform(entities))
    index = build_index(
        meta["index"], store, leaf_capacity=meta["leaf_capacity"],
        fanout=meta["fanout"], beta=meta["beta"],
    )
    return QueryEngine(graph, model, transform, index, epsilon=meta["epsilon"])


def _transform_from_matrix(matrix: np.ndarray) -> JLTransform:
    """Rebuild a JLTransform around a stored (scaled) projection matrix."""
    transform = JLTransform(matrix.shape[1], matrix.shape[0], seed=0)
    transform._matrix = np.array(matrix, dtype=np.float64)
    return transform
