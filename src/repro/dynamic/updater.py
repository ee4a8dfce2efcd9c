"""Incremental updates to a virtual knowledge graph.

The update cycle for an added or removed edge ``(h, r, t)``:

1. **Graph** — the triple is added to / removed from ``E`` (which also
   flips the query semantics for that pair: a known edge is excluded
   from E'-queries, a removed one becomes predictable again).
2. **Embedding** — a bounded number of local margin-ranking SGD steps
   run over the triples incident to ``h`` and ``t`` (with fresh negative
   samples), nudging only the local neighbourhood: the paper's intuition
   that "when there are local updates, the embedding changes should be
   local too".
3. **Index** — every entity whose S1 vector moved beyond a tolerance is
   deleted from the cracking R-tree, its S2 row is re-projected in
   place, and it is re-inserted. New entities are appended to the store
   and inserted directly.

The updater requires a trainable model (one exposing ``sgd_step``, e.g.
:class:`~repro.embedding.transe.TransE`). Frozen models
(:class:`~repro.embedding.pretrained.PretrainedEmbedding`) can still use
:meth:`OnlineUpdater.set_entity_vector` to apply externally computed
vector changes through the same delete/re-project/insert cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import QueryError
from repro.kg.graph import KnowledgeGraph
from repro.kg.sampling import NegativeSampler
from repro.query.engine import QueryEngine
from repro.rng import ensure_rng


@dataclass
class UpdateReport:
    """What one update did: which entities moved and by how much.

    ``changed_vectors`` / ``changed_relations`` carry the exact
    post-update rows of every entity/relation vector the update wrote
    (including sub-tolerance entity moves that were *not* re-indexed) —
    the physical effects a write-ahead log needs to replay the update
    bit-identically without re-running SGD.
    """

    entities_touched: tuple[int, ...] = ()
    entities_reindexed: tuple[int, ...] = ()
    local_steps: int = 0
    max_displacement: float = 0.0
    changed_vectors: dict[int, np.ndarray] = field(default_factory=dict)
    changed_relations: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class UpdateEvent:
    """Notification emitted after every update, for cache invalidation.

    ``old_points`` / ``new_points`` are the S2 coordinates of the
    re-indexed entities before and after the move (parallel to
    ``entities_reindexed``); a brand-new entity has only a new point.
    Listeners (e.g. :class:`repro.service.cache.ResultCache`) use the
    entity ids to evict results whose *exclusion semantics* changed and
    the points to evict results whose *query region* a moved entity
    entered or left.
    """

    kind: str  # 'add_edge' | 'remove_edge' | 'add_entity' | 'set_vector'
    entities_touched: tuple[int, ...]
    entities_reindexed: tuple[int, ...]
    old_points: tuple[np.ndarray, ...] = ()
    new_points: tuple[np.ndarray, ...] = ()


class OnlineUpdater:
    """Applies edge/entity updates to a live :class:`QueryEngine`."""

    def __init__(
        self,
        engine: QueryEngine,
        local_epochs: int = 8,
        margin: float = 1.0,
        learning_rate: float = 0.05,
        reindex_tolerance: float = 1e-6,
        max_local_triples: int = 128,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        self.engine = engine
        self.local_epochs = local_epochs
        self.margin = margin
        self.learning_rate = learning_rate
        self.reindex_tolerance = reindex_tolerance
        self.max_local_triples = max_local_triples
        self._rng = ensure_rng(seed)
        self._listeners: list = []

    # -- listeners ----------------------------------------------------------

    def add_listener(self, listener) -> None:
        """Register a callable invoked with an :class:`UpdateEvent` after
        every update (used by the serving layer's result cache)."""
        self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        self._listeners.remove(listener)

    def _notify(self, event: UpdateEvent) -> None:
        for listener in list(self._listeners):
            listener(event)

    # -- edge updates ---------------------------------------------------------

    def add_edge(self, head: int, relation: int, tail: int) -> UpdateReport:
        """Add a fact to ``E`` and locally refresh embedding + index."""
        graph = self.engine.graph
        graph.add_triple(head, relation, tail)
        return self._local_refresh((head, tail), kind="add_edge")

    def remove_edge(self, head: int, relation: int, tail: int) -> UpdateReport:
        """Remove a fact from ``E`` and locally refresh embedding + index."""
        graph = self.engine.graph
        if not graph.remove_triple(head, relation, tail):
            raise QueryError("edge not present in the graph")
        return self._local_refresh((head, tail), kind="remove_edge")

    def add_entity(self, name: str, near: int | None = None) -> int:
        """Register a brand-new entity and index its point.

        With no edges yet, the entity's vector is seeded at ``near``'s
        vector (plus noise) when given, else at a random small vector;
        subsequent :meth:`add_edge` calls move it into place.
        """
        graph = self.engine.graph
        model = self.engine.model
        if name in graph.entities:
            raise QueryError(f"entity {name!r} already exists")
        entity = graph.add_entity(name)
        dim = model.dim
        if near is not None:
            vector = model.entity_vectors()[near] + self._rng.normal(
                scale=0.01, size=dim
            )
        else:
            vector = self._rng.normal(scale=0.1, size=dim)
        self._append_entity_vector(entity, vector)
        point = self.engine.transform(vector)
        self.engine.index.store.append(point)
        self.engine.index.insert(entity)
        self._notify(
            UpdateEvent(
                kind="add_entity",
                entities_touched=(entity,),
                entities_reindexed=(entity,),
                new_points=(np.asarray(point, dtype=np.float64),),
            )
        )
        return entity

    def set_entity_vector(self, entity: int, vector: np.ndarray) -> UpdateReport:
        """Apply an externally computed S1 vector (frozen-model path)."""
        vectors = self.engine.model.entity_vectors()
        before = vectors[entity].copy()
        self._write_entity_vector(entity, np.asarray(vector, dtype=np.float64))
        displacement = float(np.linalg.norm(vectors[entity] - before))
        old_points, new_points = self._reindex([entity])
        self._notify(
            UpdateEvent(
                kind="set_vector",
                entities_touched=(entity,),
                entities_reindexed=(entity,),
                old_points=old_points,
                new_points=new_points,
            )
        )
        return UpdateReport(
            entities_touched=(entity,),
            entities_reindexed=(entity,),
            local_steps=0,
            max_displacement=displacement,
            changed_vectors={int(entity): vectors[entity].copy()},
        )

    # -- internals ----------------------------------------------------------------

    def _local_refresh(
        self, touched: tuple[int, ...], kind: str = "add_edge"
    ) -> UpdateReport:
        model = self.engine.model
        if not hasattr(model, "sgd_step"):
            # Frozen model: nothing to retrain; the graph change alone
            # already updates the E'-exclusion semantics — which still
            # invalidates cached results keyed on the touched entities.
            self._notify(
                UpdateEvent(kind=kind, entities_touched=touched, entities_reindexed=())
            )
            return UpdateReport(entities_touched=touched)
        graph = self.engine.graph
        local = self._incident_triples(graph, touched)
        if len(local) == 0:
            self._notify(
                UpdateEvent(kind=kind, entities_touched=touched, entities_reindexed=())
            )
            return UpdateReport(entities_touched=touched)
        vectors = model.entity_vectors()
        local_entities = self._entities_of(local)
        before = {int(e): vectors[int(e)].copy() for e in local_entities}
        # Relation rows move during SGD too (the margin-ranking gradient
        # touches r); snapshot the (small) relation matrix so the report
        # can list exactly which rows changed, for WAL effect logging.
        relations = model.relation_vectors()
        relations_before = relations.copy()
        sampler = NegativeSampler(graph, seed=self._rng)
        steps = 0
        for _ in range(self.local_epochs):
            negatives = sampler.corrupt_batch(local)
            # Freeze entities outside the local neighbourhood: negative
            # samples land on arbitrary entities, and letting them drift
            # would force re-indexing far beyond the update's locality
            # (the whole point of an incremental update is that it is
            # local — the paper's future-work intuition).
            frozen_ids = self._entities_of(negatives) - local_entities
            frozen = {e: vectors[e].copy() for e in frozen_ids}
            model.sgd_step(local, negatives, self.margin, self.learning_rate)
            for entity, row in frozen.items():
                vectors[entity] = row
            steps += 1
        moved = []
        changed_vectors: dict[int, np.ndarray] = {}
        max_displacement = 0.0
        for entity, old in before.items():
            displacement = float(np.linalg.norm(vectors[entity] - old))
            max_displacement = max(max_displacement, displacement)
            if displacement > 0.0:
                changed_vectors[entity] = vectors[entity].copy()
            if displacement > self.reindex_tolerance:
                moved.append(entity)
        changed_relations = {
            int(r): relations[int(r)].copy()
            for r in np.flatnonzero(np.any(relations != relations_before, axis=1))
        }
        old_points, new_points = self._reindex(moved)
        self._notify(
            UpdateEvent(
                kind=kind,
                entities_touched=touched,
                entities_reindexed=tuple(moved),
                old_points=old_points,
                new_points=new_points,
            )
        )
        return UpdateReport(
            entities_touched=touched,
            entities_reindexed=tuple(moved),
            local_steps=steps,
            max_displacement=max_displacement,
            changed_vectors=changed_vectors,
            changed_relations=changed_relations,
        )

    def _incident_triples(
        self, graph: KnowledgeGraph, entities: tuple[int, ...]
    ) -> np.ndarray:
        wanted = set(entities)
        rows = [
            triple.as_tuple()
            for triple in graph.triples()
            if triple.head in wanted or triple.tail in wanted
        ]
        if not rows:
            return np.empty((0, 3), dtype=np.int64)
        if len(rows) > self.max_local_triples:
            # Hub entities can have huge neighbourhoods; bound the update
            # cost by sampling (the direct neighbours closest to the
            # update still dominate the gradient signal).
            chosen = self._rng.choice(
                len(rows), size=self.max_local_triples, replace=False
            )
            rows = [rows[int(i)] for i in chosen]
        return np.array(rows, dtype=np.int64)

    @staticmethod
    def _entities_of(triples: np.ndarray) -> set[int]:
        return set(triples[:, 0].tolist()) | set(triples[:, 2].tolist())

    def _reindex(
        self, entities: list[int]
    ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Delete / re-project / re-insert the moved entities' points.

        Returns the (old, new) S2 coordinates of each moved entity so
        listeners can do geometric cache invalidation.
        """
        index = self.engine.index
        vectors = self.engine.model.entity_vectors()
        old_points = []
        new_points = []
        for entity in entities:
            old_points.append(index.store.coords[entity].copy())
            index.delete(entity)
            index.store.update_row(entity, self.engine.transform(vectors[entity]))
            index.insert(entity)
            new_points.append(index.store.coords[entity].copy())
        return tuple(old_points), tuple(new_points)

    def _append_entity_vector(self, entity: int, vector: np.ndarray) -> None:
        model = self.engine.model
        grown = np.vstack([model.entity_vectors(), vector[None, :]])
        self._replace_entity_matrix(grown)
        if model.num_entities != len(grown):
            model.num_entities = len(grown)
        self.engine.set_s1_vectors(model.entity_vectors())

    def _write_entity_vector(self, entity: int, vector: np.ndarray) -> None:
        model = self.engine.model
        matrix = model.entity_vectors()
        if matrix.flags.writeable:
            matrix[entity] = vector
        else:  # pragma: no cover - models expose writable arrays today
            matrix = matrix.copy()
            matrix[entity] = vector
            self._replace_entity_matrix(matrix)

    def _replace_entity_matrix(self, matrix: np.ndarray) -> None:
        model = self.engine.model
        # Both TransE and PretrainedEmbedding keep the entity matrix in
        # a private attribute named _entities.
        model._entities = matrix
