"""The query engine: glue between graph, embedding, transform and index.

A :class:`QueryEngine` owns the trained embedding model, the JL
transform, the S2 point store and one spatial index variant, and exposes
the two query families of the paper — top-k entity queries and aggregate
queries — in both directions (given head find tails, given tail find
heads), plus the exhaustive no-index baseline used as accuracy ground
truth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.embedding.base import EmbeddingModel
from repro.embedding.trainer import TrainConfig, train_model
from repro.errors import QueryError
from repro.index.geometry import Rect, row_distances
from repro.index.linear import ExhaustiveScan
from repro.index.store import PointStore
from repro.index.variants import build_index, variant_name
from repro.kg.graph import KnowledgeGraph
from repro.obs import trace
from repro.query.aggregates import AggregateEstimate, AggregateProcessor
from repro.query.probability import InverseDistanceProbability
from repro.query.spec import QueryResult, QuerySpec
from repro.query.topk import TopKResult, eligible_mask, find_topk
from repro.transform.jl import JLTransform



@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Configuration for building a :class:`QueryEngine` from a graph."""

    alpha: int = 3
    epsilon: float = 0.5
    index: str = "cracking"
    leaf_capacity: int = 32
    fanout: int = 8
    beta: float = 1.5
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)


@dataclass(frozen=True, slots=True)
class QueryExplain:
    """EXPLAIN-style report for one top-k query.

    ``index_stats`` walks the whole tree (a scatter to every lane on a
    sharded engine), so it is computed on first access, not per query.
    """

    result: TopKResult
    elapsed_seconds: float
    internal_accesses: int
    leaf_accesses: int
    partition_accesses: int
    splits_triggered: int
    points_examined: int
    scan_equivalent_points: int
    index: object = field(repr=False, compare=False)
    _stats: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def index_stats(self):
        """Structural statistics of the index (first access walks it)."""
        if self._stats is None:
            object.__setattr__(self, "_stats", self.index.stats())
        return self._stats

    @property
    def examined_fraction(self) -> float:
        """Points examined relative to what a full scan would touch."""
        if self.scan_equivalent_points == 0:
            return 0.0
        return self.points_examined / self.scan_equivalent_points

    def summary(self) -> str:
        """A one-paragraph human-readable account of the query."""
        return (
            f"top-{len(self.result)} in {self.elapsed_seconds * 1000:.2f} ms: "
            f"examined {self.points_examined}/{self.scan_equivalent_points} "
            f"entities ({self.examined_fraction:.1%}), touched "
            f"{self.internal_accesses} internal / {self.leaf_accesses} leaf / "
            f"{self.partition_accesses} frontier elements, triggered "
            f"{self.splits_triggered} splits; index now has "
            f"{self.index_stats.node_count} nodes."
        )


class QueryEngine:
    """Predictive query processing over one graph + model + index."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        model: EmbeddingModel,
        transform: JLTransform,
        index,
        epsilon: float = 0.5,
    ) -> None:
        if not model.supports_spatial_queries:
            raise QueryError(
                "the embedding model must provide relation-independent "
                "entity points (e.g. TransE) for spatial indexing"
            )
        self.graph = graph
        self.model = model
        self.transform = transform
        self.index = index
        self.epsilon = epsilon
        self.s1_vectors = model.entity_vectors()
        self._scan = ExhaustiveScan(self.s1_vectors)
        self._aggregates = AggregateProcessor(
            index, self.s1_vectors, transform, graph.attributes, epsilon=epsilon
        )

    # -- owned state: the index and the S1 matrix ---------------------------

    def swap_index(self, index) -> None:
        """Replace the spatial index every query family reads.

        The caller must hold the engine exclusively (the pool's checkout,
        or the shard's own lane).
        """
        self.index = index
        self._aggregates.index = index

    @property
    def variant(self) -> str:
        """The :func:`~repro.index.variants.build_index` name of the index."""
        return variant_name(self.index)

    def set_s1_vectors(self, matrix: np.ndarray) -> None:
        """Point the engine and its caches at a replaced S1 entity matrix
        (the online updater grows it when an entity is appended)."""
        self.s1_vectors = matrix
        self._aggregates.s1_vectors = matrix
        self._scan = ExhaustiveScan(matrix)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_graph(
        cls,
        graph: KnowledgeGraph,
        config: EngineConfig | None = None,
        model: EmbeddingModel | None = None,
    ) -> "QueryEngine":
        """Train (or reuse) an embedding, project to S2, build the index."""
        config = config or EngineConfig()
        if model is None:
            model = train_model(graph, config.train).model
        transform = JLTransform(model.dim, config.alpha, seed=config.seed)
        store = PointStore(transform(model.entity_vectors()))
        index = build_index(
            config.index, store, leaf_capacity=config.leaf_capacity,
            fanout=config.fanout, beta=config.beta,
        )
        return cls(graph, model, transform, index, epsilon=config.epsilon)

    # -- the unified entrypoint ------------------------------------------------

    def execute(self, spec: QuerySpec) -> QueryResult:
        """Run one query described by ``spec`` — the single entrypoint
        every internal call site (pool, batch, replay, HTTP) uses.

        Returns a :class:`QueryResult` whose ``topk`` or ``aggregate``
        field is populated according to ``spec.mode``.
        """
        if spec.mode == "topk":
            return QueryResult(spec=spec, topk=self._run_topk_spec(spec))
        return QueryResult(spec=spec, aggregate=self._run_aggregate_spec(spec))

    def _topk_request(self, spec: QuerySpec):
        """Derive (query point, exclude set, allowed rows) from a spec."""
        if spec.direction == "tail":
            exclude = self.graph.tails(spec.entity, spec.relation) | {spec.entity}
            query_point = self.model.tail_query_point(spec.entity, spec.relation)
        else:
            exclude = self.graph.heads(spec.entity, spec.relation) | {spec.entity}
            query_point = self.model.head_query_point(spec.entity, spec.relation)
        return query_point, exclude, self._allowed_of_type(spec.entity_type)

    def _run_topk_spec(self, spec: QuerySpec) -> TopKResult:
        """Top-k execution hook; :class:`repro.shard.ShardedEngine`
        overrides this with the scatter-gather path."""
        query_point, exclude, allowed = self._topk_request(spec)
        epsilon = self.epsilon if spec.epsilon is None else spec.epsilon
        return find_topk(
            self.index,
            self.s1_vectors,
            self.transform,
            query_point,
            spec.k,
            exclude=exclude,
            epsilon=epsilon,
            allowed=allowed,
        )

    def _run_aggregate_spec(self, spec: QuerySpec) -> AggregateEstimate:
        query_point, exclude, _ = self._topk_request(spec)
        return self._aggregates.estimate(
            query_point,
            spec.agg,
            attribute=spec.attribute,
            p_tau=spec.p_tau,
            access_fraction=spec.access_fraction,
            max_access=spec.max_access,
            exclude=exclude,
        )

    def _allowed_of_type(self, entity_type: str | None) -> np.ndarray | None:
        if entity_type is None:
            return None
        rows = self.graph.type_rows(entity_type)
        if len(rows) == 0:
            raise QueryError(f"no entities tagged with type {entity_type!r}")
        return rows

    # -- threshold (ball) queries -----------------------------------------------

    def predict_ball(
        self, head: int, relation: int, p_tau: float = 0.1
    ) -> list[tuple[int, float]]:
        """All predicted tails with probability at least ``p_tau``.

        The relevant entities live in the ball of radius
        ``d_min / p_tau`` around ``h + r`` (Section V-B's probability
        model); returns ``(entity, probability)`` sorted by decreasing
        probability.
        """
        if not 0.0 < p_tau <= 1.0:
            raise QueryError("p_tau must be in (0, 1]")
        exclude = self.graph.tails(head, relation) | {head}
        q1 = self.model.tail_query_point(head, relation)
        seed = find_topk(
            self.index, self.s1_vectors, self.transform, q1, 1,
            exclude=exclude, epsilon=self.epsilon, refine_index=False,
        )
        if not seed.entities:
            return []
        prob_model = InverseDistanceProbability(seed.distances[0])
        radius = prob_model.ball_radius(p_tau) * (1.0 + self.epsilon)
        region = Rect.ball_box(self.transform(q1), radius)
        self.index.refine(region)
        found = self.index.search(region)
        ids = found[eligible_mask(len(self.s1_vectors), exclude)[found]]
        if len(ids) == 0:
            return []
        dists = row_distances(self.s1_vectors, ids, q1)
        prob_model = InverseDistanceProbability(float(dists.min()))
        probs = prob_model.probabilities(dists)
        keep = probs >= p_tau
        pairs = sorted(
            zip(ids[keep].tolist(), probs[keep].tolist()),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return [(int(e), float(p)) for e, p in pairs]

    def exhaustive_topk_tails(self, head: int, relation: int, k: int):
        """No-index ground truth for a tail-direction top-k spec."""
        exclude = set(self.graph.tails(head, relation)) | {head}
        return self._scan.topk(
            self.model.tail_query_point(head, relation), k, frozenset(exclude)
        )

    def exhaustive_topk_heads(self, tail: int, relation: int, k: int):
        """No-index ground truth for a head-direction top-k spec."""
        exclude = set(self.graph.heads(tail, relation)) | {tail}
        return self._scan.topk(
            self.model.head_query_point(tail, relation), k, frozenset(exclude)
        )

    # -- EXPLAIN -----------------------------------------------------------------

    def explain(self, spec: QuerySpec) -> "QueryExplain":
        """Run a top-k spec and report what the index did for it.

        Returns a :class:`QueryExplain` with the result, wall time, the
        index access counters attributable to this query, the splits it
        triggered, and the final query region — the EXPLAIN ANALYZE of
        the virtual knowledge graph.
        """
        if spec.mode != "topk":
            raise QueryError("explain() covers top-k specs only")
        with trace.span("engine.topk") as sp:
            before = self.index.counters.snapshot()
            splits_before = self.index.splits_performed
            start = time.perf_counter()
            result = self._run_topk_spec(spec)
            elapsed = time.perf_counter() - start
            after = self.index.counters
            explain = QueryExplain(
                result=result,
                elapsed_seconds=elapsed,
                internal_accesses=after.internal_accesses - before.internal_accesses,
                leaf_accesses=after.leaf_accesses - before.leaf_accesses,
                partition_accesses=after.partition_accesses - before.partition_accesses,
                splits_triggered=self.index.splits_performed - splits_before,
                points_examined=result.points_examined,
                scan_equivalent_points=self.graph.num_entities,
                index=self.index,
            )
            if sp.is_recording:
                sp.set_attribute("direction", spec.direction)
                sp.set_attribute("internal_accesses", explain.internal_accesses)
                sp.set_attribute("leaf_accesses", explain.leaf_accesses)
                sp.set_attribute("splits_triggered", explain.splits_triggered)
                sp.set_attribute("points_examined", explain.points_examined)
                stats = explain.index_stats
                sp.set_attribute(
                    "contour_size", stats.leaf_nodes + stats.frontier_elements
                )
        return explain

    # -- probabilities ------------------------------------------------------

    def probabilities(self, result: TopKResult) -> tuple[float, ...]:
        """Inverse-distance probabilities of a top-k result's entities."""
        if not result.distances:
            return ()
        with trace.span("query.probability") as sp:
            model = InverseDistanceProbability(result.distances[0])
            probs = tuple(model.probability(d) for d in result.distances)
            sp.set_attribute("entities", len(probs))
        return probs
