"""The competing query-processing methods, behind one interface.

Section VI compares: no index (iterate all entities), PH-tree over the
raw d-dimensional vectors, a bulk-loaded R-tree over S2, the greedy
cracking index, the 2/3/4-choice A* cracking index, and H2-ALSH (single
relation, collaborative filtering). Each is wrapped as a
:class:`TopKMethod` with a measured ``build_seconds`` and a uniform
``query`` entry point so the figure runners can sweep them.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.bench.datasets import BenchDataset
from repro.bench.timing import Timer
from repro.bench.workloads import Query
from repro.errors import ReproError
from repro.index.h2alsh import H2ALSHIndex
from repro.index.linear import ExhaustiveScan
from repro.index.phtree import PHTreeIndex
from repro.mf.als import ALSConfig, factorize_relation
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.spec import QuerySpec


class TopKMethod(abc.ABC):
    """A named top-k query strategy with a measured build cost."""

    name: str
    build_seconds: float = 0.0

    @abc.abstractmethod
    def query(self, query: Query, k: int) -> list[int]:
        """Answer one workload query; returns entity ids."""

    def _exclusion(self, dataset: BenchDataset, query: Query) -> frozenset[int]:
        graph = dataset.graph
        if query.direction == "tail":
            known = graph.tails(query.entity, query.relation)
        else:
            known = graph.heads(query.entity, query.relation)
        return frozenset(set(known) | {query.entity})

    def _query_point(self, dataset: BenchDataset, query: Query) -> np.ndarray:
        if query.direction == "tail":
            return dataset.model.tail_query_point(query.entity, query.relation)
        return dataset.model.head_query_point(query.entity, query.relation)


class NoIndexMethod(TopKMethod):
    """The paper's baseline: score every entity on the fly, no index."""

    def __init__(self, dataset: BenchDataset) -> None:
        self.name = "no-index"
        self._dataset = dataset
        self._scan = ExhaustiveScan(dataset.model.entity_vectors())

    def query(self, query: Query, k: int) -> list[int]:
        point = self._query_point(self._dataset, query)
        exclude = self._exclusion(self._dataset, query)
        return [e for e, _ in self._scan.topk(point, k, exclude)]


class PHTreeMethod(TopKMethod):
    """PH-tree directly over the d-dimensional S1 vectors."""

    def __init__(self, dataset: BenchDataset) -> None:
        self.name = "ph-tree"
        self._dataset = dataset
        with Timer() as t:
            self._index = PHTreeIndex(dataset.model.entity_vectors(), bits=16)
        self.build_seconds = t.seconds

    def query(self, query: Query, k: int) -> list[int]:
        point = self._query_point(self._dataset, query)
        exclude = self._exclusion(self._dataset, query)
        return [e for e, _ in self._index.knn(point, k, exclude)]


class RTreeMethod(TopKMethod):
    """Our pipeline: JL transform to S2 + one of the R-tree variants.

    ``variant`` is one of 'bulk', 'cracking', 'topk2', 'topk3', 'topk4'.
    For 'bulk' the offline build cost lands in ``build_seconds``; the
    cracking variants build nothing offline, by construction.
    """

    def __init__(
        self,
        dataset: BenchDataset,
        variant: str = "cracking",
        alpha: int = 3,
        epsilon: float = 0.5,
        leaf_capacity: int = 32,
        fanout: int = 8,
        beta: float = 1.5,
        seed: int = 0,
    ) -> None:
        self.name = variant if variant != "cracking" else "crack"
        if alpha != 3:
            self.name = f"{self.name}(a={alpha})"
        self._dataset = dataset
        self._epsilon = epsilon
        with Timer() as t:
            self._engine = QueryEngine.from_graph(
                dataset.graph,
                EngineConfig(
                    alpha=alpha,
                    epsilon=epsilon,
                    index=variant,
                    leaf_capacity=leaf_capacity,
                    fanout=fanout,
                    beta=beta,
                    seed=seed,
                ),
                model=dataset.model,
            )
        self.build_seconds = t.seconds

    @property
    def engine(self) -> QueryEngine:
        return self._engine

    @property
    def index(self):
        return self._engine.index

    def query(self, query: Query, k: int) -> list[int]:
        spec = QuerySpec(
            entity=query.entity, relation=query.relation, direction=query.direction, k=k
        )
        return list(self._engine.execute(spec).topk.entities)


class H2ALSHMethod(TopKMethod):
    """H2-ALSH over ALS collaborative-filtering factors of ONE relation.

    Only supports 'tail'-direction queries whose head participates in the
    factorised relation — the structural limitation the paper highlights.
    Returned ids are graph entity ids (mapped back from item rows).
    """

    def __init__(
        self,
        dataset: BenchDataset,
        relation_name: str = "likes",
        factors: int = 16,
        seed: int = 0,
    ) -> None:
        self.name = "h2-alsh"
        self._dataset = dataset
        self._relation = dataset.graph.relations.id_of(relation_name)
        with Timer() as t:
            self._mf = factorize_relation(
                dataset.graph, relation_name, ALSConfig(factors=factors, seed=seed)
            )
            self._index = H2ALSHIndex(self._mf.item_factors, seed=seed)
        self.build_seconds = t.seconds
        self._user_rows = {int(u): i for i, u in enumerate(self._mf.user_ids)}

    @property
    def user_ids(self) -> np.ndarray:
        return self._mf.user_ids

    def query(self, query: Query, k: int) -> list[int]:
        if query.direction != "tail":
            raise ReproError("H2-ALSH only answers head->tail queries")
        if query.relation != self._relation:
            raise ReproError("H2-ALSH only answers its factorised relation")
        row = self._user_rows.get(query.entity)
        if row is None:
            raise ReproError(f"entity {query.entity} is not a user of the relation")
        user_vector = self._mf.user_factors[row]
        known = self._dataset.graph.tails(query.entity, query.relation)
        exclude_rows = frozenset(
            self._mf.item_row(t) for t in known if t in set(self._mf.item_ids.tolist())
        )
        result = self._index.topk_inner_product(user_vector, k, exclude_rows)
        return [int(self._mf.item_ids[row]) for row, _ in result]

    def exact_topk(self, query: Query, k: int) -> list[int]:
        """Exact MIPS ground truth for accuracy measurement (the paper
        compares H2-ALSH to its own no-index case)."""
        row = self._user_rows[query.entity]
        scores = self._mf.item_factors @ self._mf.user_factors[row]
        known = self._dataset.graph.tails(query.entity, query.relation)
        known_rows = {
            self._mf.item_row(t)
            for t in known
            if t in set(self._mf.item_ids.tolist())
        }
        order = [i for i in np.argsort(scores)[::-1] if int(i) not in known_rows]
        return [int(self._mf.item_ids[i]) for i in order[:k]]


def make_method(name: str, dataset: BenchDataset, alpha: int = 3, **kwargs) -> TopKMethod:
    """Factory by method name used in the figure runners."""
    if name == "no-index":
        return NoIndexMethod(dataset)
    if name == "ph-tree":
        return PHTreeMethod(dataset)
    if name == "h2-alsh":
        return H2ALSHMethod(dataset, **kwargs)
    return RTreeMethod(dataset, variant=name, alpha=alpha, **kwargs)
