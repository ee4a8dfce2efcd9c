"""``ShardedEngine``: the scatter-gather engine behind ``execute(spec)``.

A :class:`ShardedEngine` subclasses :class:`~repro.query.engine.QueryEngine`
and overrides only what sharding changes:

- the top-k execution hook scatters the spec to N per-shard engines
  (each owning one cracking tree over its id subset) and k-way merges
  the per-shard answers (:mod:`repro.shard.merge`);
- :meth:`~ShardedEngine.validate` and :meth:`~ShardedEngine.rebuild`
  run on every shard's live tree, through the same per-shard command
  path top-k uses (so in the worker processes under fork);
- the ``index`` attribute is a :class:`ShardRouter` — a duck-typed
  "virtual index" that implements ``probe``/``search``/``refine``/
  ``contour``/``insert``/``delete``/``stats``/``counters`` by routing
  to the owning shard's serialized lane. Everything built against the
  index protocol — the aggregate processor, ``predict_ball``, EXPLAIN,
  the online updater, WAL replay — works against a sharded engine
  unchanged.

Answer contract: each shard runs Algorithm 3 over its own id subset, so
the merged top-k is an ε-valid Algorithm 3 answer (Theorem 2), not the
exact top-k. It equals the single-tree answer element-wise (entities,
distances, final radius and query region) when both find the exact
top-k, as they do on the tests' fixtures at ε=1.0; ``points_examined``
(a work counter) always sums differently.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import ServiceError
from repro.index.geometry import row_distances
from repro.index.stats import AccessCounters, IndexStats
from repro.index.store import PointStore, ShardStoreView
from repro.index.validation import check_invariants
from repro.index.variants import build_index, fresh_tree, variant_name
from repro.obs import trace
from repro.query.engine import QueryEngine
from repro.query.spec import QuerySpec
from repro.query.topk import TopKResult
from repro.shard.executor import ShardExecutor
from repro.shard.merge import merge_topk
from repro.shard.plan import ShardPlan

#: Assignment value of an id that was deleted from its shard tree.
_UNASSIGNED = -1


def _geometry_of(index) -> dict:
    """The tree geometry :func:`build_index` takes besides the variant."""
    return {"leaf_capacity": index.leaf_capacity, "fanout": index.fanout, "beta": index.beta}


def _validate_shard(engine, ids: np.ndarray) -> None:
    """Command: check one shard's live tree against its live id set."""
    check_invariants(engine.index, expected_ids=ids)


def _rebuild_shard(engine, ids: np.ndarray, variant: str) -> None:
    """Command: install a validated fresh ``variant`` tree over ``ids``."""
    engine.swap_index(fresh_tree(variant, engine.index, ids=ids))


class ShardRouter:
    """The sharded engine's virtual index (duck-typed R-tree surface).

    Query/mutation operations run on the owning shard's serialized
    lane; read-only structural reads (stats, contour, counters) run on
    the lanes too under the thread backend, and against the parent-side
    snapshots under the fork backend (where the lanes run only the
    engine's commands: top-k, validation and rebuilds).
    """

    def __init__(self, engine: "ShardedEngine") -> None:
        self._engine = engine

    # -- plumbing ----------------------------------------------------------

    @property
    def _executor(self) -> ShardExecutor:
        return self._engine._executor

    @property
    def _shard_engines(self) -> list:
        return self._engine._shard_engines

    def _scatter_live(self, fn) -> list:
        """Run on every lane; fork backend refuses (children are the
        source of truth and run only the engine's commands)."""
        return self._executor.scatter(fn)

    def _scatter_read(self, fn) -> list:
        """Read-only structural scatter; safe parent-side under fork
        because nothing mutates the parent snapshots there."""
        if self._executor.backend == "thread":
            return self._executor.scatter(fn)
        return [fn(engine) for engine in self._shard_engines]

    # -- index protocol: queries ------------------------------------------

    @property
    def store(self) -> PointStore:
        return self._engine._store

    @property
    def leaf_capacity(self) -> int:
        return self._engine._geometry["leaf_capacity"]

    @property
    def fanout(self) -> int:
        return self._engine._geometry["fanout"]

    @property
    def beta(self) -> float:
        return self._engine._geometry["beta"]

    @property
    def height(self) -> int:
        return max(engine.index.height for engine in self._shard_engines)

    def probe(self, point: np.ndarray, k: int) -> np.ndarray:
        """Union of per-shard probes, reduced to the k nearest in S2."""
        point = np.asarray(point, dtype=np.float64)
        parts = self._scatter_live(lambda engine: engine.index.probe(point, k))
        parts = [p for p in parts if len(p)]
        if not parts:
            return np.empty(0, dtype=np.int64)
        ids = np.concatenate(parts)
        dists = row_distances(self.store.coords, ids, point)
        return ids[np.argsort(dists, kind="stable")[:k]]

    def search(self, region) -> np.ndarray:
        parts = self._scatter_live(lambda engine: engine.index.search(region))
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def refine(self, region) -> None:
        self._scatter_live(lambda engine: engine.index.refine(region))

    def contour(self) -> list:
        parts = self._scatter_read(lambda engine: engine.index.contour())
        return [element for part in parts for element in part]

    def stats(self) -> IndexStats:
        parts = self._scatter_read(lambda engine: engine.index.stats())
        return IndexStats(
            internal_nodes=sum(s.internal_nodes for s in parts),
            leaf_nodes=sum(s.leaf_nodes for s in parts),
            frontier_elements=sum(s.frontier_elements for s in parts),
            byte_size=sum(s.byte_size for s in parts),
            splits_performed=sum(s.splits_performed for s in parts),
            height=max(s.height for s in parts),
        )

    @property
    def counters(self) -> AccessCounters:
        """A fresh summed snapshot (plain attribute reads are tear-free,
        so this never blocks the lanes)."""
        total = AccessCounters()
        for engine in self._shard_engines:
            c = engine.index.counters
            total.internal_accesses += c.internal_accesses
            total.leaf_accesses += c.leaf_accesses
            total.partition_accesses += c.partition_accesses
            total.points_examined += c.points_examined
            total.splits += c.splits
        return total

    @property
    def splits_performed(self) -> int:
        return sum(engine.index.splits_performed for engine in self._shard_engines)

    # -- index protocol: dynamic updates ----------------------------------

    def insert(self, ident: int) -> None:
        engine = self._engine
        point = self.store.points_of(np.asarray([ident], dtype=np.int64))[0]
        shard = engine._plan.assign(ident, point=point)
        engine._assign(ident, shard)
        self._executor.run_on(shard, lambda eng: eng.index.insert(ident))

    def delete(self, ident: int) -> bool:
        engine = self._engine
        shard = engine._shard_of(ident)
        if shard == _UNASSIGNED:
            return False
        removed = self._executor.run_on(shard, lambda eng: eng.index.delete(ident))
        if removed:
            engine._assign(ident, _UNASSIGNED)
        return bool(removed)


class ShardedEngine(QueryEngine):
    """Scatter-gather query engine over N independent shard trees.

    Drop-in for :class:`QueryEngine` everywhere (`execute(spec)`,
    EXPLAIN, aggregates, dynamic updates, the degradation ladder).
    Thread-safe for concurrent queries — :class:`~repro.service.pool.
    EnginePool` detects ``concurrency_safe`` and hands the same sharded
    engine to every worker instead of serializing on one checkout.
    """

    is_sharded = True
    concurrency_safe = True

    def __init__(
        self,
        graph,
        model,
        transform,
        shard_engines: list,
        plan: ShardPlan,
        store: PointStore,
        epsilon: float = 0.5,
        backend: str = "thread",
    ) -> None:
        self._shard_engines = list(shard_engines)
        self._plan = plan
        self._store = store
        self._geometry = _geometry_of(shard_engines[0].index)
        assignment = np.full(store.size, _UNASSIGNED, dtype=np.int64)
        for shard, engine in enumerate(self._shard_engines):
            # A shard's initial id set is exactly what its tree indexes.
            tree = engine.index
            assignment[tree._ids_under(tree.root)] = shard
        self._assignment = assignment
        self._executor = ShardExecutor(self._shard_engines, backend=backend)
        self._skew_lock = threading.Lock()
        self._points_by_shard = [0] * len(self._shard_engines)
        self._queries = 0
        super().__init__(graph, model, transform, ShardRouter(self), epsilon=epsilon)
        self._variant = variant_name(shard_engines[0].index)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_engine(
        cls,
        engine: QueryEngine,
        shards: int,
        scheme: str = "hash",
        backend: str = "thread",
    ) -> "ShardedEngine":
        """Re-shard an existing single-tree engine into ``shards`` fresh
        shard trees of the same index variant (hash or kd id split)."""
        if getattr(engine, "is_sharded", False):
            raise ServiceError("engine is already sharded")
        store = engine.index.store
        plan = ShardPlan.build(shards, scheme=scheme, coords=store.coords)
        groups = plan.partition(np.arange(store.size), coords=store.coords)
        variant, geometry = variant_name(engine.index), _geometry_of(engine.index)
        shard_engines = []
        for ids in groups:
            tree = build_index(variant, ShardStoreView(store), ids=ids, **geometry)
            shard_engines.append(
                QueryEngine(
                    engine.graph, engine.model, engine.transform, tree,
                    epsilon=engine.epsilon,
                )
            )
        return cls(
            engine.graph, engine.model, engine.transform, shard_engines,
            plan, store, epsilon=engine.epsilon, backend=backend,
        )

    # -- scatter-gather top-k ----------------------------------------------

    def _run_topk_spec(self, spec: QuerySpec) -> TopKResult:
        epsilon = self.epsilon if spec.epsilon is None else spec.epsilon
        query_point, _, _ = self.resolve(spec)
        q2 = self.transform(np.asarray(query_point, dtype=np.float64))
        with trace.span("shard.scatter") as sp:
            parts = self._executor.scatter_specs(spec)
            merged = merge_topk(parts, spec.k, epsilon, q2)
            if sp.is_recording:
                sp.set_attribute("shards", len(parts))
                sp.set_attribute("points_examined", merged.points_examined)
        with self._skew_lock:
            self._queries += 1
            for shard, part in enumerate(parts):
                self._points_by_shard[shard] += part.points_examined
        return merged

    # -- shard bookkeeping -------------------------------------------------

    def set_s1_vectors(self, matrix: np.ndarray) -> None:
        # The shard engines hold their own copies of the same cache, so
        # the refresh must fan out or their trees would keep querying the
        # outgrown matrix.
        super().set_s1_vectors(matrix)
        for engine in self._shard_engines:
            engine.set_s1_vectors(matrix)

    @property
    def num_shards(self) -> int:
        return len(self._shard_engines)

    @property
    def backend(self) -> str:
        return self._executor.backend

    def _shard_of(self, ident: int) -> int:
        if 0 <= ident < len(self._assignment):
            return int(self._assignment[ident])
        return _UNASSIGNED

    def _assign(self, ident: int, shard: int) -> None:
        if ident >= len(self._assignment):
            grown = np.full(max(ident + 1, 2 * len(self._assignment)), _UNASSIGNED, dtype=np.int64)
            grown[: len(self._assignment)] = self._assignment
            self._assignment = grown
        self._assignment[ident] = shard

    def shard_ids(self, shard: int) -> np.ndarray:
        """The live entity ids currently owned by ``shard``."""
        return np.where(self._assignment == shard)[0]

    def shard_stats(self) -> dict:
        """Skew diagnostics for the metrics gauge: per-shard sizes, task
        counts, busy time, and examined-points share."""
        stats = self._executor.stats()
        with self._skew_lock:
            points = list(self._points_by_shard)
            queries = self._queries
        sizes = [int(len(self.shard_ids(shard))) for shard in range(self.num_shards)]
        total_points = sum(points)
        mean = total_points / len(points) if points else 0.0
        stats.update(
            {
                "scheme": self._plan.scheme,
                "queries": queries,
                "sizes": sizes,
                "points_examined": points,
                "points_skew": round(max(points) / mean, 4) if mean > 0 else 1.0,
            }
        )
        return stats

    # -- tree lifecycle ----------------------------------------------------

    def validate(self) -> None:
        """Check every shard's live tree against its live id set."""
        self._on_every_shard(_validate_shard)

    def rebuild(self, variant: str | None = None) -> str:
        """Give every shard a validated fresh tree of ``variant`` (the
        native one by default) over its live ids, built and installed
        on its own lane; returns the variant's name."""
        variant = variant or self._variant
        self._on_every_shard(_rebuild_shard, variant)
        return variant

    def _on_every_shard(self, command, *args) -> None:
        """Run ``command(shard_engine, shard_ids, *args)`` on every shard
        through the command path; wait for all."""
        futures = [
            self._executor.submit_command(shard, command, self.shard_ids(shard), *args)
            for shard in range(self.num_shards)
        ]
        for future in futures:
            future.result()

    def close(self) -> None:
        """Stop the shard lanes (and fork workers). Idempotent."""
        self._executor.close()
