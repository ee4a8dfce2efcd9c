"""The degradation ladder: cracking → bulk R-tree → linear scan.

A broken index must never take the service down: Algorithm 3 re-ranks
every candidate by its exact S1 distance and its initial region always
covers the true top-k, so *any* correct spatial index — and the
exhaustive scan — returns the same answer set. That makes index failure
fully maskable: if the cracking tree raises mid-query or fails its
structural invariants, the engine transparently drops one rung:

- **level 0 (native)** — the engine's configured index (cracking by
  default);
- **level 1 (bulk)** — a fresh bulk-loaded R-tree built from the point
  store (the store is the ground truth; the tree is disposable workload
  state);
- **level 2 (linear)** — top-k by vectorised exhaustive scan over S1;
  aggregates rebuild a throwaway bulk tree per query.

Every downgrade is recorded in :class:`~repro.service.metrics.ServingMetrics`
(``degradations``) and a rebuild back to the native variant is scheduled:
after ``rebuild_after`` queries at a degraded level, the next query —
which holds the engine exclusively, since the pool serializes engines —
swaps in a fresh native index, verifies it, and resets to level 0.
Rebuilding a cracking tree is nearly free (it *starts* unexpanded; the
workload re-cracks it), which is the paper's disposability argument
turned into a repair strategy.

Sharded engines (:class:`repro.shard.ShardedEngine`) ride the same
ladder: validation checks every shard tree against its live id set, the
bulk rung installs one fresh bulk tree per shard (each swap runs on the
shard's own serialized lane), and the native rebuild goes through
``rebuild_native()``. The linear rung is shard-agnostic — it scans S1
directly.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import IndexError_, ReproError
from repro.index.bulkload import BulkLoadedRTree
from repro.index.geometry import row_distances
from repro.index.validation import check_invariants
from repro.obs import trace
from repro.obs.logging import get_logger
from repro.query.spec import QuerySpec
from repro.query.topk import TopKResult, eligible_mask, smallest_k
from repro.resilience import chaos

#: Human-readable rung names, indexed by level.
LEVELS = ("native", "bulk", "linear")

_log = get_logger("repro.resilience.degrade")


def validate_engine(engine) -> None:
    """Run the structural invariant checks on ``engine``'s index.

    Raises :class:`~repro.errors.IndexError_` on any violation. Cheap
    enough to run on every suspect engine before it re-enters rotation.
    A sharded engine validates every shard tree against its live id set.
    """
    if getattr(engine, "is_sharded", False):
        engine.check_shard_invariants()
        return
    check_invariants(engine.index)


class _EngineState:
    __slots__ = ("level", "queries_since_downgrade", "last_error")

    def __init__(self) -> None:
        self.level = 0
        self.queries_since_downgrade = 0
        self.last_error = ""


class DegradationLadder:
    """Per-engine degradation state plus the guarded query entry points.

    One ladder serves all replicas of a pool; engines are keyed by
    identity. The pool guarantees an engine is only ever inside one
    query at a time, so per-engine transitions need no engine-side
    locking — the ladder's own lock only protects its bookkeeping.
    """

    def __init__(
        self,
        metrics=None,
        rebuild_after: int = 64,
        auto_rebuild: bool = True,
    ) -> None:
        self.metrics = metrics
        self.rebuild_after = rebuild_after
        self.auto_rebuild = auto_rebuild
        self._lock = threading.Lock()
        self._states: dict[int, _EngineState] = {}
        self._specs: dict[int, tuple[type, dict]] = {}

    # -- bookkeeping -------------------------------------------------------

    def _state(self, engine) -> _EngineState:
        with self._lock:
            key = id(engine)
            state = self._states.get(key)
            if state is None:
                state = self._states[key] = _EngineState()
                # A sharded engine rebuilds through its own hooks (its
                # "index" is a router, not a constructible tree).
                self._specs[key] = (
                    None if getattr(engine, "is_sharded", False)
                    else _index_spec(engine.index)
                )
            return state

    def level_of(self, engine) -> int:
        return self._state(engine).level

    def levels(self) -> list[dict]:
        """Snapshot for ``/healthz``: one entry per registered engine."""
        with self._lock:
            return [
                {
                    "level": state.level,
                    "mode": LEVELS[state.level],
                    "last_error": state.last_error,
                }
                for state in self._states.values()
            ]

    def _increment(self, counter: str) -> None:
        if self.metrics is not None:
            self.metrics.increment(counter)

    # -- guarded queries ---------------------------------------------------

    def run_topk(self, engine, spec: QuerySpec):
        """Guarded top-k for one :class:`~repro.query.spec.QuerySpec`.

        Returns ``(result, explain_or_None)`` — the explain report is
        unavailable on the linear rung.
        """
        state = self._state(engine)
        self._maybe_rebuild(engine, state)
        if state.level < 2:
            try:
                chaos.fire("engine.topk")
                explain = engine.explain(spec)
                state.queries_since_downgrade += 1
                return explain.result, explain
            except Exception as exc:
                self._handle(engine, state, exc)
            if state.level < 2:  # retry once on the bulk rung
                try:
                    explain = engine.explain(spec)
                    state.queries_since_downgrade += 1
                    return explain.result, explain
                except Exception as exc:
                    self._handle(engine, state, exc)
        state.queries_since_downgrade += 1
        return (
            self._linear_topk(
                engine, spec.entity, spec.relation, spec.k, spec.direction,
                spec.entity_type,
            ),
            None,
        )

    def explain_topk(self, engine, entity: int, relation: int, k: int, direction: str):
        """Guarded top-k by coordinates; see :meth:`run_topk`."""
        return self.run_topk(
            engine,
            QuerySpec(entity=entity, relation=relation, direction=direction, k=k),
        )

    def topk_typed(
        self, engine, entity: int, relation: int, k: int, direction: str, entity_type: str
    ) -> TopKResult:
        """Guarded type-filtered top-k."""
        spec = QuerySpec(
            entity=entity, relation=relation, direction=direction, k=k,
            entity_type=entity_type,
        )
        return self.run_topk(engine, spec)[0]

    def run_aggregate(self, engine, spec: QuerySpec):
        """Guarded aggregate for one spec. The estimators need an index
        contour, so the last rung rebuilds a throwaway bulk tree instead
        of scanning."""
        state = self._state(engine)
        self._maybe_rebuild(engine, state)
        for _ in range(2):
            if state.level >= 2:
                break
            try:
                chaos.fire("engine.aggregate")
                result = engine.execute(spec).aggregate
                state.queries_since_downgrade += 1
                return result
            except Exception as exc:
                self._handle(engine, state, exc)
        # Linear rung: aggregates run against a freshly built bulk tree
        # (built from the store, which is the ground truth).
        state.queries_since_downgrade += 1
        self._install_fresh_bulk(engine)
        return engine.execute(spec).aggregate

    def aggregate(
        self,
        engine,
        entity: int,
        relation: int,
        kind: str,
        attribute: str | None,
        direction: str,
        **kwargs,
    ):
        """Guarded aggregate by coordinates; see :meth:`run_aggregate`."""
        spec = QuerySpec(
            entity=entity, relation=relation, direction=direction,
            mode="aggregate", agg=kind, attribute=attribute, **kwargs,
        )
        return self.run_aggregate(engine, spec)

    # -- transitions -------------------------------------------------------

    def _handle(self, engine, state: _EngineState, exc: Exception) -> None:
        """Downgrade on index failures; re-raise everything else.

        :class:`~repro.errors.IndexError_` (structural violation) and
        non-library exceptions escaping the tree trigger the ladder;
        library errors like ``QueryError`` (malformed query) or injected
        transient faults propagate untouched.
        """
        if isinstance(exc, ReproError) and not isinstance(exc, IndexError_):
            raise exc
        self._downgrade(engine, state, exc)

    def _downgrade(self, engine, state: _EngineState, exc: Exception) -> None:
        state.level = min(state.level + 1, 2)
        state.queries_since_downgrade = 0
        state.last_error = f"{type(exc).__name__}: {exc}"
        self._increment("degradations")
        sp = trace.current_span()
        if sp is not None:
            sp.add_event(
                "degrade.downgrade", level=state.level, mode=LEVELS[state.level],
                error=state.last_error,
            )
        _log.warning(
            "engine degraded", level=state.level, mode=LEVELS[state.level],
            error=state.last_error,
        )
        if state.level == 1:
            # A fresh bulk tree over the same store answers identically;
            # the broken tree is simply dropped.
            self._install_fresh_bulk(engine)

    def _maybe_rebuild(self, engine, state: _EngineState) -> None:
        if (
            not self.auto_rebuild
            or state.level == 0
            or state.queries_since_downgrade < self.rebuild_after
        ):
            return
        self.rebuild(engine)

    def rebuild(self, engine) -> None:
        """Swap in a fresh native-variant index and reset to level 0.

        Must be called while the engine is exclusively held (the pool's
        checkout guarantees that on the query path; the watchdog calls it
        only on engines reclaimed from dead workers).
        """
        state = self._state(engine)
        if getattr(engine, "is_sharded", False):
            engine.rebuild_native()
            variant = engine._variant_cls.__name__
        else:
            with self._lock:
                cls, kwargs = self._specs[id(engine)]
            fresh = cls(engine.index.store, **kwargs)
            check_invariants(fresh)
            self._swap_index(engine, fresh)
            variant = cls.__name__
        state.level = 0
        state.queries_since_downgrade = 0
        state.last_error = ""
        self._increment("index_rebuilds")
        sp = trace.current_span()
        if sp is not None:
            sp.add_event("degrade.rebuild", variant=variant)
        _log.info("index rebuilt to native variant", variant=variant)

    def repair(self, engine) -> bool:
        """Validate a suspect engine; rebuild its index if broken.

        Returns True when a repair was needed. Used by the watchdog
        before a reclaimed engine re-enters rotation.
        """
        try:
            validate_engine(engine)
            return False
        except IndexError_:
            self.rebuild(engine)
            self._increment("engines_repaired")
            return True

    @staticmethod
    def _swap_index(engine, index) -> None:
        engine.index = index
        engine._aggregates.index = index

    def _install_fresh_bulk(self, engine) -> None:
        """Drop to bulk trees: per-shard for a sharded engine (one fresh
        bulk tree per shard, swapped on each shard's own lane), one tree
        otherwise."""
        if getattr(engine, "is_sharded", False):
            engine.install_indexes(engine.fresh_indexes(BulkLoadedRTree))
        else:
            self._swap_index(engine, _fresh_bulk(engine))

    # -- the last rung -----------------------------------------------------

    @staticmethod
    def _linear_topk(
        engine,
        entity: int,
        relation: int,
        k: int,
        direction: str,
        entity_type: str | None = None,
    ) -> TopKResult:
        """Exact top-k by one vectorised scan over the eligible S1 rows
        (the type's rows minus the excluded ids), ties broken by id."""
        graph = engine.graph
        if direction == "tail":
            query_point = engine.model.tail_query_point(entity, relation)
            exclude = set(graph.tails(entity, relation)) | {entity}
        else:
            query_point = engine.model.head_query_point(entity, relation)
            exclude = set(graph.heads(entity, relation)) | {entity}
        vectors = engine.s1_vectors
        allowed = None if entity_type is None else graph.type_rows(entity_type)
        rows = np.flatnonzero(eligible_mask(len(vectors), exclude, allowed))
        dists = row_distances(
            vectors, rows, np.asarray(query_point, dtype=np.float64)
        )
        ids, dists = smallest_k(rows, dists, k)
        return TopKResult(
            entities=tuple(ids.tolist()),
            distances=tuple(dists.tolist()),
            points_examined=len(vectors),
            final_radius=float(dists[-1]) * (1.0 + engine.epsilon)
            if len(ids)
            else float("inf"),
            query_region=None,
        )


def _index_spec(index) -> tuple[type, dict]:
    """Constructor recipe to rebuild a fresh index of the same variant."""
    kwargs = dict(
        leaf_capacity=index.leaf_capacity, fanout=index.fanout, beta=index.beta
    )
    if hasattr(index, "num_choices"):
        kwargs["num_choices"] = index.num_choices
    return type(index), kwargs


def _fresh_bulk(engine) -> BulkLoadedRTree:
    old = engine.index
    return BulkLoadedRTree(
        old.store, leaf_capacity=old.leaf_capacity, fanout=old.fanout, beta=old.beta
    )
