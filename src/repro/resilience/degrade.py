"""The degradation ladder: cracking → bulk R-tree → linear scan.

A broken index must never take the service down. The point store is the
ground truth and the tree is disposable workload state, so if the
cracking tree raises mid-query or fails its structural invariants, the
engine transparently drops one rung:

- **level 0 (native)** — the engine's configured index (cracking by
  default);
- **level 1 (bulk)** — a fresh bulk-loaded R-tree built from the point
  store. Its answers are ε-valid Algorithm 3 answers (Theorem 2), like
  the native tree's, but not necessarily the same ones: Algorithm 3's
  candidates depend on the tree it probes. They equal the native
  answers when both find the exact top-k, as on the tests' fixtures;
- **level 2 (linear)** — top-k by :meth:`QueryEngine.exact_topk
  <repro.query.engine.QueryEngine.exact_topk>`, the exact scan over S1;
  aggregates rebuild a throwaway bulk tree per query.

Every downgrade is recorded in :class:`~repro.service.metrics.ServingMetrics`
(``degradations``) and a rebuild back to the native variant is scheduled:
after ``rebuild_after`` queries at a degraded level, the next query —
which holds the engine exclusively, since the pool serializes engines —
swaps in a fresh native index, verifies it, and resets to level 0.
Rebuilding a cracking tree is nearly free (it *starts* unexpanded; the
workload re-cracks it), which is the paper's disposability argument
turned into a repair strategy.

The ladder only calls the engine's own ``validate()``, ``rebuild()``
and ``exact_topk()``, so a sharded engine
(:class:`repro.shard.ShardedEngine`, whose overrides act on every
shard's live tree) rides it without the ladder knowing.
"""

from __future__ import annotations

import threading

from repro.errors import IndexError_, ReproError
from repro.obs import trace
from repro.obs.logging import get_logger
from repro.query.spec import QuerySpec
from repro.resilience import chaos

#: Human-readable rung names, indexed by level.
LEVELS = ("native", "bulk", "linear")

_log = get_logger("repro.resilience.degrade")


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

    # -- bookkeeping -------------------------------------------------------

    def _state(self, engine) -> _EngineState:
        with self._lock:
            key = id(engine)
            state = self._states.get(key)
            if state is None:
                state = self._states[key] = _EngineState()
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
        return engine.exact_topk(spec), None

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
        engine.rebuild("bulk")
        return engine.execute(spec).aggregate

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
            # The broken tree is simply dropped for a fresh bulk tree
            # over the same store.
            engine.rebuild("bulk")

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
        variant = engine.rebuild()
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
            engine.validate()
            return False
        except IndexError_:
            self.rebuild(engine)
            self._increment("engines_repaired")
            return True
