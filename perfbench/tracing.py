"""Benchmark-side tracing: spans around calls into each layer.

The traced run wraps public functions of the ``repro`` layers (service,
pool, degradation ladder, WAL, engine, JL transform, R-tree, shard
executor, online updater) from here, so the program's own tracer
(``repro.obs.trace``) stays off. Each span records its name, start,
end, parent and request id, and is kept in memory until the run ends.
The current span follows a request into the pool's worker thread
because the pool wrapper hands it over with the submitted callable.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from measure import mean_or_zero, percentile_or_zero, self_times

INDEX_OPS = ("probe", "search", "refine", "contour", "stats", "insert", "delete")


@dataclass(slots=True)
class Span:
    span_id: int
    parent: int  # 0 for a root span
    request: int  # the root span's id, shared by every span of one request
    name: str
    start: float
    end: float
    attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans while ``enabled``; wrappers stay installed between
    traced slices and cost one attribute check when disabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.queue_waits: list[float] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()  # forked shard workers never record
        self._patches: list[tuple[object, str, object]] = []

    def active(self) -> bool:
        return self.enabled and os.getpid() == self._pid

    def _current(self) -> tuple[int, int]:
        return getattr(self._local, "current", (0, 0))

    def call(self, name, fn, args, kwargs, attrs=None, pre=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        parent, request = self._current()
        span_id = next(self._ids)
        request = request if parent else span_id
        self._local.current = (span_id, request)
        state = pre(args) if pre is not None else None
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            self._local.current = (parent, request) if parent else (0, 0)
            extra = attrs(args, result, state) if attrs is not None and result is not None else None
            self.spans.append(Span(span_id, parent, request, name, start, end, extra))

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (the client operation)."""
        if not self.active():
            yield
            return
        span_id = next(self._ids)
        self._local.current = (span_id, span_id)
        start = perf_counter()
        try:
            yield
        finally:
            self._local.current = (0, 0)
            self.spans.append(Span(span_id, 0, span_id, name, start, perf_counter()))

    # -- installation ------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, attrs=None, pre=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.enabled or os.getpid() != recorder._pid:
                return original(*args, **kwargs)
            return recorder.call(name, original, args, kwargs, attrs, pre)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_pool(self, pool_cls) -> None:
        """``EnginePool.execute``: a ``service.pool`` span whose callable
        re-enters it on the worker thread, recording the queue wait."""
        original = pool_cls.__dict__["execute"]
        recorder = self

        def submit(pool, fn, timeout):
            ctx = recorder._current()
            submitted = perf_counter()

            def traced(engine):
                recorder.queue_waits.append(perf_counter() - submitted)
                previous = recorder._current()
                recorder._local.current = ctx
                try:
                    return fn(engine)
                finally:
                    recorder._local.current = previous

            return original(pool, traced, timeout=timeout)

        @functools.wraps(original)
        def wrapper(pool, fn, timeout=None):
            if not recorder.active():
                return original(pool, fn, timeout=timeout)
            return recorder.call("service.pool", submit, (pool, fn, timeout), {})

        pool_cls.execute = wrapper
        self._patches.append((pool_cls, "execute", original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install_layers(recorder: Recorder) -> None:
    """Wrap the public entry points of every measured layer."""
    import repro.query.engine as engine_module
    import repro.shard.engine as shard_module
    from repro.dynamic.updater import OnlineUpdater
    from repro.index.rtree_base import RTreeBase
    from repro.resilience.degrade import DegradationLadder
    from repro.resilience.wal import WriteAheadLog
    from repro.service.pool import EnginePool
    from repro.service.server import QueryService
    from repro.shard.executor import ShardExecutor
    from repro.transform.jl import JLTransform

    def degraded(args, result, state):
        ladder, engine = args[0], args[1]
        return {"degraded": ladder.level_of(engine) > 0}

    def explained(args, result, state):
        return {"returned": len(result.result), "examined": result.points_examined}

    def aggregated(args, result, state):
        if result.aggregate is None:
            return None
        return {"ball": result.aggregate.ball_size, "accessed": result.aggregate.accessed}

    def examined_before(args):
        return args[0].counters.points_examined

    def matched(args, result, state):
        return {"matches": len(result), "examined": args[0].counters.points_examined - state}

    def reindexed(args, result, state):
        return {"reindexed": len(result.entities_reindexed)}

    recorder.wrap(QueryService, "execute", "service.execute")
    recorder.wrap_pool(EnginePool)
    recorder.wrap(DegradationLadder, "run_topk", "resilience.ladder", attrs=degraded)
    recorder.wrap(DegradationLadder, "run_aggregate", "resilience.ladder", attrs=degraded)
    recorder.wrap(WriteAheadLog, "append", "resilience.wal.append")
    recorder.wrap(engine_module.QueryEngine, "explain", "query.engine.topk", attrs=explained)
    recorder.wrap(engine_module.QueryEngine, "execute", "query.engine.execute", attrs=aggregated)
    recorder.wrap(engine_module.QueryEngine, "probabilities", "query.probability")
    recorder.wrap(JLTransform, "transform", "transform.jl")
    for op in INDEX_OPS:
        if op == "search":
            recorder.wrap(RTreeBase, op, "index.search", attrs=matched, pre=examined_before)
        else:
            recorder.wrap(RTreeBase, op, f"index.{op}")
    recorder.wrap(ShardExecutor, "scatter_specs", "shard.scatter")
    recorder.wrap(shard_module, "merge_topk", "shard.merge")
    recorder.wrap(OnlineUpdater, "set_entity_vector", "dynamic.updater", attrs=reindexed)
    recorder.wrap(OnlineUpdater, "add_edge", "dynamic.updater", attrs=reindexed)


def layer_metrics(recorder: Recorder, ops: int) -> dict[str, float]:
    """Per-layer metrics from the recorded spans; ``ops`` is the number of
    operations completed while recording (the per-op denominator)."""
    by_name: dict[str, list[Span]] = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    selfs = self_times(recorder.spans)

    def ms(name: str) -> float:
        return 1e3 * mean_or_zero([s.seconds for s in by_name.get(name, ())])

    def attr_values(name: str, key: str) -> list:
        return [s.attrs[key] for s in by_name.get(name, ()) if s.attrs and key in s.attrs]

    per_op = max(ops, 1)
    ladder = by_name.get("resilience.ladder", [])
    topk_returned = sum(attr_values("query.engine.topk", "returned"))
    topk_examined = sum(attr_values("query.engine.topk", "examined"))
    aggregates = [s for s in by_name.get("query.engine.execute", ()) if s.attrs]
    search_matches = sum(attr_values("index.search", "matches"))
    search_examined = sum(attr_values("index.search", "examined"))
    updates = by_name.get("dynamic.updater", [])
    jl = by_name.get("transform.jl", [])
    metrics = {
        "service.execute_ms": ms("service.execute"),
        "service.pool.queue_wait_p50_ms": 1e3 * percentile_or_zero(recorder.queue_waits, 0.50),
        "service.pool.queue_wait_p99_ms": 1e3 * percentile_or_zero(recorder.queue_waits, 0.99),
        "resilience.ladder.self_ms": 1e3 * mean_or_zero([selfs[s.span_id] for s in ladder]),
        "resilience.ladder.degraded_answers": float(
            sum(1 for s in ladder if s.attrs and s.attrs["degraded"])
        ),
        "resilience.wal.append_ms": ms("resilience.wal.append"),
        "resilience.wal.appends_per_update": (
            len(by_name.get("resilience.wal.append", ())) / len(updates) if updates else 0.0
        ),
        "query.engine.topk_ms": ms("query.engine.topk"),
        "query.engine.aggregate_ms": 1e3 * mean_or_zero([s.seconds for s in aggregates]),
        "query.topk.points_examined": mean_or_zero(attr_values("query.engine.topk", "examined")),
        "query.topk.useful_ratio": topk_returned / topk_examined if topk_examined else 0.0,
        "query.aggregates.ball_size": mean_or_zero([s.attrs["ball"] for s in aggregates]),
        "query.aggregates.accessed": mean_or_zero([s.attrs["accessed"] for s in aggregates]),
        "query.probability_ms": ms("query.probability"),
        "transform.jl.project_us": 1e6 * mean_or_zero([s.seconds for s in jl]),
        "transform.jl.calls_per_op": len(jl) / per_op,
        "index.search_match_ratio": search_matches / search_examined if search_examined else 0.0,
        "shard.scatter_ms": ms("shard.scatter"),
        "shard.merge_ms": ms("shard.merge"),
        "dynamic.updater_ms": ms("dynamic.updater"),
        "dynamic.reindexed_per_update": mean_or_zero([s.attrs["reindexed"] for s in updates if s.attrs]),
    }
    for op in INDEX_OPS:
        metrics[f"index.{op}_ms"] = ms(f"index.{op}")
        metrics[f"index.{op}_calls"] = len(by_name.get(f"index.{op}", ())) / per_op
    return metrics
