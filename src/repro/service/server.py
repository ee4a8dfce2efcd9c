"""The query service façade and its stdlib HTTP front-end.

:class:`QueryService` is the programmatic entry point: it owns an
:class:`~repro.service.pool.EnginePool`, an LRU+TTL
:class:`~repro.service.cache.ResultCache`, and a
:class:`~repro.service.metrics.ServingMetrics` registry, and serves
every query through one unified call — ``execute(spec)`` with a
:class:`~repro.query.spec.QuerySpec` — that is safe to hammer from many
threads. :func:`make_server` wraps a service in a
``ThreadingHTTPServer`` JSON API:

- ``POST /v1/query`` (a JSON ``QuerySpec``; the one query endpoint for
  both query families, also reachable as ``GET /v1/query?...``). Every
  ``/v1`` response is the ``{"result": ..., "meta": ..., "error": ...}``
  envelope; failures carry a stable machine-readable ``error.code``
  (``bad_request``, ``queue_full``, ``deadline_exceeded``,
  ``circuit_open``, ``transient``, ``internal``). Errors on the other
  endpoints use the same envelope.
- ``GET /metrics`` (plain text; ``?format=json`` for the snapshot,
  ``?format=prometheus`` for the Prometheus text exposition)
- ``GET /healthz`` (per-engine degradation levels, worker heartbeats,
  circuit-breaker state, WAL replication lag)
- ``GET /debug/traces`` (the flight recorder's ring of slow-query
  traces, newest last; ``?limit=N`` caps the count)

``/metrics`` and ``/healthz`` responses are memoized for ``memo_ttl``
seconds (default 1s) so aggressive scrapers cannot contend with query
traffic; query endpoints are never memoized.

When tracing is enabled (``repro serve --trace`` or
:func:`repro.obs.trace.enable`), each query request becomes a trace
rooted at ``http.request`` whose spans decompose the end-to-end latency
— queue wait, index traversal, probability scoring, serialization —
and every completed trace slower than the flight recorder's threshold
is retained for ``/debug/traces``.

Service errors map onto status codes: queue full → 429 (with a
``Retry-After`` header), deadline exceeded → 504, bad query → 400,
open circuit breaker → 503 (with a ``Retry-After`` header).

The fault-tolerance layer is wired here: every query runs through the
:class:`~repro.resilience.degrade.DegradationLadder` (a broken index
falls back to a fresh bulk tree, whose answers are ε-valid Algorithm 3
answers like the native tree's, then to the exact linear scan), the
pool is supervised by a
:class:`~repro.resilience.watchdog.PoolWatchdog`, and a
:class:`~repro.resilience.breaker.CircuitBreaker` sheds load when the
backend itself is failing. What trips the breaker is backend trouble
only — deadline misses, worker crashes, unexpected exceptions — never
malformed queries or backpressure.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    QueueFullError,
    ReproError,
    ServiceError,
    TransientServiceError,
)
from repro.obs import trace
from repro.obs.logging import get_logger
from repro.obs.recorder import FlightRecorder
from repro.query.engine import QueryEngine
from repro.query.spec import DEFAULT_K, QuerySpec
from repro.query.topk import TopKResult
from repro.resilience import chaos
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.degrade import DegradationLadder
from repro.resilience.watchdog import PoolWatchdog
from repro.service.cache import QueryKey, ResultCache
from repro.service.metrics import ServingMetrics
from repro.service.pool import EnginePool

_log = get_logger("repro.service.server")


@dataclass(frozen=True)
class ServiceResult:
    """One served answer plus its serving-side provenance.

    ``result`` is a :class:`~repro.query.topk.TopKResult` for top-k
    specs and an :class:`~repro.query.aggregates.AggregateEstimate` for
    aggregate specs.
    """

    result: TopKResult | object
    cached: bool
    elapsed_seconds: float


class QueryService:
    """Concurrent serving façade over one or more :class:`QueryEngine`.

    Pass a single engine to serialize all queries onto one cracking
    index (the online-index regime), or a list of replicas to shard
    across them. The service attaches its cache to the *first* engine as
    ``engine.result_cache`` so :func:`repro.query.batch.run_batch` can
    route through it.
    """

    def __init__(
        self,
        engine: QueryEngine | list[QueryEngine],
        workers: int = 4,
        max_queue: int = 128,
        cache_capacity: int = 2048,
        cache_ttl: float | None = None,
        default_timeout: float | None = None,
        breaker: CircuitBreaker | None = None,
        watchdog_interval: float = 0.25,
        hang_timeout: float = 30.0,
        supervise: bool = True,
        trace_threshold: float = 0.05,
        trace_capacity: int = 64,
    ) -> None:
        engines = engine if isinstance(engine, (list, tuple)) else [engine]
        self.engine = engines[0]
        self.default_timeout = default_timeout
        self.cache = ResultCache(capacity=cache_capacity, ttl_seconds=cache_ttl)
        self.metrics = ServingMetrics(
            queue_depth=lambda: self.pool.queue_depth,
            cache_stats=self.cache.stats,
        )
        # A concurrency-safe engine (the sharded scatter-gather engine,
        # which serializes per shard internally) goes into the free-list
        # once per worker: every worker can run queries on it at once
        # instead of serializing on a single checkout.
        self._sharded = getattr(self.engine, "is_sharded", False)
        if (
            len(engines) == 1
            and getattr(self.engine, "concurrency_safe", False)
        ):
            pool_engines = [self.engine] * workers
        else:
            pool_engines = list(engines)
        self.pool = EnginePool(
            pool_engines,
            workers=workers,
            max_queue=max_queue,
            on_queue_wait=self.metrics.record_queue_wait,
        )
        self.engine.result_cache = self.cache
        self.ladder = DegradationLadder(metrics=self.metrics)
        self.breaker = breaker or CircuitBreaker(
            on_transition=lambda old, new: self.metrics.increment("breaker_transitions")
        )
        self.watchdog = PoolWatchdog(
            self.pool,
            interval=watchdog_interval,
            hang_timeout=hang_timeout,
            ladder=self.ladder,
            metrics=self.metrics,
        )
        if supervise:
            self.watchdog.start()
        self.metrics.register_gauge("breaker", self.breaker.snapshot)
        self.metrics.register_gauge("degradation", self.ladder.levels)
        if self._sharded:
            self.metrics.register_gauge("shards", self.engine.shard_stats)
        # Slow-query flight recorder: retains completed traces whose
        # end-to-end duration exceeds the threshold (only populated
        # while tracing is enabled). Served on /debug/traces.
        self.recorder = FlightRecorder(
            capacity=trace_capacity, threshold_seconds=trace_threshold
        )
        trace.add_listener(self.recorder.record)
        self._wal = None
        self._closed = False

    # -- dynamic updates ---------------------------------------------------

    def attach_updater(self, updater) -> None:
        """Wire an :class:`~repro.dynamic.updater.OnlineUpdater` so its
        updates invalidate this service's cache."""
        updater.add_listener(self._on_update)

    def attach_wal(self, durable) -> None:
        """Wire a :class:`~repro.resilience.wal.DurableUpdater`: cache
        invalidation plus a ``wal`` gauge (replication lag) on
        ``/metrics`` and ``/healthz``."""
        self.attach_updater(durable)
        self._wal = durable
        self.metrics.register_gauge("wal", durable.lag)

    def _on_update(self, event) -> None:
        evicted = self.cache.handle_update(event)
        self.metrics.increment("invalidations", evicted)

    # -- queries -----------------------------------------------------------

    def execute(self, spec: QuerySpec, timeout: float | None = None) -> ServiceResult:
        """Serve one :class:`~repro.query.spec.QuerySpec` — the unified
        entry point both query families and every API generation route
        through (cache → breaker → pool → ladder → engine).

        Top-k specs in their canonical form (no type filter, no
        per-query epsilon override) are cached; typed or
        epsilon-overridden specs and all aggregate specs bypass the
        cache (aggregates depend on continuous knobs like ``p_tau``).
        """
        if spec.mode == "aggregate":
            return self._execute_aggregate(spec, timeout)
        return self._execute_topk(spec, timeout)

    def _execute_topk(self, spec: QuerySpec, timeout: float | None) -> ServiceResult:
        with trace.span("service.topk") as sp:
            sp.set_attribute("k", spec.k)
            sp.set_attribute("direction", spec.direction)
            start = time.perf_counter()
            # Typed or epsilon-overridden queries are a different result
            # space; only the canonical form is cached.
            cacheable = spec.entity_type is None and spec.epsilon is None
            key = (
                QueryKey(spec.entity, spec.relation, spec.direction, spec.k)
                if cacheable
                else None
            )
            if key is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    elapsed = time.perf_counter() - start
                    self.metrics.record_request(elapsed, cache_hit=True)
                    sp.set_attribute("cached", True)
                    return ServiceResult(cached, True, elapsed)
            sp.set_attribute("cached", False)
            timeout = timeout if timeout is not None else self.default_timeout

            def run(engine):
                chaos.fire("service.query")
                return self.ladder.run_topk(engine, spec)

            result, explain = self._guarded(run, timeout)
            if key is not None:
                self.cache.put(key, result)
            if self._sharded:
                self.metrics.increment("shard_fanouts")
            elapsed = time.perf_counter() - start
            self.metrics.record_request(elapsed, cache_hit=False, explain=explain)
            return ServiceResult(result, False, elapsed)

    def _execute_aggregate(self, spec: QuerySpec, timeout: float | None) -> ServiceResult:
        with trace.span("service.aggregate") as sp:
            sp.set_attribute("kind", spec.agg)
            sp.set_attribute("direction", spec.direction)
            timeout = timeout if timeout is not None else self.default_timeout
            start = time.perf_counter()

            def run(engine):
                chaos.fire("service.query")
                return self.ladder.run_aggregate(engine, spec)

            estimate = self._guarded(run, timeout)
            if self._sharded:
                self.metrics.increment("shard_fanouts")
            elapsed = time.perf_counter() - start
            self.metrics.record_request(elapsed, cache_hit=False)
            return ServiceResult(estimate, False, elapsed)

    # -- guarded execution -------------------------------------------------

    def _guarded(self, fn, timeout: float | None):
        """Run ``fn`` on a pooled engine behind the circuit breaker.

        The breaker records only *backend* failures: deadline misses,
        worker crashes (:class:`TransientServiceError`) and unexpected
        exceptions. Client errors (bad query → ``ReproError`` subtypes
        like ``QueryError``) and backpressure (``QueueFullError``) pass
        through without an outcome — user mistakes and full queues must
        not open the circuit.
        """
        try:
            self.breaker.allow()
        except CircuitOpenError:
            self.metrics.increment("breaker_rejections")
            self.metrics.increment("rejected")
            raise
        try:
            result = self.pool.execute(fn, timeout=timeout)
        except QueueFullError:
            self.breaker.record_ignored()
            self.metrics.increment("rejected")
            raise
        except DeadlineExceededError:
            self.breaker.record_failure()
            self.metrics.increment("deadline_exceeded")
            raise
        except TransientServiceError:
            self.breaker.record_failure()
            self.metrics.increment("errors")
            raise
        except ReproError:
            self.breaker.record_ignored()
            self.metrics.increment("errors")
            raise
        except BaseException:
            self.breaker.record_failure()
            self.metrics.increment("errors")
            raise
        self.breaker.record_success()
        return result

    # -- name resolution ---------------------------------------------------

    def _entity_id(self, value: int | str) -> int:
        if isinstance(value, str):
            return self.engine.graph.entities.id_of(value)
        return int(value)

    def _relation_id(self, value: int | str) -> int:
        if isinstance(value, str):
            return self.engine.graph.relations.id_of(value)
        return int(value)

    # -- introspection / lifecycle ----------------------------------------

    def healthy(self) -> bool:
        return not self._closed

    def health(self) -> dict:
        """The ``/healthz`` body: liveness plus fault-tolerance state."""
        degradation = self.ladder.levels()
        status = "closed" if self._closed else (
            "degraded"
            if any(level["level"] > 0 for level in degradation)
            or self.breaker.state != "closed"
            else "ok"
        )
        body = {
            "status": status,
            "queue_depth": self.pool.queue_depth,
            "workers": self.pool.worker_states(),
            "breaker": self.breaker.snapshot(),
            "degradation": degradation,
            "watchdog": self.watchdog.snapshot(),
        }
        if self._wal is not None:
            body["wal"] = self._wal.lag()
        return body

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            trace.remove_listener(self.recorder.record)
            self.watchdog.stop()
            self.pool.shutdown()
            if self._sharded:
                # The service manages the sharded engine's lanes (and
                # fork workers); stop them with the pool.
                self.engine.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- HTTP layer ------------------------------------------------------------


def _status_of(exc: Exception) -> int:
    if isinstance(exc, QueueFullError):
        return 429
    if isinstance(exc, DeadlineExceededError):
        return 504
    if isinstance(exc, ServiceError):
        return 503
    if isinstance(exc, ReproError) or isinstance(exc, (KeyError, ValueError)):
        return 400
    return 500


def _error_code(exc: Exception) -> str:
    """The stable machine-readable code for the ``/v1`` error envelope.

    Codes are part of the API contract: clients branch on them (retry on
    ``queue_full``/``transient``/``circuit_open``, fix the request on
    ``bad_request``), so they never change even if exception class names
    do. The HTTP status for a code is exactly what :func:`_status_of`
    maps the exception to.
    """
    if isinstance(exc, QueueFullError):
        return "queue_full"
    if isinstance(exc, DeadlineExceededError):
        return "deadline_exceeded"
    if isinstance(exc, CircuitOpenError):
        return "circuit_open"
    if isinstance(exc, TransientServiceError):
        return "transient"
    if isinstance(exc, ServiceError):
        return "unavailable"
    if isinstance(exc, ReproError) or isinstance(exc, (KeyError, ValueError)):
        return "bad_request"
    return "internal"


def _ref_of(value) -> int | str:
    """Entity/relation values accept a numeric id (int or digit string)
    or a name."""
    if isinstance(value, str):
        return int(value) if value.lstrip("-").isdigit() else value
    return int(value)


def _spec_of(service: QueryService, params: dict) -> tuple[QuerySpec, float | None]:
    """Build a :class:`QuerySpec` (plus the request timeout) from request
    parameters — the one place where ``k``, ``epsilon`` and every other
    query knob defaults.

    ``params`` values may be strings (query parameters) or native JSON
    types (the ``/v1/query`` body); both spell the same spec.
    """
    for required in ("entity", "relation"):
        if params.get(required) is None:
            raise ValueError(f"{required} parameter is required")
    entity = service._entity_id(_ref_of(params["entity"]))
    relation = service._relation_id(_ref_of(params["relation"]))
    direction = params.get("direction") or "tail"
    timeout = float(params["timeout"]) if params.get("timeout") is not None else None
    mode = params.get("mode") or (
        "aggregate" if params.get("agg") or params.get("kind") else "topk"
    )
    if mode == "aggregate":
        agg = params.get("agg") or params.get("kind")
        if agg is None:
            raise ValueError("agg (or legacy kind) parameter is required")
        kwargs = {}
        if params.get("p_tau") is not None:
            kwargs["p_tau"] = float(params["p_tau"])
        if params.get("access_fraction") is not None:
            kwargs["access_fraction"] = float(params["access_fraction"])
        if params.get("max_access") is not None:
            kwargs["max_access"] = int(params["max_access"])
        spec = QuerySpec(
            entity=entity,
            relation=relation,
            direction=direction,
            mode="aggregate",
            agg=agg,
            attribute=params.get("attribute"),
            **kwargs,
        )
    else:
        spec = QuerySpec(
            entity=entity,
            relation=relation,
            direction=direction,
            k=int(params["k"]) if params.get("k") is not None else DEFAULT_K,
            entity_type=params.get("type") or params.get("entity_type"),
            epsilon=float(params["epsilon"]) if params.get("epsilon") is not None else None,
        )
    return spec, timeout


def _topk_payload(service: QueryService, result: TopKResult) -> dict:
    """The top-k result body: ``/v1/query``'s ``result`` field."""
    graph = service.engine.graph
    probabilities = service.engine.probabilities(result)
    return {
        "entities": list(result.entities),
        "names": [graph.entities.name_of(e) for e in result.entities],
        "distances": list(result.distances),
        "probabilities": list(probabilities),
    }


def _aggregate_payload(estimate) -> dict:
    """The aggregate result body: ``/v1/query``'s ``result`` field."""
    return {
        "kind": estimate.kind,
        "value": float(estimate.value),
        "accessed": int(estimate.accessed),
        "ball_size": int(estimate.ball_size),
        "p_tau": float(estimate.p_tau),
    }


class _ServiceHandler(BaseHTTPRequestHandler):
    server: "ServiceHTTPServer"

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # keep test output and servers quiet

    def _send(self, status: int, body: bytes, content_type: str, headers=()):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict, headers=()):
        body = json.dumps(payload).encode("utf-8")
        self._send(status, body, "application/json", headers)

    def _send_error(self, exc: Exception):
        """The one error writer: the ``/v1`` envelope with the status of
        :func:`_status_of` and a stable ``error.code``."""
        headers = []
        if isinstance(exc, (QueueFullError, CircuitOpenError)):
            headers.append(("Retry-After", f"{exc.retry_after:.3f}"))
        self._send_json(
            _status_of(exc),
            {
                "result": None,
                "meta": {"api": "v1"},
                "error": {"code": _error_code(exc), "message": str(exc)},
            },
            headers,
        )

    # -- routing -----------------------------------------------------------

    def do_GET(self):  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        params = {k: v[-1] for k, v in parse_qs(url.query).items()}
        if url.path == "/v1/query":
            self._route_v1(params)
            return
        try:
            if url.path == "/metrics":
                self._handle_metrics(params)
            elif url.path == "/healthz":
                self._handle_healthz()
            elif url.path == "/debug/traces":
                self._handle_traces(params)
            else:
                self._send_json(404, {"error": "NotFound", "detail": url.path})
        except Exception as exc:  # noqa: BLE001 - mapped to a status code
            self._send_error(exc)

    def do_POST(self):  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        if url.path != "/v1/query":
            self._send_json(404, {"error": "NotFound", "detail": url.path})
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b"{}"
            params = json.loads(raw.decode("utf-8"))
            if not isinstance(params, dict):
                raise ValueError("the request body must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_error(exc)
            return
        self._route_v1(params)

    def _route_v1(self, params: dict) -> None:
        try:
            with trace.span("http.request") as sp:
                sp.set_attribute("path", "/v1/query")
                self._handle_v1_query(params)
        except Exception as exc:  # noqa: BLE001 - mapped to a status code
            self._send_error(exc)

    # -- endpoints ---------------------------------------------------------

    def _handle_v1_query(self, params: dict) -> None:
        service = self.server.service
        spec, timeout = _spec_of(service, params)
        detail = service.execute(spec, timeout=timeout)
        with trace.span("http.serialize"):
            if spec.mode == "topk":
                result = _topk_payload(service, detail.result)
            else:
                result = _aggregate_payload(detail.result)
            self._send_json(
                200,
                {
                    "result": result,
                    "meta": {
                        "api": "v1",
                        "mode": spec.mode,
                        "cached": detail.cached,
                        "elapsed_seconds": detail.elapsed_seconds,
                    },
                    "error": None,
                },
            )

    def _handle_metrics(self, params: dict[str, str]) -> None:
        metrics = self.server.service.metrics
        fmt = params.get("format", "text")
        if fmt == "json":
            status, body, ctype = self.server.memo.get(
                ("metrics", "json"),
                lambda: (
                    200,
                    json.dumps(metrics.snapshot()).encode("utf-8"),
                    "application/json",
                ),
            )
        elif fmt == "prometheus":
            status, body, ctype = self.server.memo.get(
                ("metrics", "prometheus"),
                lambda: (
                    200,
                    metrics.to_prometheus().encode("utf-8"),
                    "text/plain; version=0.0.4",
                ),
            )
        else:
            status, body, ctype = self.server.memo.get(
                ("metrics", "text"),
                lambda: (200, metrics.report().encode("utf-8"), "text/plain"),
            )
        self._send(status, body, ctype)

    def _handle_healthz(self) -> None:
        service = self.server.service
        status, body, ctype = self.server.memo.get(
            ("healthz",),
            lambda: (
                200 if service.healthy() else 503,
                json.dumps(service.health()).encode("utf-8"),
                "application/json",
            ),
        )
        self._send(status, body, ctype)

    def _handle_traces(self, params: dict[str, str]) -> None:
        recorder = self.server.service.recorder
        limit = int(params["limit"]) if "limit" in params else None
        self._send_json(
            200,
            {
                "tracing_enabled": trace.enabled(),
                "stats": recorder.stats(),
                "traces": recorder.dump(limit),
            },
        )


class _ScrapeMemo:
    """TTL memoization of scrape-endpoint responses.

    ``/metrics`` and ``/healthz`` walk every registered metric (and pull
    gauges that take other subsystems' locks); a monitoring stack
    polling several formats at sub-second intervals would contend with
    query traffic for those locks. Responses are cached per key for
    ``ttl`` seconds — staleness is bounded and harmless for scrapes.
    """

    def __init__(self, ttl: float = 1.0) -> None:
        self.ttl = ttl
        self._lock = threading.Lock()
        self._entries: dict[tuple, tuple[float, object]] = {}

    def get(self, key: tuple, build):
        if self.ttl <= 0:
            return build()
        now = time.monotonic()
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None and now - hit[0] < self.ttl:
                return hit[1]
        value = build()
        with self._lock:
            self._entries[key] = (time.monotonic(), value)
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class ServiceHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` bound to one :class:`QueryService`."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: QueryService,
        memo_ttl: float = 1.0,
    ) -> None:
        super().__init__(address, _ServiceHandler)
        self.service = service
        self.memo = _ScrapeMemo(ttl=memo_ttl)


def make_server(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8080,
    memo_ttl: float = 1.0,
) -> ServiceHTTPServer:
    """Bind (but do not start) the HTTP front-end; ``port=0`` picks a
    free port (see ``server.server_address``). ``memo_ttl`` bounds the
    staleness of memoized ``/metrics`` and ``/healthz`` responses
    (0 disables memoization)."""
    return ServiceHTTPServer((host, port), service, memo_ttl=memo_ttl)


def serve_forever(service: QueryService, host: str = "127.0.0.1", port: int = 8080):
    """Blocking entry point used by ``python -m repro serve``."""
    from repro.obs.logging import configure

    configure()  # idempotent; a process-level CLI owns its log handler
    server = make_server(service, host, port)
    bound_host, bound_port = server.server_address[:2]
    _log.info(
        "serving",
        url=f"http://{bound_host}:{bound_port}",
        endpoints=["/v1/query", "/metrics", "/healthz", "/debug/traces"],
        tracing=trace.enabled(),
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    return server


def start_in_thread(
    service: QueryService, host: str = "127.0.0.1", port: int = 0
) -> tuple[ServiceHTTPServer, threading.Thread]:
    """Start the HTTP server on a daemon thread (tests, notebooks)."""
    server = make_server(service, host, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread
