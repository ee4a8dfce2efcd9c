"""A bounded worker pool of query-engine replicas.

The cracking R-tree *mutates on reads* (that is the paper's whole
point), so an engine is never safe to share between two in-flight
queries. The pool therefore separates the two axes of concurrency:

- ``workers`` threads pull requests off one bounded queue (they absorb
  bursts, enforce deadlines, and let callers overlap waiting);
- ``engines`` are checked out of an inner free-list for the duration of
  one query, so each engine only ever runs one query at a time.

With one engine, queries serialize onto it — safe, and precisely the
online-index regime, since every query cracks the *same* tree. With N
replica engines, queries shard across them (each replica cracks
independently toward its own workload-adapted shape).

Backpressure: when the request queue is full, :meth:`EnginePool.submit`
raises :class:`~repro.errors.QueueFullError` immediately with a
``retry_after`` hint derived from the observed service rate, instead of
letting latency grow without bound.

Fault tolerance: every worker carries a :class:`_WorkerState` heartbeat.
A worker that dies (a real bug, or an injected
:class:`~repro.errors.WorkerCrashError` from the chaos harness) is
detected by :meth:`EnginePool.reap`, which reclaims any engine the dead
worker had checked out — running a caller-supplied validator over it
before it re-enters rotation — and spawns a replacement thread. A worker
stuck in one request past a hang timeout can be *abandoned*
(:meth:`EnginePool.abandon_hung_workers`): a replacement is spawned
immediately and the straggler exits after its current request, parking
its engine as *suspect* until the next reap validates it. A request is
never silently lost: a crash before the take leaves the request queued
for another worker; a crash mid-query fails that request's future with a
retryable :class:`~repro.errors.TransientServiceError`.
"""

from __future__ import annotations

import contextvars
import itertools
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import (
    DeadlineExceededError,
    QueueFullError,
    ServiceError,
    TransientServiceError,
    WorkerCrashError,
)
from repro.obs import trace
from repro.resilience import chaos


@dataclass
class _Request:
    fn: Callable
    future: Future
    deadline: float | None
    enqueued_at: float
    on_wait: Callable[[float], None] | None = field(default=None)
    # The submitter's contextvars context, captured only while tracing is
    # enabled, so spans opened on the worker thread parent to the
    # request that queued them. None keeps the handoff allocation-free.
    ctx: contextvars.Context | None = field(default=None)


class _WorkerState:
    """Heartbeat record for one worker thread."""

    __slots__ = ("name", "thread", "busy_since", "abandoned", "dead", "exited")

    def __init__(self, name: str) -> None:
        self.name = name
        self.thread: threading.Thread | None = None
        self.busy_since: float | None = None  # set while a request runs
        self.abandoned = False  # told to exit after the current request
        self.dead = False  # thread ended without a clean shutdown/exit
        self.exited = False  # thread ended deliberately


class EnginePool:
    """Runs callables against a fleet of single-threaded engines.

    ``engines`` is one engine or a sequence of replicas. ``fn`` passed to
    :meth:`submit` receives the checked-out engine as its only argument.
    """

    def __init__(
        self,
        engines,
        workers: int = 4,
        max_queue: int = 64,
        on_queue_wait: Callable[[float], None] | None = None,
    ) -> None:
        if not isinstance(engines, (list, tuple)):
            engines = [engines]
        if not engines:
            raise ServiceError("the pool needs at least one engine")
        if workers < 1:
            raise ServiceError("workers must be >= 1")
        if max_queue < 1:
            raise ServiceError("max_queue must be >= 1")
        self.num_engines = len(engines)
        self.num_workers = workers
        self._engines: queue.SimpleQueue = queue.SimpleQueue()
        for engine in engines:
            self._engines.put(engine)
        self._requests: queue.Queue = queue.Queue(maxsize=max_queue)
        self._on_queue_wait = on_queue_wait
        self._closed = False
        self._lock = threading.Lock()
        # EMA of per-request service time, for the retry_after hint.
        self._ema_seconds = 0.005
        self._worker_seq = itertools.count()
        self._workers: list[_WorkerState] = []
        # Engines stranded by crashed workers, awaiting validation.
        self._stranded: dict[str, object] = {}
        # Engines handed back by abandoned (formerly hung) workers.
        self._suspects: list[object] = []
        for _ in range(workers):
            self._spawn_worker()

    def _spawn_worker(self) -> _WorkerState:
        state = _WorkerState(f"repro-pool-{next(self._worker_seq)}")
        state.thread = threading.Thread(
            target=self._worker_loop, args=(state,), name=state.name, daemon=True
        )
        self._workers.append(state)
        state.thread.start()
        return state

    # -- submission --------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting (approximate, by design)."""
        return self._requests.qsize()

    def submit(self, fn: Callable, timeout: float | None = None) -> Future:
        """Enqueue ``fn(engine)``; returns a Future.

        Raises :class:`QueueFullError` when the queue is at capacity and
        :class:`ServiceError` after :meth:`shutdown`. ``timeout`` is a
        deadline from *now*: a request still queued when it expires fails
        with :class:`DeadlineExceededError` (running requests are not
        interrupted mid-query).
        """
        if self._closed:
            raise ServiceError("pool is shut down")
        now = time.monotonic()
        deadline = now + timeout if timeout is not None else None
        future: Future = Future()
        ctx = contextvars.copy_context() if trace.enabled() else None
        request = _Request(fn, future, deadline, now, self._on_queue_wait, ctx)
        try:
            self._requests.put_nowait(request)
        except queue.Full:
            raise QueueFullError(retry_after=self.retry_after_hint()) from None
        return future

    def execute(self, fn: Callable, timeout: float | None = None):
        """Submit and wait; propagates the callable's result/exception."""
        future = self.submit(fn, timeout=timeout)
        # The worker resolves the deadline; an extra slack on the outer
        # wait guards against a wedged engine without busy-looping.
        outer = None if timeout is None else timeout + 60.0
        return future.result(timeout=outer)

    def retry_after_hint(self) -> float:
        """Suggested client back-off: time to drain the current queue."""
        with self._lock:
            ema = self._ema_seconds
        depth = max(1, self.queue_depth)
        return max(0.01, depth * ema / max(1, min(self.num_workers, self.num_engines)))

    # -- worker side -------------------------------------------------------

    def _worker_loop(self, state: _WorkerState) -> None:
        try:
            while True:
                # Clean-crash injection point: fires *before* a request is
                # taken, so nothing is lost — another worker serves it.
                chaos.fire("pool.worker")
                request = self._requests.get()
                if request is None:  # shutdown sentinel
                    state.exited = True
                    return
                now = time.monotonic()
                waited = now - request.enqueued_at
                if request.on_wait is not None:
                    request.on_wait(waited)
                if not request.future.set_running_or_notify_cancel():
                    continue
                if request.deadline is not None and now >= request.deadline:
                    request.future.set_exception(
                        DeadlineExceededError(
                            f"deadline exceeded after {now - request.enqueued_at:.3f}s in queue"
                        )
                    )
                    continue
                engine = self._engines.get()
                state.busy_since = time.monotonic()
                crashed = False
                try:
                    result = self._invoke(request, engine, waited)
                except WorkerCrashError as exc:
                    # Simulated (or deliberate) thread death mid-query:
                    # the caller sees a retryable error; the engine is
                    # stranded for the watchdog to reclaim and validate.
                    crashed = True
                    request.future.set_exception(
                        TransientServiceError(f"worker {state.name} crashed: {exc}")
                    )
                    with self._lock:
                        self._stranded[state.name] = engine
                    raise
                except BaseException as exc:  # noqa: BLE001 - forwarded to caller
                    request.future.set_exception(exc)
                else:
                    request.future.set_result(result)
                finally:
                    start, state.busy_since = state.busy_since, None
                    if not crashed:
                        elapsed = time.monotonic() - (start or now)
                        with self._lock:
                            self._ema_seconds += 0.2 * (elapsed - self._ema_seconds)
                        if state.abandoned:
                            # Formerly hung: a replacement already exists.
                            # Park the engine as suspect instead of putting
                            # it straight back into rotation.
                            with self._lock:
                                self._suspects.append(engine)
                        else:
                            self._engines.put(engine)
                if state.abandoned:
                    state.exited = True
                    return
        except WorkerCrashError:
            pass
        finally:
            if not state.exited:
                state.dead = True

    def _invoke(self, request: _Request, engine, waited: float):
        """Run one request on its engine, under the submitter's trace
        context when one was captured. The dirty-crash injection point
        fires inside the context so an injected fault lands on the
        request's trace as a span event."""
        if request.ctx is None:
            # Dirty-crash injection point: the engine is checked out and
            # the request is in flight.
            chaos.fire("pool.worker.dirty")
            return request.fn(engine)
        return request.ctx.run(self._invoke_traced, request, engine, waited)

    @staticmethod
    def _invoke_traced(request: _Request, engine, waited: float):
        trace.record_span("pool.queue_wait", waited)
        with trace.span(
            "pool.execute", worker=threading.current_thread().name
        ):
            chaos.fire("pool.worker.dirty")
            return request.fn(engine)

    # -- supervision -------------------------------------------------------

    def worker_states(self) -> list[dict]:
        """Heartbeat snapshot for ``/healthz``."""
        now = time.monotonic()
        with self._lock:
            workers = list(self._workers)
        out = []
        for state in workers:
            busy = state.busy_since
            out.append(
                {
                    "name": state.name,
                    "alive": state.thread.is_alive() if state.thread else False,
                    "busy_seconds": round(now - busy, 6) if busy is not None else None,
                    "abandoned": state.abandoned,
                    "dead": state.dead,
                }
            )
        return out

    def reap(self, validate: Callable[[object], None] | None = None) -> dict:
        """Detect dead workers, reclaim their engines, spawn replacements.

        ``validate`` (if given) is called with each reclaimed or suspect
        engine *before* it re-enters rotation — typically the engine's
        ``validate`` or a ladder's ``repair``. A validator that raises
        keeps the engine out of rotation permanently (better one fewer
        replica than a corrupt one); with replicas the pool keeps serving.

        Returns counts: ``{"restarted": n, "reclaimed": n, "quarantined": n}``.
        """
        restarted = reclaimed = quarantined = 0
        with self._lock:
            dead = [
                s
                for s in self._workers
                if s.dead or (s.thread is not None and not s.thread.is_alive() and not s.exited)
            ]
            for state in dead:
                self._workers.remove(state)
            exited = [s for s in self._workers if s.exited]
            for state in exited:
                self._workers.remove(state)
            stranded = [self._stranded.pop(s.name) for s in dead if s.name in self._stranded]
            suspects, self._suspects = self._suspects, []
        for engine in stranded + suspects:
            try:
                if validate is not None:
                    validate(engine)
            except Exception:
                quarantined += 1
                continue
            self._engines.put(engine)
            reclaimed += 1
        if not self._closed:
            with self._lock:
                missing = self.num_workers - sum(
                    1 for s in self._workers if not s.abandoned
                )
            for _ in range(max(0, missing)):
                self._spawn_worker()
                restarted += 1
        return {"restarted": restarted, "reclaimed": reclaimed, "quarantined": quarantined}

    def abandon_hung_workers(self, hang_timeout: float) -> int:
        """Give up on workers stuck in one request for over ``hang_timeout``.

        Python threads cannot be killed, so a hung worker is *abandoned*:
        flagged to exit after its current request (its engine then parks
        as suspect) and replaced immediately so throughput recovers.
        Returns the number of workers abandoned.
        """
        now = time.monotonic()
        hung = []
        with self._lock:
            for state in self._workers:
                busy = state.busy_since
                if (
                    not state.abandoned
                    and not state.dead
                    and busy is not None
                    and now - busy > hang_timeout
                ):
                    state.abandoned = True
                    hung.append(state)
        if not self._closed:
            for _ in hung:
                self._spawn_worker()
        return len(hung)

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; still-queued requests fail immediately.

        Requests that have not started when shutdown begins get a
        :class:`ServiceError` on their future — callers waiting on them
        are released promptly instead of racing the worker teardown.
        Requests already executing run to completion.
        """
        if self._closed:
            return
        self._closed = True
        self._fail_queued()
        with self._lock:
            workers = list(self._workers)
        for _ in workers:
            self._requests.put(None)
        if wait:
            for state in workers:
                if state.thread is not None:
                    state.thread.join(timeout=30.0)
        self._fail_queued()

    def _fail_queued(self) -> None:
        while True:
            try:
                request = self._requests.get_nowait()
            except queue.Empty:
                return
            if request is None:
                continue
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(ServiceError("pool is shut down"))

    def __enter__(self) -> "EnginePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
