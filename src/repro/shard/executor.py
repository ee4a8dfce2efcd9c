"""The shard executor: per-shard serialized task lanes.

Cracking trees mutate on reads, so every operation touching a shard's
tree — query, refine, insert, delete, validation, tree swap — runs on
that shard's single dispatch lane. Different shards run concurrently;
one shard never does. Two backends share the submission surface:

- ``thread`` (default): one daemon thread per shard draining a queue of
  callables over the shard's engine. Correct for everything (dynamic
  updates, aggregates, chaos injection) but GIL-bound: parallelism in
  wall-clock terms only appears where numpy releases the lock.
- ``fork``: one forked worker process per shard, commands over a pipe.
  The blocking ``recv`` releases the GIL, so shards genuinely run in
  parallel on multiple cores. Forked children snapshot the engine at
  fork time and own the live trees from then on: the fork backend
  serves *static* traffic only. Commands — top-k, and the engine's
  tree validation and rebuilds — run in the children; dynamic updates
  and aggregate/contour operations raise
  :class:`~repro.errors.ServiceError`.

Every task fires the ``shard.task`` chaos injection point and, with
tracing enabled, records a ``shard.task`` span carrying the shard id —
the per-shard span attribute the skew diagnosis workflow keys on.
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import Future
from queue import SimpleQueue

from repro.errors import ServiceError
from repro.obs import trace
from repro.resilience import chaos

_BACKENDS = ("thread", "fork")


class ShardExecutor:
    """Owns the per-shard engines and their serialized task lanes."""

    def __init__(self, shard_engines: list, backend: str = "thread") -> None:
        if backend not in _BACKENDS:
            raise ServiceError(f"unknown shard backend {backend!r}; expected one of {_BACKENDS}")
        self.backend = backend
        self.num_shards = len(shard_engines)
        self._engines = list(shard_engines)
        self._closed = False
        # Skew accounting: single writer per shard (its dispatch thread).
        self._tasks = [0] * self.num_shards
        self._busy_seconds = [0.0] * self.num_shards
        self._queues: list[SimpleQueue] = [SimpleQueue() for _ in range(self.num_shards)]
        self._procs: list = []
        self._pipes: list = []
        if backend == "fork":
            self._start_fork_workers()
        self._threads = [
            threading.Thread(
                target=self._loop, args=(shard,), name=f"shard-{shard}", daemon=True
            )
            for shard in range(self.num_shards)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission --------------------------------------------------------

    def submit(self, shard: int, fn) -> Future:
        """Run ``fn(shard_engine)`` on the shard's lane (thread backend).

        The fork backend cannot run arbitrary callables in its children
        (the parent-side engines are stale snapshots), so this raises;
        :meth:`submit_command` runs on both backends.
        """
        if self.backend != "thread":
            raise ServiceError(
                "the fork shard backend serves static traffic only; "
                "use backend='thread' for updates and aggregates"
            )
        return self._enqueue(shard, fn)

    def submit_command(self, shard: int, command, *args) -> Future:
        """Run ``command(shard_engine, *args)`` on the shard's live engine
        under either backend: on the lane thread, or in the shard's
        worker process under fork. ``command`` must be a module-level
        function (fork pickles it by name), and its arguments and
        result must pickle."""
        if self.backend == "thread":
            return self._enqueue(shard, lambda engine: command(engine, *args))
        return self._enqueue(shard, (command, args))

    def scatter(self, fn) -> list:
        """Run ``fn(shard_engine)`` on every shard; gather in shard order."""
        futures = [self.submit(shard, fn) for shard in range(self.num_shards)]
        return [future.result() for future in futures]

    def scatter_specs(self, spec) -> list:
        """Run one top-k spec on every shard; gather in shard order."""
        futures = [self.submit_command(shard, _topk, spec) for shard in range(self.num_shards)]
        return [future.result() for future in futures]

    def run_on(self, shard: int, fn):
        """Synchronous :meth:`submit`."""
        return self.submit(shard, fn).result()

    def _enqueue(self, shard: int, task) -> Future:
        if self._closed:
            raise ServiceError("shard executor is closed")
        future: Future = Future()
        ctx = contextvars.copy_context() if trace.enabled() else None
        self._queues[shard].put((task, future, ctx))
        return future

    # -- dispatch lanes ----------------------------------------------------

    def _loop(self, shard: int) -> None:
        queue = self._queues[shard]
        while True:
            item = queue.get()
            if item is None:
                return
            task, future, ctx = item
            if not future.set_running_or_notify_cancel():
                continue
            start = time.perf_counter()
            try:
                if ctx is not None:
                    result = ctx.run(self._run_task, shard, task)
                else:
                    result = self._run_task(shard, task)
            except BaseException as exc:
                future.set_exception(exc)
            else:
                future.set_result(result)
            finally:
                self._tasks[shard] += 1
                self._busy_seconds[shard] += time.perf_counter() - start

    def _run_task(self, shard: int, task):
        with trace.span("shard.task", shard=shard):
            chaos.fire("shard.task")
            if self.backend == "thread":
                return task(self._engines[shard])
            return self._roundtrip(shard, task)

    # -- fork backend ------------------------------------------------------

    def _start_fork_workers(self) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        for shard in range(self.num_shards):
            parent_conn, child_conn = ctx.Pipe()
            # fork start method: the child inherits the engine via COW
            # memory, nothing is pickled at spawn time.
            proc = ctx.Process(
                target=_shard_child_main,
                args=(child_conn, self._engines[shard]),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._pipes.append(parent_conn)
            self._procs.append(proc)

    def _roundtrip(self, shard: int, command):
        conn = self._pipes[shard]
        try:
            conn.send(command)
            status, payload = conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise ServiceError(f"shard {shard} worker process died: {exc!r}") from exc
        if status == "err":
            raise payload
        return payload

    # -- introspection / lifecycle ----------------------------------------

    def stats(self) -> dict:
        """Per-shard task counts and busy time, plus a skew ratio
        (max shard busy time over the mean; 1.0 is perfectly even)."""
        busy = list(self._busy_seconds)
        mean = sum(busy) / len(busy) if busy else 0.0
        skew = (max(busy) / mean) if mean > 0 else 1.0
        return {
            "backend": self.backend,
            "shards": self.num_shards,
            "tasks": list(self._tasks),
            "busy_seconds": [round(b, 6) for b in busy],
            "busy_skew": round(skew, 4),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for queue in self._queues:
            queue.put(None)
        for thread in self._threads:
            thread.join(timeout=2.0)
        for conn in self._pipes:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck child
                proc.terminate()
        for conn in self._pipes:
            conn.close()


def _topk(engine, spec):
    """The top-k command: Algorithm 3 on one shard's tree."""
    return engine._run_topk_spec(spec)


def _shard_child_main(conn, shard_engine) -> None:  # pragma: no cover - child process
    """Forked shard worker: run ``(command, args)`` messages until EOF."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        try:
            command, args = message
            result = command(shard_engine, *args)
        except BaseException as exc:  # noqa: E722 - forwarded to the parent
            try:
                conn.send(("err", exc))
            except Exception:
                conn.send(("err", ServiceError(f"unpicklable shard error: {exc!r}")))
        else:
            conn.send(("ok", result))
