"""Service set-up and the load generators.

Set-up builds a service the way a deployment would, from a graph and
embedding already in memory (or from a saved artifact), and ends when
the service has answered a first query. The load generators are a
closed loop of reader threads and an open-loop writer that times each
update from when it was due to be sent.
"""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass
from time import perf_counter

from repro.dynamic.updater import OnlineUpdater
from repro.persistence import load_engine
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.spec import QuerySpec
from repro.resilience.wal import DurableUpdater
from repro.service.server import QueryService
from repro.shard import ShardedEngine

#: Pool workers of every service (the container has 2 CPUs); the result
#: cache keeps its shipped capacity of 2,048 entries.
WORKERS = 2
#: Set-up ends when the service has answered this query (the same one on
#: every workload, whatever the seed).
PROBE = QuerySpec(entity=0, relation=0, k=10)


@dataclass
class Served:
    """A running service plus what the workload drives besides it."""

    service: QueryService
    durable: DurableUpdater | None = None

    @property
    def engine(self):
        return self.service.engine

    def close(self) -> None:
        self.service.close()
        if self.durable is not None:
            self.durable.close()


def build(workload, graph, model, artifact_dir) -> Served:
    """One set-up of ``workload``'s service, ending when it answers."""
    durable = None
    if workload.writer_rate > 0:
        engine = load_engine(artifact_dir)
        durable = DurableUpdater(OnlineUpdater(engine), artifact_dir)
    else:
        engine = QueryEngine.from_graph(graph, EngineConfig(), model=model)
        if workload.shards > 1:
            engine = ShardedEngine.from_engine(engine, shards=workload.shards, backend="fork")
    service = QueryService(engine, workers=WORKERS)
    if durable is not None:
        service.attach_wal(durable)
    service.execute(PROBE)
    return Served(service, durable)


#: Set-ups per run: at least the minimum, then more until the budget of
#: seconds is spent (a cheap set-up is repeated more, so its median holds).
SETUP_REPS = (5, 20)
SETUP_BUDGET = 0.75


def timed_setups(make):
    """Set up repeatedly; returns (seconds of each set-up, the last
    result). Every earlier result is closed before the next set-up."""
    seconds: list[float] = []
    served = None
    low, high = SETUP_REPS
    while len(seconds) < low or (len(seconds) < high and sum(seconds) < SETUP_BUDGET):
        if served is not None:
            served.close()
        start = perf_counter()
        served = make()
        seconds.append(perf_counter() - start)
    return seconds, served


class Feed:
    """A shared cursor over a generated stream (wraps around at its end)."""

    def __init__(self, items) -> None:
        self.items = items
        self._next = 0
        self._lock = threading.Lock()

    def take(self):
        with self._lock:
            index = self._next
            self._next += 1
        return index, self.items[index % len(self.items)]


@dataclass
class Op:
    """One completed (or failed) operation of a load generator."""

    index: int
    item: object  # the QuerySpec or update
    seconds: float  # latency; for writes, from when it was due
    answer: object = None
    error: str | None = None
    late: float = 0.0  # writes only: how late the generator sent it
    done: float = 0.0  # reads only: completion time (perf_counter)


def closed_loop(
    call, feed: Feed, clients: int, seconds: float, recorder, limit: int | None = None,
    keep=None,
) -> list[Op]:
    """``clients`` threads, each sending its next operation only after the
    previous one completed, until ``seconds`` have passed (or the feed
    has handed out ``limit`` operations). ``keep`` reduces each answer,
    after it is timed, to what the checks need."""
    stop = perf_counter() + seconds
    parts: list[list[Op]] = [[] for _ in range(clients)]

    def client(out: list[Op]) -> None:
        while perf_counter() < stop:
            index, spec = feed.take()
            if limit is not None and index >= limit:
                return
            answer = error = None
            with recorder.span("client.op"):
                start = perf_counter()
                try:
                    answer = call(spec)
                except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                    error = f"{type(exc).__name__}: {exc}"
                elapsed = perf_counter() - start
            done = perf_counter()
            if keep is not None and error is None:
                answer = keep(answer)
            out.append(Op(index, spec, elapsed, answer, error, done=done))

    threads = [threading.Thread(target=client, args=(part,)) for part in parts]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [op for part in parts for op in part]


def open_loop(apply, feed: Feed, rate: float, seconds: float) -> list[Op]:
    """Send one update every ``1/rate`` seconds regardless of completions;
    latency counts from the due time, so a stall delays later updates."""
    start = perf_counter()
    ops: list[Op] = []
    sent = 0
    while True:
        due = start + sent / rate
        if due >= start + seconds:
            return ops
        delay = due - perf_counter()
        if delay > 0:
            time.sleep(delay)
        issued = perf_counter()
        index, update = feed.take()
        error = None
        try:
            apply(update)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            error = f"{type(exc).__name__}: {exc}"
        ops.append(Op(index, update, perf_counter() - due, None, error, issued - due))
        sent += 1


def update_applier(served: Served):
    """Apply one generated update through the pool, so it holds the engine
    exclusively like a query does, and through the WAL."""
    durable = served.durable

    def apply(update) -> None:
        if update[0] == "set_vector":
            _, entity, vector = update
            served.service.pool.execute(lambda engine: durable.set_entity_vector(entity, vector))
        else:
            _, head, relation, tail = update
            served.service.pool.execute(lambda engine: durable.add_edge(head, relation, tail))

    return apply


def freeze_heap() -> None:
    """Move every object alive before the timed phase (the generated
    streams, the loaded graph, the built service) out of the collector's
    reach, as a long-running server would after start-up, so collections
    in the timed phase scan only what the workload allocates."""
    gc.collect()
    gc.freeze()
    # A full collection of the now-empty old generation resets the
    # collector's notion of how large it is, so cyclic garbage made in the
    # timed phase is still collected at the usual rate.
    gc.collect()


def compact(result):
    """The part of a served answer the checks read: top-k ids and
    distances, or an aggregate's value, accessed count and ball size."""
    if hasattr(result, "entities"):
        return Answer(result.entities, result.distances)
    return Answer(value=result.value, accessed=result.accessed, ball_size=result.ball_size)


@dataclass(frozen=True, slots=True)
class Answer:
    entities: tuple = ()
    distances: tuple = ()
    value: float = 0.0
    accessed: int = 0
    ball_size: int = 0


def counter_totals(engine) -> dict[str, int]:
    """The index access counters (summed over shards for a sharded engine)."""
    counters = engine.index.counters
    return {
        "internal_accesses": counters.internal_accesses,
        "leaf_accesses": counters.leaf_accesses,
        "partition_accesses": counters.partition_accesses,
        "points_examined": counters.points_examined,
        "splits": counters.splits,
    }


def cache_counts(service) -> dict[str, int]:
    stats = service.cache.stats()
    return {"hits": stats.hits, "misses": stats.misses, "invalidations": stats.invalidations}


def diff(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}
