"""Runs one workload end to end and builds its result line.

Phases: make sure the dataset artifact exists (its generation is not
timed), generate the operation streams from the seed, set the service
up several times, drive the load for ``--seconds`` (in alternating
traced and untraced slices with ``--trace 1``), then check every answer
and compute answer quality against exact ground truth, outside the
timed phase.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from checks import Truth, accuracy, check_aggregate, check_envelope, check_topk, recall
from measure import mean_or_zero, percentile_or_zero, windowed, windowed_rate
from opstream import WORKLOADS, query_pool, read_stream, write_stream
from repro.persistence import load_engine
from repro.query.spec import QuerySpec
from repro.resilience.recovery import recover_engine
from repro.service.cache import QueryKey
from serving import (
    Feed,
    build,
    cache_counts,
    closed_loop,
    compact,
    counter_totals,
    diff,
    freeze_heap,
    open_loop,
    timed_setups,
    update_applier,
)
from tracing import Recorder, install_layers, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Length of one traced or untraced slice of a ``--trace 1`` run.
SLICE_SECONDS = 1.0
#: Ground truth (an exact scan per spec) is computed for the first this
#: many distinct top-k answers and aggregates of a run; every answer is
#: still checked.
RECALL_SAMPLE = 2000
ACCURACY_SAMPLE = 400
#: Post-run samples of the mixed read/write workload.
PROBE_TOPK = 300
PROBE_AGGREGATES = 40
CACHE_SAMPLE = 100

E2E = {
    "setup_s": "s",
    "topk_p50_ms": "ms",
    "topk_p99_ms": "ms",
    "read_ops_per_s": "ops/s",
    "recall_at_k": "fraction",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "server.http_self_ms": "ms",
    "server.response_bytes": "bytes",
    "service.execute_ms": "ms",
    "service.cache.hit_ratio": "fraction",
    "service.cache.invalidations_per_update": "count",
    "service.pool.queue_wait_p50_ms": "ms",
    "service.pool.queue_wait_p99_ms": "ms",
    "resilience.ladder.self_ms": "ms",
    "resilience.ladder.degraded_answers": "count",
    "resilience.wal.append_ms": "ms",
    "resilience.wal.appends_per_update": "count",
    "resilience.wal.bytes_per_update": "bytes",
    "query.engine.topk_ms": "ms",
    "query.engine.aggregate_ms": "ms",
    "query.topk.points_examined": "count",
    "query.topk.useful_ratio": "fraction",
    "query.aggregates.ball_size": "count",
    "query.aggregates.accessed": "count",
    "query.probability_ms": "ms",
    "transform.jl.project_us": "us",
    "transform.jl.calls_per_op": "count",
    **{f"index.{op}_ms": "ms" for op in ("probe", "search", "refine", "contour", "stats", "insert", "delete")},
    **{f"index.{op}_calls": "count" for op in ("probe", "search", "refine", "contour", "stats", "insert", "delete")},
    "index.internal_accesses": "count",
    "index.leaf_accesses": "count",
    "index.partition_accesses": "count",
    "index.points_examined": "count",
    "index.splits": "count",
    "index.search_match_ratio": "fraction",
    "index.node_count": "count",
    "shard.scatter_ms": "ms",
    "shard.merge_ms": "ms",
    "shard.busy_skew": "ratio",
    "dynamic.updater_ms": "ms",
    "dynamic.reindexed_per_update": "count",
    "scan.exact_topk_ms": "ms",
    "loadgen.writer_late_p95_ms": "ms",
    "bench.trace_overhead_frac": "fraction",
    "agg_p50_ms": "ms",
    "agg_p95_ms": "ms",
    "agg_accuracy": "fraction",
    "update_p50_ms": "ms",
    "update_p95_ms": "ms",
}


@dataclass
class Slice:
    traced: bool
    start: float
    seconds: float
    reads: list
    writes: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)


@dataclass
class Quality:
    """Outcome of the answer checks and ground-truth comparison."""

    errors: list[str] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    seen: dict = field(default_factory=dict)  # distinct top-k answer -> (error, recall)

    @property
    def recall(self) -> float:
        """Mean recall over the distinct top-k answers (a cached answer
        served a thousand times counts once)."""
        return mean_or_zero([share for _, share in self.seen.values() if share is not None])

    def check(self, error: str | None) -> None:
        if error is not None:
            self.errors.append(error)


def slice_plan(seconds: float, trace: bool) -> list[tuple[bool, float]]:
    """One untraced slice, or an even number of alternating slices."""
    if not trace:
        return [(False, seconds)]
    count = max(2, 2 * round(seconds / (2 * SLICE_SECONDS)))
    return [(i % 2 == 1, seconds / count) for i in range(count)]


def source_digest(src: Path) -> str:
    """Content hash of the package sources: a cached dataset artifact is
    reused only by the exact code that generated it."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_dataset(name: str, env: dict) -> Path:
    data = ROOT / ".bench_work" / "data"
    path = data / f"{name}-{source_digest(ROOT / 'src' / 'repro')}"
    if not (path / "meta.json").is_file():
        for stale in data.glob(f"{name}-*"):
            shutil.rmtree(stale, ignore_errors=True)
        subprocess.run(
            [sys.executable, str(HERE / "datagen.py"), name, str(path)],
            env=env, cwd=ROOT, check=True, timeout=600,
        )
    return path


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    data = ensure_dataset(workload.dataset, env)
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        base = load_engine(data)
        reads = read_stream(workload, base.graph, seed, int(seconds * 1500) + 1000)
        writes = []
        if workload.writer_rate:
            vectors = base.model.entity_vectors()
            writes = write_stream(base.graph, vectors, seed, int(seconds * workload.writer_rate) + 10)
        if workload.transport == "http":
            return run_http(workload, base, data, reads, seed, seconds, trace, env)
        return run_inproc(workload, base, data, work, reads, writes, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _drive(plan, recorder, run_slice) -> list[Slice]:
    slices = []
    for traced, length in plan:
        recorder.enabled = traced
        start = perf_counter()
        reads, writes, counters = run_slice(traced, length)
        recorder.enabled = False
        slices.append(Slice(traced, start, perf_counter() - start, reads, writes, counters))
    return slices


def run_inproc(workload, base, data, work, reads, writes, seconds, trace) -> dict:
    artifact = data
    if workload.writer_rate:
        artifact = work / "artifact"  # the WAL is written next to the snapshot
        shutil.copytree(data, artifact)
    setups, served = timed_setups(lambda: build(workload, base.graph, base.model, artifact))
    try:
        return _measure_inproc(workload, base, served, setups, artifact, reads, writes, seconds, trace)
    finally:
        served.close()


def _measure_inproc(workload, base, served, setups, artifact, reads, writes, seconds, trace):
    service, engine = served.service, served.engine
    recorder = Recorder()
    try:
        if trace:
            install_layers(recorder)
        feed, write_feed = Feed(reads), Feed(writes)
        apply = update_applier(served) if writes else None

        def run_slice(traced: bool, length: float):
            before = counter_totals(engine)
            written: list = []
            writer = None
            if apply is not None:
                writer = threading.Thread(
                    target=lambda: written.extend(
                        open_loop(apply, write_feed, workload.writer_rate, length)
                    )
                )
                writer.start()
            ops = closed_loop(
                lambda spec: service.execute(spec).result,
                feed, workload.clients, length, recorder, keep=compact,
            )
            if writer is not None:
                writer.join()
            return ops, written, diff(counter_totals(engine), before)

        cache_base = cache_counts(service)
        wal_base = served.durable.wal.size_bytes if served.durable else 0
        freeze_heap()
        slices = _drive(slice_plan(seconds, trace), recorder, run_slice)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cache = diff(cache_counts(service), cache_base)
        wal_bytes = served.durable.wal.size_bytes - wal_base if served.durable else 0
        node_count = engine.index.stats().node_count
        busy_skew = engine.shard_stats()["busy_skew"] if workload.shards > 1 else 0.0
        traced_ops = sum(len(s.reads) + len(s.writes) for s in slices if s.traced)
        layers = layer_metrics(recorder, traced_ops) if trace else {}
    finally:
        recorder.uninstall()

    quality = Quality()
    if workload.writer_rate:
        truth = _mixed_checks(served, slices, artifact, quality)
    else:
        served.close()
        truth = Truth(base.graph, base.model)
        for s in slices:
            for op in s.reads:
                if op.error is None:
                    _check_answer(op.item, op.answer, truth, quality)
    server = {
        "peak_rss_mb": peak_rss, "cache": cache, "node_count": node_count,
        "busy_skew": busy_skew, "wal_bytes": wal_bytes, "layers": layers,
        "counters": _sum_counters(slices),
    }
    return _result(setups, slices, quality, truth, server, trace)


def _check_answer(spec: QuerySpec, answer, truth, quality: Quality) -> None:
    """Full checks of one in-process answer against the state it was
    computed on; recall and accuracy go to ``quality``."""
    if spec.mode == "topk":
        _check_topk(spec, answer.entities, answer.distances, truth, quality)
    else:
        quality.check(check_aggregate(spec, answer.value, answer.accessed, answer.ball_size))
        if len(quality.accuracies) < ACCURACY_SAMPLE:
            quality.accuracies.append(accuracy(answer.value, truth.reference_aggregate(spec)))


def _check_topk(spec: QuerySpec, entities, distances, truth, quality: Quality) -> None:
    """Top-k checks, once per distinct answer (a cached answer repeats
    verbatim), and recall for the first ``RECALL_SAMPLE`` of them."""
    key = (spec, tuple(entities), tuple(distances))
    if key not in quality.seen:
        share = None
        if len(quality.seen) < RECALL_SAMPLE:
            share = recall(entities, truth.exact_topk(spec))
        quality.seen[key] = (check_topk(spec, entities, distances, truth), share)
    quality.check(quality.seen[key][0])


def _mixed_checks(served, slices, artifact: Path, quality: Quality) -> Truth:
    """Checks for the read/write workload, whose state moved under the
    readers: structural checks of every in-run answer, then — on the
    final state — full checks of a post-run sample of served answers,
    cached entries against fresh uncached answers, and crash recovery
    of the artifact against the live engine."""
    for s in slices:
        for op in s.reads:
            if op.error is not None:
                continue
            if op.item.mode == "topk":
                quality.check(check_topk(op.item, op.answer.entities, op.answer.distances, None))
            else:
                answer = op.answer
                quality.check(check_aggregate(op.item, answer.value, answer.accessed, answer.ball_size))
    service, engine = served.service, served.engine
    truth = Truth(engine.graph, engine.model)
    issued = list(dict.fromkeys(op.item for s in slices for op in s.reads))
    topk = [spec for spec in issued if spec.mode == "topk"]
    for spec in topk[:PROBE_TOPK]:
        _check_answer(spec, service.execute(spec).result, truth, quality)
    for spec in [spec for spec in issued if spec.mode == "aggregate"][:PROBE_AGGREGATES]:
        _check_answer(spec, service.execute(spec).result, truth, quality)
    checked = 0
    for spec in topk[:CACHE_SAMPLE]:
        cached = service.cache.get(QueryKey(spec.entity, spec.relation, spec.direction, spec.k))
        if cached is None:
            continue
        fresh = service.pool.execute(lambda e, spec=spec: e.execute(spec).topk)
        checked += 1
        if cached.entities != fresh.entities or cached.distances != fresh.distances:
            quality.errors.append(f"{spec}: cached answer differs from a fresh one")
    if checked == 0:
        quality.errors.append("no cached entries left to compare with fresh answers")
    served.close()
    recovered, _ = recover_engine(artifact)
    pairs = (
        (recovered.index.store.coords, engine.index.store.coords),
        (recovered.model.entity_vectors(), engine.model.entity_vectors()),
        (recovered.model.relation_vectors(), engine.model.relation_vectors()),
    )
    if not all(a.shape == b.shape and (a == b).all() for a, b in pairs):
        quality.errors.append("recover_engine did not reproduce the live store and vectors")
    if recovered.graph.num_triples != engine.graph.num_triples:
        quality.errors.append("recover_engine did not reproduce the live graph")
    return truth


def _sum_counters(slices) -> dict:
    total: dict[str, int] = {}
    for s in slices:
        if s.traced:
            for key, value in s.counters.items():
                total[key] = total.get(key, 0) + value
    return total


# -- HTTP -------------------------------------------------------------------


def _body(spec: QuerySpec) -> bytes:
    body = {"entity": spec.entity, "relation": spec.relation, "direction": spec.direction}
    if spec.mode == "topk":
        body["k"] = spec.k
        if spec.entity_type is not None:
            body["type"] = spec.entity_type
    else:
        body.update(
            mode="aggregate", agg=spec.agg, attribute=spec.attribute,
            p_tau=spec.p_tau, access_fraction=spec.access_fraction,
        )
    return json.dumps(body).encode("utf-8")


def http_caller(port: int):
    """``POST /v1/query``; returns the parsed envelope and its size."""

    def call(spec: QuerySpec):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request("POST", "/v1/query", _body(spec), {"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise RuntimeError(f"HTTP {response.status}: {raw[:200]!r}")
        return json.loads(raw), len(raw)

    return call


class _ServerProcess:
    """The ``hot-http`` server process and its line protocol."""

    def __init__(self, artifact: Path, trace: bool, env: dict) -> None:
        command = [sys.executable, str(HERE / "http_server.py"), "--artifact", str(artifact)]
        command += ["--trace"] if trace else []
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
        )
        self.hello = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server process exited with {self.proc.wait()}")
        return json.loads(line)

    def send(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_http(workload, base, data, reads, seed, seconds, trace, env) -> dict:
    server = _ServerProcess(data, trace, env)
    try:
        call = http_caller(server.hello["port"])
        recorder = Recorder()  # client-side spans only
        pool = query_pool(workload, base.graph, seed)
        freeze_heap()
        warm = closed_loop(call, Feed(pool), workload.clients, float("inf"), recorder, limit=len(pool))
        failed_warmup = [op.error for op in warm if op.error]
        server.send("mark")
        feed = Feed(reads)

        def run_slice(traced: bool, length: float):
            if traced:
                server.send("trace on")
            ops = closed_loop(call, feed, workload.clients, length, recorder)
            if traced:
                server.send("trace off")
            return ops, [], {}

        slices = _drive(slice_plan(seconds, trace), recorder, run_slice)
        remote = server.send("stop")
        server.proc.wait(timeout=60)
    finally:
        server.close()

    quality = Quality(errors=[f"warm-up: {e}" for e in failed_warmup])
    truth = Truth(base.graph, base.model)
    for s in slices:
        for op in s.reads:
            if op.error is not None:
                continue
            body, _ = op.answer
            error = check_envelope(body, op.item)
            quality.check(error)
            if error is None:
                result = body["result"]
                _check_topk(op.item, result["entities"], result["distances"], truth, quality)
    layers = remote["layers"]
    if trace:
        client_ms = 1e3 * mean_or_zero(
            [op.seconds for s in slices if s.traced for op in s.reads]
        )
        layers["server.http_self_ms"] = client_ms - layers["service.execute_ms"]
    sizes = [op.answer[1] for s in slices for op in s.reads if op.error is None]
    layers["server.response_bytes"] = mean_or_zero(sizes)
    remote.update(busy_skew=0.0, wal_bytes=0)
    return _result(server.hello["setup_s"], slices, quality, truth, remote, trace)


# -- the result line ----------------------------------------------------------


def _result(setups, slices, quality: Quality, truth, server: dict, trace: bool) -> dict:
    reads = [op for s in slices for op in s.reads]
    writes = [op for s in slices for op in s.writes]
    failed = [op for op in reads + writes if op.error is not None]
    for op in failed[:5]:
        quality.errors.append(f"failed operation: {op.error}")

    def latencies(mode: str, ops) -> list[float]:
        return [op.seconds for op in ops if op.error is None and op.item.mode == mode]

    if not trace:
        (whole,) = slices
        done = sorted((op for op in reads if op.error is None), key=lambda op: op.done)
        topk = latencies("topk", done)
        values = {
            "setup_s": statistics.median(setups),
            "topk_p50_ms": 1e3 * windowed(topk, 0.50, size=200),
            "topk_p99_ms": 1e3 * windowed(topk, 0.99, size=1000),
            "read_ops_per_s": windowed_rate(
                [op.done for op in done], whole.start, whole.start + whole.seconds
            ),
            "recall_at_k": quality.recall,
            "peak_rss_mb": server["peak_rss_mb"],
        }
        units = E2E
    else:
        values = _per_layer(slices, quality, truth, server, latencies, reads, writes)
        units = PER_LAYER
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in units.items()}
    for error in quality.errors[:10]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    return {
        "correct": not quality.errors,
        "attempted": len(reads) + len(writes),
        "failed": len(failed),
        "metrics": metrics,
    }


def _per_layer(slices, quality, truth, server, latencies, reads, writes) -> dict:
    values = dict(server["layers"])
    traced = [s for s in slices if s.traced]
    untraced = [s for s in slices if not s.traced]
    ops = max(1, sum(len(s.reads) + len(s.writes) for s in traced))

    def rate(group) -> float:
        return sum(len(s.reads) for s in group) / sum(s.seconds for s in group)

    cache = server["cache"]
    lookups = cache["hits"] + cache["misses"]
    updates = len(writes)
    for key, value in server["counters"].items():
        values[f"index.{key}"] = value / ops
    aggregates = latencies("aggregate", reads)
    update_latencies = [op.seconds for op in writes if op.error is None]
    values.update(
        {
            "service.cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            "service.cache.invalidations_per_update": cache["invalidations"] / updates if updates else 0.0,
            "resilience.wal.bytes_per_update": server["wal_bytes"] / updates if updates else 0.0,
            "index.node_count": server["node_count"],
            "shard.busy_skew": server["busy_skew"],
            "scan.exact_topk_ms": 1e3 * statistics.median(truth.scan_seconds) if truth.scan_seconds else 0.0,
            "loadgen.writer_late_p95_ms": 1e3 * percentile_or_zero([op.late for op in writes], 0.95),
            "bench.trace_overhead_frac": 1.0 - rate(traced) / rate(untraced),
            "agg_p50_ms": 1e3 * percentile_or_zero(aggregates, 0.50),
            "agg_p95_ms": 1e3 * percentile_or_zero(aggregates, 0.95),
            "agg_accuracy": mean_or_zero(quality.accuracies),
            "update_p50_ms": 1e3 * percentile_or_zero(update_latencies, 0.50),
            "update_p95_ms": 1e3 * percentile_or_zero(update_latencies, 0.95),
        }
    )
    return values
