"""THE fault-tolerance acceptance test.

A 4-thread replay of 500 queries against a service running under a
seeded chaos schedule — at least two worker kills (one clean, one
mid-query), five injected query faults, and one forced index-invariant
failure — must, with clients retrying transient errors, return results
element-wise identical (entities *and* distances) to a fault-free
sequential baseline on a fresh engine. Faults may cost latency; they may
never cost answers.
"""

from repro.bench.resilience import default_schedule
from repro.bench.workloads import make_workload
from repro.query.spec import QuerySpec
from repro.resilience.chaos import activate
from repro.resilience.retry import RetryPolicy
from repro.service.replay import replay
from repro.service.server import QueryService


def _sequential_baseline(engine, workload, k):
    expected = []
    for query in workload:
        spec = QuerySpec(
            entity=query.entity, relation=query.relation, direction=query.direction, k=k
        )
        result = engine.execute(spec).topk
        expected.append(result)
    return expected


def test_chaos_replay_is_answer_preserving(make_engine, dataset):
    graph, _ = dataset
    workload = make_workload(graph, 500, seed=23, skew=0.0)
    expected = _sequential_baseline(make_engine(), workload, k=5)

    controller = default_schedule(seed=7)
    retry = RetryPolicy(seed=7)
    with activate(controller):
        # cache_capacity=1: a cached answer would mask a fault, so the
        # cache is effectively disabled for this experiment.
        with QueryService(
            make_engine(),
            workers=4,
            max_queue=256,
            watchdog_interval=0.05,
            cache_capacity=1,
        ) as service:
            # On this fixture the bulk/linear rungs answer like the warmed
            # cracking tree, but a *fresh* native tree rebuilt mid-replay
            # may return a different (still epsilon-valid) top-k than the
            # warmed baseline — whether that shows up depends on where the
            # rebuild counter lands in the workload. Hold the ladder on
            # its degraded rung for the whole replay so element-wise
            # identity is a real invariant, not a race against the
            # rebuild timing (the rebuild path itself is covered in
            # test_degrade.py).
            service.ladder.rebuild_after = len(workload) + 1
            report = replay(service, workload, k=5, threads=4, retry=retry)
            snap = service.metrics_snapshot()
            health = service.health()

    # The schedule really happened: this run was not a quiet one.
    worker_kills = controller.fired("pool.worker") + controller.fired("pool.worker.dirty")
    assert worker_kills >= 2
    assert controller.fired("service.query") >= 5
    assert controller.fired("engine.topk") == 1
    assert report.retried > 0  # clients had to retry through the faults

    # The machinery visibly engaged...
    counters = snap["counters"]
    assert counters["worker_restarts"] >= 1
    assert counters["degradations"] >= 1

    # ...and not a single answer was lost or changed.
    assert report.completed == report.total == 500
    assert report.errors == 0 and report.deadline_exceeded == 0
    for position, (got, want) in enumerate(zip(report.results, expected)):
        assert got.entities == want.entities, f"query #{position} diverged"
        assert got.distances == want.distances, f"query #{position} distances diverged"

    # /healthz keeps reporting through and after the storm.
    assert {"status", "workers", "breaker", "degradation", "watchdog"} <= set(health)
    assert health["status"] in ("ok", "degraded")
