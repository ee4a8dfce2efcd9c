"""Degradation-ladder tests: broken indexes must not change answers.

Algorithm 3 is exact in S1 for every index variant, so each rung of the
ladder — native cracking tree, fresh bulk tree, linear scan — returns
identical top-k sets. These tests force failures at the index layer and
check the answers against an untouched baseline engine every time.
"""

import numpy as np
import pytest

from repro.errors import IndexError_, QueryError
from repro.index.bulkload import BulkLoadedRTree
from repro.index.cracking import CrackingRTree
from repro.index.linear import ExhaustiveScan
from repro.query.spec import QuerySpec
from repro.resilience.chaos import ChaosController, activate
from repro.resilience.degrade import DegradationLadder, validate_engine
from repro.service.metrics import ServingMetrics


def _corrupt(index):
    """Break the contour: drop the head of every sort order so the
    frontier no longer partitions (or permutes) the point store."""
    partition = index.root.partition
    partition.orders = [order[1:] for order in partition.orders]


def _top5(user, likes, **fields):
    return QuerySpec(entity=user, relation=likes, k=5, **fields)


@pytest.fixture
def probes(dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    users = [graph.entities.id_of(f"user:{i}") for i in range(12)]
    return likes, users


def test_validate_engine_accepts_healthy_and_rejects_corrupt(engine):
    validate_engine(engine)  # a fresh engine passes
    _corrupt(engine.index)
    with pytest.raises(IndexError_):
        validate_engine(engine)


def test_injected_index_failure_degrades_to_bulk_with_identical_answers(
    make_engine, probes
):
    likes, users = probes
    baseline = make_engine()
    engine = make_engine()
    metrics = ServingMetrics()
    ladder = DegradationLadder(metrics=metrics)

    controller = ChaosController(seed=0)
    controller.on("engine.topk", exc=IndexError_, message="forced", max_fires=1)
    with activate(controller):
        for user in users:
            result, _ = ladder.run_topk(engine, _top5(user, likes))
            want = baseline.execute(_top5(user, likes)).topk
            assert result.entities == want.entities
            assert result.distances == want.distances

    assert ladder.level_of(engine) == 1
    assert isinstance(engine.index, BulkLoadedRTree)
    assert engine._aggregates.index is engine.index  # both views swapped
    snap = metrics.snapshot()["counters"]
    assert snap["degradations"] == 1
    assert ladder.levels()[0]["mode"] == "bulk"
    assert "forced" in ladder.levels()[0]["last_error"]


def test_second_failure_reaches_linear_scan_with_identical_answers(
    make_engine, probes
):
    likes, users = probes
    baseline = make_engine()
    engine = make_engine()
    ladder = DegradationLadder()

    controller = ChaosController(seed=0)
    controller.on("engine.topk", exc=IndexError_, max_fires=2)
    with activate(controller):
        for user in users:
            result, explain = ladder.run_topk(engine, _top5(user, likes))
            want = baseline.execute(_top5(user, likes)).topk
            assert result.entities == want.entities
            assert result.distances == pytest.approx(want.distances)

    assert ladder.level_of(engine) == 2
    assert ladder.levels()[0]["mode"] == "linear"
    # The linear rung reports a full scan and no query region.
    result, explain = ladder.run_topk(engine, _top5(users[0], likes))
    assert explain is None
    assert result.points_examined == engine.graph.num_entities
    assert result.query_region is None


def test_typed_queries_survive_linear_rung(make_engine, probes):
    likes, users = probes
    baseline = make_engine()
    engine = make_engine()
    ladder = DegradationLadder()
    controller = ChaosController(seed=0)
    controller.on("engine.topk", exc=IndexError_, max_fires=2)
    with activate(controller):
        for user in users[:6]:
            spec = _top5(user, likes, entity_type="movie")
            result, _ = ladder.run_topk(engine, spec)
            want = baseline.execute(spec).topk
            assert result.entities == want.entities


@pytest.mark.parametrize("failures", [0, 1, 2])
def test_unknown_type_is_a_query_error_on_every_rung(make_engine, probes, failures):
    """Native, bulk and linear rungs all reject an unknown entity type
    (HTTP 400) instead of answering it, and none of them degrades."""
    likes, users = probes
    engine = make_engine()
    ladder = DegradationLadder()
    controller = ChaosController(seed=0)
    controller.on("engine.topk", exc=IndexError_, max_fires=failures)
    with activate(controller):
        for user in users[:failures]:
            ladder.run_topk(engine, _top5(user, likes))
    assert ladder.level_of(engine) == failures
    with pytest.raises(QueryError, match="robot"):
        ladder.run_topk(engine, _top5(users[0], likes, entity_type="robot"))
    assert ladder.level_of(engine) == failures


def test_rebuild_restores_native_variant_after_quarantine(make_engine, probes):
    likes, users = probes
    baseline = make_engine()
    engine = make_engine()
    metrics = ServingMetrics()
    ladder = DegradationLadder(metrics=metrics, rebuild_after=5)
    controller = ChaosController(seed=0)
    controller.on("engine.topk", exc=IndexError_, max_fires=1)
    with activate(controller):
        ladder.run_topk(engine, _top5(users[0], likes))
    assert ladder.level_of(engine) == 1

    # After rebuild_after clean queries the native index comes back.
    for user in users:
        result, _ = ladder.run_topk(engine, _top5(user, likes))
        assert result.entities == baseline.execute(_top5(user, likes)).topk.entities
    assert ladder.level_of(engine) == 0
    assert isinstance(engine.index, CrackingRTree)
    assert metrics.snapshot()["counters"]["index_rebuilds"] == 1


def test_query_errors_propagate_without_degrading(engine):
    ladder = DegradationLadder()
    with pytest.raises(QueryError):
        ladder.run_topk(engine, QuerySpec(entity=0, relation=0, k=5, entity_type="robot"))
    assert ladder.level_of(engine) == 0


def test_aggregates_degrade_transparently(make_engine, probes):
    likes, users = probes
    baseline = make_engine()
    engine = make_engine()
    ladder = DegradationLadder()
    controller = ChaosController(seed=0)
    controller.on("engine.aggregate", exc=IndexError_, max_fires=1)
    spec = QuerySpec(entity=users[0], relation=likes, mode="aggregate", agg="count")
    with activate(controller):
        got = ladder.run_aggregate(engine, spec)
    want = baseline.execute(spec).aggregate
    assert got.value == pytest.approx(want.value)
    assert ladder.level_of(engine) == 1


def test_repair_rebuilds_a_corrupted_index(make_engine):
    engine = make_engine()
    metrics = ServingMetrics()
    ladder = DegradationLadder(metrics=metrics)
    assert ladder.repair(engine) is False  # healthy: nothing to do

    _corrupt(engine.index)
    assert ladder.repair(engine) is True
    validate_engine(engine)  # whole again
    assert metrics.snapshot()["counters"]["engines_repaired"] == 1


@pytest.mark.parametrize("typed", [False, True])
def test_linear_rung_equals_exhaustive_scan(engine, dataset, typed):
    """The last rung is exact: its ids are the exhaustive scan's, ties
    broken by id, for seeded typed and untyped specs."""
    graph, world = dataset
    relations = [graph.relations.id_of(name) for name in ("likes", "dislikes")]
    scan = ExhaustiveScan(engine.s1_vectors, vectorized=True)
    rng = np.random.default_rng(23)
    for _ in range(50):
        entity = int(rng.integers(graph.num_entities))
        relation = relations[int(rng.integers(len(relations)))]
        direction = "tail" if rng.random() < 0.5 else "head"
        k = int(rng.choice([1, 5, 10, 20]))
        entity_type = str(rng.choice(["movie", "user"])) if typed else None
        spec = QuerySpec(
            entity=entity, relation=relation, direction=direction, k=k,
            entity_type=entity_type,
        )
        result = DegradationLadder._linear_topk(engine, spec)
        if direction == "tail":
            point = engine.model.tail_query_point(entity, relation)
            banned = graph.tails(entity, relation) | {entity}
        else:
            point = engine.model.head_query_point(entity, relation)
            banned = graph.heads(entity, relation) | {entity}
        if entity_type is not None:
            banned |= frozenset(range(graph.num_entities)) - graph.entities_of_type(
                entity_type
            )
        want = scan.topk(point, k, banned)
        assert result.entities == tuple(e for e, _ in want)
        assert result.distances == pytest.approx([d for _, d in want], rel=1e-12)
