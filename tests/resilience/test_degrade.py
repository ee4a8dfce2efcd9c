"""Degradation-ladder tests: broken indexes must not break answers.

The linear rung is exact; the native and bulk rungs return ε-valid
Algorithm 3 answers. On this fixture every rung finds the exact top-k,
so these tests force failures at the index layer and check the answers
against an untouched baseline engine every time.
"""

import pytest

from repro.errors import IndexError_, QueryError
from repro.index.bulkload import BulkLoadedRTree
from repro.index.cracking import CrackingRTree
from repro.index.variants import fresh_tree
from repro.query.spec import QuerySpec
from repro.resilience.chaos import ChaosController, activate
from repro.resilience.degrade import DegradationLadder
from repro.service.metrics import ServingMetrics
from repro.shard import ShardedEngine


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
    engine.validate()  # a fresh engine passes
    _corrupt(engine.index)
    with pytest.raises(IndexError_):
        engine.validate()


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
    engine.validate()  # whole again
    assert metrics.snapshot()["counters"]["engines_repaired"] == 1


def test_aggregates_read_the_swapped_tree(make_engine, probes):
    """After ``swap_index`` an aggregate estimates its unaccessed
    probabilities from the new tree's contour, and answers like an
    engine built on that variant."""
    likes, users = probes
    engine = make_engine()
    tree = fresh_tree("bulk", engine.index)
    engine.swap_index(tree)
    contours = []
    contour = tree.contour
    tree.contour = lambda: contours.append(1) or contour()
    spec = QuerySpec(
        entity=users[0], relation=likes, mode="aggregate", agg="count",
        p_tau=0.05, access_fraction=0.5,
    )
    got = engine.execute(spec).aggregate
    assert contours
    assert got.value == make_engine("bulk").execute(spec).aggregate.value


@pytest.fixture(params=["single", "thread", "fork"])
def ladder_engine(request, make_engine):
    """One engine of each kind the ladder serves: a single tree, and two
    shards on each executor backend."""
    engine = make_engine()
    if request.param == "single":
        yield engine
        return
    sharded = ShardedEngine.from_engine(engine, shards=2, backend=request.param)
    yield sharded
    sharded.close()


def test_ladder_cycle_answers_every_query(ladder_engine, probes):
    """native → bulk → linear → rebuild → native with every query
    answered: the rungs act on the trees that actually serve (the worker
    processes' own trees under the fork backend)."""
    likes, users = probes
    ladder = DegradationLadder(rebuild_after=3)
    controller = ChaosController(seed=0)
    controller.on("engine.topk", exc=IndexError_, max_fires=2)
    levels = []
    with activate(controller):
        for user in users[:8]:
            result, _ = ladder.run_topk(ladder_engine, _top5(user, likes))
            assert len(result) == 5
            levels.append(ladder.level_of(ladder_engine))
    assert levels == [1, 2, 2, 2, 0, 0, 0, 0]
    ladder_engine.validate()
