"""The vectorised Section V-B estimator against the per-entity loops it
replaced.

The oracle below is the estimator written entity by entity: a ``has``
list for the attribute filter, a ``get`` list for the accessed values, a
dict/set walk of the index contour for the unaccessed probabilities and
a Python loop for Eq. 4. Both sides read the same ball on the same index
state, so ``ball_size``, ``accessed``, the accessed values and the value
bound must agree exactly, and the estimate within rounding.
"""

import math

import numpy as np
import pytest

from repro.dynamic.updater import OnlineUpdater
from repro.embedding.pretrained import PretrainedEmbedding
from repro.kg.generators import movielens_like
from repro.query.aggregates import _KINDS, AggregateEstimate, _expected_max
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.probability import InverseDistanceProbability
from repro.query.spec import QuerySpec
from repro.shard import ShardedEngine

RTOL = 1e-12


# -- the per-entity oracle -----------------------------------------------------


def _loop_expected_max(values, probs):
    order = np.argsort(values)[::-1]
    survival, expected = 1.0, 0.0
    for value, prob in zip(values[order], probs[order]):
        expected += value * survival * prob
        survival *= 1.0 - prob
    v_min = float(values.min())
    expected += v_min * survival
    effective_n = float(probs.sum())
    if effective_n <= 0.0:
        return v_min
    return (expected - v_min) * (1.0 + 1.0 / effective_n) + v_min


def _loop_unaccessed(index, unaccessed_ids, q2, model):
    estimates = np.empty(len(unaccessed_ids))
    position = {int(e): i for i, e in enumerate(unaccessed_ids)}
    remaining = set(position)
    for element in index.contour():
        if not remaining:
            break
        center = (element.mbr.lower + element.mbr.upper) / 2.0
        center_dist = float(np.linalg.norm(center - q2))
        ids = element.ids if hasattr(element, "ids") else element.partition.ids
        for entity in map(int, ids):
            if entity in remaining:
                estimates[position[entity]] = model.probability(center_dist)
                remaining.discard(entity)
    for entity in remaining:
        estimates[position[entity]] = model.probability(model.min_distance)
    return estimates


def _loop_combine(kind, values, accessed, unaccessed):
    sum_accessed = float(accessed.sum())
    sum_all = sum_accessed + float(unaccessed.sum())
    if kind in ("count", "sum", "avg") and sum_accessed <= 0.0:
        return 0.0
    if kind in ("count", "sum"):
        return float((values * accessed).sum()) * sum_all / sum_accessed
    if kind == "avg":
        return float((values * accessed).sum()) / sum_accessed
    if kind == "max":
        return _loop_expected_max(values, accessed)
    return -_loop_expected_max(-values, accessed)


def oracle(processor, query_point, spec, exclude):
    """The estimate for ``spec`` computed entity by entity, on the index
    state as it stands (no refinement)."""
    p_tau, attribute, attributes = spec.p_tau, spec.attribute, processor.attributes
    ball_ids, distances, _ = processor._ball(query_point, p_tau, exclude, refine_index=False)
    if attribute is not None:
        keep = np.array([attributes.has(attribute, int(e)) for e in ball_ids], dtype=bool)
        ball_ids, distances = ball_ids[keep], distances[keep]
    if len(ball_ids) == 0:
        return AggregateEstimate(spec.agg, 0.0, 0, 0, p_tau, (), 0.0)
    order = np.argsort(distances)
    ball_ids, distances = ball_ids[order], distances[order]
    model = InverseDistanceProbability(float(distances[0]))
    b = len(ball_ids)
    a = max(1, min(math.ceil(spec.access_fraction * b), b))
    accessed_probs = model.probabilities(distances[:a])
    unaccessed_probs = _loop_unaccessed(
        processor.index, ball_ids[a:], processor.transform(query_point), model
    )
    if spec.agg == "count":
        values = np.ones(a)
    else:
        values = np.array([attributes.get(attribute, int(e)) for e in ball_ids[:a]])
    return AggregateEstimate(
        kind=spec.agg,
        value=_loop_combine(spec.agg, values, accessed_probs, unaccessed_probs),
        accessed=a,
        ball_size=b,
        p_tau=p_tau,
        accessed_values=tuple(float(v) for v in values),
        max_unaccessed_bound=float(np.abs(values).max()),
    )


# -- comparison ---------------------------------------------------------------


def _specs(graph, heads, kind, access_fraction, p_tau):
    likes = graph.relations.id_of("likes")
    attribute = None if kind == "count" else "year"
    return [
        QuerySpec(
            entity=head, relation=likes, mode="aggregate", agg=kind, attribute=attribute,
            p_tau=p_tau, access_fraction=access_fraction,
        )
        for head in heads
    ]


def assert_matches_oracle(engine, spec):
    """Serve ``spec`` (cracking what it needs), then compare the
    estimator with the oracle on the same, now fixed, index state."""
    engine.execute(spec)
    query_point, exclude, _ = engine._topk_request(spec)
    processor = engine._aggregates
    got = processor.estimate(
        query_point, spec.agg, attribute=spec.attribute, p_tau=spec.p_tau,
        access_fraction=spec.access_fraction, exclude=exclude, refine_index=False,
    )
    want = oracle(processor, query_point, spec, exclude)
    assert got.ball_size == want.ball_size > 0
    assert got.accessed == want.accessed
    assert got.accessed_values == want.accessed_values
    assert all(type(v) is float for v in got.accessed_values)
    assert got.max_unaccessed_bound == want.max_unaccessed_bound
    assert got.value == pytest.approx(want.value, rel=RTOL, abs=0.0)
    return got


@pytest.fixture(scope="module", params=["cracking", "bulk", "topk2", "sharded"])
def any_engine(request, dataset, model):
    graph, _ = dataset
    variant = request.param
    if variant != "sharded":
        yield QueryEngine.from_graph(graph, EngineConfig(index=variant), model=model)
        return
    base = QueryEngine.from_graph(graph, EngineConfig(index="cracking"), model=model)
    sharded = ShardedEngine.from_engine(base, shards=2, backend="thread")
    yield sharded
    sharded.close()


@pytest.mark.parametrize("p_tau", [0.1, 0.25])
@pytest.mark.parametrize("access_fraction", [0.5, 1.0])
@pytest.mark.parametrize("kind", _KINDS)
def test_estimates_match_the_per_entity_oracle(any_engine, dataset, kind, access_fraction, p_tau):
    graph, world = dataset
    partial = 0
    for spec in _specs(graph, world.members("user")[:3], kind, access_fraction, p_tau):
        got = assert_matches_oracle(any_engine, spec)
        partial += got.accessed < got.ball_size
    if access_fraction < 1.0:
        assert partial  # the contour estimate was exercised


def test_head_direction_matches_the_oracle(any_engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    for movie in world.members("movie")[:3]:
        spec = QuerySpec(
            entity=movie, relation=likes, direction="head", mode="aggregate", agg="count",
            p_tau=0.1, access_fraction=0.5,
        )
        assert_matches_oracle(any_engine, spec)


@pytest.mark.parametrize("variant", ["cracking", "sharded"])
def test_matches_after_online_updates(variant):
    """A moved vector and an appended entity with no attribute: the
    appended id lies past the ``year`` column's end and must read as
    absent, and the contour must cover it."""
    graph, world = movielens_like(
        num_users=120, num_movies=260, num_genres=8, num_tags=24, num_ratings=2400, seed=5,
    )
    model = PretrainedEmbedding.from_world(graph, world, dim=32, seed=0)
    engine = QueryEngine.from_graph(graph, EngineConfig(index="cracking"), model=model)
    if variant == "sharded":
        engine = ShardedEngine.from_engine(engine, shards=2, backend="thread")
    try:
        updater = OnlineUpdater(engine)
        head = world.members("user")[0]
        likes = graph.relations.id_of("likes")
        nearest = engine.execute(QuerySpec(entity=head, relation=likes, k=2)).topk.entities
        vectors = engine.model.entity_vectors()
        updater.set_entity_vector(nearest[1], vectors[nearest[1]] * 1.01)
        fresh = updater.add_entity("movie:appended", near=nearest[0])
        assert graph.attributes.get("year", fresh) is None

        specs = [
            spec
            for kind in _KINDS
            for spec in _specs(graph, [head], kind, 0.5, 0.1) + _specs(graph, [head], kind, 1.0, 0.25)
        ]
        for spec in specs:
            assert_matches_oracle(engine, spec)
        query_point, exclude, _ = engine._topk_request(specs[0])
        ball, _, _ = engine._aggregates._ball(query_point, 0.1, exclude, refine_index=False)
        assert fresh in ball.tolist()
    finally:
        if variant == "sharded":
            engine.close()


# -- Eq. 4 ----------------------------------------------------------------------


class TestExpectedMaxCumprod:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(1990.0, 15.0, size=200)
        probs = rng.uniform(0.05, 1.0, size=200)
        assert _expected_max(values, probs) == pytest.approx(
            _loop_expected_max(values, probs), rel=RTOL, abs=0.0
        )

    def test_several_certain_entries(self):
        values = np.array([3.0, 9.0, 5.0, 7.0, 1.0])
        probs = np.array([1.0, 0.4, 1.0, 1.0, 0.2])
        # After the first certain value (7.0) nothing survives.
        assert _expected_max(values, probs) == pytest.approx(
            _loop_expected_max(values, probs), rel=RTOL, abs=0.0
        )
        sample_max = 9.0 * 0.4 + 7.0 * 0.6
        expected = (sample_max - 1.0) * (1.0 + 1.0 / float(probs.sum())) + 1.0
        assert _expected_max(values, probs) == pytest.approx(expected, rel=RTOL)

    def test_tied_values(self):
        values = np.array([4.0, 8.0, 8.0, 8.0, 2.0])
        probs = np.array([0.5, 0.3, 0.6, 0.2, 0.9])
        got = _expected_max(values, probs)
        assert got == pytest.approx(_loop_expected_max(values, probs), rel=RTOL, abs=0.0)
        # The tied block's contribution does not depend on its order.
        permuted = np.array([1, 3, 2])
        values2, probs2 = values.copy(), probs.copy()
        values2[1:4], probs2[1:4] = values[permuted], probs[permuted]
        assert _expected_max(values2, probs2) == pytest.approx(got, rel=RTOL)
