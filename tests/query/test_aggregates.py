"""Tests for the aggregate query estimators (Section V-B)."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.query.aggregates import _expected_max
from repro.query.spec import QuerySpec


def _estimate(engine, head, relation, agg, attribute=None, **knobs):
    """One tail-direction aggregate spec through ``engine.execute``."""
    spec = QuerySpec(
        entity=head, relation=relation, mode="aggregate", agg=agg, attribute=attribute, **knobs
    )
    return engine.execute(spec).aggregate


class TestExpectedMax:
    def test_certain_single_value(self):
        # One value with probability 1: expected max is that value
        # (the extrapolation term vanishes because v == v_min).
        assert _expected_max(np.array([5.0]), np.array([1.0])) == pytest.approx(
            5.0, rel=0.5
        )

    def test_dominated_by_high_probability_large_value(self):
        values = np.array([10.0, 1.0])
        probs = np.array([0.99, 0.99])
        result = _expected_max(values, probs)
        assert result > 5.0

    def test_low_probabilities_pull_toward_small_values(self):
        values = np.array([10.0, 1.0])
        high = _expected_max(values, np.array([0.9, 0.9]))
        low = _expected_max(values, np.array([0.05, 0.9]))
        assert low < high

    def test_zero_probabilities(self):
        values = np.array([3.0, 7.0])
        result = _expected_max(values, np.array([0.0, 0.0]))
        assert result == pytest.approx(3.0)  # falls back to v_min


class TestEstimates:
    def test_count_close_to_ball_size_weighted(self, engine, dataset):
        graph, world = dataset
        user = world.members("user")[0]
        likes = graph.relations.id_of("likes")
        estimate = _estimate(engine, user, likes, "count", p_tau=0.2)
        assert estimate.kind == "count"
        assert estimate.ball_size > 0
        assert 0 < estimate.value <= estimate.ball_size + 1


    def test_count_needs_no_attribute(self, engine, dataset):
        graph, world = dataset
        user = world.members("user")[1]
        likes = graph.relations.id_of("likes")
        estimate = _estimate(engine, user, likes, "count", p_tau=0.2)
        assert estimate.accessed == estimate.ball_size

    def test_sum_requires_attribute(self, engine, dataset):
        graph, world = dataset
        user = world.members("user")[0]
        likes = graph.relations.id_of("likes")
        with pytest.raises(QueryError):
            _estimate(engine, user, likes, "sum")

    def test_avg_year_in_plausible_range(self, engine, dataset):
        graph, world = dataset
        user = world.members("user")[2]
        likes = graph.relations.id_of("likes")
        estimate = _estimate(engine, user, likes, "avg", "year", p_tau=0.1)
        assert 1930 <= estimate.value <= 2018

    def test_sampling_approaches_full_access(self, engine, dataset):
        """The Fig 12-16 tradeoff: estimates with larger samples approach
        the full-access estimate."""
        graph, world = dataset
        likes = graph.relations.id_of("likes")
        errors_small, errors_large = [], []
        for user in world.members("user")[:6]:
            full = _estimate(
                engine, user, likes, "avg", "year", p_tau=0.1, access_fraction=1.0
            )
            small = _estimate(
                engine, user, likes, "avg", "year", p_tau=0.1, access_fraction=0.1
            )
            large = _estimate(
                engine, user, likes, "avg", "year", p_tau=0.1, access_fraction=0.7
            )
            errors_small.append(abs(small.value - full.value))
            errors_large.append(abs(large.value - full.value))
        assert np.mean(errors_large) <= np.mean(errors_small) + 1e-9

    def test_max_at_least_observed_sample_max(self, engine, dataset):
        graph, world = dataset
        user = world.members("user")[3]
        likes = graph.relations.id_of("likes")
        estimate = _estimate(
            engine, user, likes, "max", "year", p_tau=0.1, access_fraction=1.0
        )
        # With full access and extrapolation, the MAX estimate should be
        # in the attribute's plausible vicinity.
        assert estimate.value >= min(estimate.accessed_values)

    def test_min_below_max(self, engine, dataset):
        graph, world = dataset
        user = world.members("user")[4]
        likes = graph.relations.id_of("likes")
        lo = _estimate(engine, user, likes, "min", "year", p_tau=0.1)
        hi = _estimate(engine, user, likes, "max", "year", p_tau=0.1)
        assert lo.value <= hi.value

    def test_max_access_caps_accesses(self, engine, dataset):
        graph, world = dataset
        user = world.members("user")[5]
        likes = graph.relations.id_of("likes")
        estimate = _estimate(
            engine, user, likes, "avg", "year", p_tau=0.1, max_access=7
        )
        assert estimate.accessed <= 7

    def test_tail_bound_monotone_in_delta(self, engine, dataset):
        graph, world = dataset
        user = world.members("user")[0]
        likes = graph.relations.id_of("likes")
        estimate = _estimate(
            engine, user, likes, "sum", "year", p_tau=0.2, access_fraction=0.5
        )
        assert estimate.tail_bound(0.5) <= estimate.tail_bound(0.1)

    def test_unknown_kind_rejected(self, engine, dataset):
        graph, world = dataset
        user = world.members("user")[0]
        likes = graph.relations.id_of("likes")
        with pytest.raises(QueryError):
            _estimate(engine, user, likes, "median", "year")

    def test_bad_access_fraction_rejected(self, engine, dataset):
        graph, world = dataset
        user = world.members("user")[0]
        likes = graph.relations.id_of("likes")
        with pytest.raises(QueryError):
            _estimate(
                engine, user, likes, "count", p_tau=0.2, access_fraction=0.0
            )

    def test_attribute_filtering_excludes_users(self, engine, dataset):
        """Only movies carry 'year'; the ball may contain users/genres
        but they must not contribute to the aggregate."""
        graph, world = dataset
        user = world.members("user")[1]
        likes = graph.relations.id_of("likes")
        estimate = _estimate(engine, user, likes, "avg", "year", p_tau=0.05)
        years = {graph.attributes.get("year", m) for m in world.members("movie")}
        assert all(v in years for v in estimate.accessed_values)
