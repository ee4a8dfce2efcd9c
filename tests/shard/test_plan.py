"""Tests for shard assignment plans and per-shard subset trees."""

import numpy as np
import pytest

from repro.errors import IndexError_, ServiceError
from repro.index.validation import check_invariants
from repro.shard import ShardedEngine
from repro.shard.plan import ShardPlan


class TestHashPlan:
    def test_partition_is_exact_and_nonempty(self):
        plan = ShardPlan.build(4, scheme="hash")
        ids = np.arange(103)
        groups = plan.partition(ids)
        assert sorted(np.concatenate(groups).tolist()) == ids.tolist()
        assert all(len(g) > 0 for g in groups)
        # Dense id space: hash split is balanced to within one element.
        sizes = [len(g) for g in groups]
        assert max(sizes) - min(sizes) <= 1

    def test_assign_matches_partition(self):
        plan = ShardPlan.build(3, scheme="hash")
        groups = plan.partition(np.arange(50))
        for shard, group in enumerate(groups):
            for ident in group:
                assert plan.assign(int(ident)) == shard

    def test_assign_needs_no_geometry(self):
        assert ShardPlan.build(5, scheme="hash").assign(12) == 2


class TestKdPlan:
    def _coords(self, n=200, dim=3, seed=4):
        return np.random.default_rng(seed).normal(size=(n, dim))

    def test_partition_covers_ids_in_contiguous_slabs(self):
        coords = self._coords()
        plan = ShardPlan.build(4, scheme="kd", coords=coords)
        ids = np.arange(len(coords))
        groups = plan.partition(ids, coords=coords)
        assert sorted(np.concatenate(groups).tolist()) == ids.tolist()
        # Quantile cuts on the first axis: slabs are ordered and
        # near-balanced.
        for left, right in zip(groups, groups[1:]):
            assert coords[left, 0].max() <= coords[right, 0].min()
        sizes = [len(g) for g in groups]
        assert max(sizes) - min(sizes) <= 2

    def test_assign_routes_new_points_by_geometry(self):
        coords = self._coords()
        plan = ShardPlan.build(3, scheme="kd", coords=coords)
        groups = plan.partition(np.arange(len(coords)), coords=coords)
        for shard, group in enumerate(groups):
            ident = int(group[0])
            assert plan.assign(ident, point=coords[ident]) == shard

    def test_kd_needs_coordinates(self):
        with pytest.raises(IndexError_):
            ShardPlan.build(3, scheme="kd")
        plan = ShardPlan.build(2, scheme="kd", coords=self._coords())
        with pytest.raises(IndexError_):
            plan.assign(0)


class TestPlanErrors:
    def test_unknown_scheme(self):
        with pytest.raises(IndexError_):
            ShardPlan.build(2, scheme="range")

    def test_zero_shards(self):
        with pytest.raises(IndexError_):
            ShardPlan.build(0)

    def test_empty_shard_is_a_build_error(self):
        # 3 ids into 4 hash shards: shard 3 would own nothing.
        plan = ShardPlan.build(4, scheme="hash")
        with pytest.raises(IndexError_, match="empty"):
            plan.partition(np.arange(3))

    def test_kd_refuses_fewer_points_than_shards(self):
        with pytest.raises(IndexError_):
            ShardPlan.build(5, scheme="kd", coords=np.zeros((3, 2)))


class TestShardTrees:
    @pytest.mark.parametrize("scheme", ["hash", "kd"])
    def test_subset_trees_satisfy_invariants(self, make_sharded, scheme):
        sharded = make_sharded(shards=4, scheme=scheme)
        for shard, engine in enumerate(sharded._shard_engines):
            check_invariants(engine.index, expected_ids=sharded.shard_ids(shard))
        # The engine's validate() runs the same checks through the lanes.
        sharded.validate()

    def test_shard_ids_partition_the_store(self, make_sharded):
        sharded = make_sharded(shards=4)
        owned = np.concatenate(
            [sharded.shard_ids(s) for s in range(sharded.num_shards)]
        )
        assert sorted(owned.tolist()) == list(range(sharded.index.store.size))

    def test_resharding_a_sharded_engine_is_refused(self, make_sharded):
        sharded = make_sharded(shards=2)
        with pytest.raises(ServiceError):
            ShardedEngine.from_engine(sharded, shards=2)
