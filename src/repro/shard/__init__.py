"""Sharded scatter-gather execution (``repro.shard``).

Partitions the S2 point store into N independent cracking R-trees and
runs queries scatter-gather across a shard executor: each shard answers
the query over its id subset, and a k-way merge reassembles the global
answer. The merged top-k is an ε-valid Algorithm 3 answer (Theorem 2),
like one tree's; it equals what one tree over all points returns when
both find the exact top-k.
"""

from repro.shard.engine import ShardedEngine
from repro.shard.executor import ShardExecutor
from repro.shard.merge import merge_topk
from repro.shard.plan import ShardPlan

__all__ = ["ShardPlan", "ShardExecutor", "ShardedEngine", "merge_topk"]
