"""The one recipe for building an index variant by name.

Engine construction, artifact loading and saving, shard trees and the
engines' rebuilds all name a tree variant the same way and build it
through :func:`build_index`; :func:`variant_name` maps a built tree back
to its name, and :func:`fresh_tree` replaces a live tree.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QueryError
from repro.index.bulkload import BulkLoadedRTree
from repro.index.cracking import CrackingRTree
from repro.index.store import PointStore
from repro.index.topk_splits import TopKSplitsRTree
from repro.index.validation import check_invariants

#: Known index variant names accepted by ``EngineConfig.index``.
INDEX_VARIANTS = ("cracking", "topk2", "topk3", "topk4", "bulk")


def build_index(
    variant: str,
    store: PointStore,
    *,
    ids: np.ndarray | None = None,
    leaf_capacity: int,
    fanout: int,
    beta: float,
):
    """A fresh tree of ``variant`` over ``store`` (or its ``ids`` subset).

    ``topkN`` builds the A* variant with ``N`` split choices.
    """
    kwargs = dict(leaf_capacity=leaf_capacity, fanout=fanout, beta=beta, ids=ids)
    if variant == "cracking":
        return CrackingRTree(store, **kwargs)
    if variant == "bulk":
        return BulkLoadedRTree(store, **kwargs)
    if variant.startswith("topk"):
        return TopKSplitsRTree(store, num_choices=int(variant.removeprefix("topk")), **kwargs)
    raise QueryError(f"unknown index variant {variant!r}; expected one of {INDEX_VARIANTS}")


def fresh_tree(variant: str, index, ids: np.ndarray | None = None):
    """A validated fresh ``variant`` tree over ``index``'s store (or its
    ``ids`` subset) with ``index``'s geometry. The store is the ground
    truth; the tree is disposable state that can always be rebuilt."""
    tree = build_index(
        variant, index.store, ids=ids, leaf_capacity=index.leaf_capacity,
        fanout=index.fanout, beta=index.beta,
    )
    check_invariants(tree, expected_ids=ids)
    return tree


def variant_name(index) -> str:
    """The :func:`build_index` name of a built tree."""
    if isinstance(index, BulkLoadedRTree):
        return "bulk"
    if isinstance(index, TopKSplitsRTree):
        return f"topk{index.num_choices}"
    return "cracking"
