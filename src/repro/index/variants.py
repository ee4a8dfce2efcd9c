"""The one recipe for building an index variant by name.

Engine construction, artifact loading and saving, shard trees and the
degradation ladder's rebuilds all name a tree variant the same way and
build it through :func:`build_index`; :func:`variant_name` maps a built
tree back to its name.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QueryError
from repro.index.bulkload import BulkLoadedRTree
from repro.index.cracking import CrackingRTree
from repro.index.store import PointStore
from repro.index.topk_splits import TopKSplitsRTree

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


def variant_name(index) -> str:
    """The :func:`build_index` name of a built tree."""
    if isinstance(index, BulkLoadedRTree):
        return "bulk"
    if isinstance(index, TopKSplitsRTree):
        return f"topk{index.num_choices}"
    return "cracking"
