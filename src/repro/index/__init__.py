"""Spatial indices over the low-dimensional space S2.

Contains the paper's contribution — the cracking, uneven R-tree built
online (`CrackingRTree`, greedy Algorithm 1 semantics) and its A*
variant with top-k split choices (`TopKSplitsRTree`, Algorithm 2) — plus
the evaluation baselines: a full top-down bulk-loaded R-tree, a PH-tree
over the raw high-dimensional vectors, an exhaustive scan, and H2-ALSH.
"""

from repro.index.bulkload import BulkLoadedRTree
from repro.index.cracking import CrackingRTree
from repro.index.geometry import Rect
from repro.index.h2alsh import H2ALSHIndex
from repro.index.knn import knn_search, knn_topk_s1
from repro.index.linear import ExhaustiveScan
from repro.index.phtree import PHTreeIndex
from repro.index.stats import AccessCounters, IndexStats
from repro.index.store import PointStore
from repro.index.topk_splits import TopKSplitsRTree
from repro.index.validation import check_invariants
from repro.index.variants import build_index, variant_name

__all__ = [
    "Rect",
    "PointStore",
    "BulkLoadedRTree",
    "CrackingRTree",
    "TopKSplitsRTree",
    "ExhaustiveScan",
    "PHTreeIndex",
    "H2ALSHIndex",
    "AccessCounters",
    "IndexStats",
    "knn_search",
    "knn_topk_s1",
    "check_invariants",
    "build_index",
    "variant_name",
]
