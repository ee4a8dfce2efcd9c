"""k-way merge of per-shard top-k results.

The merged top-k is the k smallest of the union of the per-shard
:func:`~repro.query.topk.find_topk` answers, ties broken by id. Each
part is an ε-valid Algorithm 3 answer over its shard's ids (Theorem 2),
and so is the merge; it is not the exact top-k. Where every shard finds
its exact top-k (the tests' fixtures at ε=1.0), the merged kth
distance equals the single-tree one, so the merged ``final_radius``
(``kth * (1 + epsilon)``) and ``query_region`` (``ball_box(q2, r)``)
reproduce the single-engine values bit-for-bit. ``points_examined``
sums over shards.
"""

from __future__ import annotations

import numpy as np

from repro.index.geometry import Rect
from repro.query.topk import TopKResult


def merge_topk(
    parts: list[TopKResult],
    k: int,
    epsilon: float,
    q2: np.ndarray,
) -> TopKResult:
    """Merge per-shard results into the global :class:`TopKResult`.

    ``q2`` is the projected query point (needed to rebuild the final
    query region around the merged kth distance). Ties in distance
    break by entity id so the merge is deterministic in the shard
    count and order.
    """
    points_examined = int(sum(p.points_examined for p in parts))
    non_empty = [p for p in parts if p.entities]
    if not non_empty:
        return TopKResult((), (), points_examined, float("inf"), None)
    ids = np.concatenate(
        [np.asarray(p.entities, dtype=np.int64) for p in non_empty]
    )
    dists = np.concatenate(
        [np.asarray(p.distances, dtype=np.float64) for p in non_empty]
    )
    order = np.lexsort((ids, dists))[:k]
    ids = ids[order]
    dists = dists[order]
    kth = float(dists[min(k, len(dists)) - 1])
    radius = kth * (1.0 + epsilon)
    region = Rect.ball_box(np.asarray(q2, dtype=np.float64), radius)
    return TopKResult(
        entities=tuple(int(e) for e in ids),
        distances=tuple(float(d) for d in dists),
        points_examined=points_examined,
        final_radius=radius,
        query_region=region,
    )
