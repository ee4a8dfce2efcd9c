"""``FINDTOP-KENTITIES`` (Algorithm 3): top-k predictive entity queries.

Given a query point in the embedding space S1 (``h + r`` for tails,
``t - r`` for heads), the algorithm:

1. probes the index for the smallest element containing the projected
   query point ``q`` in S2 and seeds ``k`` candidates from it;
2. sets the query radius ``r_q = r_k* (1 + epsilon)`` where ``r_k*`` is
   the k-th smallest *S1* distance among the seeds, and ``epsilon``
   trades accuracy (Theorem 2) for work (Theorem 3);
3. searches the index once for the box of ``B(q, r_q)`` and ranks the
   seeds together with every candidate found by true S1 distance, in
   one vectorised pass (a distance kernel, ``argpartition`` to ``k``,
   then a sort by ``(distance, id)``);
4. sets the final radius from the k-th ranked distance and cracks the
   index for its box (the greedy incremental build or Algorithm 2's A*
   search, depending on the index variant).

The paper's lines 5-8 shrink the region as better candidates appear.
Every shrunken region lies inside the first one, so ranking the first
region's candidates once returns an answer at least as good as any
shrinking walk over them, in a few numpy calls instead of one loop
iteration per batch.

Entities in ``exclude`` (known E-neighbours of the query entity, plus
the entity itself) are skipped: the query semantics cover only the
predicted edge set E'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QueryError
from repro.index.geometry import Rect, row_distances
from repro.obs import trace


@dataclass(frozen=True, slots=True)
class TopKResult:
    """Result of one top-k entity query."""

    entities: tuple[int, ...]
    distances: tuple[float, ...]  # S1 distances, increasing
    points_examined: int
    final_radius: float
    query_region: Rect | None

    def __len__(self) -> int:
        return len(self.entities)

    @property
    def kth_distance(self) -> float:
        return self.distances[-1] if self.distances else float("inf")


def find_topk(
    index,
    s1_vectors: np.ndarray,
    transform,
    query_point_s1: np.ndarray,
    k: int,
    exclude: set[int] | frozenset[int] = frozenset(),
    epsilon: float = 0.5,
    refine_index: bool = True,
    allowed: np.ndarray | frozenset[int] | None = None,
) -> TopKResult:
    """Run Algorithm 3 against ``index``.

    Parameters
    ----------
    index:
        Any R-tree variant exposing ``probe`` / ``search`` / ``refine``
        over a shared :class:`~repro.index.store.PointStore`.
    s1_vectors:
        The ``(n, d)`` entity matrix in the original space S1.
    transform:
        The JL transform mapping S1 vectors (and the query point) to S2.
    query_point_s1:
        The S1 query center (``h + r`` or ``t - r``).
    k:
        Number of results requested.
    exclude:
        Entity ids never returned (known neighbours, the query entity).
    epsilon:
        Radius inflation; larger widens the region (higher recall, more
        work). Theorems 2-3 quantify both directions.
    refine_index:
        Whether to crack the index for the final region (line 9). Static
        indices ignore the call anyway; disable to measure pure search.
    allowed:
        Optional whitelist of candidate entities, as an id array or a
        set (e.g. :meth:`~repro.kg.graph.KnowledgeGraph.type_rows` for
        type-filtered queries); None means everyone.
    """
    if k < 1:
        raise QueryError("k must be >= 1")
    if epsilon < 0:
        raise QueryError("epsilon must be non-negative")
    with trace.span("query.topk") as sp:
        result = _find_topk(
            index, s1_vectors, transform, query_point_s1, k,
            exclude, epsilon, refine_index, allowed, sp,
        )
        if sp.is_recording:
            sp.set_attribute("k", k)
            sp.set_attribute("returned", len(result))
            sp.set_attribute("points_examined", result.points_examined)
            sp.set_attribute("final_radius", round(result.final_radius, 6))
    return result


def _find_topk(
    index,
    s1_vectors: np.ndarray,
    transform,
    query_point_s1: np.ndarray,
    k: int,
    exclude,
    epsilon: float,
    refine_index: bool,
    allowed,
    sp,
) -> TopKResult:
    query_point_s1 = np.asarray(query_point_s1, dtype=np.float64)
    q2 = transform(query_point_s1)
    n = len(s1_vectors)
    eligible = eligible_mask(n, exclude, allowed)
    # Every id the probe or the search returned; ranked once at the end.
    seen = np.zeros(n, dtype=bool)

    # Line 2: probe for the k seed points near q in S2, widening until
    # enough eligible candidates are seeded (or the probe saturates).
    probe_size = k
    probe_rounds = 0
    while True:
        seen[index.probe(q2, probe_size)] = True
        probe_rounds += 1
        seeds = np.flatnonzero(seen & eligible)
        if len(seeds) >= k or probe_size >= n:
            break
        probe_size = min(probe_size * 4, n)
    sp.set_attribute("seeds", len(seeds))
    sp.set_attribute("probe_rounds", probe_rounds)

    if len(seeds) == 0:
        return TopKResult((), (), 0, float("inf"), None)

    # Lines 3-8: one index search of the seeds' region, then one S1
    # re-rank of the seeds and everything that search found.
    seed_dists = row_distances(s1_vectors, seeds, query_point_s1)
    kth = min(k, len(seeds)) - 1
    radius = float(np.partition(seed_dists, kth)[kth]) * (1.0 + epsilon)
    candidates = index.search(Rect.ball_box(q2, radius))
    seen[candidates] = True
    ranked = np.flatnonzero(seen & eligible)
    sp.set_attribute("candidates", len(candidates))
    best_ids, best_dists = smallest_k(
        ranked, row_distances(s1_vectors, ranked, query_point_s1), k
    )

    # Line 9: crack the index for the final query region.
    radius = float(best_dists[-1]) * (1.0 + epsilon)
    region = Rect.ball_box(q2, radius)
    if refine_index:
        index.refine(region)

    return TopKResult(
        entities=tuple(best_ids.tolist()),
        distances=tuple(best_dists.tolist()),
        points_examined=len(ranked),
        final_radius=radius,
        query_region=region,
    )


def eligible_mask(n: int, exclude, allowed=None) -> np.ndarray:
    """Boolean mask over the ``n`` entity rows a query may return: the
    ``allowed`` rows (every row when None) minus ``exclude``."""
    if allowed is None:
        eligible = np.ones(n, dtype=bool)
    else:
        eligible = np.zeros(n, dtype=bool)
        eligible[_id_array(allowed)] = True
    if len(exclude):
        eligible[_id_array(exclude)] = False
    return eligible


def _id_array(ids) -> np.ndarray:
    if isinstance(ids, np.ndarray):
        return ids
    return np.fromiter(ids, dtype=np.int64, count=len(ids))


def smallest_k(ids: np.ndarray, dists: np.ndarray, k: int):
    """The k smallest ``(distance, id)`` pairs, in that order.

    ``argpartition`` cuts the set to the k-th distance first; every id
    tied with it is kept, so the ``(distance, id)`` sort that follows
    breaks ties the same way a full sort would.
    """
    if len(ids) > k:
        kth = dists[np.argpartition(dists, k - 1)[k - 1]]
        keep = dists <= kth
        ids, dists = ids[keep], dists[keep]
    order = np.lexsort((ids, dists))[:k]
    return ids[order], dists[order]
