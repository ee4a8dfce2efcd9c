"""Aggregate and statistical queries over the virtual knowledge graph
(Section V-B).

The relevant entities live in a ball around the query center (``h + r``)
whose radius corresponds to a probability threshold ``p_tau`` under the
inverse-distance probability model. Of the ``b`` entities in the ball,
only the ``a`` closest (highest-probability) have their *records
accessed* — attribute values fetched — and the estimators extrapolate:

- SUM (Eq. 3): ``E[s] = (sum_{i<=a} v_i p_i) * (sum_{i<=b} p_i) /
  (sum_{i<=a} p_i)``, with the unaccessed probabilities estimated from
  the index contour (per-element MBR-center distance), exactly as the
  paper suggests ("we know the number of entities in each element of an
  index contour, and hence can estimate the b-a probabilities based on
  the average distance of an element to a query point").
- COUNT: SUM with every value 1.
- AVG: the ratio estimator ``sum v_i p_i / sum p_i`` over the sample.
- MAX (Eq. 4): the expected sample maximum ``E[M_S] = sum u_i p_i
  prod_{j<i} (1 - p_j)`` (values in decreasing order), extrapolated by
  the sample-maximum correction ``(E[M_S] - v_min)(1 + 1/sum p_i) +
  v_min``.
- MIN: MAX of the negated values, negated back.

Theorem 4's martingale tail bounds the deviation of the ground truth
from the estimate; :meth:`AggregateEstimate.tail_bound` exposes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import QueryError
from repro.index.geometry import Rect, row_distances
from repro.obs import trace
from repro.query.probability import InverseDistanceProbability
from repro.query.topk import eligible_mask
from repro.transform.bounds import aggregate_sum_tail_bound

_KINDS = ("count", "sum", "avg", "max", "min")


@dataclass(frozen=True, slots=True)
class AggregateEstimate:
    """Result of one aggregate query."""

    kind: str
    value: float
    accessed: int  # a — records whose attribute was fetched
    ball_size: int  # b — entities in the probability ball
    p_tau: float
    accessed_values: tuple[float, ...]
    max_unaccessed_bound: float

    def tail_bound(self, delta: float) -> float:
        """Theorem 4: Pr[|truth - value| >= delta * value]."""
        return aggregate_sum_tail_bound(
            delta,
            self.value,
            self.accessed_values,
            self.ball_size - self.accessed,
            self.max_unaccessed_bound,
        )


class AggregateProcessor:
    """Answers COUNT/SUM/AVG/MAX/MIN queries using a spatial index."""

    def __init__(
        self,
        index,
        s1_vectors: np.ndarray,
        transform,
        attributes,
        epsilon: float = 0.5,
    ) -> None:
        self.index = index
        self.s1_vectors = np.asarray(s1_vectors, dtype=np.float64)
        self.transform = transform
        self.attributes = attributes
        self.epsilon = epsilon

    # -- public API -------------------------------------------------------

    def estimate(
        self,
        query_point_s1: np.ndarray,
        kind: str,
        attribute: str | None = None,
        p_tau: float = 0.05,
        access_fraction: float = 1.0,
        max_access: int | None = None,
        exclude: set[int] | frozenset[int] = frozenset(),
        refine_index: bool = True,
    ) -> AggregateEstimate:
        """Estimate one aggregate around ``query_point_s1``.

        ``access_fraction`` / ``max_access`` bound the number ``a`` of
        record accesses (the paper's accuracy/time dial in Figs 12-16).
        ``attribute`` is required for every kind except ``count``.
        """
        kind = kind.lower()
        if kind not in _KINDS:
            raise QueryError(f"unknown aggregate kind {kind!r}")
        if kind != "count" and attribute is None:
            raise QueryError(f"{kind.upper()} needs an attribute")
        if not 0.0 < access_fraction <= 1.0:
            raise QueryError("access_fraction must be in (0, 1]")

        with trace.span("query.aggregate") as sp:
            estimate = self._estimate(
                query_point_s1, kind, attribute, p_tau, access_fraction,
                max_access, exclude, refine_index,
            )
            sp.set_attribute("kind", kind)
            sp.set_attribute("ball_size", estimate.ball_size)
            sp.set_attribute("accessed", estimate.accessed)
            sp.set_attribute("p_tau", p_tau)
        return estimate

    def _estimate(
        self,
        query_point_s1: np.ndarray,
        kind: str,
        attribute: str | None,
        p_tau: float,
        access_fraction: float,
        max_access: int | None,
        exclude,
        refine_index: bool,
    ) -> AggregateEstimate:
        query_point_s1 = np.asarray(query_point_s1, dtype=np.float64)
        ball_ids, distances, region = self._ball(
            query_point_s1, p_tau, exclude, refine_index
        )
        if attribute is not None:
            column, present = self.attributes.dense(attribute, len(self.s1_vectors))
            keep = present[ball_ids]
            ball_ids, distances = ball_ids[keep], distances[keep]
        if len(ball_ids) == 0:
            return AggregateEstimate(kind, 0.0, 0, 0, p_tau, (), 0.0)

        order = np.argsort(distances)
        ball_ids, distances = ball_ids[order], distances[order]
        model = InverseDistanceProbability(float(distances[0]))
        b = len(ball_ids)
        a = math.ceil(access_fraction * b)
        if max_access is not None:
            a = min(a, max_access)
        a = max(1, min(a, b))

        accessed_probs = model.probabilities(distances[:a])
        unaccessed_probs = self._estimate_unaccessed_probabilities(
            ball_ids[a:], self.transform(query_point_s1), model
        )
        values = np.ones(a) if kind == "count" else column[ball_ids[:a]]
        return AggregateEstimate(
            kind=kind,
            value=self._combine(kind, values, accessed_probs, unaccessed_probs),
            accessed=a,
            ball_size=b,
            p_tau=p_tau,
            accessed_values=tuple(values.tolist()),
            max_unaccessed_bound=float(np.abs(values).max()),
        )

    # -- pieces ---------------------------------------------------------------

    def _ball(
        self,
        query_point_s1: np.ndarray,
        p_tau: float,
        exclude: set[int] | frozenset[int],
        refine_index: bool,
    ):
        """Entities within the probability-``p_tau`` ball, with their S1
        distances, plus the S2 search region used."""
        q2 = self.transform(query_point_s1)
        eligible = eligible_mask(len(self.s1_vectors), exclude)
        # Anchor d_min with a small probe.
        seeds = self.index.probe(q2, 4)
        seeds = seeds[eligible[seeds]]
        if len(seeds) == 0:
            seeds = self.index.probe(q2, 64)
            seeds = seeds[eligible[seeds]]
        if len(seeds) == 0:
            raise QueryError("no candidate entities found near the query point")
        seed_dists = row_distances(self.s1_vectors, seeds, query_point_s1)
        model = InverseDistanceProbability(float(seed_dists.min()))
        radius = model.ball_radius(p_tau) * (1.0 + self.epsilon)
        region = Rect.ball_box(q2, radius)
        if refine_index:
            self.index.refine(region)
        found = self.index.search(region)
        ids = found[eligible[found]]
        if len(ids) == 0:
            return ids, np.empty(0), region
        dists = row_distances(self.s1_vectors, ids, query_point_s1)
        # Re-anchor on the true closest entity and cut at p_tau exactly.
        model = InverseDistanceProbability(float(dists.min()))
        in_ball = model.probabilities(dists) >= p_tau
        return ids[in_ball], dists[in_ball], region

    def _estimate_unaccessed_probabilities(
        self,
        unaccessed_ids: np.ndarray,
        q2: np.ndarray,
        model: InverseDistanceProbability,
    ) -> np.ndarray:
        """Coarse probabilities for the b-a unaccessed entities from the
        index contour: each contour element contributes its MBR-center
        distance to the query as the distance estimate for all its
        members (no record access needed). One contour walk scatters the
        element probabilities over a per-id array, then one gather reads
        the unaccessed ids; an id no element covers reads probability 1."""
        if len(unaccessed_ids) == 0:
            return np.empty(0)
        elements = self.index.contour()
        members = [self._element_ids(element) for element in elements]
        lower = np.concatenate([element.mbr.lower for element in elements])
        upper = np.concatenate([element.mbr.upper for element in elements])
        centers = ((lower + upper) / 2.0).reshape(len(elements), -1)
        center_dists = np.linalg.norm(centers - q2, axis=1)
        member_ids = np.concatenate(members)
        size = 1 + max(int(member_ids.max()), int(unaccessed_ids.max()))
        by_id = np.ones(size)
        by_id[member_ids] = np.repeat(
            model.probabilities(center_dists), [len(ids) for ids in members]
        )
        return by_id[unaccessed_ids]

    @staticmethod
    def _element_ids(element) -> np.ndarray:
        ids = getattr(element, "ids", None)
        if ids is not None:
            return ids
        return element.partition.ids

    def _combine(
        self,
        kind: str,
        values: np.ndarray,
        accessed_probs: np.ndarray,
        unaccessed_probs: np.ndarray,
    ) -> float:
        sum_accessed = float(accessed_probs.sum())
        sum_all = sum_accessed + float(unaccessed_probs.sum())
        if kind in ("count", "sum"):
            numerator = float((values * accessed_probs).sum())
            if sum_accessed <= 0.0:
                return 0.0
            return numerator * sum_all / sum_accessed  # Eq. (3)
        if kind == "avg":
            if sum_accessed <= 0.0:
                return 0.0
            return float((values * accessed_probs).sum()) / sum_accessed
        if kind == "max":
            return _expected_max(values, accessed_probs)
        return -_expected_max(-values, accessed_probs)  # min


def _expected_max(values: np.ndarray, probs: np.ndarray) -> float:
    """Equation (4): expected MAX with sample-maximum extrapolation."""
    order = np.argsort(values)[::-1]
    u = values[order]
    p = probs[order]
    # survival[i] = prod_{j<i} (1 - p_j); its last entry is the residual
    # mass where no entity "fires", which falls back to the smallest value.
    survival = np.cumprod(np.concatenate(([1.0], 1.0 - p)))
    v_min = float(values.min())
    expected_sample_max = float((u * survival[:-1] * p).sum()) + v_min * survival[-1]
    effective_n = float(probs.sum())
    if effective_n <= 0.0:
        return v_min
    return (expected_sample_max - v_min) * (1.0 + 1.0 / effective_n) + v_min
