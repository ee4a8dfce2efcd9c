"""Answer checks and exact ground truth.

Every check returns ``None`` when the answer is fine and a one-line
reason otherwise. Ground truth is computed after the timed phase from
the exact S1 vectors: top-k by ``ExhaustiveScan(vectorized=True)`` and
aggregates by the paper's estimators applied with full access to the
exact probability ball over every non-excluded entity.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from repro.index.linear import ExhaustiveScan

_FLOOR = 1e-9  # the probability model's distance floor


class Truth:
    """Exact answers over a graph and its (live) S1 entity matrix."""

    def __init__(self, graph, model) -> None:
        self.graph = graph
        self.model = model
        self.vectors = model.entity_vectors()
        self.scan = ExhaustiveScan(self.vectors, vectorized=True)
        self.scan_seconds: list[float] = []
        self._disallowed: dict[str, frozenset[int]] = {}
        self._topk: dict = {}
        self._aggregates: dict = {}

    def query_point(self, spec) -> np.ndarray:
        if spec.direction == "tail":
            return self.model.tail_query_point(spec.entity, spec.relation)
        return self.model.head_query_point(spec.entity, spec.relation)

    def exclude(self, spec) -> frozenset[int]:
        if spec.direction == "tail":
            known = self.graph.tails(spec.entity, spec.relation)
        else:
            known = self.graph.heads(spec.entity, spec.relation)
        return frozenset(known) | {spec.entity}

    def banned(self, spec) -> frozenset[int]:
        """Excluded ids plus, for a typed spec, every id of another type."""
        banned = self.exclude(spec)
        if spec.entity_type is not None:
            if spec.entity_type not in self._disallowed:
                allowed = self.graph.entities_of_type(spec.entity_type)
                self._disallowed[spec.entity_type] = frozenset(
                    range(self.graph.num_entities)
                ) - allowed
            banned = banned | self._disallowed[spec.entity_type]
        return banned

    def exact_topk(self, spec) -> tuple[int, ...]:
        """Exact top-k ids (memoized per spec; the graph must not change
        between calls, which holds after the timed phase)."""
        if spec not in self._topk:
            banned = self.banned(spec)
            point = self.query_point(spec)
            start = perf_counter()
            pairs = self.scan.topk(point, spec.k, banned)
            self.scan_seconds.append(perf_counter() - start)
            self._topk[spec] = tuple(entity for entity, _ in pairs)
        return self._topk[spec]

    def reference_aggregate(self, spec) -> float:
        """The full-access value ``v*`` of an aggregate spec."""
        if spec not in self._aggregates:
            self._aggregates[spec] = self._reference(spec)
        return self._aggregates[spec]

    def _reference(self, spec) -> float:
        dists = np.linalg.norm(self.vectors - self.query_point(spec), axis=1)
        dists[list(self.exclude(spec))] = np.inf
        d_min = max(float(dists.min()), _FLOOR)
        probs = np.minimum(1.0, d_min / np.maximum(dists, _FLOOR))
        ball = np.flatnonzero(probs >= spec.p_tau)
        if spec.attribute is not None:
            ball = np.array(
                [e for e in ball if self.graph.attributes.has(spec.attribute, int(e))],
                dtype=np.int64,
            )
        if len(ball) == 0:
            return 0.0
        ball_dists = dists[ball]
        probs = np.minimum(1.0, max(float(ball_dists.min()), _FLOOR) / np.maximum(ball_dists, _FLOOR))
        if spec.agg == "count":
            values = np.ones(len(ball))
        else:
            values = np.array([self.graph.attributes.get(spec.attribute, int(e)) for e in ball])
        if spec.agg in ("count", "sum"):
            return float((values * probs).sum())
        if spec.agg == "avg":
            return float((values * probs).sum() / probs.sum())
        if spec.agg == "max":
            return _expected_max(values, probs)
        return -_expected_max(-values, probs)


def _expected_max(values: np.ndarray, probs: np.ndarray) -> float:
    """Equation (4) with the sample-maximum extrapolation."""
    order = np.argsort(values)[::-1]
    survival = 1.0
    expected = 0.0
    for value, prob in zip(values[order], probs[order]):
        expected += value * survival * prob
        survival *= 1.0 - prob
    v_min = float(values.min())
    expected += v_min * survival
    return (expected - v_min) * (1.0 + 1.0 / float(probs.sum())) + v_min


def recall(entities, exact: tuple[int, ...]) -> float:
    """Overlap of an answer with the exact top-k, as a share of the latter."""
    if not exact:
        return 1.0
    return len(set(entities) & set(exact)) / len(exact)


def accuracy(value: float, reference: float) -> float:
    """The paper's ``1 - |v - v*| / v*``, clamped to [0, 1]."""
    if reference == 0.0:
        return 1.0 if value == 0.0 else 0.0
    return min(1.0, max(0.0, 1.0 - abs(value - reference) / abs(reference)))


def check_topk(spec, entities, distances, truth: Truth | None) -> str | None:
    """Structural checks; with ``truth`` (the state the answer was computed
    on) also exclusion, type and the recomputed S1 distances."""
    if len(entities) > spec.k or len(set(entities)) != len(entities):
        return f"{spec}: {len(entities)} ids for k={spec.k} or duplicates"
    if len(distances) != len(entities):
        return f"{spec}: {len(distances)} distances for {len(entities)} ids"
    if not all(math.isfinite(d) for d in distances):
        return f"{spec}: non-finite distance"
    if any(b < a for a, b in zip(distances, distances[1:])):
        return f"{spec}: distances decrease"
    if truth is None:
        return None
    if set(entities) & truth.exclude(spec):
        return f"{spec}: answer contains an excluded id"
    if spec.entity_type is not None and any(
        truth.graph.entity_type(e) != spec.entity_type for e in entities
    ):
        return f"{spec}: answer violates the type filter"
    if entities:
        ids = np.asarray(entities, dtype=np.int64)
        exact = np.linalg.norm(truth.vectors[ids] - truth.query_point(spec), axis=1)
        if not np.allclose(distances, exact, rtol=1e-9, atol=1e-12):
            return f"{spec}: distances differ from the recomputed S1 distances"
    return None


def check_aggregate(spec, value: float, accessed: int, ball_size: int) -> str | None:
    if not math.isfinite(value):
        return f"{spec}: non-finite aggregate"
    if not 0 <= accessed <= ball_size:
        return f"{spec}: accessed {accessed} outside [0, ball_size={ball_size}]"
    return None


def check_envelope(body, spec) -> str | None:
    """A ``/v1/query`` success body is the ``{result, meta, error}`` envelope."""
    if not isinstance(body, dict) or set(body) != {"result", "meta", "error"}:
        return f"{spec}: not a v1 envelope: {str(body)[:80]}"
    if body["error"] is not None:
        return f"{spec}: error {body['error']}"
    meta = body["meta"]
    if (
        not isinstance(meta, dict)
        or meta.get("api") != "v1"
        or meta.get("mode") != spec.mode
        or not isinstance(meta.get("cached"), bool)
        or not isinstance(meta.get("elapsed_seconds"), (int, float))
    ):
        return f"{spec}: malformed meta {meta}"
    result = body["result"]
    if spec.mode != "topk":
        return None
    fields = ("entities", "names", "distances", "probabilities")
    if not isinstance(result, dict) or any(not isinstance(result.get(f), list) for f in fields):
        return f"{spec}: malformed top-k result"
    if len({len(result[f]) for f in fields}) != 1:
        return f"{spec}: top-k result fields differ in length"
    if not all(0.0 < p <= 1.0 for p in result["probabilities"]):
        return f"{spec}: probability outside (0, 1]"
    return None
