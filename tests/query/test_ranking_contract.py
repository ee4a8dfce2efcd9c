"""The ranking contract of Algorithm 3's S1 re-rank.

- the row-distance kernel equals ``np.linalg.norm`` to ``rtol=1e-12``;
- ``find_topk`` returns exactly the ``(distance, id)``-ordered top-k of
  the set it ranked: the eligible ids among the probe's seeds and the
  initial region's search result;
- at the default epsilon, mean recall against the exhaustive scan is
  no lower than the shrinking-chunk walk this re-rank replaced.
"""

import numpy as np
import pytest

from repro.index.cracking import CrackingRTree
from repro.index.geometry import row_distances
from repro.index.linear import ExhaustiveScan
from repro.index.store import PointStore
from repro.query.spec import QuerySpec
from repro.query.topk import find_topk
from repro.transform.jl import JLTransform

#: Mean recall@k of the chunk walk (the re-rank's predecessor) over
#: ``_recall_specs`` on the shared movie fixture at epsilon=0.5.
WALK_MEAN_RECALL = 0.9995


@pytest.mark.parametrize("scale", [1.0, 1e8, 1e150])
def test_row_distances_match_linalg_norm(scale):
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(500, 50)) * scale
    point = rng.normal(size=50) * scale
    rows = rng.choice(500, size=200, replace=False)
    np.testing.assert_allclose(
        row_distances(matrix, rows, point),
        np.linalg.norm(matrix[rows] - point, axis=1),
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        row_distances(matrix, None, point),
        np.linalg.norm(matrix - point, axis=1),
        rtol=1e-12,
    )


def test_row_distances_leave_the_matrix_untouched():
    matrix = np.arange(12, dtype=np.float64).reshape(4, 3)
    before = matrix.copy()
    row_distances(matrix, np.array([0, 2]), np.ones(3))
    row_distances(matrix, None, np.ones(3))
    assert np.array_equal(matrix, before)


class _RecordingIndex:
    """Delegates to a real tree and records what probe/search returned."""

    def __init__(self, tree):
        self._tree = tree
        self.returned: list[np.ndarray] = []

    def probe(self, point, k):
        ids = self._tree.probe(point, k)
        self.returned.append(ids)
        return ids

    def search(self, region):
        ids = self._tree.search(region)
        self.returned.append(ids)
        return ids

    def refine(self, region):
        self._tree.refine(region)


@pytest.fixture
def clustered():
    rng = np.random.default_rng(11)
    centers = rng.normal(size=(5, 16)) * 3.0
    points = np.vstack(
        [center + rng.normal(scale=0.3, size=(120, 16)) for center in centers]
    )
    transform = JLTransform(16, 3, seed=2)
    tree = CrackingRTree(PointStore(transform(points)), leaf_capacity=16, fanout=4)
    return points, transform, tree


@pytest.mark.parametrize("typed", [False, True])
def test_find_topk_is_the_ordered_topk_of_its_ranked_set(clustered, typed):
    points, transform, tree = clustered
    rng = np.random.default_rng(5)
    allowed = np.sort(rng.choice(len(points), size=250, replace=False)) if typed else None
    for trial in range(40):
        q = points[rng.integers(len(points))] + rng.normal(scale=0.2, size=16)
        exclude = frozenset(rng.choice(len(points), size=30, replace=False).tolist())
        k = int(rng.choice([1, 5, 10, 20]))
        index = _RecordingIndex(tree)
        result = find_topk(
            index, points, transform, q, k, exclude=exclude, epsilon=0.5,
            allowed=allowed,
        )
        ranked = np.unique(np.concatenate(index.returned))
        ranked = ranked[~np.isin(ranked, list(exclude))]
        if allowed is not None:
            ranked = ranked[np.isin(ranked, allowed)]
        dists = np.linalg.norm(points[ranked] - q, axis=1)
        order = np.lexsort((ranked, dists))[:k]
        assert result.entities == tuple(ranked[order].tolist()), trial
        np.testing.assert_allclose(result.distances, dists[order], rtol=1e-12)
        assert result.points_examined == len(ranked)
        assert result.final_radius == pytest.approx(result.kth_distance * 1.5)


def test_ties_at_the_kth_distance_break_by_id():
    points = np.zeros((40, 6))
    points[20:] = 1.0
    transform = JLTransform(6, 3, seed=1)
    tree = CrackingRTree(PointStore(transform(points)), leaf_capacity=4, fanout=2)
    result = find_topk(tree, points, transform, np.zeros(6), k=5, epsilon=0.5)
    assert result.entities == (0, 1, 2, 3, 4)


def _recall_specs(dataset, count=200):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    users, movies = world.members("user"), world.members("movie")
    rng = np.random.default_rng(17)
    specs = []
    for _ in range(count):
        if rng.random() < 0.5:
            entity, direction = int(rng.choice(users)), "tail"
        else:
            entity, direction = int(rng.choice(movies)), "head"
        specs.append(
            QuerySpec(
                entity=entity, relation=likes, direction=direction,
                k=int(rng.choice([5, 10, 20])),
            )
        )
    return specs


def _mean_recall(engine, dataset) -> float:
    graph, _ = dataset
    scan = ExhaustiveScan(engine.s1_vectors, vectorized=True)
    shares = []
    for spec in _recall_specs(dataset):
        answer = engine.execute(spec).topk
        if spec.direction == "tail":
            point = engine.model.tail_query_point(spec.entity, spec.relation)
            known = graph.tails(spec.entity, spec.relation)
        else:
            point = engine.model.head_query_point(spec.entity, spec.relation)
            known = graph.heads(spec.entity, spec.relation)
        exact = [e for e, _ in scan.topk(point, spec.k, known | {spec.entity})]
        shares.append(len(set(answer.entities) & set(exact)) / len(exact))
    return float(np.mean(shares))


def test_recall_at_default_epsilon_not_below_the_chunk_walk(engine, dataset):
    assert engine.epsilon == 0.5
    assert _mean_recall(engine, dataset) >= WALK_MEAN_RECALL
