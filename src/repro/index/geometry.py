"""Axis-aligned rectangles (MBRs) in the index space S2, and the row
distance kernel every query path ranks candidates with."""

from __future__ import annotations

import numpy as np

from repro.errors import IndexError_


def row_distances(matrix: np.ndarray, rows, point: np.ndarray) -> np.ndarray:
    """Euclidean distances from ``point`` to ``matrix[rows]``.

    ``rows`` is an integer id array (``None`` means every row). The
    gather is a fresh copy, so the point is subtracted in place and the
    row norms come from one ``einsum``: several times faster than
    ``np.linalg.norm(matrix[rows] - point, axis=1)`` and equal to it
    within a few ulps.
    """
    if rows is None:
        diff = matrix - point
    else:
        diff = matrix[rows]
        diff -= point
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


class Rect:
    """An axis-aligned hyper-rectangle given by ``lower`` / ``upper`` corners.

    Degenerate rectangles (a single point, or flat in some dimension) are
    legal: entity points are indexed as zero-extent rectangles, exactly
    as in the paper ("a set of points — a special case of rectangles").
    """

    __slots__ = ("lower", "upper", "_lo", "_hi")

    def __init__(self, lower: np.ndarray, upper: np.ndarray) -> None:
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise IndexError_("lower/upper must be 1-d arrays of equal shape")
        if np.any(lower > upper):
            raise IndexError_("lower corner must not exceed upper corner")
        self.lower = lower
        self.upper = upper
        # Plain-float copies: the hot single-rect predicates (intersects,
        # contains_*) run orders of magnitude more often than batch ops,
        # and at alpha ~ 3 Python float comparisons beat numpy reductions
        # by an order of magnitude.
        self._lo = lower.tolist()
        self._hi = upper.tolist()

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_points(cls, points: np.ndarray) -> "Rect":
        """The minimum bounding rectangle of an ``(n, dim)`` point set."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or len(points) == 0:
            raise IndexError_("need a non-empty (n, dim) point array")
        return cls(points.min(axis=0), points.max(axis=0))

    @classmethod
    def ball_box(cls, center: np.ndarray, radius: float) -> "Rect":
        """The bounding box of the ball ``B(center, radius)`` — the query
        region shape used throughout Section V."""
        center = np.asarray(center, dtype=np.float64)
        if radius < 0:
            raise IndexError_("radius must be non-negative")
        return cls(center - radius, center + radius)

    # -- properties -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def volume(self) -> float:
        """Product of side lengths (0.0 for degenerate rectangles)."""
        return float(np.prod(self.upper - self.lower))

    def margin(self) -> float:
        """Sum of side lengths (the R*-tree 'margin' measure)."""
        return float((self.upper - self.lower).sum())

    # -- predicates ---------------------------------------------------------

    def contains_point(self, point: np.ndarray) -> bool:
        lo, hi = self._lo, self._hi
        for i, value in enumerate(point):
            if value < lo[i] or value > hi[i]:
                return False
        return True

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorised membership test: bool mask over ``(n, dim)`` rows."""
        points = np.asarray(points, dtype=np.float64)
        return np.all((points >= self.lower) & (points <= self.upper), axis=1)

    def intersects(self, other: "Rect") -> bool:
        slo, shi, olo, ohi = self._lo, self._hi, other._lo, other._hi
        for i in range(len(slo)):
            if slo[i] > ohi[i] or olo[i] > shi[i]:
                return False
        return True

    def contains_rect(self, other: "Rect") -> bool:
        slo, shi, olo, ohi = self._lo, self._hi, other._lo, other._hi
        for i in range(len(slo)):
            if slo[i] > olo[i] or ohi[i] > shi[i]:
                return False
        return True

    # -- combination ------------------------------------------------------

    def union(self, other: "Rect") -> "Rect":
        return Rect(
            np.minimum(self.lower, other.lower), np.maximum(self.upper, other.upper)
        )

    def overlap_volume(self, other: "Rect") -> float:
        """Volume of the intersection (0.0 when disjoint or degenerate)."""
        lengths = np.minimum(self.upper, other.upper) - np.maximum(
            self.lower, other.lower
        )
        if np.any(lengths < 0):
            return 0.0
        return float(np.prod(lengths))

    # -- distances -----------------------------------------------------------

    def min_dist_to_point(self, point: np.ndarray) -> float:
        """Euclidean distance from ``point`` to the nearest rectangle point
        (0.0 when the point is inside)."""
        point = np.asarray(point, dtype=np.float64)
        gaps = np.maximum(self.lower - point, 0.0) + np.maximum(
            point - self.upper, 0.0
        )
        return float(np.linalg.norm(gaps))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return bool(
            np.array_equal(self.lower, other.lower)
            and np.array_equal(self.upper, other.upper)
        )

    def __hash__(self) -> int:
        return hash((self.lower.tobytes(), self.upper.tobytes()))

    def __repr__(self) -> str:
        return f"Rect(lower={self.lower.tolist()}, upper={self.upper.tolist()})"
