"""Per-entity attribute storage for aggregate queries.

The paper's aggregate queries (SUM / AVG / MAX / MIN) aggregate a numeric
attribute of the matched entities — e.g. a movie's ``year``, a product's
``quality``, or an entity's ``popularity``. An :class:`AttributeTable`
stores each column densely, indexed by entity id: one float64 value
array plus a boolean presence mask. Not every entity carries every
attribute (users have no ``year``), and the mask lets aggregate
estimators tell "absent" apart from 0.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

import numpy as np


class _Column(NamedTuple):
    """One attribute column: ``values[e]`` is meaningful iff ``present[e]``."""

    values: np.ndarray
    present: np.ndarray


def _padded(column: _Column | None, size: int) -> _Column:
    """A copy of ``column`` (or an empty column) ``size`` ids long; the
    ids it adds read as absent."""
    padded = _Column(np.zeros(size), np.zeros(size, dtype=bool))
    if column is not None:
        padded.values[: len(column.values)] = column.values
        padded.present[: len(column.present)] = column.present
    return padded


class AttributeTable:
    """A collection of dense numeric columns indexed by entity id.

    Reads never lock. A write that fits a column stores in place; one
    that grows it builds new arrays and swaps the ``(values, present)``
    pair in as one object, so a concurrent reader sees either the old
    pair or the new one, never a mix. Writers must not race each other.
    """

    def __init__(self) -> None:
        self._columns: dict[str, _Column] = {}

    def set(self, attribute: str, entity: int, value: float) -> None:
        """Set ``attribute`` of ``entity`` to ``value``."""
        entity = int(entity)
        if entity < 0:
            raise ValueError(f"entity id {entity} is negative")
        self._write(attribute, entity, float(value), entity + 1)

    def set_many(self, attribute: str, values: dict[int, float]) -> None:
        """Bulk-set an attribute column from an ``{entity: value}`` dict."""
        ids = np.fromiter(values.keys(), dtype=np.int64, count=len(values))
        vals = np.fromiter(values.values(), dtype=np.float64, count=len(values))
        if len(ids) and ids.min() < 0:
            raise ValueError(f"entity id {int(ids.min())} is negative")
        self._write(attribute, ids, vals, int(ids.max()) + 1 if len(ids) else 0)

    def _write(self, attribute: str, ids, vals, end: int) -> None:
        column = self._columns.get(attribute)
        if column is not None and end <= len(column.values):
            column.values[ids] = vals
            column.present[ids] = True
            return
        # Grow geometrically, so loading a column row by row stays linear.
        grown = _padded(column, end if column is None else max(end, 2 * len(column.values)))
        grown.values[ids] = vals
        grown.present[ids] = True
        self._columns[attribute] = grown

    def get(self, attribute: str, entity: int) -> float | None:
        """Value of ``attribute`` for ``entity``, or None when absent."""
        column = self._columns.get(attribute)
        if column is None or not 0 <= entity < len(column.present) or not column.present[entity]:
            return None
        return float(column.values[entity])

    def has(self, attribute: str, entity: int) -> bool:
        return self.get(attribute, entity) is not None

    def dense(self, attribute: str, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``(values, present)`` of ``attribute`` covering at least ids
        ``0..n-1``; ids past the stored column (entities appended since it
        was written) read as absent. The arrays may be the live column:
        read them, never write them."""
        column = self._columns.get(attribute)
        if column is not None and len(column.values) >= n:
            return column.values, column.present
        return _padded(column, n)

    def column(self, attribute: str) -> dict[int, float]:
        """The full ``{entity: value}`` mapping for ``attribute`` (a copy)."""
        column = self._columns.get(attribute)
        if column is None:
            return {}
        ids = np.flatnonzero(column.present)
        return dict(zip(ids.tolist(), column.values[ids].tolist()))

    def values_for(self, attribute: str, entities: Iterable[int]) -> np.ndarray:
        """Values of ``attribute`` for ``entities`` that carry it.

        Entities missing the attribute are silently dropped, matching the
        SQL semantics of aggregating a possibly-NULL column.
        """
        column = self._columns.get(attribute)
        if column is None:
            return np.empty(0, dtype=np.float64)
        ids = np.fromiter(entities, dtype=np.int64)
        ids = ids[(ids >= 0) & (ids < len(column.present))]
        return column.values[ids[column.present[ids]]]

    def attribute_names(self) -> list[str]:
        return sorted(self._columns)

    def __contains__(self, attribute: object) -> bool:
        return attribute in self._columns

    def __repr__(self) -> str:
        sizes = {name: int(col.present.sum()) for name, col in self._columns.items()}
        return f"AttributeTable({sizes})"
