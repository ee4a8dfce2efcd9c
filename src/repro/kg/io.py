"""Plain-text IO for knowledge graphs.

Triples are stored one per line as ``head<TAB>relation<TAB>tail`` (the
format used by the standard TransE benchmark dumps such as FB15k), and
attributes as ``entity<TAB>attribute<TAB>value``.
"""

from __future__ import annotations

import os

from repro.errors import GraphError
from repro.kg.graph import KnowledgeGraph


def save_triples(graph: KnowledgeGraph, path: str | os.PathLike[str]) -> int:
    """Write all triples of ``graph`` as a TSV file; returns lines written."""
    count = 0
    with open(path, "w", encoding="utf-8") as f:
        for triple in graph.triples():
            head = graph.entities.name_of(triple.head)
            rel = graph.relations.name_of(triple.relation)
            tail = graph.entities.name_of(triple.tail)
            f.write(f"{head}\t{rel}\t{tail}\n")
            count += 1
    return count


def load_triples(
    path: str | os.PathLike[str], name: str = "kg", graph: KnowledgeGraph | None = None
) -> KnowledgeGraph:
    """Read a TSV triple file into ``graph`` (or a new graph).

    Blank lines and lines starting with ``#`` are skipped. Malformed
    lines raise :class:`~repro.errors.GraphError` with the line number.
    """
    if graph is None:
        graph = KnowledgeGraph(name=name)
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise GraphError(f"{path}:{lineno}: expected 3 tab-separated fields")
            graph.add_fact(parts[0], parts[1], parts[2])
    return graph


def save_attributes(graph: KnowledgeGraph, path: str | os.PathLike[str]) -> int:
    """Write all entity attributes of ``graph`` as a TSV file."""
    count = 0
    with open(path, "w", encoding="utf-8") as f:
        for attribute in graph.attributes.attribute_names():
            for entity, value in sorted(graph.attributes.column(attribute).items()):
                f.write(f"{graph.entities.name_of(entity)}\t{attribute}\t{value!r}\n")
                count += 1
    return count


def load_attributes(graph: KnowledgeGraph, path: str | os.PathLike[str]) -> int:
    """Read an attribute TSV into ``graph.attributes``; returns rows read."""
    count = 0
    columns: dict[str, dict[int, float]] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise GraphError(f"{path}:{lineno}: expected 3 tab-separated fields")
            entity_name, attribute, raw_value = parts
            entity = graph.entities.id_of(entity_name)
            try:
                value = float(raw_value)
            except ValueError:
                raise GraphError(f"{path}:{lineno}: bad numeric value {raw_value!r}") from None
            columns.setdefault(attribute, {})[entity] = value
            count += 1
    for attribute, values in columns.items():
        graph.attributes.set_many(attribute, values)
    return count
