"""The four workloads and their seeded operation streams.

A workload is a dataset, a traffic mix and a client shape. Its operation
stream is a pure function of the dataset and the ``--seed`` argument: the
benchmark generates every ``QuerySpec`` (and every update) up front, and
the program under test only ever receives those generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.query.spec import QuerySpec

AGG_KINDS = ("count", "sum", "avg", "max", "min")
#: Probability thresholds of the aggregate ball (Section V-B).
P_TAUS = (0.1, 0.25)
#: The paper's accuracy/time dial: share of the ball whose records are read.
ACCESS_FRACTIONS = (0.5, 1.0)


@dataclass(frozen=True)
class Workload:
    """One named traffic mix; see ``perfbench/README.md`` for why each exists."""

    name: str
    dataset: str  # movie | freebase | amazon (``repro.bench.datasets`` at scale 1.0)
    transport: str  # http | inproc
    clients: int  # closed-loop reader threads (or HTTP connections)
    shards: int = 1  # >1 serves through ShardedEngine (fork backend)
    topk_share: float = 1.0  # the rest of the reads are aggregates
    typed_share: float = 0.0  # share of top-k specs restricted to an entity type
    ks: tuple[int, ...] = (10,)
    distinct: int | None = None  # size of a fixed query pool (None: sample freely)
    zipf: float = 0.0  # skew of the draw over that pool (warmed up by one pass)
    agg_attributes: tuple[str, ...] = ()
    writer_rate: float = 0.0  # open-loop updates per second (0: read-only)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hot-http", "movie", "http", clients=2, ks=(10,), distinct=1700, zipf=1.1,
        ),
        Workload(
            "wide-read", "freebase", "inproc", clients=1, topk_share=0.8,
            typed_share=0.25, ks=(5, 10, 20), agg_attributes=("popularity", "age"),
        ),
        # The top-k part of the wide-read stream, scattered over two
        # forked shard trees (the fork backend serves top-k only).
        Workload(
            "sharded-topk", "freebase", "inproc", clients=2, shards=2,
            typed_share=0.25, ks=(5, 10, 20),
        ),
        Workload(
            "mixed-rw", "amazon", "inproc", clients=1, topk_share=0.7,
            ks=(10,), agg_attributes=("quality",), writer_rate=40.0,
        ),
    )
}


def _sample_triples(rng: np.random.Generator, triples: np.ndarray, size: int) -> np.ndarray:
    """Edge-mass weighted anchors: a random known triple per query, so an
    entity with many edges of a relation is queried proportionally more."""
    return triples[rng.integers(len(triples), size=size)]


def _anchor(row, direction: str) -> tuple[int, int, int]:
    """(query entity, relation, the known answer-side entity) of a triple."""
    head, relation, tail = (int(x) for x in row)
    if direction == "tail":
        return head, relation, tail
    return tail, relation, head


#: Streams are drawn in blocks with one generator each, so a stream's
#: prefix does not depend on the requested length.
BLOCK = 1024


def read_stream(workload: Workload, graph, seed: int, length: int) -> list[QuerySpec]:
    """The read specs of ``workload``, in the order clients take them."""
    if workload.name == "sharded-topk":
        # Exactly the top-k specs of the wide-read stream with this seed.
        source = WORKLOADS["wide-read"]
        return _take(
            (spec for spec in _blocks(source, graph, seed) if spec.mode == "topk"), length
        )
    return _take(_blocks(workload, graph, seed), length)


def _take(specs, length: int) -> list[QuerySpec]:
    out = []
    for spec in specs:
        if len(out) == length:
            break
        out.append(spec)
    return out


def _blocks(workload: Workload, graph, seed: int):
    pool = query_pool(workload, graph, seed) if workload.distinct is not None else None
    block = 0
    while True:
        rng = np.random.default_rng([seed, 1, block])
        if pool is not None:
            weights = np.arange(1, len(pool) + 1, dtype=np.float64) ** -workload.zipf
            draws = rng.choice(len(pool), size=BLOCK, p=weights / weights.sum())
            yield from (pool[i] for i in draws)
        else:
            yield from _sampled(workload, graph, rng)
        block += 1


def _sampled(workload: Workload, graph, rng: np.random.Generator):
    rows = _sample_triples(rng, graph.triple_array(), BLOCK)
    directions = rng.integers(2, size=BLOCK)
    uniform = rng.random((BLOCK, 2))
    ks = rng.integers(len(workload.ks), size=BLOCK)
    kinds = rng.integers(len(AGG_KINDS), size=BLOCK)
    attrs = rng.integers(max(1, len(workload.agg_attributes)), size=BLOCK)
    taus = rng.integers(len(P_TAUS), size=BLOCK)
    fractions = rng.integers(len(ACCESS_FRACTIONS), size=BLOCK)
    for i in range(BLOCK):
        direction = "tail" if directions[i] == 0 else "head"
        entity, relation, answer = _anchor(rows[i], direction)
        if uniform[i, 0] < workload.topk_share:
            entity_type = None
            if uniform[i, 1] < workload.typed_share:
                entity_type = graph.entity_type(answer)
            yield QuerySpec(
                entity=entity, relation=relation, direction=direction,
                k=workload.ks[ks[i]], entity_type=entity_type,
            )
            continue
        kind = AGG_KINDS[kinds[i]]
        yield QuerySpec(
            entity=entity, relation=relation, direction=direction,
            mode="aggregate", agg=kind,
            attribute=None if kind == "count" else workload.agg_attributes[attrs[i]],
            p_tau=P_TAUS[taus[i]], access_fraction=ACCESS_FRACTIONS[fractions[i]],
        )


def query_pool(workload: Workload, graph, seed: int) -> list[QuerySpec]:
    """The fixed pool of distinct top-k specs a pooled workload draws from,
    in Zipf rank order (most popular first)."""
    rng = np.random.default_rng([seed, 2])
    triples = graph.triple_array()
    possible = len(np.unique(triples[:, :2], axis=0)) + len(np.unique(triples[:, 1:], axis=0))
    if possible < workload.distinct:
        raise ValueError(f"the graph has only {possible} distinct top-k queries")
    seen: dict[tuple, QuerySpec] = {}
    while len(seen) < workload.distinct:
        row = _sample_triples(rng, triples, 1)[0]
        direction = "tail" if rng.integers(2) == 0 else "head"
        entity, relation, _ = _anchor(row, direction)
        key = (entity, relation, direction)
        if key not in seen:
            seen[key] = QuerySpec(
                entity=entity, relation=relation, direction=direction, k=workload.ks[0]
            )
    return list(seen.values())


def write_stream(graph, vectors: np.ndarray, seed: int, length: int) -> list[tuple]:
    """Seeded updates for the open-loop writer, alternating
    ``("set_vector", entity, vector)`` perturbations of the initial
    embedding and ``("add_edge", head, relation, tail)`` new facts."""
    rng = np.random.default_rng([seed, 3])
    scale = 0.05 * float(vectors.std())
    triples = graph.triple_array()
    known = {tuple(int(x) for x in row) for row in triples}
    heads_by_rel: dict[int, np.ndarray] = {}
    tails_by_rel: dict[int, np.ndarray] = {}
    for relation in np.unique(triples[:, 1]):
        mask = triples[:, 1] == relation
        heads_by_rel[int(relation)] = np.unique(triples[mask, 0])
        tails_by_rel[int(relation)] = np.unique(triples[mask, 2])
    relations = sorted(heads_by_rel)
    updates: list[tuple] = []
    while len(updates) < length:
        if len(updates) % 2 == 0:
            entity = int(rng.integers(len(vectors)))
            vector = vectors[entity] + rng.normal(scale=scale, size=vectors.shape[1])
            updates.append(("set_vector", entity, vector))
            continue
        relation = relations[int(rng.integers(len(relations)))]
        head = int(rng.choice(heads_by_rel[relation]))
        tail = int(rng.choice(tails_by_rel[relation]))
        if head == tail or (head, relation, tail) in known:
            continue
        known.add((head, relation, tail))
        updates.append(("add_edge", head, relation, tail))
    return updates
