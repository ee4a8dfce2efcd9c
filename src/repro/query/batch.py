"""Batch execution of top-k queries.

Executes a batch of top-k queries — given as :class:`BatchQuery`
records or full :class:`~repro.query.spec.QuerySpec` objects — against
one engine with three optimisations a single-query loop does not get:

- **deduplication** — repeated queries (common in recommendation
  serving) are answered once and fanned out; specs are hashable, so the
  spec itself is the dedup key;
- **result-cache routing** — when a serving-layer result cache is
  attached to the engine (``engine.result_cache``, set by
  :class:`repro.service.server.QueryService`), cached queries are
  answered without touching the index at all, and fresh answers are
  written back;
- **locality ordering** — executed queries are processed in S2
  query-point order (sorted along the first projected coordinate), so
  consecutive queries tend to touch the same already-cracked region of
  the index. This is the batch analogue of the paper's locality argument
  for the node-splitting cost model ("based on the principle of locality
  in database queries, this optimization has a lasting benefit").

Results are returned in the input order regardless of execution order.
Aggregate-shaped specs are rejected up front with a
:class:`~repro.errors.ServiceError` — batching is a top-k optimisation
(dedup + cache + locality), and silently skipping non-topk work would
corrupt the positional result list.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QueryError, ServiceError
from repro.query.spec import QuerySpec
from repro.query.topk import TopKResult
from repro.service.cache import QueryKey


@dataclass(frozen=True, slots=True)
class BatchQuery:
    """One query of a batch (legacy shorthand for a top-k spec)."""

    entity: int
    relation: int
    direction: str = "tail"  # 'tail' | 'head'


@dataclass
class BatchReport:
    """Outcome of a batch run."""

    results: list[TopKResult]
    unique_executed: int
    total_queries: int
    points_examined: int
    cache_hits: int = 0

    @property
    def dedup_ratio(self) -> float:
        if self.total_queries == 0:
            return 1.0
        return self.unique_executed / self.total_queries


def _as_spec(query, k: int) -> QuerySpec:
    """Normalize a batch item to a top-k QuerySpec (validating it)."""
    if isinstance(query, QuerySpec):
        if query.mode != "topk":
            raise ServiceError(
                "run_batch executes top-k specs only; route aggregate "
                "specs through QueryService.execute / QueryEngine.execute"
            )
        return query
    if isinstance(query, BatchQuery):
        if query.direction not in ("tail", "head"):
            raise QueryError(f"bad direction {query.direction!r}")
        return QuerySpec(
            entity=query.entity, relation=query.relation,
            direction=query.direction, k=k,
        )
    raise QueryError(f"batch items must be BatchQuery or QuerySpec, got {type(query)!r}")


def run_batch(engine, queries: list, k: int = 10) -> BatchReport:
    """Execute ``queries`` against ``engine`` and return a report.

    ``queries`` may mix :class:`BatchQuery` records (which take their
    ``k`` from the argument) and ready-made top-k :class:`QuerySpec`
    objects (which carry their own). Raises
    :class:`~repro.errors.QueryError` on an invalid direction and
    :class:`~repro.errors.ServiceError` on aggregate-shaped specs;
    entity/relation validation happens per query inside the engine.
    """
    specs = [_as_spec(query, k) for query in queries]
    unique = list(dict.fromkeys(specs))  # preserves first-seen order

    # Route through the serving-layer result cache when one is attached.
    # Only plain specs (no type filter, no epsilon override) share keys
    # with the serving layer's cache namespace.
    cache = getattr(engine, "result_cache", None)

    def cache_key(spec: QuerySpec) -> QueryKey | None:
        if spec.entity_type is not None or spec.epsilon is not None:
            return None
        return QueryKey(spec.entity, spec.relation, spec.direction, spec.k)

    answers: dict[QuerySpec, TopKResult] = {}
    cache_hits = 0
    pending: list[QuerySpec] = []
    if cache is None:
        pending = unique
    else:
        for spec in unique:
            key = cache_key(spec)
            cached = cache.get(key) if key is not None else None
            if cached is not None:
                answers[spec] = cached
                cache_hits += 1
            else:
                pending.append(spec)

    # Locality ordering: sort the queries to execute by their projected
    # query point's first coordinate (cheap, stable, and effective
    # because S2 is the space the index partitions). The projected key is
    # computed once per unique query, not once per comparison-and-again
    # at execution time.
    projected = {spec: float(engine.transform(engine.resolve(spec)[0])[0]) for spec in pending}
    ordered = sorted(pending, key=projected.__getitem__)
    points = 0
    for spec in ordered:
        result = engine.execute(spec).topk
        answers[spec] = result
        points += result.points_examined
        if cache is not None:
            key = cache_key(spec)
            if key is not None:
                cache.put(key, result)
    return BatchReport(
        results=[answers[s] for s in specs],
        unique_executed=len(pending),
        total_queries=len(queries),
        points_examined=points,
        cache_hits=cache_hits,
    )
