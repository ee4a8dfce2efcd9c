"""Statistics helpers: rule-checked percentiles and span self time."""

from __future__ import annotations

import math

import numpy as np

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def supports(count: int, q: float) -> bool:
    """True when ``count`` samples leave at least ``MIN_BEYOND`` beyond
    the ``q`` quantile (e.g. 1000 samples for p99)."""
    return count * (1.0 - q) >= MIN_BEYOND - 1e-9


def percentile(samples, q: float) -> float:
    """The ``q`` quantile of ``samples``; raises :class:`TooFewSamples`
    when fewer than ``MIN_BEYOND`` samples lie beyond it."""
    values = np.asarray(samples, dtype=np.float64)
    if not supports(len(values), q):
        raise TooFewSamples(
            f"p{q * 100:g} needs {math.ceil(MIN_BEYOND / (1.0 - q))} samples, got {len(values)}"
        )
    return float(np.quantile(values, q))


def percentile_or_zero(samples, q: float) -> float:
    """:func:`percentile` for per-layer metrics, which read 0 when the
    layer saw too few samples to support the percentile."""
    try:
        return percentile(samples, q)
    except TooFewSamples:
        return 0.0


def windowed(samples, q: float, size: int) -> float:
    """Median, over consecutive windows of ``size`` samples (in time
    order), of each window's ``q`` quantile: a stall that spoils one
    window moves one of the values, not the result. Every window must
    support the quantile."""
    values = np.asarray(samples, dtype=np.float64)
    count = len(values) // size
    if count < 1 or not supports(size, q):
        raise TooFewSamples(f"{len(values)} samples make no window of {size} for p{q * 100:g}")
    return float(np.median([percentile(chunk, q) for chunk in np.array_split(values, count)]))


def windowed_rate(times, start: float, end: float, width: float = 2.0) -> float:
    """Median events per second over consecutive ``width``-second windows
    of ``[start, end]``; ``times`` are the events' completion times."""
    count = max(1, int((end - start) // width))
    counts, _ = np.histogram(times, bins=count, range=(start, start + count * width))
    return float(np.median(counts)) / width


def mean_or_zero(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total = 0.0
    cursor = start
    for s, e in clipped:
        if e <= cursor:
            continue
        total += e - max(s, cursor)
        cursor = e
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval covered by its child spans (children that ran in parallel,
    e.g. on two shard lanes, are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: (span.end - span.start)
        - covered(children.get(span.span_id, []), span.start, span.end)
        for span in spans
    }
