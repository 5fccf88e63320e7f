"""Small statistics: whole-window aggregates, chunk medians, the driver's spread."""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence, Tuple

from repro.serving import percentile  # nearest rank, the runtime's own definition


def whole_window(
    records: Sequence[Tuple[float, float, int]], wall: float
) -> Tuple[float, float, float]:
    """``(images/s, latency p50, latency p95)`` over every completion of a window.

    Completed images over the wall time from the first submit to the last
    finish, and percentiles over all requests, so a stall the program causes
    (a swap gate that blocks, a shard restart, a GC pause) is in them however
    short it is.
    """
    latencies = [finish - due for due, finish, _ in records]
    images = sum(record[2] for record in records)
    return images / wall, percentile(latencies, 50), percentile(latencies, 95)


def chunk_medians(
    records: Sequence[Tuple[float, float, int]], origin: float, chunks: int = 10
) -> Tuple[float, float, float]:
    """``(images/s, latency p50, latency p95)`` as medians over equal-count chunks.

    ``records`` are ``(due, finish, images)`` of completed work.  They are
    ordered by finish time and cut into ``chunks`` runs of equal count; each
    run's rate is its images over the time since the previous run ended
    (``origin`` for the first), so no run is quantised by a window edge.  One
    stall then spoils one chunk, not the median: this is the window's
    *steady-state* behaviour.  Read next to :func:`whole_window` it tells a
    stall from a uniform slow-down.
    """
    ordered = sorted(records, key=lambda record: record[1])
    chunks = min(chunks, max(1, len(ordered) // 20))
    size = len(ordered) / chunks
    rates: List[float] = []
    p50s: List[float] = []
    p95s: List[float] = []
    previous_end = origin
    for index in range(chunks):
        part = ordered[round(index * size): round((index + 1) * size)]
        end = part[-1][1]
        rates.append(sum(record[2] for record in part) / (end - previous_end))
        latencies = [finish - due for due, finish, _ in part]
        p50s.append(percentile(latencies, 50))
        p95s.append(percentile(latencies, 95))
        previous_end = end
    return statistics.median(rates), statistics.median(p50s), statistics.median(p95s)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's spread)."""
    if len(values) < 2:
        return math.nan
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else math.nan
