"""Percentiles and span arithmetic used by the benchmark.

Kept free of numpy and of the program under test so that the benchmark's own
tests can exercise it directly.
"""

from __future__ import annotations

import math
import statistics

# A percentile is only reported when at least this many samples lie beyond it.
MIN_BEYOND = 10


def min_samples(q: float) -> int:
    """Smallest sample count that leaves MIN_BEYOND samples above the
    nearest-rank q-quantile (q in (0, 1))."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    n = MIN_BEYOND
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-quantile of n samples."""
    return n - math.ceil(q * n - 1e-9)


def percentile(values, q: float) -> float:
    """Nearest-rank q-quantile: the smallest sample with at least a share q
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(math.ceil(q * len(ordered) - 1e-9), 1)
    return ordered[rank - 1]


def window_rates(start: float, ends, amounts, size: int) -> list:
    """Rates of consecutive windows of `size` operations: the amount of work
    the window's operations did over the wall time from the end of the
    operation before it (or `start`, for the first window) to the end of its
    last one, so time spent between operations counts too. A trailing window
    with fewer than `size` operations is left out."""
    rates, prev = [], start
    for i in range(size, len(ends) + 1, size):
        end = ends[i - 1]
        rates.append(sum(amounts[i - size:i]) / (end - prev))
        prev = end
    return rates


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Self time of every span: its duration minus the part of its interval
    covered by its child spans.

    spans: iterable of (index, start, end, parent index). A span whose parent
    is not among them counts as a root, so the spans of one layer alone give
    self times at that layer's granularity wherever that layer's spans nest
    directly inside each other.
    """
    by_index = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in by_index.values():
        if s[3] in by_index:
            children.setdefault(s[3], []).append(s)
    out = {}
    for i, (_, start, end, _) in by_index.items():
        inner = [(max(c[1], start), min(c[2], end)) for c in children.get(i, ())]
        out[i] = (end - start) - covered([iv for iv in inner if iv[1] > iv[0]])
    return out


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
