"""Arithmetic the benchmark reports with: percentiles, span self time,
the max-rate search and run-to-run spread.

Everything here is pure (no sockets, no clocks) so the unit tests in
``test_perfbench.py`` can pin it down exactly.
"""

from __future__ import annotations

import statistics

#: A reported percentile must have at least this many samples beyond it.
MIN_BEYOND = 10
#: Probes in the max-rate search's up/down staircase.
STAIRCASE_STEPS = 6


def _rank(n: int, q: int) -> int:
    """1-based nearest rank of the q-th percentile of n samples
    (integer arithmetic: ``ceil(q * n / 100)``, at least 1)."""
    return max(1, -(-q * n // 100))


def beyond(n: int, q: int) -> int:
    """Samples strictly beyond the q-th percentile's rank."""
    return n - _rank(n, q)


def percentile(sorted_vals, q: int):
    """Nearest-rank q-th percentile of an ascending sequence; refuses a
    percentile with fewer than :data:`MIN_BEYOND` samples beyond it
    (the median of a one-sample set is allowed: q=50 is never a tail)."""
    n = len(sorted_vals)
    if n == 0:
        raise ValueError("percentile of no samples")
    if q != 50 and beyond(n, q) < MIN_BEYOND:
        raise ValueError(
            f"p{q} of {n} samples has {beyond(n, q)} beyond it; "
            f"needs {MIN_BEYOND}"
        )
    return sorted_vals[_rank(n, q) - 1]


def min_samples(q: int) -> int:
    """Fewest samples for which :func:`percentile` accepts q."""
    n = 1
    while beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def coverage(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the part of its
    interval its direct children cover.

    ``spans`` is a sequence of ``(start, end, parent)`` with ``parent``
    the index of the enclosing span or -1.
    """
    children: dict[int, list] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        kids = children.get(i)
        out.append(end - start - (coverage(kids, start, end) if kids else 0))
    return out


def search_max_rate(ladder, probe):
    """Estimate the highest rate of an ascending ``ladder`` that
    ``probe(rate)`` passes, or None if no probe passed.

    A binary search (assuming pass/fail is monotone in rate) finds the
    rung; a rung fails there only if its probe fails twice, so one
    stalled probe cannot send the search far below the capacity.  Then
    an up/down staircase of :data:`STAIRCASE_STEPS` probes starts at
    that rung, one rung up after a pass and one down after a fail.
    Near the capacity a
    probe passes or fails by chance, so the staircase settles around the
    rate that passes half the time, and the estimate is the mean rate it
    probed.  Returns ``(estimate | None, [(rate, passed), ...])`` with
    every probe made, in order.
    """
    log = []

    def run(i):
        ok = bool(probe(ladder[i]))
        log.append((ladder[i], ok))
        return ok

    lo, hi = -1, len(ladder)  # ladder[lo] passed, ladder[hi] failed
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if run(mid) or run(mid):
            lo = mid
        else:
            hi = mid
    i, visited = max(lo, 0), []
    for _ in range(STAIRCASE_STEPS):
        visited.append(ladder[i])
        i = min(i + 1, len(ladder) - 1) if run(i) else max(i - 1, 0)
    if not any(ok for _, ok in log):
        return None, log
    return statistics.fmean(visited), log


def geometric_ladder(lo: float, hi: float, step: float) -> list[int]:
    """Rates from ``lo`` to ``hi`` (inclusive), each ``step`` times the
    last, rounded to whole requests per second."""
    out = []
    r = float(lo)
    while r <= hi * (1 + 1e-9):
        out.append(int(round(r)))
        r *= step
    return out


def spread(values) -> tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` of repeated runs, with
    the quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, ((q3 - q1) / med if med else float("inf"))
