"""The benchmark's own arithmetic: percentiles, spreads, and verdicts.

Stdlib only, so ``test_sacbench.py`` checks it without numpy or a server.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

def _rank(count: int, q: float) -> int:
    # Rounded first, so 99.9 % of 10 000 is rank 9 990, not 9 991.
    return max(1, math.ceil(round(q / 100.0 * count, 9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``q`` % at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return float(ordered[_rank(len(ordered), q) - 1])


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q`` percentile."""
    return count - _rank(count, q)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0 for no samples (an idle layer did no work)."""
    return float(sum(values) / len(values)) if values else 0.0


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` exactly as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (0 when the median is 0)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``.

    Negative when the change is better.
    """
    if parent == 0:
        return 0.0 if change == parent else math.inf
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def paired_wins(parent: Dict[int, float], change: Dict[int, float], better: str):
    """``(wins, pairs)``: seeds where the change reads strictly better; ties win nothing."""
    seeds = sorted(set(parent) & set(change))
    wins = 0
    for seed in seeds:
        a, b = parent[seed], change[seed]
        if (b < a) if better == "lower" else (b > a):
            wins += 1
    return wins, len(seeds)


def verdict(
    parent: Dict[int, float],
    change: Dict[int, float],
    better: str,
    bound: Optional[float],
) -> str:
    """Judge one (metric, workload) pair from runs keyed by seed.

    * ``improved`` — the change wins at least nine tenths of the seed pairs
      and the medians differ by more than the parent's inter-quartile range;
    * ``regressed`` — the change's median is worse than the parent's by more
      than ``bound`` (a share of the parent's median);
    * ``unresolved`` — the spread of either side is wider than ``bound``,
      unless every run of the change reads better than every run of the
      parent;
    * ``unchanged`` — otherwise.

    Metrics without a bound (the per-layer ones) can only be ``improved``
    or ``unchanged``; they are never a regression gate.
    """
    a, b = list(parent.values()), list(change.values())
    if not a or not b:
        return "unresolved"
    a_q1, a_median, a_q3 = quartiles(a)
    b_median = quartiles(b)[1]
    wins, pairs = paired_wins(parent, change, better)
    if pairs and wins >= 0.9 * pairs and abs(b_median - a_median) > (a_q3 - a_q1):
        return "improved"
    if bound is None:
        return "unchanged"
    if worsening(a_median, b_median, better) > bound:
        return "regressed"
    if spread(a) > bound or spread(b) > bound:
        all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        if not all_better:
            return "unresolved"
    return "unchanged"
