"""Order statistics and the parent-versus-change verdict.

Percentiles use the nearest-rank rule on the sorted sample.  Quartiles use
statistics.quantiles(values, n=4), the same call that judges run-to-run
spread, so the figures printed here match that judgement.
"""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10
MIN_PAIRS = 10
WIN_SHARE = 0.9


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; p = 100 is the maximum."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_rung(count: int):
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it
    in a sample of this size, or None when even the lowest rung has fewer.

    The tail of a workload is read at the rung for one pass's operation
    count, so it is the same percentile on every run whatever the number of
    passes that fit into the run.
    """
    best = None
    for p in TAIL_LADDER:
        if count * (100.0 - p) / 100.0 >= MIN_BEYOND:
            best = p
    return best


def quartiles(values):
    """(q1, median, q3) of a sample with at least one value."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, better: str, bound: float):
    """Judge one workload x metric from runs of the parent and the change.

    pairs holds (parent, change) values of runs made with the same seed.
    Returns (verdict, share of pairs the change won).  The rules:

    * improved: at least MIN_PAIRS pairs, the change wins at least
      WIN_SHARE of them (ties count for neither side), and the medians
      differ by more than the parent's own quartile distance;
    * worse: the change's median is worse than the parent's by more than
      bound, as a share of the parent's median;
    * unresolved: the parent's quartile distance is wider than bound,
      unless every run of the change reads better than every parent run;
    * unchanged: anything else.
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in pairs if sign * c < sign * p)
    share = wins / len(pairs) if pairs else 0.0
    q1, pmed, q3 = quartiles(parent)
    cmed = statistics.median(change)
    spread = q3 - q1
    if len(pairs) >= MIN_PAIRS and share >= WIN_SHARE and sign * (pmed - cmed) > spread:
        return "improved", share
    base = abs(pmed) or 1.0
    if sign * (cmed - pmed) / base > bound:
        return "worse", share
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread / base > bound and not all_better:
        return "unresolved", share
    return "unchanged", share
