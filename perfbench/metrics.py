"""Metric names and the order statistics the benchmark reports.

Kept free of numpy and hrcc imports so the rules can be tested on their own.
"""

from __future__ import annotations

import re

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Candidate tail percentiles in tenths of a percent, highest first.
_TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)


def valid_metric_name(name: str) -> bool:
    """Letters, digits, '_', '.' and '-', starting with a letter or digit, at most 64."""
    return bool(_NAME.fullmatch(name))


def _rank(n: int, permille: int) -> int:
    """1-based nearest rank of a percentile: ceil(permille * n / 1000)."""
    return max(1, -(-permille * n // 1000))


def samples_beyond(n: int, permille: int) -> int:
    return n - _rank(n, permille)


def tail_permille(n: int) -> int | None:
    """Highest candidate percentile with at least ten samples beyond it.

    Returns the percentile in tenths of a percent (990 is p99), or None when
    even the median has fewer than ten samples above it.
    """
    for permille in _TAIL_PERMILLE:
        if samples_beyond(n, permille) >= 10:
            return permille
    return None


def percentile(values, permille: int) -> float:
    """Nearest-rank percentile of ``values``; ``permille`` 500 is the median."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(len(ordered), permille) - 1]


def percentile_label(permille: int) -> str:
    """"p99", "p99.9", "p50" for 990, 999, 500."""
    whole, tenth = divmod(permille, 10)
    return f"p{whole}" if tenth == 0 else f"p{whole}.{tenth}"

