"""Order statistics used to summarise repeated measurements."""

from __future__ import annotations

import statistics


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile.

    The quartiles follow ``statistics.quantiles(values, n=4)`` (the
    exclusive method); with fewer than two values every quartile is the
    single value.
    """
    values = list(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        raise ValueError("relative spread around a zero median")
    return (q3 - q1) / abs(q2)
