"""Summary statistics used by the benchmark report."""
from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile, 0 < q < 100.

    The estimate is a weighted mean of all order statistics: with sorted
    values v[0..n-1], v[i] gets the probability that a Beta((n+1)p,
    (n+1)(1-p)) variable falls in [i/n, (i+1)/n], where p = q/100
    (Harrell and Davis, Biometrika 69(3), 1982).  A workload mixes cases of
    very different cost, so the single order statistic at rank (n-1)p
    jumps with which case lands there; averaging over neighbouring ranks
    makes the estimate far steadier from seed to seed and run to run.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {q}")
    v = sorted(values)
    n = len(v)
    a, b = (n + 1) * q / 100, (n + 1) * (1 - q / 100)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v[i] for i in range(n))


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by continued fraction."""
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1) / (a + b + 2):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, 1.0 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300

    def guard(t: float) -> float:
        return tiny if abs(t) < tiny else t

    c = 1.0
    d = 1.0 / guard(1.0 - (a + b) * x / (a + 1))
    h = d
    for m in range(1, 100_000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 / guard(1.0 + num * d)
            c = guard(1.0 + num / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def loglog_slope(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x) over (x, y) pairs."""
    if len({x for x, _ in points}) < 2:
        raise ValueError("a slope needs at least two distinct x values")
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx
