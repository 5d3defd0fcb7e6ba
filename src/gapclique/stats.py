"""Small statistics helpers for the Monte Carlo harnesses."""

import math

# z for a two-sided 99% normal interval
Z99 = 2.5758293035489004


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 99% score interval for a binomial proportion.

    Returns (0.0, 1.0) for zero trials, which keeps degenerate reports
    well-defined without a division by zero.
    """
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = Z99 * Z99
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (Z99 / denom) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))
