"""The linearity test read off its definition, kept as the differential
reference for lintest's counting: the accepted pairs from a loop over every
pair of points, and the Monte Carlo estimate from one sampled pair at a time.

Points, ranks and values go through the table's own rank, unrank and
value_at, not through lintest's digit matrices or pair blocks.
"""

import itertools

import numpy as np

from gapclique.lintest import PassEstimate
from gapclique.stats import wilson_interval


def coordinate_masks(f) -> np.ndarray:
    """[i, a, b]: output coordinate i alone accepts the pair of the points
    ranked a and b, that is f_i(a) + f_i(b) = f_i(a + b)."""
    q = f.q
    points = list(itertools.product(range(q), repeat=f.d))
    masks = np.zeros((f.l, len(points), len(points)), dtype=bool)
    for a, b in itertools.product(points, repeat=2):
        s = tuple((x + y) % q for x, y in zip(a, b))
        fa, fb, fs = (np.array(f.value_at(p)) for p in (a, b, s))
        masks[:, f.rank(a), f.rank(b)] = (fa + fb) % q == fs
    return masks


def accepted_mask(f) -> np.ndarray:
    """[a, b]: the test accepts the pair of the points ranked a and b, on
    every output coordinate at once."""
    return coordinate_masks(f).all(axis=0)


def monte_carlo_estimate(f, samples: int, rng) -> PassEstimate:
    """The Monte Carlo pass estimate, one pair per sample, drawing the rank
    of the first point and then that of the second."""
    q, n = f.q, f.size
    passes = 0
    for _ in range(samples):
        a = f.unrank(rng.randrange(n))
        b = f.unrank(rng.randrange(n))
        s = tuple((x + y) % q for x, y in zip(a, b))
        fa, fb, fs = f.value_at(a), f.value_at(b), f.value_at(s)
        if all((u + v) % q == w for u, v, w in zip(fa, fb, fs)):
            passes += 1
    lo, hi = wilson_interval(passes, samples)
    return PassEstimate(passes, samples, passes / samples, lo, hi)
