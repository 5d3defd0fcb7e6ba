"""The linearity test read off its definition, kept as the differential
reference for lintest's counting: the accepted pairs from a loop over every
pair of points, and the Monte Carlo estimate from one sampled pair at a time.

Points, ranks and values go through rank_tuple, unrank_tuple and
value_at below, not through lintest's digit matrices or pair blocks.
"""

import itertools

import numpy as np

from gapclique.ffield import rank_tuple, unrank_tuple
from gapclique.lintest import PassEstimate
from gapclique.stats import wilson_interval

from field_reference import inner_product


def value_at(f, alpha) -> tuple:
    """The table's value at point alpha, as a tuple of ints."""
    return tuple(int(v) for v in f.values[rank_tuple(f.q, alpha)])


def eval_linear(c, alpha) -> int:
    """A linear scalar function's value at alpha: <rho, alpha> mod q."""
    return inner_product(c.q, c.rho, alpha)


def coordinate_masks(f) -> np.ndarray:
    """[i, a, b]: output coordinate i alone accepts the pair of the points
    ranked a and b, that is f_i(a) + f_i(b) = f_i(a + b)."""
    q = f.q
    points = list(itertools.product(range(q), repeat=f.d))
    masks = np.zeros((f.l, len(points), len(points)), dtype=bool)
    for a, b in itertools.product(points, repeat=2):
        s = tuple((x + y) % q for x, y in zip(a, b))
        fa, fb, fs = (np.array(value_at(f, p)) for p in (a, b, s))
        masks[:, rank_tuple(q, a), rank_tuple(q, b)] = (fa + fb) % q == fs
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
        a = unrank_tuple(q, f.d, rng.randrange(n))
        b = unrank_tuple(q, f.d, rng.randrange(n))
        s = tuple((x + y) % q for x, y in zip(a, b))
        fa, fb, fs = value_at(f, a), value_at(f, b), value_at(f, s)
        if all((u + v) % q == w for u, v, w in zip(fa, fb, fs)):
            passes += 1
    lo, hi = wilson_interval(passes, samples)
    return PassEstimate(passes, samples, passes / samples, lo, hi)
