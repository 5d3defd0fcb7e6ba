"""The linearity test read off its definition, kept as the differential
reference for lintest's counting: a table's agreement with a linear
function one point at a time, the accepted pairs from a loop over every
pair of points, or, past a few thousand points, from every pair of points a
block of first points at a time (or only a few points' rows of pairs), and
the Monte Carlo estimate from one sampled pair at a time.
Also the lines through the origin from a walk over every point, the
corrupted linear tables of the lintest suite one line at a time, the rank of
a table's values from a row reduction over Python ints, piecing's match
labels one decoded list at a time, and piecing's outcome from the labels of
every point, with lintest's counts and lists or with each coordinate's own.

Points, ranks and values go through rank_tuple, unrank_tuple and
value_at below, not through lintest's digit matrices or pair blocks; the
blocked enumeration lists the points with itertools.product.
"""

import itertools
from fractions import Fraction

import numpy as np

from gapclique.lintest import (
    FunctionTable, LinearVecFn, PassEstimate, _list_decode, accepted_degrees, list_decode_scalar,
)
from gapclique.stats import wilson_interval

from field_reference import inner_product, rank_tuple, scale, unrank_tuple


def value_at(f, alpha) -> tuple:
    """The table's value at point alpha, as a tuple of ints."""
    return tuple(int(v) for v in f.values[rank_tuple(f.q, alpha)])


def linear_scalar(q, rho) -> LinearVecFn:
    """The scalar linear function alpha -> <rho, alpha>: a one-row LinearVecFn."""
    return LinearVecFn(q, len(rho), (tuple(rho),))


def eval_linear(c, alpha) -> int:
    """A linear scalar function's value at alpha: <rho, alpha> mod q."""
    return inner_product(c.q, c.rho, alpha)


def agreement(f, c) -> Fraction:
    """Pr over uniform alpha that a scalar table agrees with the linear
    function c at alpha, exact: one point at a time."""
    points = itertools.product(range(f.q), repeat=f.d)
    return Fraction(sum(value_at(f, a) == (eval_linear(c, a),) for a in points), f.size)


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


def blocked_accepted_counts(f, block: int = 64) -> tuple[np.ndarray, tuple[int, ...]]:
    """Every point's accepted degree and every output coordinate's accepted
    pair count, enumerating the pairs of block first points at a time
    against all points, each pair's sum added digit by digit."""
    q, n = f.q, f.size
    points = np.array(list(itertools.product(range(q), repeat=f.d)), dtype=np.int64)
    place = q ** np.arange(f.d - 1, -1, -1, dtype=np.int64)
    vals = f.values
    deg = np.zeros(n, dtype=np.int64)
    counts = np.zeros(f.l, dtype=np.int64)
    for start in range(0, n, block):
        rows = slice(start, start + block)
        sums = (points[rows, None, :] + points[None, :, :]) % q @ place
        agree = (vals[rows, None, :] + vals[None, :, :]) % q == vals[sums]
        deg[rows] = agree.all(axis=2).sum(axis=1)
        counts += agree.sum(axis=(0, 1))
    return deg, tuple(counts.tolist())


def row_degrees(f, rows) -> list[int]:
    """The accepted degree of each point ranked in rows, from one pass over
    every second point per row: #{b : f(a) + f(b) = f(a + b)}."""
    q = f.q
    points = np.array(list(itertools.product(range(q), repeat=f.d)), dtype=np.int64)
    place = q ** np.arange(f.d - 1, -1, -1, dtype=np.int64)
    vals = f.values
    degrees = []
    for a in rows:
        sums = (points[a] + points) % q @ place
        degrees.append(int(((vals[a] + vals) % q == vals[sums]).all(axis=1).sum()))
    return degrees


def rank_mod(q, values) -> int:
    """The rank mod the prime q of a matrix given as rows of ints: the
    number of pivots of a row reduction over Python ints."""
    rows = [[int(v) % q for v in row] for row in np.asarray(values).tolist()]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        t = next((t for t in range(rank, len(rows)) if rows[t][j]), None)
        if t is None:
            continue
        rows[rank], rows[t] = rows[t], rows[rank]
        pivot = rows[rank]
        inv = pow(pivot[j], q - 2, q)
        for r in rows[rank + 1 :]:
            c = r[j] * inv
            r[:] = [(v - c * p) % q for v, p in zip(r, pivot)]
        rank += 1
    return rank


def per_coordinate_matches(f, lists) -> np.ndarray:
    """[a, i]: the 1-based index of the one member of coordinate i's decoded
    list (coefficient-vector ranks) that matches f_i at point a, 0 when none
    or several do; one product of all points against one list at a time."""
    points = np.array(list(itertools.product(range(f.q), repeat=f.d)), dtype=np.int64)
    matches = np.zeros((f.size, f.l), dtype=np.int64)
    for i, ranks in enumerate(lists):
        if ranks.size:
            agree = points @ points[ranks].T % f.q == f.values[:, i, None]
            unique = agree.sum(axis=1) == 1
            matches[unique, i] = agree[unique].argmax(axis=1) + 1
    return matches


def per_point_piecing(f, eps, kappa, delta_schedule, per_coordinate=False) -> tuple:
    """Piecing's (ok, fn, agreement, failure, pass probability, coordinate
    pass probabilities), with every point labelled by per_coordinate_matches:
    V* and W* over every variable point, the anchor the smallest point in
    both, and the agreement one variable point at a time.  The accepted
    degrees and decoded lists are lintest's; with per_coordinate, they are
    blocked_accepted_counts' and list_decode_scalar's on a new table of each
    coordinate alone, so that no column of f is decoded for another."""
    n = f.size
    deg, counts = blocked_accepted_counts(f) if per_coordinate else accepted_degrees(f)
    measured, coordinate = Fraction(int(deg.sum()), n * n), tuple(Fraction(c, n * n) for c in counts)
    if measured < eps:
        failure = f"measured pass probability {measured} below threshold {eps}"
        return False, None, None, failure, measured, coordinate
    eps_f = float(measured)
    deltas = tuple(delta_schedule(eps_f, float(p)) for p in coordinate)
    if per_coordinate:
        lists = [np.array([rank_tuple(f.q, c.rho) for c in list_decode_scalar(
                     FunctionTable(f.q, f.d, 1, f.values[:, i : i + 1]), delta)], dtype=np.int64)
                 for i, delta in enumerate(deltas)]
    else:
        lists = _list_decode(f, deltas)
    matches = per_coordinate_matches(f, lists)
    var = np.flatnonzero(deg)
    in_v = (matches[var] != 0).mean(axis=1) >= 1.0 - eps_f**2.5
    in_w = deg[var] >= (eps_f**2 / 2.0) * var.size
    both = var[in_v & in_w]
    if both.size == 0:
        return False, None, None, "no_anchor", measured, coordinate
    points = list(itertools.product(range(f.q), repeat=f.d))
    anchor = matches[both[0]].tolist()
    fn = LinearVecFn(f.q, f.d, tuple(points[members[m - 1]] if m else (0,) * f.d
                                     for members, m in zip(lists, anchor)))
    within = 0
    for a in var.tolist():
        wrong = sum(v != inner_product(f.q, rho, points[a]) for v, rho in zip(value_at(f, points[a]), fn.rhos))
        within += Fraction(wrong, f.l) <= kappa
    return True, fn, Fraction(within, var.size), None, measured, coordinate


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


def line_representatives(q, d):
    """One nonzero representative per line through the origin, the
    lexicographically smallest point on the line: every point in rank order
    that no earlier representative's line contains."""
    seen = {(0,) * d}
    reps = []
    for p in itertools.product(range(q), repeat=d):
        if p not in seen:
            reps.append(p)
            seen.update(scale(q, c, p) for c in range(1, q))
    return tuple(reps)


def corrupted_linear_values(rng, q, d, corrupt_lines):
    """The values of the lintest suite's corrupted linear table, (q^d, 1):
    a linear function's table whose lines, in representative order, are
    each re-drawn with probability corrupt_lines and scaled along the line."""
    rho = tuple(rng.randrange(q) for _ in range(d))
    vals = np.array([[inner_product(q, rho, p)] for p in itertools.product(range(q), repeat=d)])
    for rep in line_representatives(q, d):
        if rng.random() < corrupt_lines:
            newv = rng.randrange(q)
            for c in range(1, q):
                vals[rank_tuple(q, scale(q, c, rep))] = newv * c % q
    return vals
