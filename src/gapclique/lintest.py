"""Linearity testing over prime fields in the low-soundness regime.

The test draws a uniform pair (alpha, beta) and accepts iff
f(alpha) + f(beta) = f(alpha + beta).  Everything downstream of the test is
built here: exact accepted-pair counts, Fourier analysis over q-th roots of
unity, threshold list decoding of near-linear scalar functions, and the
constructive piecing procedure that assembles one linear vector-valued
function out of the per-coordinate lists.  Every scalar-respecting table is
built, and checked, by one closure step on one cached table of the lines
through the origin (_scalar_closure, _lines); _lead_inverse names the line
of any other row of points.  Decoded lists stay arrays of coefficient-vector
ranks (rows of the digit table _domain) through piecing; list_decode_scalar
wraps them as one-row LinearVecFn.  Every transform over F_q^d is one _dft,
and a table keeps its accepted counts (accepted_degrees) and the Fourier
rows of its coordinates that the character sums took.  fourier_transform
is the one source of a table's real Fourier rows, and their one check: the
kept rows, or else one transform of every coordinate.  List decoding, the
triple-correlation check and the lintest suite read them.  Counts, rows,
piecing and _within take each group of equal columns once (_units).

All probabilities are exact rationals of integer counts.  Counts taken on
the Fourier side are rounded to integers under a 0.25 guard; Fourier
coefficients themselves live in floating point, with a 1e-9 tolerance.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import BudgetExceeded, ContractViolation, PropertyViolation
from .ffield import is_prime
from .rng import draws
from .stats import wilson_interval
from .vecsum import check_int, check_modulus, residue_array

# Exact counting caps: tables, pairs scanned, and DFT pairs x points of the
# character sums; the worst admitted scan or sums take ~1.4 s on 2 vCPUs.
MAX_TABLE_SIZE = 1 << 18
PAIR_BUDGET = 1 << 24
CHARACTER_BUDGET = 1 << 23
# pair scans run a block of rows at a time, about this many entries per block
PAIR_BLOCK = 1 << 16
# Fourier threshold for list decoding is LIST_CONSTANT * delta.
LIST_CONSTANT = 0.25
FLOAT_TOL = 1e-9
# a DFT pass transforms as many digits as span at most this many points
DFT_BLOCK = 64
# a count computed in floating point must lie this close to an integer
ROUNDING_GUARD = 0.25


@lru_cache(maxsize=64)
def _domain(q: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Digit matrix for the whole domain in lexicographic (rank) order.

    Row r of the digit matrix is the point with rank r; `place` holds the
    base-q place values so that digits @ place recovers ranks.  A domain of
    more than MAX_TABLE_SIZE points is refused before anything is built.
    """
    n = q**d
    if n > MAX_TABLE_SIZE:
        raise BudgetExceeded("table size", required=n, budget=MAX_TABLE_SIZE)
    place = q ** np.arange(d - 1, -1, -1, dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    digits = (idx[:, None] // place[None, :]) % q
    digits.setflags(write=False)
    place.setflags(write=False)
    return digits, place


@lru_cache(maxsize=64)
def _dft_matrix(q: int, a: int, sign: int) -> np.ndarray:
    """[v, u] = omega^(sign * <u, v>) over F_q^a, both in rank order."""
    digits, _ = _domain(q, a)
    w = np.exp(sign * 2j * np.pi * (digits @ digits.T % q) / q)
    w.setflags(write=False)
    return w


def _dft(x: np.ndarray, q: int, d: int, sign: int) -> np.ndarray:
    """sum_v x[v] omega^(sign * <u, v>) at every u of F_q^d, for every row of x
    (last axis: the q^d points in rank order).  A pass multiplies the lowest
    digits by their block's DFT matrix and rotates them to the front."""
    if q > DFT_BLOCK:
        grid, axes = x.reshape((-1,) + (q,) * d), tuple(range(1, d + 1))
        if sign < 0:
            return np.fft.fftn(grid, axes=axes).reshape(x.shape)
        return np.fft.ifftn(grid, axes=axes, norm="forward").reshape(x.shape)
    rows = x.reshape(-1, q**d)
    a = max(t for t in range(d + 1) if q**t <= DFT_BLOCK)
    for b in [a] * (d // a) + ([d % a] if d % a else []):
        out = rows.reshape(-1, q**b) @ _dft_matrix(q, b, sign)
        rows = out.reshape(len(rows), q ** (d - b), q**b).swapaxes(1, 2).reshape(len(rows), -1)
    return rows.reshape(x.shape)


class FunctionTable:
    """Explicit table of a function from F_q^d to F_q^l.

    Values are stored as an (q^d, l) integer array in lexicographic order of
    the domain point (first coordinate most significant).  Tables are
    immutable after construction.
    """

    def __init__(self, q: int, d: int, l: int, values):
        """values: the (q^d, l) residues, as residue_array checks them."""
        check_modulus(q)  # before is_prime and q^d
        if d < 1 or l < 1:
            raise ContractViolation("need q >= 2, d >= 1, l >= 1")
        if not is_prime(q):
            raise ContractViolation(f"table modulus {q} is not prime")
        n = q**d
        if n > MAX_TABLE_SIZE:
            raise BudgetExceeded("table size", required=n, budget=MAX_TABLE_SIZE)
        self.q = q
        self.d = d
        self.l = l
        self.values = residue_array(q, values, (n, l))
        self._scalar_respecting: Optional[bool] = None
        self._accepted: Optional[tuple[np.ndarray, tuple[int, ...]]] = None
        # the coordinates' Fourier coefficient rows, kept by the character sums
        self._rows: Optional[np.ndarray] = None
        # the groups of equal columns (_units); one column is one group
        self._groups = None if l > 1 else (np.zeros(1, dtype=np.int64),) * 2

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_linear(cls, fn: "LinearVecFn") -> "FunctionTable":
        digits, _ = _domain(fn.q, fn.d)
        return cls(fn.q, fn.d, len(fn.matrix), digits @ fn.matrix.T % fn.q)

    # -- indexing ----------------------------------------------------------

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def coordinate(self, i: int) -> "FunctionTable":
        """The scalar table obtained by projecting to output coordinate i; a
        coordinate of a scalar-respecting table is one too, and keeps its
        Fourier row.  Refuses an i outside range(l)."""
        if not 0 <= i < self.l:
            raise ContractViolation(f"coordinate {i} of a table with {self.l} coordinates")
        return self._columns(slice(i, i + 1))

    def _columns(self, at) -> "FunctionTable":
        """The table of the columns `at`, their Fourier rows and a True scalar-respecting flag."""
        t = object.__new__(type(self))  # its values were checked with the parent's
        t.__dict__.update(vars(self), values=self.values[:, at], _accepted=None, _groups=None)
        t.l = t.values.shape[1]
        t._scalar_respecting = self._scalar_respecting or None
        t._rows = None if self._rows is None else self._rows[at]
        return t

    def _units(self, keys=None) -> tuple[np.ndarray, np.ndarray]:
        """_first_of the columns, found once, or of (column, keys[i]) where keys split a group."""
        if self._groups is None:  # a column's key: its residues in the narrowest type
            cols = self.values.astype(np.min_scalar_type(self.q - 1)).T.tobytes()
            width = len(cols) // self.l
            self._groups = _first_of([cols[i * width : (i + 1) * width] for i in range(self.l)])
        firsts, which = self._groups
        if keys is None or [keys[j] for j in firsts[which].tolist()] == list(keys):
            return self._groups
        return _first_of(zip(which.tolist(), keys))

    # -- scalar-respecting flag ---------------------------------------------

    def is_scalar_respecting(self) -> bool:
        """True iff f(c * alpha) = c * f(alpha) for every scalar c and point
        alpha; verified exhaustively once and cached."""
        if self._scalar_respecting is None:
            # iff the table is the closure of its values on the representatives
            closure = _scalar_closure(self.q, self.d, self.values[_lines(self.q, self.d)[:, 0]])
            self._scalar_respecting = np.array_equal(self.values, closure.values)
        return self._scalar_respecting

    def ensure_scalar_respecting(self):
        if not self.is_scalar_respecting():
            raise ContractViolation("function table is not scalar respecting")

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "version": 1,
            "q": self.q,
            "d": self.d,
            "l": self.l,
            "values": [int(v) for v in self.values.reshape(-1)],
        }

    @classmethod
    def from_json(cls, doc) -> "FunctionTable":
        """The table of a to_json document: a prime q, ints d, l >= 1 and
        exactly q^d * l residues; refuses anything else."""
        if not isinstance(doc, dict) or doc.get("version") != 1:
            raise ContractViolation("a function table must be a version 1 JSON object")
        q, d, l = (check_int(key, doc.get(key)) for key in ("q", "d", "l"))
        check_modulus(q)  # before q^d, and before the table-size budget
        values = doc.get("values")
        # q^d <= len(values) bounds d before q^d is computed
        if not isinstance(values, list) or d > len(values).bit_length() or len(values) != q**d * l:
            raise ContractViolation("table values must be a list of q^d * l residues")
        return cls(q, d, l, [values[i : i + l] for i in range(0, len(values), l)])

    @classmethod
    def load(cls, path) -> "FunctionTable":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


# -- linear functions --------------------------------------------------------


@dataclass(frozen=True)
class LinearVecFn:
    """Vector-valued linear function; one coefficient vector per output
    coordinate, as the rows of the checked (l, d) int64 array `matrix`.  A
    scalar linear function alpha -> <rho, alpha> is the one with one row."""

    q: int
    d: int
    rhos: tuple[tuple[int, ...], ...]
    matrix: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", residue_array(self.q, self.rhos, (len(self.rhos), self.d)))

    @property
    def rho(self) -> tuple[int, ...]:
        """The coefficient vector of a scalar function; refused past one row."""
        if len(self.rhos) != 1:
            raise ContractViolation(f"a function of {len(self.rhos)} rows has no single rho")
        return self.rhos[0]

    @classmethod
    def _of_rows(cls, q: int, d: int, rows: np.ndarray) -> "LinearVecFn":
        """The function of `rows`, made read-only: digit table rows need no check."""
        rows.setflags(write=False)
        fn = object.__new__(cls)
        fn.__dict__.update(q=q, d=d, rhos=tuple(map(tuple, rows.tolist())), matrix=rows)
        return fn


# -- the test and its accepted pairs -------------------------------------------


def _sum_ranks(q: int, d: int, ranks: np.ndarray) -> np.ndarray:
    """[t, j]: the rank of point ranks[t] plus point j of F_q^d."""
    digits, place = _domain(q, d)
    return ((digits[ranks, None, :] + digits) % q) @ place


def _pair_blocks(q: int, d: int, width: int):
    """Every pair of points of F_q^d, a block of whole rows at a time: yields
    (rows, sum_rank) with sum_rank[t, j] the rank of point rows.start + t
    plus point j.  A block spans about PAIR_BLOCK entries of n * width, so
    per-pair temporaries of that width stay small."""
    n, low = q**d, q ** (d // 2)
    step = max(1, PAIR_BLOCK // (n * width))
    for start in range(0, n, step):
        r = np.arange(start, min(start + step, n))
        # sums add digit by digit, so the high and the low digits of a sum's
        # rank come from two enumerations over about sqrt(n) points each
        hi = _sum_ranks(q, d - d // 2, r // low)
        lo = _sum_ranks(q, d // 2, r % low)
        sums = hi[:, :, None] * low + lo[:, None, :]
        yield slice(start, start + len(r)), sums.reshape(len(r), n)


def _first_of(keys) -> tuple[np.ndarray, np.ndarray]:
    """Where each distinct key first appears (firsts), and keys[i]'s place among them (which)."""
    seen: dict = {}
    same = [seen.setdefault(key, i) for i, key in enumerate(keys)]
    firsts = np.fromiter(seen.values(), np.int64, len(seen))
    return firsts, np.searchsorted(firsts, np.fromiter(same, np.int64, len(same)))


def _column_basis(f: FunctionTable) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """V[:, C] for the first columns C of f's values V that span them mod q,
    and the nonzero rows M of V's reduced row echelon form: V = V[:, C] @ M
    mod q, with M[:, C] the identity (a zero table has no columns in C).
    None once a (d + 1)-th pivot turns up.  |C| is the true rank of V, and a
    table of full column rank has M = I."""
    # transposed, so that a column of V is a contiguous row of a: a[:, p] is
    # point p's values, and the pivot points move to the front
    q, a, pivots = f.q, f.values.T.copy(), []
    while (live := a[:, len(pivots) :] != 0).any():
        r = len(pivots)
        # the first live column j, and its first live point p
        j, p = divmod(int(live.argmax()), live.shape[1])
        if r == f.d:
            return None
        row = a[:, r + p] * pow(int(a[j, r + p]), -1, q) % q
        # point r moves to r + p, and every point but the pivot's loses column j
        a[:, r + p] = a[:, r]
        a -= row[:, None] * a[j]
        a %= q
        a[:, r] = row
        pivots.append(j)
    return f.values[:, pivots], a[:, : len(pivots)].T


def _character_sums(f: FunctionTable) -> Optional[tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
    """Accepted degrees and coordinate counts of f from the characters of
    its column space, each rounded to an integer, and on a scalar-respecting
    f its coordinates' Fourier rows; raises when a count lies more than
    ROUNDING_GUARD from its integer, so float error never becomes a count.
    None when the values span more than d dimensions; refuses when its DFT
    pairs times the n points pass CHARACTER_BUDGET.

    With V = V[:, C] @ M (_column_basis), a pair passes on every coordinate
    iff it passes on the r = |C| coordinates of f_C.  So, with
    g = g_lambda = omega^{<lambda, f_C>}, deg(a) = q^{-r} sum_lambda g(a) S(a)
    over lambda in F_q^r, where S(a) = sum_b g(b) conj(g(a + b)) is the
    conjugate of the autocorrelation, the inverse DFT of |G|^2 over n.
    Coordinate i is <M[:, i], f_C>: its count keeps the q characters
    c * M[:, i] with multiplicity (a zero column counts lambda = 0, whose term
    is n with no DFT, q times; a zero table has r = 0, no other character).
    One DFT pair serves each orbit of the other characters, which share its
    pair sum: for a scalar-respecting f, c lambda's
    term at a is lambda's at c a, so an orbit is a line of F_q^r and a's degree
    sums its representative's terms over a's line of F_q^d; otherwise g and S
    conjugate at -lambda, so {lambda, -lambda} is an orbit.

    Coordinate i's phase function is g at lambda_i = M[:, i], so its Fourier
    row is G_{lambda_i} / n.  On the line path c lambda_i is its line's
    representative for some scalar c, and G_{rep / c}(u) = G_rep(c u); a zero
    lambda_i has the delta at the origin."""
    firsts, which = f._units()  # equal columns have equal counts and Fourier rows
    basis = _column_basis(f._columns(firsts))
    if basis is None:
        return None
    basis_values, coords = basis
    q, d, n, r = f.q, f.d, f.size, coords.shape[0]
    points, place = _domain(q, r)
    # [c, i]: the rank of the character c * M[:, i]
    chars = (np.arange(q)[:, None, None] * coords.T % q) @ place
    if scalar := f.is_scalar_respecting():
        orbits = _lines(q, r)
        # c times coordinate i's character is line[i]'s representative, the
        # smallest of its multiples, for c = low[i] + 1 (line -1: zero)
        low = chars[1:].argmin(axis=0).tolist()
        line = (np.searchsorted(orbits[:, 0], chars[1:].min(axis=0), side="right") - 1).tolist()
        # [line]: its representative's DFT row
        kept = dict.fromkeys(line)
    else:
        neg = (-points % q) @ place
        orbits = np.stack([np.arange(q**r), neg], axis=1)[np.arange(q**r) <= neg][1:]
    # {lambda, -lambda} counts twice (once at q = 2); a line once, and the fold below
    weights = np.ones(len(orbits)) if scalar else (orbits[:, 0] < orbits[:, 1]) + 1.0
    if len(orbits) * n > CHARACTER_BUDGET:
        raise BudgetExceeded("character sums", required=len(orbits) * n, budget=CHARACTER_BUDGET)
    # <lambda, f_C(a)> is read off lambda's row of inner products at f_C(a)'s rank
    value_ranks = basis_values @ place
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    deg = np.zeros(n)
    # [orbit]: the sum of its representative's character over every pair's defect
    orbit_sums = np.empty(len(orbits))
    step = max(1, PAIR_BLOCK // n)
    for start in range(0, len(orbits), step):
        lam = slice(start, start + step)
        g = roots[np.take(points[orbits[lam, 0]] @ points.T % q, value_ranks, axis=1)]
        big_g = _dft(g, q, d, -1)
        if scalar:
            kept.update({j: big_g[j - start] for j in kept if start <= j < start + step})
        power = big_g.real**2 + big_g.imag**2
        # the inverse DFT is n times the autocorrelation
        terms = (g * _dft(power, q, d, 1).conj()).real / n
        deg += weights[lam] @ terms
        orbit_sums[lam] = terms.sum(axis=1)
    rows = None
    if scalar:
        # the origin is on every line: c a = 0 for each of the q - 1 scalars
        lines = _lines(q, d)
        deg[lines], deg[0] = deg[lines].sum(axis=1, keepdims=True), (q - 1) * deg[0]
        if -1 in kept:  # a zero character's DFT is n at the origin
            kept[-1] = n * np.eye(1, n)[0]
        rows = np.array([kept[j] for j in line]) / n
        for c in set(low) - {0}:
            # G_{rep / c}(u) = G_rep(c u), with [u] the rank of c u
            scaled, at = np.zeros(n, dtype=np.int64), np.equal(low, c)
            scaled[lines] = lines[:, (c + 1) * np.arange(1, q) % q - 1]
            rows[at] = rows[at][:, scaled]
        rows = rows[which]
        rows.setflags(write=False)
    pair_sums = np.empty(q**r)
    pair_sums[0], pair_sums[orbits] = n * n, orbit_sums[:, None]
    sums = np.concatenate([(n + deg) / q**r, pair_sums[chars].sum(axis=0) / q])
    rounded = np.rint(sums)
    worst = float(np.max(np.abs(sums - rounded)))
    if worst > ROUNDING_GUARD:
        raise PropertyViolation(f"a character-sum count is {worst} away from an integer")
    return rounded[:n].astype(np.int64), rounded[n:][which].astype(np.int64), rows


def accepted_degrees(f: FunctionTable) -> tuple[np.ndarray, tuple[int, ...]]:
    """Accepted degree of every point, deg[a] = #{b : f(a) + f(b) = f(a + b)}
    as an (n,) int array, and the number of pairs the test accepts on each
    output coordinate alone.

    The pair count is deg.sum() and the test's variable set is deg > 0.
    When the values span at most d dimensions (at most n characters) the
    counts come from character-sum FFTs, rounded under a ROUNDING_GUARD
    check and gated on CHARACTER_BUDGET; otherwise every pair is enumerated
    a block of rows at a time, gated on the n^2 pairs against PAIR_BUDGET.
    The result is kept on the table, and so are the coordinates' Fourier
    rows when the character sums ran on a scalar-respecting table.
    """
    if f._accepted is not None:
        return f._accepted
    n = f.size
    if (sums := _character_sums(f)) is not None:
        deg, counts, f._rows = sums
    else:
        if n * n > PAIR_BUDGET:
            raise BudgetExceeded("pair enumeration", required=n * n, budget=PAIR_BUDGET)
        # coordinate-major, so that every operation runs along the long axis
        # of the points, and in the narrowest type that holds a sum of two
        # residues, so that a block's temporaries stay small
        cols = np.ascontiguousarray(f.values.T, dtype=np.min_scalar_type(2 * f.q))
        deg = np.empty(n, dtype=np.int64)
        counts = np.zeros(f.l, dtype=np.int64)
        for rows, sum_rank in _pair_blocks(f.q, f.d, max(f.d, f.l)):
            agree = (cols[:, rows, None] + cols[:, None, :]) % f.q == np.take(cols, sum_rank, axis=1)
            deg[rows] = agree.all(axis=0).sum(axis=1)
            counts += agree.sum(axis=(1, 2))
    deg.setflags(write=False)
    f._accepted = deg, tuple(counts.tolist())
    return f._accepted


@dataclass(frozen=True)
class PassEstimate:
    """Monte Carlo estimate of the pass probability with a 99% Wilson CI."""

    passes: int
    samples: int
    estimate: float
    ci_low: float
    ci_high: float


def pass_probability(f: FunctionTable) -> Fraction:
    """Probability that the test accepts f, exact: every one of the q^{2d}
    pairs counted through accepted_degrees (budget-gated)."""
    deg, _ = accepted_degrees(f)
    return Fraction(int(deg.sum()), f.size**2)


def estimate_pass_probability(f: FunctionTable, samples: int, rng: random.Random) -> PassEstimate:
    """Monte Carlo estimate of the pass probability from `samples` uniform
    pairs drawn from rng, with a 99% binomial confidence interval."""
    if samples < 1:
        raise ContractViolation("a Monte Carlo estimate needs samples >= 1")
    q, n = f.q, f.size
    digits, place = _domain(q, f.d)
    passes = 0
    # a block of samples at a time keeps memory flat in the sample count
    for start in range(0, samples, PAIR_BLOCK):
        block = min(PAIR_BLOCK, samples - start)
        # i then j for every sample, in the order the samples are drawn
        i, j = draws(rng, n, 2 * block).reshape(block, 2).T
        s = (digits[i] + digits[j]) % q @ place
        passes += int(((f.values[i] + f.values[j]) % q == f.values[s]).all(axis=1).sum())
    lo, hi = wilson_interval(passes, samples)
    return PassEstimate(passes, samples, passes / samples, lo, hi)


# -- Fourier analysis ----------------------------------------------------------


def fourier_transform(f: FunctionTable) -> np.ndarray:
    """Fourier rows of f's coordinates, real and (l, q^d): at the rank of
    rho, the average of omega^{f_i(alpha)} times the conjugated character
    alpha -> omega^{<rho, alpha>}.  The rows the character sums kept are
    read as they are; otherwise one transform of every coordinate.  Each row
    must pass Parseval and, as on a scalar-respecting table, have no
    imaginary part past FLOAT_TOL."""
    coeffs = f._rows
    if coeffs is None:
        coeffs = _dft(np.exp(2j * np.pi * np.arange(f.q) / f.q)[f.values.T], f.q, f.d, -1) / f.size
    power = np.sum(np.abs(coeffs) ** 2, axis=1)
    bad = np.abs(power - 1.0) > FLOAT_TOL
    if bad.any():
        raise PropertyViolation(f"Parseval check failed: total power {power[bad][0]}")
    worst = float(np.max(np.abs(coeffs.imag)))
    if worst > FLOAT_TOL:
        raise PropertyViolation(f"coefficient imaginary part {worst} exceeds {FLOAT_TOL}")
    return coeffs.real


@dataclass(frozen=True)
class TripleCorrelationReport:
    """Enumerated vs Fourier-side value of the triple correlation
    Pr[g1(a) * g2(b) = g3(a+b)] over uniform pairs."""

    lhs: Fraction
    rhs: float
    abs_diff: float


def triple_correlation_check(
    g1: FunctionTable,
    g2: FunctionTable,
    g3: FunctionTable,
) -> TripleCorrelationReport:
    """Check the correlation identity for three scalar-respecting tables.

    LHS: exact enumeration of Pr[f1(a) + f2(b) = f3(a+b)].
    RHS: 1/q + (q-1)/q * sum over rho of the coefficient triple product.
    """
    for g in (g1, g2, g3):
        if g.l != 1:
            raise ContractViolation("triple correlation needs scalar-range tables")
        g.ensure_scalar_respecting()
    if not (g1.q == g2.q == g3.q and g1.d == g2.d == g3.d):
        raise ContractViolation("tables must share domain")
    q, d = g1.q, g1.d
    n = g1.size
    if n * n > PAIR_BUDGET:
        raise BudgetExceeded("pair enumeration", required=n * n, budget=PAIR_BUDGET)
    v1, v2, v3 = g1.values[:, 0], g2.values[:, 0], g3.values[:, 0]
    count = 0
    for rows, sum_rank in _pair_blocks(q, d, d):
        count += int(((v1[rows, None] + v2) % q == v3[sum_rank]).sum())
    lhs = Fraction(count, n * n)
    c1, c2, c3 = (fourier_transform(g)[0] for g in (g1, g2, g3))
    rhs = 1.0 / q + (q - 1) / q * float(np.sum(c1 * c2 * c3))
    return TripleCorrelationReport(lhs=lhs, rhs=rhs, abs_diff=abs(float(lhs) - rhs))


# -- list decoding --------------------------------------------------------------


def _list_decode(f: FunctionTable, deltas: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Decoded list of every output coordinate i of f at threshold
    LIST_CONSTANT * deltas[i], from the checked rows of fourier_transform:
    (ranks, bounds), the lists' ascending coefficient-vector ranks one
    after the other, and where each list begins in them, with their total
    length last."""
    if not all(0 < delta < math.inf for delta in deltas):  # NaN fails both
        raise ContractViolation("delta must be finite and positive")
    f.ensure_scalar_respecting()
    re = fourier_transform(f)
    thresholds = np.array([LIST_CONSTANT * delta for delta in deltas], dtype=float)
    n = f.size  # the hits of coordinate i are numbered i * n + rank
    hits = np.flatnonzero(re >= thresholds[:, None] - FLOAT_TOL)
    return hits % n, np.searchsorted(hits, np.arange(0, n * len(deltas) + 1, n))


def list_decode_scalar(f: FunctionTable, delta: float) -> tuple[LinearVecFn, ...]:
    """All linear functions whose Fourier coefficient is at least
    LIST_CONSTANT * delta, in rank order of the coefficient vector.

    Requires a scalar-respecting input so coefficients are real and the
    threshold comparison matches the exact agreement filter.  The comparison
    carries a 1e-9 slack toward inclusion so that coefficients exactly at the
    threshold are kept despite float error.
    """
    if f.l != 1:
        raise ContractViolation("list decoding needs a scalar-range table")
    ranks, _ = _list_decode(f, (delta,))
    rows = _domain(f.q, f.d)[0][ranks]
    return tuple(LinearVecFn._of_rows(f.q, f.d, rows[i : i + 1]) for i in range(len(ranks)))


# -- piecing ---------------------------------------------------------------------


@dataclass
class PiecingResult:
    """Outcome of the piecing procedure.

    `fn` is the assembled linear function (None when `failure` names why
    not), `agreement` the measured probability over the test's variable set
    that the table is within the distance threshold of `fn`, and the pass
    probabilities are measured, overall and per coordinate.
    """

    ok: bool
    fn: Optional[LinearVecFn]
    agreement: Optional[Fraction]
    pass_probability: Fraction
    coordinate_pass: tuple[Fraction, ...]
    failure: Optional[str] = None


def default_delta_schedule(eps: float, eps_i: float) -> float:
    """Per-coordinate list-decoding threshold; the analysis sets it to
    eps^11 * eps_i and desk-scale callers usually override it."""
    return eps**11 * eps_i


def _within(f: FunctionTable, fn: LinearVecFn, ranks: np.ndarray, kappa: Fraction) -> int:
    """How many of the points ranks are within relative Hamming distance
    kappa of fn: f differs from fn on at most kappa * l coordinates there."""
    digits, _ = _domain(f.q, f.d)
    # one product per distinct (column, row of fn), read by each of its coordinates
    firsts, which = f._units(fn.rhos)
    unit_values = fn.matrix[firsts] @ digits[ranks].T % f.q
    mism = (f.values[ranks].T != unit_values[which]).sum(axis=0)
    # mismatch counts are integers, so the floor of kappa * l bounds them
    # alike, without comparing every count to a Fraction
    return int((mism <= math.floor(kappa * f.l)).sum())


def piece_together(
    f: FunctionTable,
    eps,
    kappa,
    delta_schedule: Callable[[float, float], float] = default_delta_schedule,
) -> PiecingResult:
    """Assemble one linear vector-valued function from per-coordinate decoded
    lists.

    Procedure: list-decode each output coordinate, mark every domain point
    with the unique list member matching there (0 if none), keep the points
    matched on almost every coordinate (V*) and the points of high degree
    in the accepted-pair graph (W*), anchor at the lexicographically
    smallest point of the intersection, and read the assembled function off
    the anchor's matches.  Returns the function together with the measured
    probability, over the variable set, of being within relative Hamming
    distance kappa of it.

    On a scalar-respecting f a point's mark and degree are those of every
    nonzero multiple of it, so they are read at the origin and at each
    line's representative, the smallest point of its line, alone: the first
    of these in V* and W* is the anchor.

    Returns ok=False naming the failure: the measured pass probability
    below eps, found before any list decoding, or "no_anchor" when the
    intersection of V* and W* is empty.  Refuses a NaN eps.
    """
    if eps != eps:  # NaN: no measured pass probability is below it
        raise ContractViolation("eps must be a number, got NaN")
    f.ensure_scalar_respecting()
    kappa = Fraction(kappa)
    n = f.size
    deg, coordinate_counts = accepted_degrees(f)
    eps_meas = Fraction(int(deg.sum()), n * n)
    fractions = {count: Fraction(count, n * n) for count in set(coordinate_counts)}
    coord_pass = tuple(map(fractions.__getitem__, coordinate_counts))
    if eps_meas < eps:
        return PiecingResult(ok=False, fn=None, agreement=None, pass_probability=eps_meas,
                             coordinate_pass=coord_pass,
                             failure=f"measured pass probability {eps_meas} below threshold {eps}")
    eps_f = float(eps_meas)

    # count / n^2 is float(Fraction(count, n^2)), without building the Fraction
    deltas = tuple(delta_schedule(eps_f, count / (n * n)) for count in coordinate_counts)
    # one list and one match per distinct (column, delta), on the table u of those
    firsts, which = f._units(deltas)
    members, bounds = _list_decode(u := f._columns(firsts), tuple(deltas[i] for i in firsts.tolist()))
    digits, _ = _domain(f.q, f.d)
    # the origin, then every line's representative, in rank order
    at = np.concatenate([[0], _lines(f.q, f.d)[:, 0]])
    matches = np.zeros((at.size, u.l), dtype=np.int64)
    # every list side by side, a row per member: one product matches a block
    # of points against every member, and each nonempty list's run of rows
    # sums to its number of matches and, where that is 1, to the match's
    # 1-based place in the list (from its place among all members)
    starts, sizes = bounds[:-1], np.diff(bounds)
    owners = np.flatnonzero(sizes)
    heads = starts[owners]
    if members.size:
        place = np.arange(1, members.size + 1)[:, None]
        rhos, owner = digits[members], np.repeat(np.arange(u.l), sizes)
        points, values = digits[at], u.values[at]
        step = max(1, PAIR_BLOCK // members.size)
        for s in range(0, at.size, step):
            agree = rhos @ points[s : s + step].T % f.q == values[s : s + step, owner].T
            hits = np.add.reduceat(agree, heads)
            picked = np.add.reduceat(agree * place, heads) - heads[:, None]
            matches[s : s + step, owners] = np.where(hits == 1, picked, 0).T

    var_count = int(np.count_nonzero(deg))
    # V* and W* as masks over the marked points: the anchor is the first in both
    in_v = (matches != 0) @ np.bincount(which) / f.l >= 1.0 - eps_f**2.5
    # W*: variables (deg >= 1) of high degree
    in_w = deg[at] >= max((eps_f**2 / 2.0) * var_count, 1)
    both = np.flatnonzero(in_v & in_w)
    if both.size == 0:
        return PiecingResult(ok=False, fn=None, agreement=None, pass_probability=eps_meas,
                             coordinate_pass=coord_pass, failure="no_anchor")

    # the rank of the anchor's match on each coordinate, from its place among
    # all members, and rank 0, the zero vector, where it has none
    match = matches[both[0]]
    ranks = np.where(match > 0, members[starts + match - 1], 0) if members.size else match
    fn = LinearVecFn._of_rows(f.q, f.d, digits[ranks[which]])
    within = _within(f, fn, np.flatnonzero(deg), kappa)
    return PiecingResult(ok=True, fn=fn, agreement=Fraction(within, var_count),
                         pass_probability=eps_meas, coordinate_pass=coord_pass)


# -- scalar lines ------------------------------------------------------------------


@lru_cache(maxsize=64)
def _lines(q: int, d: int) -> np.ndarray:
    """The lines through the origin of F_q^d in order of their
    representatives, each line's lexicographically smallest nonzero point:
    entry [i, c - 1] is the rank of c times line i's representative."""
    digits, place = _domain(q, d)
    # the representatives are the points whose first nonzero digit is 1
    reps = digits[np.concatenate([np.arange(0), *(np.arange(q**t, 2 * q**t) for t in range(d))])]
    lines = np.stack([reps * c % q @ place for c in range(1, q)], axis=1)
    lines.setflags(write=False)
    return lines


def _independent_pairs(q: int, d: int) -> np.ndarray:
    """The ordered pairs (alpha, beta) of nonzero points of F_q^d on distinct
    lines through the origin, as the two rows of a rank array, in
    lexicographic order; at d = 1 there is none, and no q x q mask is built.
    Not cached: within separation's budget it may hold 2^24 pairs."""
    lines, line = _lines(q, d), np.zeros(q**d, dtype=np.int64)
    line[lines] = np.arange(len(lines))[:, None]
    return np.array(np.nonzero(line[1:, None] != line[1:])) + 1 if d > 1 else np.zeros((2, 0), np.int64)


def _lead_inverse(q: int, rows: np.ndarray) -> np.ndarray:
    """Per row of residues, the inverse of its first nonzero entry, or 0 for
    a zero row: the row times it is its line's representative."""
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    leads, which = np.unique(lead, return_inverse=True)
    return np.array([pow(e, -1, q) if e else 0 for e in leads.tolist()], dtype=np.int64)[which]


def _scalar_closure(q: int, d: int, line_values: np.ndarray) -> FunctionTable:
    """The scalar-respecting table, zero at the origin, whose value at line
    i's representative is row i of line_values (lines x l)."""
    vals = np.zeros((q**d, line_values.shape[1]), dtype=np.int64)
    vals[_lines(q, d)] = line_values[:, None, :] * np.arange(1, q)[:, None] % q
    t = FunctionTable(q, d, vals.shape[1], vals)
    t._scalar_respecting = True
    return t


def random_scalar_respecting_table(
    rng: random.Random, q: int, d: int, l: int = 1
) -> FunctionTable:
    """Uniformly random scalar-respecting table: zero at the origin, an
    independent uniform value on each line's representative, scaled along the
    line."""
    return _scalar_closure(q, d, draws(rng, q, len(_lines(q, d)) * l).reshape(-1, l))
