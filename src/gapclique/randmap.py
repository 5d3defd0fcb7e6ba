"""The random block-linear map b -> (A_1 b, ..., A_l b) and its two goodness
properties.

Wellspread: every nonzero combination sum built from one scaled vector per
collection keeps relative Hamming weight at least 2/3 under the map.

Pairwise separation: for same-collection triples with distinct differences
and linearly independent directions, the block-inner images stay at relative
distance at least 1/2.  The zero-difference degenerate case (one difference
vanishes) reduces to a single-direction weight bound, which is checked for
every nonzero direction so the property has content at k = 1 as well.

Both checks share one engine.  Each property has one indexed case space, a
mixed-radix numbering in lexicographic order:

- wellspread: scalars gamma in F_q^k, then one vector index per collection;
- separation: for each collection in turn, first the single-difference cases
  (a, b, nonzero direction), then the triple cases (t1, t2, t3, ordered pair
  of linearly independent directions).

Cases whose sum vanishes, or whose differences vanish or coincide, are
skipped and not counted in `checked`.  A check walks every index in order
(mode "exhaustive"), or, given an rng, draws `samples` indices with
`rng.randrange(total)` (mode "monte_carlo"), so it reaches every kind of
case, including the single-difference one that is all there is at k = 1.
Either way the first failing case in walk or draw order is the
counterexample.  All images come from one (l*k x m)(m x N)
product mod q and every threshold is an integer comparison.  A Monte Carlo
run that draws no countable case is inconclusive and raises
PropertyViolation rather than passing.

Resampling for wellspread screens its draws first: a case's image is the
image of its sum, so weighing the images of the instance's case sums
(wellspread_holds) passes exactly the maps the exhaustive check passes.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from typing import Optional

import numpy as np

from .errors import BudgetExceeded, ContractViolation, PropertyViolation
from .ffield import is_prime
from .lintest import _domain
from .rng import draws
from .stats import wilson_interval
from .vecsum import VecSumInstance, check_int, check_modulus, residue_array

CHECK_BUDGET = 5_000_000  # case numbers an exhaustive check walks at most

# Monte Carlo draws per batch, each batch drawn whole: the rng state a failing
# check leaves, which check-map hands on to its second check, depends on it
_CHUNK = 1024
_BLOCK_BYTES = 1 << 21  # working arrays of one exhaustive block of cases
# entries of separation's direction images (an int64 product: 128 MB at
# the limit), difference tables and independent direction pairs
_DIRECTION_IMAGE_LIMIT = 1 << 24


@dataclass(frozen=True, eq=False)
class LinearMapG:
    """l matrices of shape k x m over F_q, applied jointly as one linear map
    into l blocks of width k; `matrices` is one read-only (l, k*m) int64
    array, a flat row-major matrix per row (see residue_array)."""

    q: int
    k: int
    m: int
    l: int
    matrices: np.ndarray
    seed: Optional[int] = None

    def __post_init__(self):
        if not is_prime(check_modulus(self.q)):  # past 2^63 is refused as such
            raise ContractViolation(f"map modulus {self.q} is not prime")
        shape = (check_int("l", self.l), check_int("k", self.k) * check_int("dimension m", self.m))
        object.__setattr__(self, "matrices", residue_array(self.q, self.matrices, shape))

    def to_json(self) -> dict:
        return {
            "version": 1,
            "q": self.q,
            "k": self.k,
            "m": self.m,
            "l": self.l,
            "matrices": self.matrices.tolist(),
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, doc) -> "LinearMapG":
        if not isinstance(doc, dict):
            raise ContractViolation("a map document must be a JSON object")
        if doc.get("version") != 1:
            raise ContractViolation(f"unsupported map version {doc.get('version')!r:.60}")
        return cls(q=doc.get("q"), k=doc.get("k"), m=doc.get("m"), l=doc.get("l"),
                   matrices=doc.get("matrices"), seed=doc.get("seed"))


def draw_matrices(rng: random.Random, q: int, k: int, m: int, l: int) -> np.ndarray:
    """l i.i.d. uniform k x m matrices as a LinearMapG holds them, entries
    drawn row-major as rng.randrange(q) draws them (rng.draws)."""
    entries = draws(rng, check_modulus(q), k * m * l)
    entries.setflags(write=False)
    return entries.reshape(l, k * m)


def sample_g(rng: random.Random, q: int, k: int, m: int, l: int,
             seed: Optional[int] = None) -> LinearMapG:
    """The map of draw_matrices(rng, q, k, m, l)."""
    return LinearMapG(q=q, k=k, m=m, l=l, matrices=draw_matrices(rng, q, k, m, l), seed=seed)


@dataclass(frozen=True)
class GoodMapCertificate:
    """Outcome of one goodness check; a counterexample always re-verifies
    against the raw definition."""

    property_name: str  # "wellspread" | "pairwise_separation"
    mode: str  # "exhaustive" | "monte_carlo"
    passed: bool
    checked: int
    counterexample: Optional[dict]
    instance_fingerprint: str
    map_seed: Optional[int]

    def to_json(self) -> dict:
        return {
            "property": self.property_name,
            "mode": self.mode,
            "passed": self.passed,
            "checked": self.checked,
            "counterexample": self.counterexample,
            "instance_fingerprint": self.instance_fingerprint,
            "map_seed": self.map_seed,
        }


def _digits(t: np.ndarray, radices: tuple[int, ...]) -> list[np.ndarray]:
    """Mixed-radix digits of the case numbers t, most significant first."""
    out = []
    for r in reversed(radices):
        out.append(np.asarray(t % r, dtype=np.int64))
        t = t // r
    return out[::-1]


def source_images(g: LinearMapG, inst: VecSumInstance) -> tuple[np.ndarray, np.ndarray]:
    """Every source vector as a row (collections concatenated) and its image
    under g as a row of l*k coordinates, block by block: one
    (l*k x m)(m x N) product mod q.  This is the only place the checks and
    the reduction compute map images."""
    if g.q != inst.q or g.m != inst.m or g.k != inst.k:
        raise ContractViolation("map does not match instance shapes")
    if max(g.m, g.k) * (g.q - 1) ** 2 >= 2**63:
        raise ContractViolation(f"modulus {g.q} is too large for 64-bit image arithmetic")
    return inst.vectors, (g.matrices.reshape(g.l * g.k, g.m) @ inst.vectors.T % g.q).T


def _blocks(radices: tuple[int, ...], limit: int):
    """The case numbers over the mixed radices in runs of at most `limit`,
    each a box of the digit grid: yields its extents and its digits, most
    significant first, as sparse grids that broadcast to the extents, whose
    C-order flattening is the run of case numbers."""
    if 0 in radices:
        return
    # the digits before the first one whose trailing digits fit the limit are
    # fixed per box, and a box spans `step` values of that one
    tails = [math.prod(radices[j + 1 :]) for j in range(len(radices))]
    j = next(j for j, tail in enumerate(tails) if tail <= limit)
    step = limit // tails[j]
    for prefix in itertools.product(*map(range, radices[:j])):
        for start in range(0, radices[j], step):
            extents = (1,) * j + (min(step, radices[j] - start),) + radices[j + 1 :]
            first = (*prefix, start) + (0,) * (len(radices) - j - 1)
            yield extents, [x + f for x, f in zip(np.indices(extents, sparse=True), first)]


def _draws(parts: list, ends: list[int], count: int, rng: random.Random):
    """A batch of `count` case numbers drawn with rng.randrange(total), as
    _run_check takes it."""
    idx = draws(rng, ends[-1], count)
    part_of = np.searchsorted(ends, idx, side="right")
    at = [np.flatnonzero(part_of == p) for p in range(len(parts))]
    first = [0, *ends]
    return [(p, a, a.shape, _digits(idx[a] - first[p], parts[p][0]))
            for p, a in enumerate(at) if a.size]


def _run_check(name: str, what: str, parts: list, case_bytes: int, g: LinearMapG,
               inst: VecSumInstance, samples: int,
               rng: Optional[random.Random]) -> GoodMapCertificate:
    """The engine behind both checks.  `parts` number the case space in
    blocks of (radices, evaluate, describe): a block's cases are the
    mixed-radix numbers over its radices; evaluate(digit arrays, flat or
    sparse grids) returns per case (counted, passed, detail), as arrays that
    broadcast to the digits' shape, using about case_bytes of working arrays
    a case, and describe(digits, detail) the counterexample.  With no rng
    the check walks every case number in order, part by part in batches of
    about _BLOCK_BYTES; with one it draws `samples` of them, _CHUNK a batch,
    each batch when it is reached.  The first counted failing case ends the
    check."""
    ends = list(itertools.accumulate(math.prod(radices) for radices, _, _ in parts))
    if rng is None and samples or rng is not None and samples < 1:
        raise ContractViolation("Monte Carlo sampling needs an rng and samples >= 1")
    mode = "exhaustive" if rng is None else "monte_carlo"
    if rng is None:
        if ends[-1] > CHECK_BUDGET:
            raise BudgetExceeded(f"{what} enumeration", required=ends[-1], budget=CHECK_BUDGET)
        limit = max(1, _BLOCK_BYTES // case_bytes)
        # a batch: per part in it (part, places in the batch, shape, digits)
        batches = ([(p, slice(None), shape, digits)] for p, (radices, _, _) in enumerate(parts)
                   for shape, digits in _blocks(radices, limit))
    else:
        batches = (_draws(parts, ends, min(_CHUNK, samples - s), rng)
                   for s in range(0, samples, _CHUNK))
    checked = 0
    for pieces in batches:
        size = sum(math.prod(shape) for _, _, shape, _ in pieces)
        counted, failed = np.zeros((2, size), dtype=bool)
        for p, at, shape, digits in pieces:
            counts, passes = (np.broadcast_to(x, shape).ravel() for x in parts[p][1](digits)[:2])
            counted[at], failed[at] = counts, counts & ~passes
        if failed.any():
            j = int(np.argmax(failed))
            for p, at, shape, digits in pieces:
                if (i := np.flatnonzero(np.arange(size)[at] == j)).size:
                    digits = [np.broadcast_to(x, shape).flat[i] for x in digits]
                    break
            _, evaluate, describe = parts[p]
            counterexample = describe([int(d[0]) for d in digits], evaluate(digits)[2][0])
            checked += int(np.count_nonzero(counted[: j + 1]))
            return GoodMapCertificate(
                name, mode, False, checked, counterexample, inst.fingerprint(), g.seed
            )
        checked += int(np.count_nonzero(counted))
    if rng is not None and checked == 0:
        raise PropertyViolation(
            f"{what} check inconclusive: none of {samples} Monte Carlo samples is a countable case"
        )
    return GoodMapCertificate(name, mode, True, checked, None, inst.fingerprint(), g.seed)


def _combine(inst: VecSumInstance, rows: np.ndarray, d: list[np.ndarray]) -> np.ndarray:
    """Per wellspread case with digits d (scalars, then one vector index per
    collection), its combination of `rows`, one row per source vector."""
    return sum(d[i][..., None] * rows[inst.starts[i] + d[inst.k + i]] for i in range(inst.k)) % inst.q


def check_wellspread(
    g: LinearMapG,
    inst: VecSumInstance,
    samples: int = 0,
    rng: Optional[random.Random] = None,
) -> GoodMapCertificate:
    """For every choice of scalars and one vector per collection whose scaled
    sum is nonzero, the image must have relative weight >= 2/3 over all k*l
    coordinates."""
    vecs, images = source_images(g, inst)
    q, k, m, width = g.q, g.k, g.m, g.l * g.k
    # a case's sum and its image are the same combination of these rows
    rows = np.hstack([vecs, images])

    def evaluate(d):
        comb = _combine(inst, rows, d)
        weight = np.count_nonzero(comb[..., m:], axis=-1)
        return comb[..., :m].any(axis=-1), 3 * weight >= 2 * width, comb

    def describe(d, comb):
        weight = Fraction(int(np.count_nonzero(comb[m:])), width)
        return {"gammas": d[:k], "indices": d[k:], "sum": comb[:m].tolist(), "weight": str(weight)}

    parts = [((q,) * k + inst.sizes, evaluate, describe)]
    # a case's working arrays: two int64 rows as wide as `rows`, a multiple
    # of a gathered row and the running sum
    return _run_check("wellspread", "wellspread", parts, 16 * rows.shape[1], g, inst, samples, rng)


def wellspread_sums(inst: VecSumInstance) -> Optional[np.ndarray]:
    """The nonzero sums of wellspread's cases, one per row.  A case's image
    is the image of its sum, so a map passes the exhaustive check iff
    wellspread_holds for it on these rows.  None when the case space
    outgrows one batch of the engine or 64-bit image arithmetic."""
    radices = (inst.q,) * inst.k + inst.sizes
    if math.prod(radices) > _CHUNK or max(inst.m, inst.k) * (inst.q - 1) ** 2 >= 2**63:
        return None
    sums = _combine(inst, inst.vectors, _digits(np.arange(math.prod(radices)), radices))
    return sums[sums.any(axis=1)]


def wellspread_excluded(inst: VecSumInstance, l: int) -> Optional[str]:
    """Why no map into l blocks of width k is wellspread for the instance,
    or None.  Over F_2, nonzero case sums a, b and a + b need image weights
    of at least 2kl/3 each, more than 2kl together when 3 does not divide
    kl, yet on every coordinate at most two of G a, G b, G a + G b are 1.
    Such sums exist iff two collections hold distinct nonzero vectors, or
    one holds nonzero a, b and a + b (else the nonzero sums are one vector
    or one collection's)."""
    if inst.q != 2 or inst.k * l % 3 == 0:
        return None
    nonzero = [sorted({tuple(u) for u in inst.collection(i).tolist() if any(u)})
               for i in range(inst.k)]
    for (i, us), (j, ws) in itertools.combinations_with_replacement(enumerate(nonzero), 2):
        for u, w in itertools.product(us, ws):
            s = tuple(a ^ b for a, b in zip(u, w))
            if any(s) and (i != j or s in us):
                return (f"no map is wellspread over F_2 with k*l = {inst.k * l} not a multiple "
                        f"of 3: case sums {u} (collection {i}), {w} (collection {j}) and "
                        f"their sum {s} are nonzero, and their images cannot all have "
                        f"weight >= 2/3")
    return None


def wellspread_holds(q: int, sums: np.ndarray, maps: list) -> np.ndarray:
    """Per map, given as the matrices draw_matrices returns, whether every
    row of `sums` keeps relative image weight >= 2/3: one product for all
    the maps, so resampling can screen draws in blocks."""
    a = np.stack(maps)  # (maps, l, k*m)
    width = a.shape[2] // sums.shape[1] * a.shape[1]
    images = a.reshape(len(maps), width, -1) @ sums.T % q  # (maps, l*k, sums)
    return (3 * np.count_nonzero(images, axis=1) >= 2 * width).all(axis=1)


def _bit_planes(x: np.ndarray, q: int) -> np.ndarray:
    """Rows of residues mod q as (words, planes, rows) unsigned words: bit p
    of entry j of a row is bit j of the row's plane p, a word of 64 entries
    at a time (of 8, 16 or 32 for shorter rows, which keeps them no larger
    than ~log2 q bytes), and an entry past the row's end is zero, so that
    two rows differ at an entry iff some plane of their XOR has its bit set."""
    shifts = np.arange(int(q - 1).bit_length(), dtype=x.dtype)[:, None]
    bits = np.packbits((x[:, None, :] >> shifts) & 1, axis=2, bitorder="little")
    width = min(8, 1 << (bits.shape[2] - 1).bit_length())  # bytes per word
    bits = np.pad(bits, ((0, 0), (0, 0), (0, -bits.shape[2] % width)))
    return np.ascontiguousarray(bits.view(f"u{width}").transpose(2, 1, 0))


def _differing(planes: np.ndarray, a: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Per pair of rows a and b of _bit_planes (per row a: against zero), the
    entries where they differ: the popcount of the OR of their XOR's planes.
    a and b are arrays of row numbers that broadcast together."""
    count = np.zeros(np.broadcast_shapes(a.shape, a.shape if b is None else b.shape), np.int64)
    for word in planes:
        diffs = (p[a] if b is None else p[a] ^ p[b] for p in word)
        count += np.bitwise_count(reduce(np.bitwise_or, diffs))
    return count


def check_pairwise_separation(
    g: LinearMapG,
    inst: VecSumInstance,
    samples: int = 0,
    rng: Optional[random.Random] = None,
) -> GoodMapCertificate:
    """Separation of block-inner images.

    Main case: for every collection i, ordered triples (u1, u2, u3) from it
    with u3 - u1 != u2 - u3, and every linearly independent pair of
    directions, the two images differ in at least half the coordinates.
    Degenerate case: for every nonzero difference of two members of one
    collection and every nonzero direction, the image has weight >= 1/2
    (this is what the main case degenerates to when one difference is zero,
    and it is the part that keeps the check meaningful at k = 1, where no
    independent pairs exist).
    """
    vecs, images = source_images(g, inst)
    q, k, l = g.q, g.k, g.l
    size = q**k
    per_alpha = size - q  # nonzero directions that are no multiple of a given one
    # every collection's difference tables, and the table of beta ranks
    table = (size * l + g.m) * sum(n * n for n in inst.sizes) + (size - 1) * per_alpha
    if table > _DIRECTION_IMAGE_LIMIT:
        raise BudgetExceeded(
            "separation direction images", required=table, budget=_DIRECTION_IMAGE_LIMIT
        )
    # row r of coords is the direction of rank r, first coordinate most
    # significant; rank 0 is the zero direction
    coords, place = _domain(q, k)
    # [d, r, j]: <direction d, block j of the image of source row r>.  These,
    # the source rows and their differences are kept in the narrowest type
    # that holds a difference of residues, which keeps the batches small.
    narrow = np.min_scalar_type(-2 * q)

    def differences(x, axis):
        # [..., a, b, ...]: x[a] - x[b] mod q along the axis; a difference of
        # residues lies in (-q, q), so adding q to the negative ones reduces it
        d = np.expand_dims(x, axis + 1) - np.expand_dims(x, axis)
        return d + (d < 0) * narrow.type(q)

    dir_images = (
        coords @ images.reshape(len(vecs), l, k).transpose(0, 2, 1) % q
    ).astype(narrow).transpose(1, 0, 2)
    vecs = vecs.astype(narrow)
    # [p]: the p-th ordered pair (alpha, beta) of direction ranks with beta no
    # multiple of alpha, in lexicographic order; at k = 1 there is none, and
    # no triple case
    if per_alpha:
        multiples = (np.arange(q)[:, None] * coords[1:, None, :] % q) @ place
        others = np.ones((size - 1, size), dtype=bool)
        others[np.arange(size - 1)[:, None], multiples] = False
        alphas, betas = np.nonzero(others)
        alphas += 1

    def single(n, planes, ids, d):
        # u_a - u_b under the direction: row (d, a, b) of the differences
        a, b, rank = d[0], d[1], d[2] + 1
        weight = _differing(planes, (rank * n + a) * n + b)
        return ids[a * n + b] != ids[0], 2 * weight >= l, weight

    def triple(n, planes, ids, d):
        # d1 = u_t3 - u_t1 under alpha against d2 = u_t2 - u_t3 under beta
        t1, t2, t3 = d[0], d[1], d[2]
        alpha, beta = alphas[d[3]], betas[d[3]]
        dist = _differing(planes, (alpha * n + t3) * n + t1, (beta * n + t2) * n + t3)
        return ids[t3 * n + t1] != ids[t2 * n + t3], 2 * dist >= l, dist

    def describe_single(i, d, weight):
        return {"collection": i, "case": "single-difference", "pair": d[:2],
                "alpha": coords[d[2] + 1].tolist(),
                "weight": str(Fraction(int(weight), l))}

    def describe_triple(i, d, dist):
        alpha, beta = coords[alphas[d[3]]].tolist(), coords[betas[d[3]]].tolist()
        return {"collection": i, "case": "triple", "triple": d[:3], "alpha": alpha,
                "beta": beta, "distance": str(Fraction(int(dist), l))}

    parts = []
    first = 0
    for i, n in enumerate(inst.sizes):
        us, block = vecs[first : first + n], dir_images[:, first : first + n]
        # row (d, a, b): the image of u_a - u_b under direction d; entry
        # a * n + b of ids: the id of u_a - u_b, equal differences alike, so
        # entry 0 is the zero difference's
        planes = _bit_planes(differences(block, 1).reshape(-1, l), q)
        vdiffs = differences(us, 0).reshape(n * n, -1)
        ids = np.unique(vdiffs.view(np.dtype((np.void, vdiffs.shape[1] * narrow.itemsize))),
                        return_inverse=True)[1].reshape(-1)
        parts.append(((n, n, size - 1), partial(single, n, planes, ids),
                      partial(describe_single, i)))
        parts.append(((n, n, n, (size - 1) * per_alpha), partial(triple, n, planes, ids),
                      partial(describe_triple, i)))
        first += n
    # a case's working arrays come to about 8 int64 entries: the XORs of its
    # rows' words, their OR, its weight and its verdicts
    return _run_check("pairwise_separation", "separation", parts, 8 * 8, g, inst, samples, rng)


def union_bound_values(q: int, k: int, m: int, l: int, n: int) -> dict:
    """The two union-bound expressions from the goodness analysis, evaluated
    numerically, with flags marking where they are vacuous (>= 1)."""
    zeros_w = l * k // 3 + 1
    wellspread = (q * n) ** k * math.comb(l * k, zeros_w) * q ** (-zeros_w)
    zeros_s = l // 2 if l % 2 == 0 else l // 2 + 1
    separation = n**4 * q ** (2 * k) * math.comb(l, zeros_s) * q ** (-zeros_s)
    return {
        "wellspread_bound": wellspread,
        "wellspread_vacuous": wellspread >= 1.0,
        "separation_bound": separation,
        "separation_vacuous": separation >= 1.0,
    }


@dataclass(frozen=True)
class FailureRateReport:
    """Empirical failure rates of both properties over freshly sampled maps,
    with Wilson intervals and the analytic union-bound values for context."""

    wellspread_rate: Optional[float]
    separation_rate: Optional[float]
    wellspread_ci: tuple[float, float]
    separation_ci: tuple[float, float]
    union_bounds: dict


def estimate_failure_rate(
    inst: VecSumInstance,
    l: int,
    trials: int,
    rng: random.Random,
) -> FailureRateReport:
    """Sample fresh maps, run both exhaustive checks per map, and report the
    empirical failure fractions."""
    ws_fail = 0
    sep_fail = 0
    for _ in range(trials):
        g = sample_g(rng, inst.q, inst.k, inst.m, l)
        if not check_wellspread(g, inst).passed:
            ws_fail += 1
        if not check_pairwise_separation(g, inst).passed:
            sep_fail += 1
    n = max(inst.sizes)
    return FailureRateReport(
        wellspread_rate=ws_fail / trials if trials else None,
        separation_rate=sep_fail / trials if trials else None,
        wellspread_ci=wilson_interval(ws_fail, trials),
        separation_ci=wilson_interval(sep_fail, trials),
        union_bounds=union_bound_values(inst.q, inst.k, inst.m, l, n),
    )
