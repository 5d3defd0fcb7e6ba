"""The graph construction: parameter schedule, vertex set, non-edge rules,
planted cliques, the two-phase decoded function (the clique's values, then
one value per line through the origin closed under scalars), and the
witness extractor.

A vertex is (alpha, beta, x, y) with alpha, beta vectors of k blocks of
width k, and x, y vectors of l coordinates; the vertex set constraint is
that alpha = beta forces x = y.  Each vertex is read as a partial function
assigning x to alpha, y to beta, and x + y to alpha + beta.

Two vertices are non-adjacent iff at least one of five rules fires:
  1 same (alpha, beta) pair (each such cloud is an independent set);
  2 a shared point of their partial functions carries different values;
  3 alpha lies on the scalar line of alpha' but x breaks the scaling;
  4 alpha - alpha' is supported on a single block and no source vector of
    that block's collection explains x - x' under the sampled map;
  5 alpha - alpha' is a constant block pattern but x changed.

A list of vertices is a Clique: point and value tables, and index arrays
naming each vertex's rows.  as_clique and materialize (from the codec's
ranks) build one with its index arrays; planted_clique builds the planted
layout, which needs none.  verify_clique, build_gamma and extract_witness
take either.  Tuples remain at the boundary: as_clique validates and
converts a caller's tuple list, and a Clique reads out as Vertex tuples.

Between stages the data stay arrays: phase 1 hands phase 2 point and value
rows, the decoded function names its phase-1 points by rank, and
materialize returns the edge array in the codec's vertex order.

Graphs are held implicitly (parameters + sampled map + source instance +
an edge oracle); explicit adjacency is materialized only under budget.  The
oracle encodes a clique once, naming points and values by their base-q
ranks (by sorted byte strings where a rank outgrows 64 bits), and evaluates
the rules on batches of about PAIR_BATCH pairs, so its memory does not grow
with the pair count.  Each rule reads little of a vertex: rules 3-5 only
(alpha, x), rule 1 only (alpha, beta), rule 2 only the three (point, value)
slots.  So materialize evaluates rules 3-5 once per pair of (alpha, x)
classes and rule 2 once per pair of slot classes, and verify_clique decides
on groups before it scans pairs.

A planted clique is one value table X: vertex (alpha, beta) carries X[alpha]
and X[beta].  If X = digits @ R is linear (R: its rows at the unit points),
every slot carries X of its point, so rules 1-3 cannot fire; alphas that
differ by delta in block i alone (by d in every block) get values differing
by M_i delta (by the sum of the M_i d), M_i being block i of R.  So it is a
clique iff the M_i sum to 0 (rule 5) and each M_i delta is the image of a
vector of collection i (rule 4): verify_clique decides it from R alone.
"""
from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import BudgetExceeded, ContractViolation, PropertyViolation
from .ffield import is_prime, next_prime
from .lintest import (
    MAX_TABLE_SIZE,
    FunctionTable,
    _domain,
    _lines,
    _scalar_closure,
    _within,
    LinearVecFn,
    piece_together,
)
from .randmap import LinearMapG, source_images
from .rng import draws
from .vecsum import VecSumInstance, check_int, check_modulus, residue_array, residue_sum
from .cliquesolve import DEFAULT_VERTEX_CAP, DenseGraph

# vertices of a planted-layout clique past which its index arrays, and so
# the general path (the grouped test, the pair scan, phase 1), are refused
GENERAL_PATH_BUDGET = 1 << 20
# int64 entries of a planted layout's value table (points times l); its
# planted rows and their product with the digits take as many again
PLANTED_VALUE_BUDGET = 1 << 20

PAIR_BATCH = 1024  # edge oracle batch: whole rows of pairs, at least this many
# adjacency rows materialize fills from the class tables at once; the
# rule-2 AND of a block holds ROW_BLOCK x n mask words
ROW_BLOCK = 32
MASK_WORD = np.uint64  # word of the slot-class bitmasks materialize tests rule 2 on
RANK_LIMIT = 2**63  # rows of fewer than RANK_LIMIT values are named by their rank


# -- parameter schedule ---------------------------------------------------------


@dataclass(frozen=True)
class ParamSchedule:
    """The paper's schedule for k and a source size n: the prime just above
    2^(12k), l, the clique target as the prime's 2k^2 power, and the
    normalized ratio function checked against the 2k^3 bound."""

    k: int
    n: int
    qhat: int
    l: int
    lam: int
    f_prime_at_lam: int
    bound: int


def floor_log2(x: int) -> int:
    if x < 1:
        raise ContractViolation("floor_log2 needs a positive integer")
    return x.bit_length() - 1


def normalized_ratio_fn(f: Callable[[int], int]) -> Callable[[int], int]:
    """Clamp a ratio function to floor(log2(x) / 15); the clamped function
    gives the same algorithmic consequences and keeps the schedule bound
    provable."""
    return lambda x: min(f(x), floor_log2(x) // 15)


@dataclass(frozen=True)
class ReductionParams:
    """Parameters of one reduction run: (q, k, l) are free so structure can
    be exercised at desk sizes.  The soundness threshold defaults to
    q^(-1/k) and the decoding distance bound to 1/(8k)."""

    q: int
    k: int
    l: int

    def __post_init__(self):
        check_int("k", self.k)
        check_int("l", self.l)
        if type(self.q) is not int or not is_prime(self.q):
            raise ContractViolation(f"modulus {self.q!r:.60} is not prime")

    def epsilon(self) -> float:
        return math.exp(-math.log(self.q) / self.k)

    def kappa(self) -> Fraction:
        return Fraction(1, 8 * self.k)

    def to_json(self) -> dict:
        return {"q": self.q, "k": self.k, "l": self.l, "mode": "desk"}


def param_schedule(k: int, n: int, f: Optional[Callable[[int], int]] = None) -> ParamSchedule:
    """The paper's schedule for a given k and source size n.

    qhat is the smallest prime above 2^(12k) (found by an upward primality
    scan), the clique target is qhat^(2k^2), l is ceil(12 log_qhat n), and
    the normalized ratio function evaluated at the clique target must stay
    below 2k^3 (verified exactly on big integers).  Its modulus is far past
    any buildable reduction, so no ReductionParams is made from it.
    """
    if k < 1:
        raise ContractViolation("k must be >= 1")
    if n < 2:
        raise ContractViolation("n must be >= 2")
    if f is None:
        f = lambda x: x
    qhat = next_prime(1 << (12 * k))
    lam = qhat ** (2 * k * k)
    fp = normalized_ratio_fn(f)(lam)
    bound = 2 * k**3
    if not fp < bound:
        raise PropertyViolation(
            f"schedule bound violated: normalized ratio {fp} not below {bound}"
        )
    l = max(1, math.ceil(12 * math.log(n) / math.log(qhat)))
    return ParamSchedule(k=k, n=n, qhat=qhat, l=l, lam=lam, f_prime_at_lam=fp, bound=bound)


# -- vertices -------------------------------------------------------------------


class Vertex(NamedTuple):
    """(alpha, beta, x, y) with alpha, beta of dimension k^2 and x, y of
    dimension l, all residue tuples."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    x: tuple[int, ...]
    y: tuple[int, ...]


def is_valid_vertex(v: Vertex, params: ReductionParams) -> bool:
    kk, l = params.k * params.k, params.l
    return (
        isinstance(v, (list, tuple))
        and [len(p) if isinstance(p, (list, tuple)) else None for p in v] == [kk, kk, l, l]
        and all(type(e) is int and 0 <= e < params.q for part in v for e in part)
        and (v[0] != v[1] or v[2] == v[3])
    )


# -- cliques as arrays -------------------------------------------------------------


class Clique(Sequence):
    """Vertices of one reduction as arrays: a point table (P, k^2), a value
    table (V, l) whose rows may repeat, and index arrays a, b, x, y, so that
    vertex v is (points[a[v]], points[b[v]], values[x[v]], values[y[v]]).
    Built without them it is the planted layout (planted; see planted_clique), with
    a, b = divmod(v, P), x = a and y = b built on first read, and refused
    past GENERAL_PATH_BUDGET vertices.
    Its vertices are valid (as_clique validates a caller's).  It reads as
    the list of its Vertex tuples: len, iteration (one tuple per table row,
    shared) and clique[i] give Vertex tuples, slices give lists."""

    def __init__(self, params: ReductionParams, points: np.ndarray, values: np.ndarray,
                 *rows: np.ndarray):
        self.params, self.points, self.values = params, points, values
        self.size = len(rows[0]) if rows else len(points) ** 2
        self.__dict__.update(zip("abxy", rows))
        self.planted = not rows
        self.planted_rows = None if rows else _planted_rows(params, values)

    def __getattr__(self, name: str):
        if name not in ("a", "b", "x", "y"):  # only the planted layout's can be unbuilt
            raise AttributeError(name)
        if self.size > GENERAL_PATH_BUDGET:
            raise BudgetExceeded("general path vertices", required=self.size, budget=GENERAL_PATH_BUDGET)
        self.a, self.b = self.x, self.y = np.divmod(np.arange(self.size), len(self.points))
        return self.__dict__[name]

    def _columns(self):
        return ((self.points, self.a), (self.points, self.b),
                (self.values, self.x), (self.values, self.y))

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return Vertex(*(tuple(table[rows[i]].tolist()) for table, rows in self._columns()))

    def __iter__(self):
        points, values = (list(map(tuple, t.tolist())) for t in (self.points, self.values))
        tables = (points, points, values, values)
        return map(Vertex, *(map(t.__getitem__, rows.tolist())
                             for t, (_, rows) in zip(tables, self._columns())))

    def __setitem__(self, i: int, vertex: Vertex) -> None:
        """Vertex i becomes `vertex`, validated as a caller's tuple is."""
        vertices = list(self)
        vertices[i] = vertex
        self.__dict__.update(as_clique(vertices, self.params).__dict__)


def as_clique(vertices, params: ReductionParams) -> Clique:
    """The one way in for vertex lists: a Clique of these parameters as it
    is, or a sequence of (alpha, beta, x, y) residue tuples converted after
    array checks (four parts, each column residues of its width, see
    residue_array, and alpha = beta only with x = y).  Raises
    ContractViolation naming the first invalid vertex, a row that is not a
    list or tuple included."""
    if isinstance(vertices, Clique):
        if vertices.params != params:
            raise ContractViolation("the clique belongs to other reduction parameters")
        return vertices
    vs = list(vertices)
    n, q, kk, l = len(vs), check_modulus(params.q), params.k * params.k, params.l
    try:
        if not all(isinstance(v, (list, tuple)) and len(v) == 4 for v in vs):
            raise ContractViolation("a vertex has four parts")
        columns = zip(*vs) if vs else [()] * 4
        alpha, beta, x, y = (residue_array(q, col, (n, w))
                             for col, w in zip(columns, (kk, kk, l, l)))
        if ((alpha == beta).all(axis=1) & (x != y).any(axis=1)).any():
            raise ContractViolation("alpha = beta with x != y")
    except ContractViolation:
        first = next(v for v in vs if not is_valid_vertex(v, params))
        raise ContractViolation(f"invalid vertex {first}") from None
    index = np.arange(n)
    return Clique(params, np.concatenate([alpha, beta]), np.concatenate([x, y]),
                  index, index + n, index, index + n)


def _planted_rows(params: ReductionParams, values: np.ndarray) -> Optional[np.ndarray]:
    """R, the planted layout's value rows at the k^2 unit points, if values
    = digits @ R; else None, as where int64 products could wrap."""
    q, kk = params.q, params.k**2
    if kk * q * q >= 2**63:
        return None
    digits, place = _domain(q, kk)
    R = values[place]
    return R if (digits @ R % q == values).all() else None


# -- vertex codec ----------------------------------------------------------------


class VertexCodec:
    """Numbering of the vertex set: row r of ranks() is vertex r.

    Layout: the diagonal region (alpha = beta, so x = y) comes first with
    P*L entries, then the off-diagonal region with (P^2 - P) * L^2 entries,
    where P = q^(k^2) and L = q^l.
    """

    def __init__(self, q: int, k: int, l: int):
        self.q = q
        self.k = k
        self.l = l
        self.kk = k * k
        self.P = q**self.kk
        self.L = q**l
        self.count = self.P * self.L + (self.P * self.P - self.P) * self.L * self.L

    def ranks(self) -> tuple[np.ndarray, ...]:
        """The base-q ranks (first coordinate most significant) of alpha,
        beta, x and y of every vertex, in vertex order; off the diagonal,
        beta skips alpha."""
        P, L = self.P, self.L
        a, x = np.divmod(np.arange(P * L), L)
        pair, xy = np.divmod(np.arange(self.count - P * L), L * L)
        a_off, b_off = np.divmod(pair, P - 1)
        b_off += b_off >= a_off
        return (np.concatenate([a, a_off]), np.concatenate([a, b_off]),
                np.concatenate([x, xy // L]), np.concatenate([x, xy % L]))


# -- the implicit graph -----------------------------------------------------------


class _Codes(NamedTuple):
    """A clique encoded for the edge oracle; row v is vertex v."""

    clique: Clique  # the residues, for rule 4
    point: np.ndarray  # (n, 3) ids of the slot points alpha, beta, alpha + beta
    value: np.ndarray  # (n, 3) ids of the slot values x, y, x + y
    line: np.ndarray  # (n,) id of alpha's scalar line (alpha over its leading entry)
    scaled_x: np.ndarray  # (n,) id of x over alpha's leading entry
    off_line: np.ndarray  # (n,) alpha = 0 and x != 0
    pattern: np.ndarray  # (n,) id of alpha minus its first block in every block


def _row_ids(q: int, *blocks: np.ndarray) -> list[np.ndarray]:
    """Ids of the rows of equally wide residue arrays, one id array per
    array: equal iff the rows are, and ordered like the rows (as tuples).
    An id is the row's base-q rank when q^w < RANK_LIMIT; wider rows get
    dense ids from a sort of their big-endian byte strings, comparable only
    within one call."""
    w = blocks[0].shape[1]
    if q**w < RANK_LIMIT:
        powers = q ** np.arange(w - 1, -1, -1, dtype=np.int64)
        return [block @ powers for block in blocks]
    width = next(s for s in (1, 2, 4, 8) if q <= 1 << (8 * s))
    rows = np.concatenate(blocks).astype(f">u{width}")
    keys = rows.view(np.dtype((np.void, width * w))).reshape(-1)
    ids = np.unique(keys, return_inverse=True)[1].reshape(-1)
    return np.split(ids, np.cumsum([len(block) for block in blocks])[:-1])


def _bitmasks(bits: np.ndarray) -> np.ndarray:
    """Rows of booleans as rows of MASK_WORD words, each entry at the same
    bit of every row, so two rows share a set bit iff they share an entry."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    pad = -packed.shape[1] % np.dtype(MASK_WORD).itemsize
    return np.pad(packed, ((0, 0), (0, pad))).view(MASK_WORD)


def _pair_ids(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids of the pairs (a[t], b[t]) of two arrays of nonnegative
    ids, ordered like the pairs, and the first position t of each id."""
    if (int(a.max(initial=0)) + 1) * (int(b.max(initial=0)) + 1) >= 2**63:
        a, b = (np.unique(c, return_inverse=True)[1].reshape(c.shape) for c in (a, b))
    keys = a * (int(b.max(initial=0)) + 1) + b
    _, first, ids = np.unique(keys, return_index=True, return_inverse=True)
    return ids.reshape(a.shape), first


def _pair_batches(n: int):
    """The pairs i < j < n in (i, j) order, as index arrays (I, J) of whole
    rows, at least PAIR_BATCH pairs per batch until the last."""
    start = 0
    while start < n - 1:
        stop, count = start, 0
        while stop < n - 1 and count < PAIR_BATCH:
            count += n - 1 - stop
            stop += 1
        I, J = np.nonzero(np.arange(n) > np.arange(start, stop)[:, None])
        yield I + start, J
        start = stop


class CliqueInstance:
    """The reduced graph, held implicitly: parameters, the sampled map, the
    source instance, a vertex codec, and a pure edge oracle."""

    def __init__(self, params: ReductionParams, gmap: LinearMapG, source: VecSumInstance):
        if gmap.q != params.q or gmap.k != params.k or gmap.l != params.l:
            raise ContractViolation("map does not match reduction parameters")
        if source.q != params.q or source.k != params.k or source.m != gmap.m:
            raise ContractViolation("source instance does not match map")
        self.params = params
        self.gmap = gmap
        self.source = source
        self.codec = VertexCodec(params.q, params.k, params.l)

    @cached_property
    def _images(self) -> list[np.ndarray]:
        """Per collection, the images of its vectors as an (n, l, k) array:
        [r, j] is block j of the image of vector r.  Computed on first use,
        so a graph too large to build is refused by its vertex budget before
        the image product's own limits."""
        _, images = source_images(self.gmap, self.source)
        images = images.reshape(-1, self.params.l, self.params.k)
        return np.split(images, self.source.starts[1:])

    # -- the edge oracle -----------------------------------------------------

    def _encode(self, vertices) -> _Codes:
        """The arrays the rules compare, for a Clique or a list of vertex
        tuples (validated first, see as_clique).  Whatever reads only alpha
        is computed once per row of the point table."""
        q, k = self.params.q, self.params.k
        if (q - 1) ** 2 >= 2**63:
            raise ContractViolation(f"modulus {q} is too large for 64-bit vertex arithmetic")
        c = as_clique(vertices, self.params)
        points = c.points
        # scaling alpha by the inverse of its leading nonzero entry names its
        # scalar line; x scaled alike must agree along the line (rule 3)
        lead = points[np.arange(len(points)), (points != 0).argmax(axis=1)]
        leads, which = np.unique(lead, return_inverse=True)
        inv = np.array([pow(e, -1, q) if e else 0 for e in leads.tolist()], dtype=np.int64)
        inv = inv[which.reshape(-1)]
        point, point_sum = _row_ids(q, points, (points[c.a] + points[c.b]) % q)
        line, pattern = (_row_ids(q, rows)[0] for rows in (
            points * inv[:, None] % q,
            # alpha minus its first block in every block: equal iff the
            # difference of two alphas is a constant block pattern (rule 5)
            (points - np.tile(points[:, :k], k)) % q,
        ))
        x, y = c.values[c.x], c.values[c.y]
        value, value_sum, scaled_x = _row_ids(q, c.values, (x + y) % q, x * inv[c.a, None] % q)
        return _Codes(
            clique=c, point=np.stack([point[c.a], point[c.b], point_sum], axis=1),
            value=np.stack([value[c.x], value[c.y], value_sum], axis=1),
            line=line[c.a], scaled_x=scaled_x,
            off_line=~points.any(axis=1)[c.a] & c.values.any(axis=1)[c.x], pattern=pattern[c.a],
        )

    def _pair_rules(self, codes: _Codes, I: np.ndarray, J: np.ndarray) -> np.ndarray:
        """The (len(I), 5) boolean matrix of the non-edge rules that fire
        between vertices I[t] and J[t] of an encoded list; column r - 1 is
        rule r.  Every rule is symmetric in the pair."""
        q, k = self.params.q, self.params.k
        out = np.zeros((len(I), 5), dtype=bool)
        pi, pj, vi, vj = codes.point[I], codes.point[J], codes.value[I], codes.value[J]
        # 1: same (alpha, beta)
        out[:, 0] = (pi[:, :2] == pj[:, :2]).all(axis=1)
        # 2: a slot of each on one point, with different values; slot pairs
        # suffice, as a vertex holding two values at a point differs there
        # from any value the other vertex gives it
        shared = pi[:, :, None] == pj[:, None, :]
        out[:, 1] = (shared & (vi[:, :, None] != vj[:, None, :])).any(axis=(1, 2))
        # 3: alpha = c alpha' with x != c x'; for alpha = 0 the scalar c = 0
        # fits against every vertex, so then any nonzero x fires
        out[:, 2] = (
            (codes.line[I] == codes.line[J]) & (codes.scaled_x[I] != codes.scaled_x[J])
            | codes.off_line[I] | codes.off_line[J]
        )
        # 5: alpha - alpha' repeats one block, with x != x'
        out[:, 4] = (codes.pattern[I] == codes.pattern[J]) & (vi[:, 0] != vj[:, 0])
        # 4: alpha - alpha' lives on one block, and no vector of that block's
        # collection has x - x' as the block-inner product of its image with
        # the difference (compared in chunks of about PAIR_BATCH * 64 entries)
        c = codes.clique
        diff = ((c.points[c.a[I]] - c.points[c.a[J]]) % q).reshape(-1, k, k)
        moved = diff.any(axis=2)
        single = np.flatnonzero(moved.sum(axis=1) == 1)
        block = moved[single].argmax(axis=1)
        dx = (c.values[c.x[I[single]]] - c.values[c.x[J[single]]]) % q
        abar = diff[single, block]
        explained = np.zeros(len(single), dtype=bool)
        for i in np.flatnonzero(np.bincount(block, minlength=k)).tolist():
            sel, images = np.flatnonzero(block == i), self._images[i]
            step = max(1, PAIR_BATCH * 64 // (len(sel) * self.params.l))
            for r in range(0, len(images), step):
                inner = images[r : r + step] @ abar[sel].T % q  # (vectors, l, pairs)
                explained[sel] |= (inner == dx[sel].T).all(axis=1).any(axis=0)
        out[single, 3] = ~explained
        return out

    # -- the oracle on classes ----------------------------------------------------

    def _class_rules(self, codes: _Codes, reps: np.ndarray) -> np.ndarray:
        """The symmetric table of whether rules 3-5 fire between vertices
        reps[i] and reps[j] of an encoded list; these rules read only
        (alpha, x), so each vertex stands for its whole (alpha, x) class."""
        c = len(reps)
        table = np.zeros((c, c), dtype=bool)
        for I, J in _pair_batches(c):
            table[I, J] = table[J, I] = self._pair_rules(codes, reps[I], reps[J])[:, 2:].any(axis=1)
        table[np.diag_indices(c)] = self._pair_rules(codes, reps, reps)[:, 2:].any(axis=1)
        return table

    def _grouped_clique(self, codes: _Codes) -> bool:
        """Whether an encoded list is a clique, decided on groups instead of
        pairs.  Among its distinct vertices: no point carries two values and
        is touched by two vertices (rule 2, internally inconsistent vertices
        included), and rules 3-5 fire between no two (alpha, x) classes, nor
        within a class of two or more vertices.  Rule 1 needs no group of
        its own: two distinct vertices of one (alpha, beta) differ in x or
        y, so rule 2 fires at alpha or at beta."""
        cloud = _pair_ids(codes.point[:, 0], codes.point[:, 1])[0]
        keep = _pair_ids(cloud, _pair_ids(codes.value[:, 0], codes.value[:, 1])[0])[1]
        point, value = codes.point[keep].reshape(-1), codes.value[keep].reshape(-1)
        owner = np.repeat(np.arange(len(keep)), 3)
        values_at = np.bincount(point[_pair_ids(point, value)[1]])
        owners_at = np.bincount(point[_pair_ids(point, owner)[1]])
        if ((values_at > 1) & (owners_at > 1)).any():
            return False
        ax = _pair_ids(codes.point[keep, 0], codes.value[keep, 0])[0]
        _, first, size = np.unique(ax, return_index=True, return_counts=True)
        table = self._class_rules(codes, keep[first])
        # a class of one vertex has no pair within it
        np.fill_diagonal(table, table.diagonal() & (size > 1))
        return not table.any()

    # -- planted cliques -------------------------------------------------------

    def planted_clique(self, indices: Sequence[int]) -> Clique:
        """The clique of a source tuple (an int index per collection), in the
        planted layout: one vertex per (alpha, beta) in lexicographic order,
        one value row per point, summing the tuple's per-block images.  Its
        cost is the point and value tables, so a layout of more than
        MAX_TABLE_SIZE points, or of more than PLANTED_VALUE_BUDGET value
        entries (points times l), is refused before either is built."""
        q, k, l = self.params.q, self.params.k, self.params.l
        size = q ** (k * k)  # past MAX_TABLE_SIZE, _domain refuses it as "table size"
        if size <= MAX_TABLE_SIZE and size * l > PLANTED_VALUE_BUDGET:
            raise BudgetExceeded("planted value table entries", required=size * l,
                                 budget=PLANTED_VALUE_BUDGET)
        points = _domain(q, k * k)[0]
        if not isinstance(indices, (list, tuple)) or len(indices) != k or not all(
                type(i) is int and 0 <= i < n for i, n in zip(indices, self.source.sizes)):
            raise ContractViolation("need one index in range per collection")
        # per collection, the chosen vector's block-inner image under every
        # direction, summed over the blocks of each point: row r of x is the
        # value at the point of rank r (block 0 most significant)
        directions = _domain(q, k)[0]
        x = np.zeros((1, l), dtype=np.int64)
        for i, idx in enumerate(indices):
            table = directions @ self._images[i][idx].T % q
            x = (x[:, None, :] + table).reshape(-1, l) % q
        return Clique(self.params, points, x)

    def verify_clique(self, vertices) -> Optional[tuple[Vertex, Vertex, frozenset]]:
        """The first violating pair in (i, j) order with its triggered rules,
        or None when the set is a clique.  Takes a Clique or a list of vertex
        tuples, validated before any pair is compared; repeated vertices are
        skipped.  A linear planted clique is decided from its rows R (see
        the module docstring); any other list goes to the grouped test, and
        only a list that rejects is scanned pair by pair."""
        clique = as_clique(vertices, self.params)
        R = clique.planted_rows
        if R is not None:
            q, k = self.params.q, self.params.k
            blocks, directions = R.reshape(k, k, -1), _domain(q, k)[0][1:].T
            # rule 5: the M_i sum to 0; rule 4: every M_i delta is an image
            if not (blocks.sum(axis=0) % q).any() and all(
                (images @ directions % q == M @ directions % q).all(axis=1).any(axis=0).all()
                for images, M in zip(self._images, blocks.transpose(0, 2, 1))
            ):
                return None
        codes = self._encode(clique)
        if self._grouped_clique(codes):
            return None
        for I, J in _pair_batches(len(clique)):
            rules = self._pair_rules(codes, I, J)
            repeat = rules[:, 0] & (codes.value[I, :2] == codes.value[J, :2]).all(axis=1)
            bad = np.flatnonzero(rules.any(axis=1) & ~repeat)
            if bad.size:
                t = bad[0]
                return clique[I[t]], clique[J[t]], frozenset((np.flatnonzero(rules[t]) + 1).tolist())
        return None

    # -- materialization and export ---------------------------------------------

    def materialize(self, budget: int = DEFAULT_VERTEX_CAP) -> DenseGraph:
        """The edges over the whole vertex set, in codec order; refuses with
        the exact vertex count when it exceeds the budget.  A pair is a
        non-edge when rules 3-5 fire between its (alpha, x) classes or a slot
        class of one conflicts with a slot of the other (rule 2).  Rows go
        ROW_BLOCK at a time against the columns from the block on: each pair
        once, in (u, v) order.  Rule 1 only excludes the diagonal: distinct
        vertices of one (alpha, beta) differ in x or y, so rule 2 fires."""
        count = self.codec.count
        if count > budget:
            raise BudgetExceeded("vertex count", required=count, budget=budget)
        # the whole vertex set as a clique over every point and every value,
        # indexed by the ranks of each vertex's alpha, beta, x and y
        q = self.params.q
        clique = Clique(self.params, _domain(q, self.codec.kk)[0],
                        _domain(q, self.params.l)[0], *self.codec.ranks())
        codes = self._encode(clique)
        slot, first = _pair_ids(codes.point, codes.value)
        # two slot classes conflict when they share a point, not a value; a
        # conflict of the two alpha slots is rule 3 with scalar 1 as well
        point, value = codes.point.reshape(-1)[first], codes.value.reshape(-1)[first]
        conflict = _bitmasks((point[:, None] == point) & (value[:, None] != value))
        # bitmasks over slot classes: own[i] holds the classes of vertex i,
        # clash[j] those that conflict with a slot of vertex j
        own = np.bitwise_or.reduce(_bitmasks(np.eye(len(first), dtype=bool))[slot], axis=1)
        clash = np.bitwise_or.reduce(conflict[slot], axis=1)
        # slot 0 is (alpha, x), so its class is the vertex's (alpha, x) class
        _, reps, ax = np.unique(slot[:, 0], return_index=True, return_inverse=True)
        table = self._class_rules(codes, reps)
        edges = []
        for start in range(0, count, ROW_BLOCK):
            rows, size = slice(start, start + ROW_BLOCK), min(ROW_BLOCK, count - start)
            # np.take keeps the block C-ordered for the in-place ORs below
            non_edge = np.take(table[ax[rows]], ax[start:], axis=1)
            non_edge[:, :size] |= np.tri(size, dtype=bool)  # the diagonal and below
            for word in range(own.shape[1]):
                non_edge |= (own[rows, word, None] & clash[start:, word]) != 0
            u, v = np.divmod(np.flatnonzero(~non_edge), count - start)
            edges.append(np.stack([u, v], axis=1) + start)
        return DenseGraph(count, np.concatenate(edges))

    def to_json(self) -> dict:
        return {
            "version": 1,
            "params": self.params.to_json(),
            "map": self.gmap.to_json(),
            "instance": self.source.to_json(),
            "vertex_count": self.codec.count,
        }

    @classmethod
    def from_json(cls, doc) -> "CliqueInstance":
        if not isinstance(doc, dict) or not isinstance(doc.get("params"), dict):
            raise ContractViolation("a reduction document must be a JSON object with params")
        if doc.get("version") != 1:
            raise ContractViolation(f"unsupported reduction version {doc.get('version')!r:.60}")
        p = doc["params"]
        gmap = LinearMapG.from_json(doc.get("map"))
        source = VecSumInstance.from_json(doc.get("instance"))
        if p.get("mode") != "desk" or "schedule" in p:
            raise ContractViolation('reduction params must have mode "desk" and no schedule')
        params = ReductionParams(q=p.get("q"), k=p.get("k"), l=p.get("l"))
        return cls(params, gmap, source)


# -- the decoded function -----------------------------------------------------------


@dataclass
class GammaTable:
    """Function decoded from a clique: defined by the clique's own values on
    its shared points, then extended by scalar closure along the lines
    through the origin, with fresh uniform values only where none reaches.
    var_points holds the ranks of the clique's points in ascending order."""

    table: FunctionTable
    var_points: np.ndarray


def _clique_values(clique: Clique, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Phase 1 of the decoded function: every point a vertex of the clique
    assigns, as rows of a (points, k^2) array in order of first assignment
    (vertices in list order, slots alpha, beta, alpha + beta), and its
    value, as the same row of a (points, l) array.  Refuses at the first
    slot whose value differs from the first value its point got.  A linear
    planted clique assigns its value table as it is: vertex (0, b) assigns
    b first."""
    c = clique
    if c.planted_rows is not None:
        return c.points, c.values
    x, y = c.values[c.x], c.values[c.y]
    point, point_sum = _row_ids(q, c.points, (c.points[c.a] + c.points[c.b]) % q)
    value, value_sum = _row_ids(q, c.values, (x + y) % q)
    # slot 3v + s is slot s of vertex v
    point = np.stack([point[c.a], point[c.b], point_sum], axis=1).reshape(-1)
    value = np.stack([value[c.x], value[c.y], value_sum], axis=1).reshape(-1)
    _, first, group = np.unique(point, return_index=True, return_inverse=True)
    differ = np.flatnonzero(value != value[first][group])
    # the first conflicting slot and its point's first slot, else each point's first
    slots = np.array([differ[0], first[group[differ[0]]]]) if differ.size else np.sort(first)
    v, at = slots // 3, (np.arange(len(slots)), slots % 3)
    pa, pb = c.points[c.a[v]], c.points[c.b[v]]
    rows = np.stack([pa, pb, pa + pb], axis=1)[at] % q
    known = np.stack([x[v], y[v], x[v] + y[v]], axis=1)[at] % q
    if differ.size:
        p, (this, was) = tuple(rows[0].tolist()), map(tuple, known.tolist())
        raise PropertyViolation(f"conflicting clique values at point {p}: {was} vs {this}")
    return rows, known


def build_gamma(
    clique,
    instance: CliqueInstance,
    rng: Optional[random.Random] = None,
    verify: bool = True,
) -> GammaTable:
    """Two-phase construction of the decoded function, from a Clique or a
    list of vertex tuples (validated, see as_clique).

    Phase 1 copies the clique's values on every point some vertex assigns;
    a conflict (within a vertex whose slots collide, or across vertices,
    which a verified clique cannot produce) is a refusal, then a domain past
    MAX_TABLE_SIZE.  Phase 2 closes one value per line under scalars: a line
    through a phase-1 point c * rep takes c^-1 times its value, any other
    draws l uniform values in representative order; the origin is 0.  The
    closed table must keep every phase-1 value, else the clique's values
    are not scalar respecting, a refusal.
    """
    params = instance.params
    q, k, l = params.q, params.k, params.l
    kk = k * k
    if rng is None:
        rng = random.Random(0)
    clique = as_clique(clique, params)
    if verify:
        bad = instance.verify_clique(clique)
        if bad is not None:
            u, v, types = bad
            raise PropertyViolation(
                f"not a clique: rules {sorted(types)} fire between {u} and {v}"
            )
    points, known_vals = _clique_values(clique, q)
    reps, (digits, place) = _lines(q, kk)[:, 0], _domain(q, kk)
    known = points @ place
    # c times a phase-1 point takes c times its value; a reached line's
    # representative reads its value off this table
    scalars = np.arange(1, q)[:, None]
    scaled = digits[known][:, None, :] * scalars % q @ place
    vals = np.zeros((q**kk, l), dtype=np.int64)
    vals[scaled] = known_vals[:, None, :] * scalars % q
    # l fresh values for each unreached line's representative
    fresh = reps[~np.isin(reps, scaled)]
    vals[fresh] = draws(rng, q, len(fresh) * l).reshape(-1, l)
    table = _scalar_closure(q, kk, vals[reps])
    if not (table.values[known] == known_vals).all():
        raise PropertyViolation(
            "decoded function is not scalar respecting; the clique's shared "
            "points carry scalar-inconsistent values"
        )
    return GammaTable(table=table, var_points=np.sort(known))


# -- witness extraction ----------------------------------------------------------


@dataclass
class DirectionDecode:
    """Decoding outcome for one collection: the residual-minimizing source
    vector per direction, their consistency, and the residual ceiling."""

    collection: int
    chosen_index: Optional[int]
    chosen_vector: Optional[tuple[int, ...]]
    max_residual: Optional[Fraction]
    residuals: dict  # direction tuple -> (best index, Fraction residual)
    ambiguous_at: list
    out_of_bound_at: list
    consistent: bool

    def to_json(self) -> dict:
        return {
            "collection": self.collection,
            "chosen_index": self.chosen_index,
            "chosen_vector": list(self.chosen_vector) if self.chosen_vector else None,
            "max_residual": _frac_str(self.max_residual),
            "residuals": {
                ",".join(map(str, a)): [i, _frac_str(r)]
                for a, (i, r) in sorted(self.residuals.items())
            },
            "ambiguous_at": [list(a) for a in self.ambiguous_at],
            "out_of_bound_at": [list(a) for a in self.out_of_bound_at],
            "consistent": self.consistent,
        }


def _frac_str(x: Optional[Fraction]) -> Optional[str]:
    if x is None:
        return None
    return f"{x.numerator}/{x.denominator}"


@dataclass
class ExtractionReport:
    """Full record of a soundness-side extraction; never a silent wrong
    witness: any failure names the stage it happened at."""

    verdict: str  # "witness" | "refused" | "failed"
    stage: str
    detail: str
    clique_size: int
    size_threshold: float
    pass_probability: Optional[Fraction] = None
    piecing_agreement: Optional[Fraction] = None
    fn: Optional[LinearVecFn] = None
    r_star_size: Optional[int] = None
    r_star_dense: Optional[bool] = None
    directions: list = field(default_factory=list)
    z_star: Optional[tuple] = None
    witness_indices: Optional[tuple] = None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "stage": self.stage,
            "detail": self.detail,
            "clique_size": self.clique_size,
            "size_threshold": self.size_threshold,
            "pass_probability": _frac_str(self.pass_probability),
            "piecing_agreement": _frac_str(self.piecing_agreement),
            "decoded_fn": list(map(list, self.fn.rhos)) if self.fn else None,
            "r_star_size": self.r_star_size,
            "r_star_dense": self.r_star_dense,
            "directions": [d.to_json() for d in self.directions],
            "z_star": list(self.z_star) if self.z_star is not None else None,
            "witness_indices": list(self.witness_indices)
            if self.witness_indices is not None
            else None,
        }


def extract_witness(
    clique,
    instance: CliqueInstance,
    eps: Optional[float] = None,
    kappa=None,
    rng: Optional[random.Random] = None,
    verify: bool = True,
) -> ExtractionReport:
    """Decode a source witness out of a large clique (a Clique or a list
    of vertex tuples, validated, see as_clique).  A clique of fewer than
    eps * q^(2k^2) distinct vertices is refused at the size gate.

    Builds the two-phase decoded function, pieces a linear function out of
    its coordinates, then for every collection scans the source vectors for
    the one whose image residual against the pieced function's block is
    minimal, uniformly over all nonzero directions.  The residual bound is
    twice kappa; two candidates inside the bound at one direction is reported
    as ambiguity (a goodness failure of the sampled map, never silently
    broken by a tie-rule).  The final exact check is that the chosen vectors
    sum to zero.
    """
    params = instance.params
    q, k, l = params.q, params.k, params.l
    if eps is None:
        eps = params.epsilon()
    if kappa is None:
        kappa = params.kappa()
    kappa = Fraction(kappa)
    clique = as_clique(clique, params)
    size = len(clique)
    if not clique.planted:  # distinct vertices: distinct (alpha, beta) and (x, y) id pairs
        c, (point,), (value,) = clique, _row_ids(q, clique.points), _row_ids(q, clique.values)
        ab, xy = _pair_ids(point[c.a], point[c.b])[0], _pair_ids(value[c.x], value[c.y])[0]
        size = len(_pair_ids(ab, xy)[1])
    threshold = eps * q ** (2 * k * k)
    report = ExtractionReport(verdict="refused", stage="size_gate", detail="",
                              clique_size=size, size_threshold=threshold)
    if size < threshold:
        report.detail = f"clique size {size} below {threshold:.6g}"
        return report

    def failed(stage: str, detail: str) -> ExtractionReport:
        report.verdict, report.stage, report.detail = "failed", stage, detail
        return report

    try:
        gamma = build_gamma(clique, instance, rng=rng, verify=verify)
    except PropertyViolation as exc:
        return failed("gamma", str(exc))

    piece = piece_together(gamma.table, eps, kappa)
    report.pass_probability = piece.pass_probability
    if not piece.ok:
        return failed("piecing", piece.failure)
    report.piecing_agreement = piece.agreement
    report.fn = piece.fn

    # the subset of shared points where the pieced function is within kappa
    r_star = _within(gamma.table, piece.fn, gamma.var_points, kappa)
    report.r_star_size = r_star
    report.r_star_dense = r_star * q > q ** (k * k)

    # the residual bound, twice kappa, on integer weights: its floor decides
    # alike
    bound = math.floor(2 * kappa * l)
    rhos = piece.fn.matrix
    directions = _domain(q, k)[0][1:]
    chosen: list[int] = []
    for i in range(k):
        us = instance.source.collection(i)
        ids = _row_ids(q, us)[0].tolist()
        # [d, r]: the weight of direction d's block-inner image of
        # theta_i - image(u_r), where theta_i (l x k) is the i-th domain block
        # of every coefficient vector, so that at a point supported on block i
        # alone the pieced function is the block-inner product against theta_i
        diffs = (rhos[:, i * k : (i + 1) * k] - instance._images[i]) % q
        weights = np.count_nonzero(
            np.einsum("dc,rjc->drj", directions, diffs) % q, axis=2
        ).tolist()
        residuals: dict[tuple[int, ...], tuple[int, Fraction]] = {}
        ambiguous = []
        out_of_bound = []
        votes = set()
        for abar, row in zip(map(tuple, directions.tolist()), weights):
            best_idx = row.index(min(row))
            residuals[abar] = (best_idx, Fraction(row[best_idx], l))
            in_bound = [idx for idx, w in enumerate(row) if w <= bound]
            # ambiguity means two distinct VECTORS (ids) inside the bound;
            # duplicate copies of one vector decode to the same witness
            if len({ids[idx] for idx in in_bound}) >= 2:
                ambiguous.append(abar)
            elif not in_bound:
                out_of_bound.append(abar)
            else:
                votes.add(in_bound[0])
        direction = DirectionDecode(
            collection=i,
            chosen_index=None,
            chosen_vector=None,
            max_residual=max((r for _, r in residuals.values()), default=None),
            residuals=residuals,
            ambiguous_at=ambiguous,
            out_of_bound_at=out_of_bound,
            consistent=len(votes) == 1 and not ambiguous,
        )
        report.directions.append(direction)
        failure = ("ambiguous minimizer" if ambiguous else "no in-bound vector" if not votes
                   else "direction-inconsistent choice" if len(votes) > 1 else None)
        if failure:
            return failed("decode", f"{failure} in collection {i}")
        direction.chosen_index = u_idx = votes.pop()
        direction.chosen_vector = tuple(us[u_idx].tolist())
        chosen.append(u_idx)

    source = instance.source
    z = tuple(residue_sum(q, source.vectors[np.add(source.starts, chosen)]).tolist())
    report.z_star = z
    if any(z):
        return failed("sum_check", "recovered tuple does not sum to zero")
    report.verdict, report.stage = "witness", "complete"
    report.detail = "recovered tuple sums to zero"
    report.witness_indices = tuple(chosen)
    return report
