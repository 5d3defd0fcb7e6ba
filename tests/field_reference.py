"""Definition-level field helpers that the tests use as reference oracles.

The library computes these quantities on integer arrays (map images in one
matrix product, block-inner products in batches); here they stay in exact
arithmetic on residue tuples, one coordinate at a time, so the tests can
compare the two.  residue_tuple and residue_nested check residues entry by
entry, as a reference for vecsum.residue_array.
"""

import itertools
from fractions import Fraction

from gapclique.errors import BudgetExceeded, ContractViolation


def residue_tuple(q: int, entries, dim: int) -> tuple[int, ...]:
    """entries as a tuple; refuses anything but a list or tuple of exactly
    dim ints in [0, q)."""
    if (
        not isinstance(entries, (list, tuple))
        or len(entries) != dim
        or not all(type(e) is int and 0 <= e < q for e in entries)
    ):
        raise ContractViolation(f"expected {dim} residues in [0, {q}), got {entries!r:.60}")
    return tuple(entries)


def residue_nested(q: int, entries, shape: tuple[int, ...]):
    """residue_tuple at every level of shape: lists or tuples nested to
    exactly that shape, ints in [0, q) at the bottom, as nested tuples (an
    int for the empty shape)."""
    if not shape:
        return residue_tuple(q, [entries], 1)[0]
    if len(shape) == 1:
        return residue_tuple(q, entries, shape[0])
    if not isinstance(entries, (list, tuple)) or len(entries) != shape[0]:
        raise ContractViolation(f"expected {shape[0]} rows, got {entries!r:.60}")
    return tuple(residue_nested(q, e, shape[1:]) for e in entries)


def _same_dim(a, b):
    if len(a) != len(b):
        raise ContractViolation(f"dimension mismatch: {len(a)} vs {len(b)}")


def add(q, a, b):
    _same_dim(a, b)
    return tuple((x + y) % q for x, y in zip(a, b))


def sub(q, a, b):
    _same_dim(a, b)
    return tuple((x - y) % q for x, y in zip(a, b))


def scale(q, c, a):
    return tuple((c * x) % q for x in a)


def inner_product(q, a, b) -> int:
    """Sum of coordinate products, reduced mod q."""
    _same_dim(a, b)
    return sum(x * y for x, y in zip(a, b)) % q


def block_inner(q, a, b):
    """Inner product of a against each width-len(a) block of the flat vector
    b; one coordinate per block."""
    w = len(a)
    if len(b) % w:
        raise ContractViolation(f"length {len(b)} is not a multiple of block width {w}")
    return tuple(inner_product(q, a, b[j : j + w]) for j in range(0, len(b), w))


def identity(n):
    """The n x n identity matrix, flat and row-major like a map's matrices."""
    return tuple(int(i == j) for i in range(n) for j in range(n))


def apply_map(g, b):
    """Image of b under the map: block j is the matrix-vector product of the
    j-th k x m matrix (flat, row-major) with b."""
    if len(b) != g.m:
        raise ContractViolation(f"map takes dimension {g.m}, vector has {len(b)}")
    return tuple(
        sum(a[r * g.m + c] * b[c] for c in range(g.m)) % g.q
        for a in g.matrices.tolist()
        for r in range(g.k)
    )


def rel_hamming(x, y) -> Fraction:
    """Fraction of coordinates where the vectors differ."""
    _same_dim(x, y)
    return Fraction(sum(1 for a, b in zip(x, y) if a != b), len(x))


def rel_weight(x) -> Fraction:
    """Fraction of nonzero coordinates."""
    return Fraction(sum(1 for a in x if a != 0), len(x))


def enumerate_sumset(q, collection, r, cap=1_000_000):
    """Exact element set of all sums of r scaled collection members
    (gamma_1 b_1 + ... + gamma_r b_r, repeats allowed), deduplicated."""
    vecs = list(collection)
    if not vecs:
        raise ContractViolation("collection must be non-empty")
    if r < 1:
        raise ContractViolation("sumset order must be >= 1")
    m = len(vecs[0])
    total = (q * len(vecs)) ** r
    if total > cap:
        raise BudgetExceeded("sumset enumeration", required=total, budget=cap)
    scaled = [[scale(q, c, b) for c in range(q)] for b in vecs]
    elements: set[tuple[int, ...]] = set()
    for combo in itertools.product(range(len(vecs)), repeat=r):
        for gammas in itertools.product(range(q), repeat=r):
            acc = [0] * m
            for b_idx, c in zip(combo, gammas):
                e = scaled[b_idx][c]
                for j in range(m):
                    acc[j] += e[j]
            elements.add(tuple(v % q for v in acc))
    return frozenset(elements)


def rank_tuple(q, t):
    """Base-q positional rank of a residue tuple, first coordinate most
    significant; the rank order is exactly lexicographic order."""
    r = 0
    for e in t:
        r = r * q + e
    return r


def unrank_tuple(q, dim, r):
    """The residue tuple of length dim whose rank_tuple is r."""
    out = [0] * dim
    for i in range(dim - 1, -1, -1):
        out[i] = r % q
        r //= q
    if r != 0:
        raise ContractViolation("rank out of range for given dimension")
    return tuple(out)
