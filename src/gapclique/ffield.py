"""Exact arithmetic over prime fields.

Residues are plain Python ints kept canonically in [0, q), so equality is
structural and nothing ever touches floating point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ContractViolation

# Miller-Rabin with this fixed witness set is a proven deterministic test for
# every n below 3.3e24 (covers any desk-scale modulus and the scheduled primes
# up to k = 6).  Larger n additionally get witnesses derived from n itself.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin, fixed witness set)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses = list(_MR_WITNESSES)
    if n >= _MR_PROVEN_BOUND:
        # beyond the proven range, pile on deterministic extra witnesses
        witnesses += [pow(w, 2, n) + 2 for w in range(41, 41 + 24)]
    for a in witnesses:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    c = n + 1
    if c <= 2:
        return 2
    if c % 2 == 0:
        c += 1
    while not is_prime(c):
        c += 2
    return c


@dataclass(frozen=True)
class FieldVector:
    """Immutable vector of residues over a prime field."""

    q: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) < 1:
            raise ContractViolation("vector dimension must be >= 1")
        if any(not (0 <= e < self.q) for e in self.entries):
            object.__setattr__(
                self, "entries", tuple(e % self.q for e in self.entries)
            )

    @classmethod
    def zero(cls, q: int, dim: int) -> "FieldVector":
        return cls(q, (0,) * dim)

    @classmethod
    def uniform(cls, rng: random.Random, q: int, dim: int) -> "FieldVector":
        return cls(q, tuple(rng.randrange(q) for _ in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def _check_compatible(self, other: "FieldVector"):
        if self.q != other.q:
            raise ContractViolation(f"modulus mismatch: {self.q} vs {other.q}")
        if self.dim != other.dim:
            raise ContractViolation(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "FieldVector") -> "FieldVector":
        self._check_compatible(other)
        return FieldVector(
            self.q, tuple((a + b) % self.q for a, b in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "FieldVector") -> "FieldVector":
        self._check_compatible(other)
        return FieldVector(
            self.q, tuple((a - b) % self.q for a, b in zip(self.entries, other.entries))
        )

    def __neg__(self) -> "FieldVector":
        return FieldVector(self.q, tuple((-a) % self.q for a in self.entries))

    def scale(self, c: int) -> "FieldVector":
        c %= self.q
        return FieldVector(self.q, tuple((c * a) % self.q for a in self.entries))


@dataclass(frozen=True)
class BlockVector:
    """A field vector carrying a block decomposition: t blocks of equal width."""

    vec: FieldVector
    width: int

    def __post_init__(self):
        if self.width < 1:
            raise ContractViolation("block width must be >= 1")
        if self.vec.dim % self.width != 0:
            raise ContractViolation(
                f"length {self.vec.dim} is not a multiple of block width {self.width}"
            )

    @classmethod
    def from_blocks(cls, blocks: list[FieldVector] | tuple[FieldVector, ...]) -> "BlockVector":
        if not blocks:
            raise ContractViolation("need at least one block")
        width = blocks[0].dim
        q = blocks[0].q
        entries: list[int] = []
        for b in blocks:
            if b.dim != width or b.q != q:
                raise ContractViolation("blocks must share width and modulus")
            entries.extend(b.entries)
        return cls(FieldVector(q, tuple(entries)), width)

    @property
    def q(self) -> int:
        return self.vec.q

    @property
    def n_blocks(self) -> int:
        return self.vec.dim // self.width

    def block(self, i: int) -> FieldVector:
        w = self.width
        return FieldVector(self.q, self.vec.entries[i * w : (i + 1) * w])

    def blocks(self) -> tuple[FieldVector, ...]:
        return tuple(self.block(i) for i in range(self.n_blocks))

    def __add__(self, other: "BlockVector") -> "BlockVector":
        if self.width != other.width:
            raise ContractViolation("block width mismatch")
        return BlockVector(self.vec + other.vec, self.width)

    def __sub__(self, other: "BlockVector") -> "BlockVector":
        if self.width != other.width:
            raise ContractViolation("block width mismatch")
        return BlockVector(self.vec - other.vec, self.width)

    def scale(self, c: int) -> "BlockVector":
        return BlockVector(self.vec.scale(c), self.width)


@dataclass(frozen=True)
class FieldMatrix:
    """Row-major matrix of residues."""

    q: int
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ContractViolation("negative matrix shape")
        if len(self.entries) != self.rows * self.cols:
            raise ContractViolation(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        if any(not (0 <= e < self.q) for e in self.entries):
            object.__setattr__(
                self, "entries", tuple(e % self.q for e in self.entries)
            )

    @classmethod
    def identity(cls, q: int, n: int) -> "FieldMatrix":
        return cls(q, n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, q: int, rows: int, cols: int) -> "FieldMatrix":
        return cls(q, rows, cols, (0,) * (rows * cols))


def mat_vec(a: FieldMatrix, b: FieldVector) -> FieldVector:
    """Standard matrix-vector product mod q."""
    if a.cols != b.dim:
        raise ContractViolation(f"matrix has {a.cols} cols, vector has dim {b.dim}")
    if a.q != b.q:
        raise ContractViolation("modulus mismatch")
    if a.rows == 0:
        raise ContractViolation("cannot apply a matrix with zero rows")
    q = a.q
    e = a.entries
    be = b.entries
    c = a.cols
    out = []
    for i in range(a.rows):
        base = i * c
        out.append(sum(e[base + j] * be[j] for j in range(c)) % q)
    return FieldVector(q, tuple(out))


def sample_matrix(rng: random.Random, rows: int, cols: int, q: int) -> FieldMatrix:
    """Matrix with entries drawn i.i.d. uniform on [0, q)."""
    return FieldMatrix(q, rows, cols, tuple(rng.randrange(q) for _ in range(rows * cols)))


def rank_tuple(q: int, t: tuple[int, ...]) -> int:
    """Base-q positional rank of a residue tuple, first coordinate most
    significant; the rank order is exactly lexicographic order."""
    r = 0
    for e in t:
        r = r * q + e
    return r


def unrank_tuple(q: int, dim: int, r: int) -> tuple[int, ...]:
    """Inverse of rank_tuple."""
    out = [0] * dim
    for i in range(dim - 1, -1, -1):
        out[i] = r % q
        r //= q
    if r != 0:
        raise ContractViolation("rank out of range for given dimension")
    return tuple(out)
