"""Definition-level field helpers that the tests use as reference oracles.

The library computes these quantities on integer arrays inside its goodness
checks; here they stay in exact FieldVector arithmetic, one coordinate at a
time, so the tests can compare the two.
"""

from fractions import Fraction

from gapclique.errors import ContractViolation
from gapclique.ffield import BlockVector, FieldVector


def inner_product(a: FieldVector, b: FieldVector) -> int:
    """Sum of coordinate products, reduced mod q."""
    a._check_compatible(b)
    return sum(x * y for x, y in zip(a.entries, b.entries)) % a.q


def block_inner(a: FieldVector, b: BlockVector) -> FieldVector:
    """Inner product of a against each block of b; one coordinate per block."""
    if b.width != a.dim:
        raise ContractViolation(f"block width {b.width} does not match vector dimension {a.dim}")
    return FieldVector(a.q, tuple(inner_product(a, blk) for blk in b.blocks()))


def rel_hamming(x: FieldVector, y: FieldVector) -> Fraction:
    """Fraction of coordinates where the vectors differ."""
    x._check_compatible(y)
    return Fraction(sum(1 for a, b in zip(x.entries, y.entries) if a != b), x.dim)


def rel_weight(x: FieldVector) -> Fraction:
    """Fraction of nonzero coordinates."""
    return Fraction(sum(1 for a in x.entries if a != 0), x.dim)
