"""Primality, rank/unrank, map sampling, and the reference field helpers
the tests compare against: examples, exhaustive algebraic properties."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapclique import rng as rngmod
from gapclique.errors import ContractViolation
from gapclique.ffield import is_prime, next_prime
from gapclique.randmap import LinearMapG, sample_g, source_images
from gapclique.vecsum import VecSumInstance

from field_reference import (
    add,
    block_inner,
    identity,
    inner_product,
    rank_tuple,
    rel_hamming,
    rel_weight,
    scale,
    sub,
    unrank_tuple,
)


def uniform(rng, q, d):
    return tuple(rng.randrange(q) for _ in range(d))


def mat_vec(q, rows, cols, entries, b):
    """Matrix-vector product as the library computes it: randmap's
    source_images with a one-block map on an instance holding only b."""
    g = LinearMapG(q=q, k=rows, m=cols, l=1, matrices=(entries,))
    inst = VecSumInstance(q=q, k=rows, m=len(b), vectors=[b] * rows, sizes=(1,) * rows)
    return tuple(source_images(g, inst)[1][0].tolist())


class TestPrimality:
    def test_known_values(self):
        assert is_prime(4099)
        assert not is_prime(4097)  # 17 * 241
        assert not is_prime(4098)
        assert next_prime(4096) == 4099

    def test_against_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randrange(2, 10**7)
            assert is_prime(n) == sympy.isprime(n)
        # a few big-integer spot checks around scheduled sizes
        for k in (1, 2, 3, 4):
            n = next_prime(1 << (12 * k))
            assert sympy.isprime(n)
            assert sympy.nextprime(1 << (12 * k)) == n


class TestInnerProduct:
    def test_example(self):
        assert inner_product(5, (1, 2), (3, 4)) == 1

    def test_zero_vector(self):
        assert inner_product(7, (2, 4, 6), (0, 0, 0)) == 0

    def test_wraps_to_zero(self):
        assert inner_product(3, (1, 1, 1), (1, 1, 1)) == 0

    def test_dim_mismatch(self):
        with pytest.raises(ContractViolation):
            inner_product(5, (1,), (1, 2))

    def test_bilinearity_exhaustive_q3(self):
        q = 3
        for d in (1, 2):
            pts = list(itertools.product(range(q), repeat=d))
            for a, b, c in itertools.product(pts, repeat=3):
                assert inner_product(q, a, add(q, b, c)) == (
                    inner_product(q, a, b) + inner_product(q, a, c)
                ) % q
                for g in range(q):
                    assert inner_product(q, scale(q, g, a), b) == (g * inner_product(q, a, b)) % q


class TestBlockInner:
    def test_unit_blocks(self):
        assert block_inner(3, (1, 1), (1, 0, 0, 1)) == (1, 1)

    def test_zero_input(self):
        assert block_inner(3, (0, 0), (1, 2, 2, 1)) == (0, 0)

    def test_hand_value_cross_checked_by_matrix_multiply(self):
        # independent oracle: stack the blocks as matrix rows and multiply
        a = (2, 3)
        blocks = [(1, 1), (4, 0)]
        got = block_inner(5, a, blocks[0] + blocks[1])
        assert got == (0, 3)
        expect = tuple((np.array(blocks) @ np.array(a)) % 5)
        assert got == expect

    def test_width_mismatch(self):
        with pytest.raises(ContractViolation):
            block_inner(3, (1, 1), (1, 0, 2))

    def test_matches_mat_vec_structurally(self):
        rng = random.Random(3)
        for _ in range(30):
            q = random.Random(rng.random()).choice([3, 5, 7])
            t, d = rng.randrange(1, 4), rng.randrange(1, 4)
            blocks = [uniform(rng, q, d) for _ in range(t)]
            a = uniform(rng, q, d)
            rows = tuple(e for b in blocks for e in b)
            assert block_inner(q, a, rows) == mat_vec(q, t, d, rows, a)


class TestMatVec:
    def test_identity(self):
        assert mat_vec(7, 2, 2, identity(2), (3, 5)) == (3, 5)

    def test_zero_matrix(self):
        assert mat_vec(3, 2, 2, (0,) * 4, (1, 2)) == (0, 0)

    def test_hand_value(self):
        assert mat_vec(3, 2, 2, (1, 2, 0, 1), (2, 2)) == (0, 2)

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            mat_vec(3, 2, 2, identity(2), (1, 2, 0))


class TestRelHamming:
    def test_identity(self):
        x = (1, 0, 2)
        assert rel_hamming(x, x) == 0

    def test_direct_count(self):
        assert rel_hamming((1, 0, 2), (1, 1, 1)) == Fraction(2, 3)

    def test_all_different(self):
        assert rel_hamming((0, 0), (1, 2)) == 1

    def test_metric_axioms_exhaustive_q3_d3(self):
        q, d = 3, 3
        pts = list(itertools.product(range(q), repeat=d))
        for x in pts:
            for y in pts:
                dxy = rel_hamming(x, y)
                assert dxy == rel_hamming(y, x)
                assert (dxy == 0) == (x == y)
        for x, y, z in itertools.product(pts[:9], pts[:9], pts[:9]):
            assert rel_hamming(x, z) <= rel_hamming(x, y) + rel_hamming(y, z)

    def test_scalar_invariance_of_weight(self):
        rng = random.Random(9)
        for q in (3, 5, 7):
            for _ in range(20):
                a = uniform(rng, q, 6)
                for z in range(1, q):
                    assert rel_weight(scale(q, z, a)) == rel_weight(a)


class TestSampling:
    # map entries are drawn row-major, k*m per matrix, from the given stream
    def test_same_seed_same_matrix(self):
        m1 = sample_g(rngmod.stream(42, "matrices"), 5, 3, 4, 1).matrices.tolist()
        m2 = sample_g(rngmod.stream(42, "matrices"), 5, 3, 4, 1).matrices.tolist()
        assert m1 == m2
        m3 = sample_g(rngmod.stream(43, "matrices"), 5, 3, 4, 1).matrices.tolist()
        assert m1 != m3

    def test_entry_mean_monte_carlo(self):
        (m,) = sample_g(rngmod.stream(7, "mc"), 2, 100, 100, 1).matrices.tolist()
        assert len(m) == 100 * 100
        assert abs(sum(m) / len(m) - 0.5) < 0.05

    def test_zero_rows_degenerate(self):
        # a map needs k >= 1 rows per block; a zero-row map is refused
        with pytest.raises(ContractViolation):
            sample_g(rngmod.stream(1, "z"), 3, 0, 4, 1)


class TestRankUnrank:
    @pytest.mark.parametrize("q,d", [(2, 3), (3, 2), (5, 2)])
    def test_roundtrip_is_lexicographic(self, q, d):
        pts = list(itertools.product(range(q), repeat=d))
        assert pts == sorted(pts)
        for r, t in enumerate(pts):
            assert rank_tuple(q, t) == r
            assert unrank_tuple(q, d, r) == t


@given(st.integers(2, 200))
@settings(max_examples=60, deadline=None)
def test_next_prime_is_prime_and_minimal(n):
    p = next_prime(n)
    assert p > n and is_prime(p)
    assert all(not is_prime(x) for x in range(n + 1, p))


@given(
    st.sampled_from([3, 5, 7]),
    st.integers(1, 5),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_vector_algebra_properties(q, d, data):
    draw = lambda: tuple(data.draw(st.integers(0, q - 1)) for _ in range(d))
    a, b = draw(), draw()
    assert sub(q, add(q, a, b), b) == a
    assert not any(sub(q, a, a))
    assert not any(scale(q, 0, a))
    assert scale(q, -1, scale(q, -1, a)) == a
    assert inner_product(q, a, b) == inner_product(q, b, a)
