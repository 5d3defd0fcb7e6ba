"""Field arithmetic and the reference field helpers the tests compare
against: examples, exhaustive algebraic properties, sampling."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapclique import rng as rngmod
from gapclique.errors import ContractViolation
from gapclique.ffield import (
    BlockVector,
    FieldMatrix,
    FieldVector,
    is_prime,
    mat_vec,
    next_prime,
    rank_tuple,
    sample_matrix,
    unrank_tuple,
)

from field_reference import block_inner, inner_product, rel_hamming, rel_weight


def vec(q, *entries):
    return FieldVector(q, tuple(entries))


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
        assert inner_product(vec(5, 1, 2), vec(5, 3, 4)) == 1

    def test_zero_vector(self):
        a = vec(7, 2, 4, 6)
        assert inner_product(a, FieldVector.zero(7, 3)) == 0

    def test_wraps_to_zero(self):
        assert inner_product(vec(3, 1, 1, 1), vec(3, 1, 1, 1)) == 0

    def test_dim_mismatch(self):
        with pytest.raises(ContractViolation):
            inner_product(vec(5, 1), vec(5, 1, 2))

    def test_bilinearity_exhaustive_q3(self):
        q = 3
        for d in (1, 2):
            pts = [FieldVector(q, t) for t in itertools.product(range(q), repeat=d)]
            for a, b, c in itertools.product(pts, repeat=3):
                assert inner_product(a, b + c) == (inner_product(a, b) + inner_product(a, c)) % q
                for g in range(q):
                    assert inner_product(a.scale(g), b) == (g * inner_product(a, b)) % q


class TestBlockInner:
    def test_unit_blocks(self):
        b = BlockVector.from_blocks([vec(3, 1, 0), vec(3, 0, 1)])
        assert block_inner(vec(3, 1, 1), b).entries == (1, 1)

    def test_zero_input(self):
        b = BlockVector.from_blocks([vec(3, 1, 2), vec(3, 2, 1)])
        assert block_inner(FieldVector.zero(3, 2), b).entries == (0, 0)

    def test_hand_value_cross_checked_by_matrix_multiply(self):
        # independent oracle: stack the blocks as matrix rows and multiply
        a = vec(5, 2, 3)
        blocks = [vec(5, 1, 1), vec(5, 4, 0)]
        got = block_inner(a, BlockVector.from_blocks(blocks))
        assert got.entries == (0, 3)
        m = np.array([b.entries for b in blocks])
        expect = tuple((m @ np.array(a.entries)) % 5)
        assert got.entries == expect

    def test_width_mismatch(self):
        b = BlockVector.from_blocks([vec(3, 1, 0, 2)])
        with pytest.raises(ContractViolation):
            block_inner(vec(3, 1, 1), b)

    def test_matches_mat_vec_structurally(self):
        rng = random.Random(3)
        for _ in range(30):
            q = random.Random(rng.random()).choice([3, 5, 7])
            t, d = rng.randrange(1, 4), rng.randrange(1, 4)
            blocks = [FieldVector.uniform(rng, q, d) for _ in range(t)]
            a = FieldVector.uniform(rng, q, d)
            via_blocks = block_inner(a, BlockVector.from_blocks(blocks))
            rows = tuple(e for b in blocks for e in b.entries)
            via_matrix = mat_vec(FieldMatrix(q, t, d, rows), a)
            assert via_blocks == via_matrix


class TestMatVec:
    def test_identity(self):
        b = vec(7, 3, 5)
        assert mat_vec(FieldMatrix.identity(7, 2), b) == b

    def test_zero_matrix(self):
        assert mat_vec(FieldMatrix.zeros(3, 2, 2), vec(3, 1, 2)).is_zero()

    def test_hand_value(self):
        a = FieldMatrix(3, 2, 2, (1, 2, 0, 1))
        assert mat_vec(a, vec(3, 2, 2)).entries == (0, 2)

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            mat_vec(FieldMatrix.identity(3, 2), vec(3, 1, 2, 0))


class TestRelHamming:
    def test_identity(self):
        x = vec(3, 1, 0, 2)
        assert rel_hamming(x, x) == 0

    def test_direct_count(self):
        assert rel_hamming(vec(3, 1, 0, 2), vec(3, 1, 1, 1)) == Fraction(2, 3)

    def test_all_different(self):
        assert rel_hamming(vec(3, 0, 0), vec(3, 1, 2)) == 1

    def test_metric_axioms_exhaustive_q3_d3(self):
        q, d = 3, 3
        pts = [FieldVector(q, t) for t in itertools.product(range(q), repeat=d)]
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
                a = FieldVector.uniform(rng, q, 6)
                for z in range(1, q):
                    assert rel_weight(a.scale(z)) == rel_weight(a)


class TestSampling:
    def test_same_seed_same_matrix(self):
        m1 = sample_matrix(rngmod.stream(42, "matrices"), 3, 4, 5)
        m2 = sample_matrix(rngmod.stream(42, "matrices"), 3, 4, 5)
        assert m1 == m2
        m3 = sample_matrix(rngmod.stream(43, "matrices"), 3, 4, 5)
        assert m1 != m3

    def test_entry_mean_monte_carlo(self):
        m = sample_matrix(rngmod.stream(7, "mc"), 100, 100, 2)
        mean = sum(m.entries) / len(m.entries)
        assert abs(mean - 0.5) < 0.05

    def test_zero_rows_degenerate(self):
        m = sample_matrix(rngmod.stream(1, "z"), 0, 4, 3)
        assert m.rows == 0 and m.cols == 4 and m.entries == ()


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
    draw = lambda: FieldVector(
        q, tuple(data.draw(st.integers(0, q - 1)) for _ in range(d))
    )
    a, b = draw(), draw()
    assert (a + b) - b == a
    assert (a - a).is_zero()
    assert a.scale(0).is_zero()
    assert -(-a) == a
    assert inner_product(a, b) == inner_product(b, a)
