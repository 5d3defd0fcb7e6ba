"""Linearity testing: the test itself, Fourier identities, list decoding
against brute-force oracles, and the piecing procedure."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapclique import experiments, lintest, rng as rngmod
from gapclique.errors import BudgetExceeded, ContractViolation, PropertyViolation
from gapclique.randmap import sample_g
from gapclique.reduction import CliqueInstance, ReductionParams, build_gamma
from gapclique.vecsum import generate_planted, paper_dimension
from gapclique.lintest import (
    FunctionTable,
    LinearVecFn,
    accepted_degrees,
    estimate_pass_probability,
    fourier_transform,
    list_decode_scalar,
    pass_probability,
    piece_together,
    random_scalar_respecting_table,
    triple_correlation_check,
)

from field_reference import rank_tuple, unrank_tuple
from lintest_reference import (
    accepted_mask,
    agreement,
    blocked_accepted_counts,
    coordinate_masks,
    corrupted_linear_values,
    eval_linear,
    linear_scalar,
    line_representatives,
    monte_carlo_estimate,
    per_coordinate_matches,
    per_point_piecing,
    rank_mod,
    row_degrees,
    value_at,
)

TOL = 1e-9


def corrupt_lines(fn_table: FunctionTable, replacements) -> FunctionTable:
    """Replace whole scalar lines (rep -> new values), re-closing the
    scalar-respecting structure along each corrupted line."""
    q, d, l = fn_table.q, fn_table.d, fn_table.l
    vals = np.array(fn_table.values, copy=True)
    for rep, newv in replacements:
        newv = np.atleast_1d(np.array(newv, dtype=np.int64))
        for c in range(1, q):
            vals[rank_tuple(q, tuple(e * c % q for e in rep))] = newv * c % q
    out = FunctionTable(q, d, l, vals)
    assert out.is_scalar_respecting()
    return out


def arbitrary_table(r, q, d, l):
    """A table with independent uniform values: neither scalar respecting
    nor zero at the origin, as a rule."""
    return FunctionTable(q, d, l, [[r.randrange(q) for _ in range(l)] for _ in range(q**d)])


def decoded_fns(q, d, ranks):
    """A decoded list of coefficient-vector ranks as linear functions."""
    return tuple(linear_scalar(q, unrank_tuple(q, d, r)) for r in ranks.tolist())


def decoded_lists(f, deltas):
    """Every coordinate's decoded list at its threshold, as coefficient-vector
    ranks."""
    ranks, bounds = lintest._list_decode(f, deltas)
    return [ranks[start:end] for start, end in zip(bounds[:-1], bounds[1:])]


def outcome(res) -> tuple:
    """A piecing result in per_point_piecing's order."""
    return res.ok, res.fn, res.agreement, res.failure, res.pass_probability, res.coordinate_pass


class TestEvalLinear:
    def test_zero_coefficients(self):
        c = linear_scalar(5, (0, 0, 0))
        assert all(eval_linear(c, a) == 0 for a in itertools.product(range(5), repeat=3))

    def test_projection(self):
        c = linear_scalar(7, (1, 0, 0))
        assert eval_linear(c, (4, 5, 6)) == 4

    def test_wraps(self):
        assert eval_linear(linear_scalar(5, (2, 3)), (1, 1)) == 0

    @pytest.mark.parametrize("coeffs", [(5, 1), (-1, 0), (1.0, 2), (True, 1)])
    def test_non_canonical_coefficients_refused_not_reduced(self, coeffs):
        with pytest.raises(ContractViolation):
            linear_scalar(5, coeffs)
        with pytest.raises(ContractViolation):
            LinearVecFn(5, 2, ((1, 2), coeffs))


    def test_vector_function_keeps_its_checked_matrix(self):
        fn = LinearVecFn(5, 2, ((1, 2), (3, 4)))
        assert fn.matrix.dtype == np.int64 and fn.matrix.tolist() == [[1, 2], [3, 4]]
        assert not fn.matrix.flags.writeable
        # rhos alone decides equality, hashing and the repr
        same = LinearVecFn(5, 2, ((1, 2), (3, 4)))
        assert fn == same and hash(fn) == hash(same) and "matrix" not in repr(fn)
        assert fn != LinearVecFn(5, 2, ((1, 2), (3, 3)))

    def test_rho_is_the_one_row(self):
        fn = linear_scalar(5, (2, 3))
        assert fn.rho == (2, 3) and fn.d == 2 and fn.matrix.tolist() == [[2, 3]]
        assert fn == LinearVecFn(5, 2, ((2, 3),)) and hash(fn) == hash(LinearVecFn(5, 2, ((2, 3),)))
        # a function of no rows or of several has no single coefficient vector
        for rows in ((), ((1, 2), (3, 4))):
            with pytest.raises(ContractViolation, match=f"{len(rows)} rows"):
                LinearVecFn(5, 2, rows).rho


class TestPassProbability:
    def test_linear_passes_exactly(self):
        fn = linear_scalar(7, (3, 5))
        assert pass_probability(FunctionTable.from_linear(fn)) == 1

    def test_constant_nonzero_never_passes(self):
        f = FunctionTable(5, 1, 1, [[2]] * 5)
        assert pass_probability(f) == 0

    def test_random_tables_average_near_one_over_q(self):
        vals = []
        for i in range(200):
            r = rngmod.stream(100 + i, "pp")
            f = FunctionTable(3, 1, 1, [[r.randrange(3)] for _ in range(3)])
            vals.append(float(pass_probability(f)))
        mean = float(np.mean(vals))
        sigma = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        assert abs(mean - 1 / 3) <= 3 * sigma

    def test_monte_carlo_mode_brackets_exact(self):
        f = random_scalar_respecting_table(rngmod.stream(3, "mc"), 5, 2)
        exact = float(pass_probability(f))
        est = estimate_pass_probability(f, 4000, rngmod.stream(4, "mc"))
        assert est.ci_low <= exact <= est.ci_high

    @pytest.mark.parametrize("block", [7, lintest.PAIR_BLOCK])
    def test_monte_carlo_matches_one_pair_at_a_time(self, block, monkeypatch):
        # same draws in the same order, so the same estimate and rng state
        monkeypatch.setattr(lintest, "PAIR_BLOCK", block)
        for i, (q, d, l) in enumerate([(2, 3, 1), (5, 2, 2), (3, 3, 4)]):
            r = rngmod.stream(i, "mc-ref")
            for f in (arbitrary_table(r, q, d, l), random_scalar_respecting_table(r, q, d, l)):
                got_rng, ref_rng = rngmod.stream(i, "mc-draws"), rngmod.stream(i, "mc-draws")
                got = estimate_pass_probability(f, 100, got_rng)
                assert got == monte_carlo_estimate(f, 100, ref_rng)
                assert got_rng.random() == ref_rng.random()

    @pytest.mark.parametrize("samples", [0, -1])
    def test_estimate_needs_samples(self, samples):
        f = random_scalar_respecting_table(rngmod.stream(3, "mc"), 5, 2)
        with pytest.raises(ContractViolation, match="samples >= 1"):
            estimate_pass_probability(f, samples, rngmod.stream(4, "mc"))

    def test_budget_refusal_reports_requirement(self, monkeypatch):
        # the values span one dimension, one line of characters: one DFT pair
        # over the 25 points
        f = random_scalar_respecting_table(rngmod.stream(5, "b"), 5, 2)
        monkeypatch.setattr(lintest, "CHARACTER_BUDGET", 24)
        with pytest.raises(BudgetExceeded) as exc:
            pass_probability(f)
        assert exc.value.required == 5**2


class TestAcceptedSet:
    def test_linear_accepts_everything(self):
        f = FunctionTable.from_linear(linear_scalar(3, (1, 2)))
        deg, _ = accepted_degrees(f)
        assert deg.sum() == 9 * 9
        assert (deg > 0).sum() == 9

    def test_matches_definitional_double_loop(self):
        f = random_scalar_respecting_table(rngmod.stream(8, "acc"), 3, 2, 2)
        deg, counts = accepted_degrees(f)
        assert np.array_equal(deg, accepted_mask(f).sum(axis=1))
        assert counts == tuple(coordinate_masks(f).sum(axis=(1, 2)).tolist())

    def test_single_corrupted_point_shrinks_set(self):
        f = FunctionTable.from_linear(linear_scalar(3, (2,)))
        vals = np.array(f.values, copy=True)
        vals[1] = (vals[1] + 1) % 3  # bump f at a nonzero point
        g = FunctionTable(3, 1, 1, vals)
        deg, _ = accepted_degrees(g)
        assert deg.sum() < 9

    def test_var_contains_origin_when_f0_is_zero(self):
        f = random_scalar_respecting_table(rngmod.stream(9, "var"), 5, 1)
        deg, _ = accepted_degrees(f)
        assert deg[0] > 0  # (0,0) always accepted since f(0) = 0

    @pytest.mark.parametrize("q,d,l", [(3, 6, 2), (7, 3, 2), (3, 4, 128)])
    def test_coordinate_counts_match_per_coordinate_sets(self, q, d, l, monkeypatch):
        # shapes whose pair enumeration ends in a short block of rows
        f = random_scalar_respecting_table(rngmod.stream(q + d + l, "cc"), q, d, l)
        n = f.size
        assert n % (lintest.PAIR_BLOCK // (n * max(d, l))) != 0
        _, counts = accepted_degrees(f)
        per_coordinate = [int(accepted_degrees(f.coordinate(i))[0].sum()) for i in range(l)]
        assert counts == tuple(per_coordinate)
        res = piece_together(f, 0, Fraction(1, 4))
        assert res.coordinate_pass == tuple(Fraction(c, n * n) for c in per_coordinate)
        # a copy keeps no counts; values spanning r <= d dimensions take one
        # DFT pair per line of F_q^r, and any others n^2 pairs
        basis = lintest._column_basis(f)
        if basis is None:
            what, budget, required = "pair enumeration", "PAIR_BUDGET", n * n
        else:
            what, budget = "character sums", "CHARACTER_BUDGET"
            required = len(lintest._lines(q, len(basis[1]))) * n
        monkeypatch.setattr(lintest, budget, required - 1)
        for run in (accepted_degrees, lambda g: piece_together(g, 0, 0)):
            with pytest.raises(BudgetExceeded) as exc:
                run(FunctionTable(q, d, l, f.values))
            assert exc.value.what == what and exc.value.required == required

    def test_any_block_height_matches_whole_domain_reference(self, monkeypatch):
        q, d = 5, 3
        r = rngmod.stream(10, "blocks")
        f = corrupt_lines(
            FunctionTable.from_linear(LinearVecFn(q, d, ((1, 2, 3), (4, 0, 1)))),
            [(rep, [r.randrange(q), r.randrange(q)]) for rep in line_representatives(q, d)[:6]],
        )
        # 5^4 characters outnumber the 125 points, so f4's pairs are enumerated
        f4 = corrupt_lines(
            FunctionTable.from_linear(LinearVecFn(q, d, ((1, 2, 3), (4, 0, 1), (0, 0, 2), (3, 3, 3)))),
            [(rep, [r.randrange(q) for _ in range(4)]) for rep in line_representatives(q, d)[:6]],
        )
        g1, g2, g3 = f.coordinate(0), f.coordinate(1), random_scalar_respecting_table(r, q, d)
        points = list(itertools.product(range(q), repeat=d))
        sum_rank = np.array(
            [[rank_tuple(q, tuple((x + y) % q for x, y in zip(a, b))) for b in points] for a in points]
        )
        v1, v2, v3 = (g.values[:, 0] for g in (g1, g2, g3))
        lhs = Fraction(int(((v1[:, None] + v2[None, :]) % q == v3[sum_rank]).sum()), len(points) ** 2)
        # blocks of f's 13 characters up to sign: 1, 5 (13 = 2 * 5 + 3), all, all;
        # blocks of f4's 125 rows: 1, 1, 7 (125 = 17 * 7 + 6), all
        for block in (1, 5 * 125, 7 * 125 * 4, lintest.PAIR_BLOCK):
            monkeypatch.setattr(lintest, "PAIR_BLOCK", block)
            for table in (f, f4):
                # a fresh table per block height: the counts are kept on the table
                table = FunctionTable(q, d, table.l, table.values)
                vals = table.values
                agree = (vals[:, None, :] + vals[None, :, :]) % q == vals[sum_rank]
                deg, counts = accepted_degrees(table)
                assert np.array_equal(deg, agree.all(axis=2).sum(axis=1))
                assert counts == tuple(agree.sum(axis=(0, 1)).tolist())
            assert triple_correlation_check(g1, g2, g3).lhs == lhs


def count_inverse_transforms(monkeypatch) -> list:
    """The shapes of the inverse DFTs run from here on: character sums run
    one per block of characters, enumeration none."""
    inverse_transforms = []
    dft = lintest._dft

    def counted(x, q, d, sign):
        if sign > 0:
            inverse_transforms.append(x.shape)
        return dft(x, q, d, sign)

    monkeypatch.setattr(lintest, "_dft", counted)
    return inverse_transforms


def _assert_matches_reference(f):
    deg, counts = accepted_degrees(f)
    masks = coordinate_masks(f)
    mask = masks.all(axis=0)
    assert deg.dtype == np.int64
    assert np.array_equal(deg, mask.sum(axis=1))
    assert np.array_equal(deg > 0, mask.any(axis=1))
    assert counts == tuple(masks.sum(axis=(1, 2)).tolist())
    assert pass_probability(f) == Fraction(int(mask.sum()), f.size**2)


class TestAcceptedDegrees:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_tables_match_reference(self, data):
        q = data.draw(st.sampled_from([2, 3, 5, 7]))
        d = data.draw(st.integers(1, {2: 6, 3: 4, 5: 2, 7: 2}[q]))
        l = data.draw(st.integers(1, 3))
        n = q**d
        values = data.draw(st.lists(st.integers(0, q - 1), min_size=n * l, max_size=n * l))
        _assert_matches_reference(FunctionTable(q, d, l, np.array(values).reshape(n, l)))

    @pytest.mark.parametrize("q,d,l", [(3, 2, 1), (5, 2, 2), (2, 3, 3), (2, 2, 3), (3, 4, 128)])
    def test_both_sides_of_the_dispatch(self, q, d, l, monkeypatch):
        # character sums exactly when the values span at most d dimensions
        # (at most n characters of the column space): l < d, l = d, then
        # l > d twice, where these tables mostly have rank past d
        inverse_transforms = count_inverse_transforms(monkeypatch)
        for i in range(3):
            r = rngmod.stream(i, f"dispatch/{q}/{d}/{l}")
            for f in (arbitrary_table(r, q, d, l), random_scalar_respecting_table(r, q, d, l)):
                inverse_transforms.clear()
                _assert_matches_reference(f)
                assert bool(inverse_transforms) == (rank_mod(q, f.values) <= d)

    def test_float_error_past_the_guard_refused(self, monkeypatch):
        # every point where f is 0 gains 0.3 in its degree
        f = random_scalar_respecting_table(rngmod.stream(11, "guard"), 5, 2, 2)
        dft = lintest._dft

        def shifted(x, q, d, sign):
            # the inverse transform is unnormalized: 0.3 after dividing by q^d
            return dft(x, q, d, sign) + (0.3 * q**d if sign > 0 else 0)

        monkeypatch.setattr(lintest, "_dft", shifted)
        for run in (accepted_degrees, pass_probability, lambda g: piece_together(g, 0, 0)):
            with pytest.raises(PropertyViolation):
                run(f)
        # no refused count was kept on the table
        monkeypatch.setattr(lintest, "_dft", dft)
        (deg, counts), (ref_deg, ref_counts) = accepted_degrees(f), blocked_accepted_counts(f)
        assert np.array_equal(deg, ref_deg) and counts == ref_counts


def spanned_table(r, q, d, l, rank, arbitrary=True):
    """A table with l > d coordinates whose values span exactly `rank`
    dimensions: `rank` basis columns (arbitrary values, or a random
    scalar-respecting table's) at random places, and every other column a
    random combination of them; redrawn until the basis is independent."""
    n = q**d
    while True:
        if arbitrary:
            basis = np.array([[r.randrange(q) for _ in range(rank)] for _ in range(n)])
        else:
            basis = random_scalar_respecting_table(r, q, d, max(rank, 1)).values[:, :rank]
        mix = np.array([[r.randrange(q) for _ in range(l)] for _ in range(rank)], dtype=np.int64)
        for t, j in enumerate(r.sample(range(l), rank)):
            mix[:, j] = np.arange(rank) == t
        f = FunctionTable(q, d, l, basis.reshape(n, rank) @ mix % q)
        if rank_mod(q, f.values) == rank:
            return f


def with_columns(f, cols):
    """The table whose coordinate j is cols[j]: a column of f by index, or
    None for a zero column."""
    vals = [np.zeros(f.size, dtype=np.int64) if c is None else f.values[:, c] for c in cols]
    return FunctionTable(f.q, f.d, len(cols), np.stack(vals, axis=1))


def extraction_gamma_tables(seed=0):
    """The gamma tables of the soundness suite's extraction round trip at
    this seed, one per point of its mix; every one has l > d coordinates."""
    tables = []
    for (q, k, l), _ in experiments.EXTRACTION_MIX:
        label = f"extract/{q}-{k}-{l}/0"
        src = generate_planted(rngmod.stream(seed, f"{label}/instance"), q, k,
                               paper_dimension(k, 4 * k), 4)
        g, _ = experiments.certified_map(seed, label, src, l, "separation", max_tries=2000)
        ci = CliqueInstance(ReductionParams(q=q, k=k, l=l), g, src)
        gamma = build_gamma(ci.planted_clique(src.planted), ci,
                            rng=rngmod.stream(seed, f"{label}/gamma-fill"), verify=False)
        tables.append(gamma.table)
    return tables


class TestRankDispatch:
    # tables with l > d: character sums iff the values span at most d
    # dimensions, enumeration past that
    POINTS = [(2, 3, 5), (2, 4, 7), (3, 2, 5), (5, 2, 4), (7, 2, 3)]

    @pytest.mark.parametrize("q,d,l", POINTS)
    @pytest.mark.parametrize("arbitrary", [True, False])
    def test_ranks_around_d_match_reference(self, q, d, l, arbitrary, monkeypatch):
        inverse_transforms = count_inverse_transforms(monkeypatch)
        for rank in (d - 1, d, d + 1):
            r = rngmod.stream(rank, f"rank/{q}/{d}/{l}/{arbitrary}")
            f = spanned_table(r, q, d, l, rank, arbitrary)
            inverse_transforms.clear()
            _assert_matches_reference(f)
            ref_deg, ref_counts = blocked_accepted_counts(f)
            deg, counts = accepted_degrees(f)
            assert np.array_equal(deg, ref_deg) and counts == ref_counts
            assert bool(inverse_transforms) == (rank <= d)

    @pytest.mark.parametrize("q,d,l", POINTS)
    def test_zero_and_repeated_columns(self, q, d, l, monkeypatch):
        inverse_transforms = count_inverse_transforms(monkeypatch)
        f = spanned_table(rngmod.stream(1, f"cols/{q}/{d}"), q, d, l, d)
        layouts = [
            [None] + list(range(l)),           # a zero column first
            [0, 0, 1, None, 1, 0],             # repeats and a zero column between
            list(range(l)) + [l - 1, None],    # the last column twice
            [None] * (d + 2),                  # the all-zero table
        ]
        for cols in layouts:
            g = with_columns(f, cols)
            inverse_transforms.clear()
            _assert_matches_reference(g)
            assert inverse_transforms
        zero = with_columns(f, layouts[-1])
        deg, counts = accepted_degrees(zero)
        assert (deg == zero.size).all() and counts == (zero.size**2,) * (d + 2)

    def test_elimination_stops_at_pivot_d_plus_one(self):
        # the (d + 1)-th independent column is the last one: every earlier
        # column is eliminated against the d pivots first
        q, d, l = 3, 2, 6
        f = spanned_table(rngmod.stream(2, "late"), q, d, l - 1, d)
        g = FunctionTable(q, d, l, np.hstack([f.values, np.arange(q**d)[:, None] % q]))
        assert rank_mod(q, g.values) == d + 1
        assert lintest._column_basis(g) is None
        basis, coords = lintest._column_basis(f)
        # reduced row echelon form: row t's leading 1 is column t's pivot,
        # zero in every other row, and the basis is the values there
        pivots = [int(np.flatnonzero(row)[0]) for row in coords]
        assert len(pivots) == d and pivots == sorted(pivots)
        assert np.array_equal(coords[:, pivots], np.eye(d, dtype=np.int64))
        assert np.array_equal(basis, f.values[:, pivots])
        assert np.array_equal(basis @ coords % q, f.values)

    def test_extraction_gamma_tables(self, monkeypatch):
        inverse_transforms = count_inverse_transforms(monkeypatch)
        for f in extraction_gamma_tables(0):
            assert f.l > f.d and rank_mod(f.q, f.values) <= f.d
            inverse_transforms.clear()
            _assert_matches_reference(f)
            assert inverse_transforms
            ref_deg, ref_counts = blocked_accepted_counts(f)
            deg, counts = accepted_degrees(f)
            assert np.array_equal(deg, ref_deg) and counts == ref_counts


class TestAcceptedMemo:
    def test_tables_built_and_dropped_keep_their_own_counts(self):
        # each table is dropped before the next is built, so ids are reused
        ids = set()
        for i in range(200):
            q, d, l = (5, 2, 2) if i % 4 else (2, 3, 3)
            r = rngmod.stream(i, "memo")
            f = arbitrary_table(r, q, d, l) if i % 2 else random_scalar_respecting_table(r, q, d, l)
            ids.add(id(f))
            ref_deg, ref_counts = blocked_accepted_counts(f)
            deg, counts = accepted_degrees(f)
            assert np.array_equal(deg, ref_deg) and counts == ref_counts
            assert pass_probability(f) == Fraction(int(ref_deg.sum()), f.size**2)
            del f
        assert len(ids) < 200

    def test_character_sums_run_once_per_table(self, monkeypatch):
        calls = []
        sums = lintest._character_sums
        monkeypatch.setattr(lintest, "_character_sums", lambda f: calls.append(f) or sums(f))
        f = random_scalar_respecting_table(rngmod.stream(3, "once"), 3, 3, 2)
        p = pass_probability(f)
        res = piece_together(f, 0, Fraction(1, 4))
        assert calls == [f] and res.pass_probability == p

    def test_past_the_pair_cap_matches_enumeration(self):
        # 4,489 points: past the pair budget, which gates enumeration only,
        # and at q = 67 the character sums take one FFT per digit
        q, d = 67, 2
        n = q**d
        assert n * n > lintest.PAIR_BUDGET
        r = rngmod.stream(67, "past-cap")
        for f in (random_scalar_respecting_table(r, q, d), arbitrary_table(r, q, d, 1)):
            deg, counts = accepted_degrees(f)
            ref_deg, ref_counts = blocked_accepted_counts(f)
            assert np.array_equal(deg, ref_deg) and counts == ref_counts
            assert pass_probability(f) == Fraction(int(ref_deg.sum()), n * n)


def as_unknown(f):
    """A copy of f not known to be scalar respecting, so that its character
    sums pair lambda with -lambda instead of folding scalar orbits."""
    g = FunctionTable(f.q, f.d, f.l, f.values)
    g._scalar_respecting = False
    return g


class TestScalarOrbits:
    # every (q, d, l) of this file's tables and the lintest-tables benchmark,
    # then three primes where an orbit holds 30 or 100 characters
    POINTS = [
        (2, 1, 1), (2, 2, 3), (2, 3, 3), (2, 3, 5), (2, 4, 7), (2, 5, 3), (2, 10, 1),
        (3, 2, 1), (3, 2, 5), (3, 3, 2), (3, 4, 2), (3, 4, 128), (3, 6, 2),
        (5, 2, 2), (5, 2, 4), (5, 3, 1), (5, 3, 2), (5, 3, 4), (5, 5, 1),
        (7, 2, 2), (7, 2, 3), (7, 3, 2), (11, 2, 3), (11, 3, 2), (67, 2, 1),
        (101, 2, 1), (31, 3, 1), (31, 2, 2),
    ]

    @pytest.mark.parametrize("q,d,l", POINTS)
    def test_orbit_fold_matches_sign_pairs(self, q, d, l):
        r = rngmod.stream(q * 1000 + d * 10 + l, "orbits")
        if l <= d:
            tables = [random_scalar_respecting_table(r, q, d, l)]
        else:
            # past d coordinates, values spanning d and d - 1 dimensions, and zero
            tables = [spanned_table(r, q, d, l, rank, arbitrary=False) for rank in (d, d - 1)]
            tables.append(with_columns(tables[0], [None] * l))
        for f in tables:
            assert f.is_scalar_respecting()
            deg, counts, _ = lintest._character_sums(f)
            ref_deg, ref_counts, rows = lintest._character_sums(as_unknown(f))
            assert np.array_equal(deg, ref_deg) and np.array_equal(counts, ref_counts)
            assert rows is None  # Fourier rows are kept for scalar-respecting tables only

    def test_large_prime_rows_match_enumeration(self):
        q, d = 509, 2
        n = q**d
        r = rngmod.stream(509, "orbits-large")
        f = FunctionTable(q, d, 1, corrupted_linear_values(r, q, d, 0.1))
        assert f.is_scalar_respecting()
        deg, counts = accepted_degrees(f)
        # the origin, a point and two of its multiples, and random points
        rows = [0, 1, q - 1, 2 * q + 5, 4 * q + 10] + r.sample(range(n), 15)
        assert deg[rows].tolist() == row_degrees(f, rows)
        assert counts == (int(deg.sum()),)

    @pytest.mark.parametrize("scalar,rows", [(True, 24), (False, 120)])
    def test_one_dft_pair_per_orbit(self, scalar, rows, monkeypatch):
        # (11,3,2): 12 lines through the origin of F_11^2, or 60 pairs of
        # nonzero characters up to sign; lambda = 0 takes no DFT
        transformed = []
        dft = lintest._dft

        def counted(x, q, d, sign):
            transformed.append(x.reshape(-1, q**d).shape[0])
            return dft(x, q, d, sign)

        monkeypatch.setattr(lintest, "_dft", counted)
        r = rngmod.stream(11, "orbit-rows")
        f = random_scalar_respecting_table(r, 11, 3, 2) if scalar else arbitrary_table(r, 11, 3, 2)
        assert f.is_scalar_respecting() == scalar
        deg, counts = accepted_degrees(f)
        assert sum(transformed) == rows
        ref_deg, ref_counts = blocked_accepted_counts(f)
        assert np.array_equal(deg, ref_deg) and counts == ref_counts


def noisy_linear_table(r, q, d, l, share=0.1):
    """A random linear map's table with about `share` of its lines through
    the origin re-drawn, closed under scalars: lists of one member or more."""
    fn = LinearVecFn(q, d, tuple(tuple(r.randrange(q) for _ in range(d)) for _ in range(l)))
    reps = lintest._lines(q, d)[:, 0]
    noise = random_scalar_respecting_table(r, q, d, l).values[reps]
    keep = np.array([r.random() >= share for _ in reps])
    line_values = np.where(keep[:, None], FunctionTable.from_linear(fn).values[reps], noise)
    return FunctionTable(q, d, l, lintest._scalar_closure(q, d, line_values).values)


def gamma_table(seed, q, k, l):
    """The decoded table of a planted clique under a random map: linear,
    l coordinates over F_q^(k^2)."""
    src = generate_planted(rngmod.stream(seed, "gamma/instance"), q, k, paper_dimension(k, 4 * k), 4)
    g = sample_g(rngmod.stream(seed, "gamma/map"), q, k, src.m, l)
    ci = CliqueInstance(ReductionParams(q=q, k=k, l=l), g, src)
    return build_gamma(ci.planted_clique(src.planted), ci, rng=rngmod.stream(seed, "gamma/fill"),
                       verify=False).table


def dft_calls(monkeypatch) -> list:
    """(sign, rows) of every DFT run from here on."""
    calls = []
    dft = lintest._dft

    def counted(x, q, d, sign):
        calls.append((sign, x.reshape(-1, q**d).shape[0]))
        return dft(x, q, d, sign)

    monkeypatch.setattr(lintest, "_dft", counted)
    return calls


class TestKeptRows:
    # the five lintest-tables points and (101,2,1), past DFT_BLOCK, with
    # l <= d; then l > d, where coordinate characters are multiples c != 1
    # of their lines' representatives, or zero
    SMALL_L = [(3, 6, 2), (2, 10, 1), (11, 3, 2), (5, 5, 1), (7, 3, 2), (101, 2, 1)]

    def tables(self, q, d, l):
        r = rngmod.stream(q * 1000 + d * 10 + l, "kept")
        return [noisy_linear_table(r, q, d, l), random_scalar_respecting_table(r, q, d, l)]

    def wide_tables(self):
        # at (101,2) the 102 lines take 17 blocks of DFT rows
        f = spanned_table(rngmod.stream(4, "kept-wide"), 5, 2, 4, 2, arbitrary=False)
        g = spanned_table(rngmod.stream(3, "kept-blocks"), 101, 2, 4, 2, arbitrary=False)
        return [with_columns(f, [None, 0, 1, None, 2, 3]), gamma_table(0, 3, 2, 128),
                with_columns(g, [None, 0, 1, 2, 3])]

    def check(self, f, delta, monkeypatch):
        """f's kept rows against a transform, and its decoded lists and
        pieced function against the same calls with no rows kept."""
        pass_probability(f)
        want = fourier_transform(FunctionTable(f.q, f.d, f.l, f.values))
        assert f._rows.shape == want.shape and not f._rows.flags.writeable
        assert np.abs(f._rows - want).max() <= 1e-12
        schedule = lambda eps, eps_i: delta
        lists = [list_decode_scalar(f.coordinate(i), delta) for i in range(f.l)]
        res = piece_together(f, 0, Fraction(1, 4), delta_schedule=schedule)
        sums = lintest._character_sums
        with monkeypatch.context() as m:
            m.setattr(lintest, "_character_sums", lambda g: sums(g)[:2] + (None,))
            g = FunctionTable(f.q, f.d, f.l, f.values)
            ref = piece_together(g, 0, Fraction(1, 4), delta_schedule=schedule)
            assert g._rows is None
            assert lists == [list_decode_scalar(g.coordinate(i), delta) for i in range(f.l)]
        assert res == ref
        return lists

    @pytest.mark.parametrize("q,d,l", SMALL_L)
    def test_rows_are_the_transforms_at_most_d_coordinates(self, q, d, l, monkeypatch):
        sizes = set()
        for f in self.tables(q, d, l):
            sizes.update(map(len, self.check(f, 0.5, monkeypatch)))
        assert sizes & {1, 2}

    def test_rows_are_the_transforms_past_d_coordinates(self, monkeypatch):
        for f in self.wide_tables():
            basis, coords = lintest._column_basis(f)
            leads = coords[(coords != 0).argmax(axis=0), np.arange(f.l)]
            # zero characters, and characters c rep with c != 1
            assert (leads == 0).any() and (leads > 1).any()
            assert f.is_scalar_respecting() and len(basis.T) <= f.d < f.l
            self.check(f, 0.3, monkeypatch)

    def test_coordinates_inherit_their_rows(self):
        f = self.tables(11, 3, 2)[0]
        assert f.coordinate(0)._rows is None
        pass_probability(f)
        for i in range(f.l):
            assert np.array_equal(f.coordinate(i)._rows, f._rows[i : i + 1])

    def test_no_transform_after_the_character_sums(self, monkeypatch):
        tables = self.tables(11, 3, 2) + self.wide_tables()
        for f in tables:
            pass_probability(f)
        calls = dft_calls(monkeypatch)
        for f in tables:
            for i in range(f.l):
                list_decode_scalar(f.coordinate(i), 0.5)
            piece_together(f, 0, Fraction(1, 4), delta_schedule=lambda eps, eps_i: 0.5)
        assert calls == []

    def test_tables_without_a_character_pass_transform(self, monkeypatch):
        r = rngmod.stream(9, "kept-none")
        # values spanning three dimensions of F_5^2: pair enumeration
        high = random_scalar_respecting_table(r, 5, 2, 3)
        assert lintest._column_basis(high) is None
        # Monte Carlo counts only, and a table with no count at all
        sampled, fresh = noisy_linear_table(r, 7, 2, 1), noisy_linear_table(r, 7, 2, 1)
        estimate_pass_probability(sampled, 200, r)
        # not scalar respecting: sign pairs, whose scalar coordinate decodes alone
        mixed = FunctionTable(5, 2, 2, np.hstack([high.values[:, :1], arbitrary_table(r, 5, 2, 1).values]))
        for f in (high, mixed):
            pass_probability(f)
        assert not mixed.is_scalar_respecting()
        calls = dft_calls(monkeypatch)
        for f, decode in ((high, lambda f: piece_together(f, 0, Fraction(1, 4))),
                          (sampled, lambda f: list_decode_scalar(f, 0.5)),
                          (fresh, lambda f: list_decode_scalar(f, 0.5)),
                          (mixed.coordinate(0), lambda f: list_decode_scalar(f, 0.5))):
            calls.clear()
            assert f._rows is None
            decode(f)
            assert calls == [(-1, f.l)]  # one forward transform of every coordinate


class TestBudgets:
    @pytest.mark.parametrize("q,d", [(509, 2), (61, 3)])
    def test_large_primes_exact_under_defaults(self, q, d):
        n = q**d
        r = rngmod.stream(q * 10 + d, "budgets-large")
        values = corrupted_linear_values(r, q, d, 0.1)
        f = FunctionTable(q, d, 1, values)
        p = pass_probability(f)
        # a fresh table, so that piecing counts the accepted pairs itself; a
        # threshold of 0.25 keeps the decoded list to the planted function
        res = piece_together(FunctionTable(q, d, 1, values), 0.5, Fraction(1, 4),
                             delta_schedule=lambda eps, eps_i: 1.0)
        rows = [0, 1, q - 1] + r.sample(range(n), 12)
        deg, _ = accepted_degrees(f)
        assert deg[rows].tolist() == row_degrees(f, rows)
        assert p == res.pass_probability == Fraction(int(deg.sum()), n * n)
        assert res.coordinate_pass == (p,)
        # the one member is the function pieced, and kappa * l < 1: the
        # agreement is the share of variables where the table is that function
        var = np.flatnonzero(deg)
        assert res.ok and list_decode_scalar(f, 1.0) == (res.fn,)
        same = (FunctionTable.from_linear(res.fn).values[var] == f.values[var]).all(axis=1)
        assert res.agreement == Fraction(int(same.sum()), var.size)

    def test_large_prime_pieced_under_the_default_schedule(self):
        # the (509,2) table above, with the analysis' threshold eps^11 * eps_i:
        # a list of 1,450 members, and the anchor's match is the planted map
        q, d = 509, 2
        # corrupted_linear_values draws the planted rho first
        planted = rngmod.stream(q * 10 + d, "budgets-large")
        rho = tuple(planted.randrange(q) for _ in range(d))
        values = corrupted_linear_values(rngmod.stream(q * 10 + d, "budgets-large"), q, d, 0.1)
        f = FunctionTable(q, d, 1, values)
        res = piece_together(f, 0.5, Fraction(1, 4))
        assert res.ok and res.fn == linear_scalar(q, rho)
        assert res.agreement == Fraction(229109, 259081)
        deltas = (lintest.default_delta_schedule(float(res.pass_probability), float(res.coordinate_pass[0])),)
        assert lintest._list_decode(f, deltas)[0].size == 1450

    def test_high_rank_table_past_the_pair_budget_refused(self):
        # three coordinates spanning three dimensions over F_67^2: enumeration
        f = arbitrary_table(rngmod.stream(67, "pair-gate"), 67, 2, 3)
        n = f.size
        assert lintest._column_basis(f) is None
        with pytest.raises(BudgetExceeded) as exc:
            accepted_degrees(f)
        assert exc.value.what == "pair enumeration" and exc.value.required == n * n
        assert exc.value.budget == lintest.PAIR_BUDGET

    def test_scalar_table_past_the_character_budget_refused(self):
        # 993 lines through the origin of F_31^3, one DFT pair each
        f = random_scalar_respecting_table(rngmod.stream(31, "char-gate"), 31, 3, 3)
        with pytest.raises(BudgetExceeded) as exc:
            pass_probability(f)
        assert exc.value.what == "character sums"
        assert exc.value.required == len(lintest._lines(31, 3)) * f.size
        assert exc.value.budget == lintest.CHARACTER_BUDGET


class TestDft:
    # blocks of 2^6, 3^3, 5^2 and 7^2 points with a shorter last pass, single
    # digits from q = 11 to 61, and one FFT per digit past DFT_BLOCK
    @pytest.mark.parametrize(
        "q,d", [(2, 10), (3, 6), (5, 5), (7, 3), (11, 3), (31, 3), (67, 2), (211, 2)]
    )
    def test_matches_numpy_fftn(self, q, d):
        r = np.random.default_rng(q * 100 + d)
        x = r.standard_normal((3, q**d)) + 1j * r.standard_normal((3, q**d))
        grid, axes = x.reshape((3,) + (q,) * d), tuple(range(1, d + 1))
        forward = np.fft.fftn(grid, axes=axes).reshape(x.shape)
        inverse = np.fft.ifftn(grid, axes=axes).reshape(x.shape) * q**d
        assert np.allclose(lintest._dft(x, q, d, -1), forward, rtol=0, atol=1e-9)
        assert np.allclose(lintest._dft(x, q, d, 1), inverse, rtol=0, atol=1e-9)
        # one row alone, and real rows
        assert np.allclose(lintest._dft(x[1], q, d, -1), forward[1], rtol=0, atol=1e-9)
        real = np.fft.ifftn(x.real.reshape(grid.shape), axes=axes).reshape(x.shape) * q**d
        assert np.allclose(lintest._dft(x.real, q, d, 1), real, rtol=0, atol=1e-9)


class TestFourier:
    def test_character_transform_is_delta(self):
        fn = linear_scalar(5, (2, 3))
        ft = fourier_transform(FunctionTable.from_linear(fn))[0]
        assert abs(ft[rank_tuple(5, (2, 3))] - 1) < 1e-12
        for rho in itertools.product(range(5), repeat=2):
            if rho != (2, 3):
                assert abs(ft[rank_tuple(5, rho)]) < 1e-12

    def test_zero_function(self):
        f = FunctionTable(3, 2, 1, [[0]] * 9)
        ft = fourier_transform(f)[0]
        assert abs(ft[0] - 1) < 1e-12

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
    def test_root_of_unity_geometric_sums(self, q):
        for j in range(1, q):
            z = np.exp(2j * np.pi * j / q)
            assert abs(sum(z**i for i in range(q))) < 1e-12
        assert abs(sum(1**i for i in range(q)) - q) < 1e-12

    @pytest.mark.parametrize("q,d", [(2, 1), (3, 2), (5, 2), (7, 1), (11, 2), (13, 2)])
    def test_inversion_reproduces_table(self, q, d):
        f = random_scalar_respecting_table(rngmod.stream(q * 100 + d, "inv"), q, d)
        ft = fourier_transform(f)[0]
        phases = np.exp(2j * np.pi * f.values[:, 0] / q)
        synthesized = np.fft.ifftn(ft.reshape((q,) * d) * q**d).reshape(-1)
        assert np.max(np.abs(synthesized - phases)) < TOL

    def test_scalar_respecting_coefficients_are_real(self):
        f = random_scalar_respecting_table(rngmod.stream(17, "re"), 7, 2)
        fourier_transform(f)  # raises if any imaginary part > tol

    @pytest.mark.parametrize("q,d,l", [(3, 2, 4), (7, 2, 3), (67, 1, 2)])
    def test_rows_are_the_coordinates_transforms(self, q, d, l):
        f = random_scalar_respecting_table(rngmod.stream(q * d * l, "ft-rows"), q, d, l)
        rows = fourier_transform(f)
        assert rows.shape == (l, q**d) and rows.dtype == np.float64
        for i in range(l):
            assert np.abs(rows[i] - fourier_transform(f.coordinate(i))[0]).max() <= 1e-12

    def test_kept_rows_are_returned_as_they_are(self, monkeypatch):
        f = random_scalar_respecting_table(rngmod.stream(5, "ft-kept"), 5, 2, 2)
        pass_probability(f)
        calls = dft_calls(monkeypatch)
        rows = fourier_transform(f)
        assert calls == [] and np.shares_memory(rows, f._rows)
        assert np.array_equal(rows, f._rows.real)

    def test_parseval_failure_is_refused(self):
        f = random_scalar_respecting_table(rngmod.stream(6, "ft-parseval"), 5, 2, 2)
        pass_probability(f)
        rows = f._rows.copy()
        rows[1] *= 1 + 1e-8
        f._rows = rows
        with pytest.raises(PropertyViolation, match="Parseval check failed"):
            fourier_transform(f)

    def test_table_that_does_not_respect_scalars_is_refused(self):
        # its coefficients are not all real, and nothing else checks the table first
        f = arbitrary_table(rngmod.stream(7, "ft-imag"), 5, 2, 1)
        assert not f.is_scalar_respecting()
        with pytest.raises(PropertyViolation, match="imaginary part"):
            fourier_transform(f)


def all_scalar_respecting_tables(q, d):
    """Every scalar-respecting table as one (count, q^d) value matrix."""
    reps = line_representatives(q, d)
    n = q**d
    count = q ** len(reps)
    vals = np.zeros((count, n), dtype=np.int64)
    choices = np.array(list(itertools.product(range(q), repeat=len(reps))), dtype=np.int64)
    for j, rep in enumerate(reps):
        for c in range(1, q):
            vals[:, rank_tuple(q, tuple(e * c % q for e in rep))] = choices[:, j] * c % q
    return vals


class TestAgreementIdentity:
    def test_agreement_with_itself(self):
        fn = linear_scalar(5, (1, 4))
        assert agreement(FunctionTable.from_linear(fn), fn) == 1

    def test_distinct_characters_agree_exactly_one_in_q(self):
        f = FunctionTable.from_linear(linear_scalar(3, (2,)))
        assert agreement(f, linear_scalar(3, (1,))) == Fraction(1, 3)

    @pytest.mark.parametrize("q,d", [(3, 2), (5, 2), (11, 2), (5, 1)])
    def test_suite_agreement_table_matches_reference(self, q, d):
        # the lintest suite's one agreement table, in coefficient-vector rank
        # order, against the point-by-point reference on random and
        # corrupted tables
        for i in range(2):
            r = rngmod.stream(i, f"agreements/{q}/{d}")
            for f in (random_scalar_respecting_table(r, q, d),
                      experiments._corrupted_linear_table(r, q, d, corrupt_lines=0.3)):
                want = [agreement(f, linear_scalar(q, rho))
                        for rho in itertools.product(range(q), repeat=d)]
                assert [Fraction(c, f.size) for c in experiments._agreements(f).tolist()] == want

    def test_identity_at_full_agreement(self):
        q = 7
        assert 1 == Fraction(1, q) + Fraction(q - 1, q) * 1

    @pytest.mark.parametrize("q,d", [(3, 1), (3, 2), (5, 1), (5, 2)])
    def test_identity_for_all_scalar_respecting_tables(self, q, d):
        # Pr[f = character(rho)] = 1/q + (q-1)/q * coeff(rho), for every
        # scalar-respecting f and every rho, checked exhaustively
        vals = all_scalar_respecting_tables(q, d)
        n = q**d
        from gapclique.lintest import _domain

        digits, _ = _domain(q, d)
        chars = digits @ digits.T % q  # [rho_rank, alpha_rank]
        phases = np.exp(2j * np.pi * vals / q)
        dft = np.exp(-2j * np.pi * chars / q)
        coeffs = phases @ dft.T / n  # [table, rho]
        assert np.max(np.abs(coeffs.imag)) < TOL
        agree = (vals[:, None, :] == chars[None, :, :]).mean(axis=2)
        rhs = 1 / q + (q - 1) / q * coeffs.real
        assert np.max(np.abs(agree - rhs)) < TOL


class TestTripleCorrelation:
    def test_same_character_correlates_fully(self):
        f = FunctionTable.from_linear(linear_scalar(3, (1, 2)))
        rep = triple_correlation_check(f, f, f)
        assert rep.lhs == 1
        assert abs(rep.rhs - 1) < TOL

    def test_identity_exact_for_all_triples_q3_d1(self):
        # at d=1 every scalar-respecting table is a character; enumerate all
        tables = [FunctionTable.from_linear(linear_scalar(3, (r,))) for r in range(3)]
        for g1, g2, g3 in itertools.product(tables, repeat=3):
            rep = triple_correlation_check(g1, g2, g3)
            assert rep.abs_diff < TOL

    def test_identity_on_random_tables_q3_d2(self):
        for i in range(50):
            r = rngmod.stream(i, "triple")
            g1 = random_scalar_respecting_table(r, 3, 2)
            g2 = random_scalar_respecting_table(r, 3, 2)
            g3 = random_scalar_respecting_table(r, 3, 2)
            rep = triple_correlation_check(g1, g2, g3)
            assert rep.abs_diff < TOL

    def test_large_correlation_forces_large_coefficient(self):
        # with g2 = g3 linear, coefficient mass of g2 is 1, so the largest
        # coefficient of g1 must reach (lhs - 1/q) * q / (q-1)
        q = 5
        lin = FunctionTable.from_linear(linear_scalar(q, (2, 1)))
        g1 = corrupt_lines(
            FunctionTable.from_linear(linear_scalar(q, (2, 1))),
            [(rep, 3) for rep in line_representatives(q, 2)[:2]],
        )
        rep = triple_correlation_check(g1, lin, lin)
        lower = (float(rep.lhs) - 1 / q) * q / (q - 1)
        assert fourier_transform(g1)[0].max() >= lower - TOL


class TestListDecode:
    def test_exact_linear_decodes_to_itself(self):
        fn = linear_scalar(7, (4, 2))
        got = list_decode_scalar(FunctionTable.from_linear(fn), 0.5)
        assert [c.rho for c in got] == [(4, 2)]

    def test_random_tables_decode_empty(self):
        empty = 0
        for i in range(100):
            f = random_scalar_respecting_table(rngmod.stream(1000 + i, "rd"), 101, 2)
            if not list_decode_scalar(f, 0.5):
                empty += 1
        assert empty >= 99

    def test_point_six_agreement_is_recovered(self):
        q, d = 11, 2
        fn = linear_scalar(q, (3, 7))
        reps = line_representatives(q, d)
        # corrupt 4 of 12 lines: agreement stays >= 0.6
        f = corrupt_lines(
            FunctionTable.from_linear(fn), [(rep, (i + 5) % q) for i, rep in enumerate(reps[:4])]
        )
        assert agreement(f, fn) >= Fraction(3, 5)
        got = list_decode_scalar(f, 0.25)
        assert fn.rho in {c.rho for c in got}

    @pytest.mark.parametrize("q,d", [(3, 3), (5, 2), (11, 2)])
    def test_list_is_the_agreement_filter_in_rank_order(self, q, d):
        # every coefficient vector whose agreement clears the threshold, in
        # lexicographic (rank) order, for tables with lists of several members
        delta = 0.1
        thr = Fraction(1, q) + Fraction(q - 1, q) * Fraction(0.25 * delta)
        sizes = set()
        for i in range(10):
            f = random_scalar_respecting_table(rngmod.stream(q * d + i, "order"), q, d)
            want = [rho for rho in itertools.product(range(q), repeat=d)
                    if agreement(f, linear_scalar(q, rho)) >= thr]
            assert [c.rho for c in list_decode_scalar(f, delta)] == want
            sizes.add(len(want))
        assert max(sizes) > 1

    def test_members_equal_checked_constructions(self):
        # members are built from digit-table rows without the constructor's check
        f = random_scalar_respecting_table(rngmod.stream(7, "members"), 5, 2)
        got = list_decode_scalar(f, 0.1)
        checked = tuple(linear_scalar(5, c.rho) for c in got)
        assert len(got) > 1 and got == checked
        assert list(map(hash, got)) == list(map(hash, checked)) and repr(got) == repr(checked)
        assert all(type(c.rho) is tuple and all(type(x) is int for x in c.rho) for c in got)
        # each member's matrix is its own read-only row, as the constructor's is
        assert all(c.matrix.tolist() == [list(c.rho)] and c.matrix.dtype == np.int64
                   and not c.matrix.flags.writeable for c in got)

    def test_list_size_respects_parseval_cap(self):
        f = random_scalar_respecting_table(rngmod.stream(2, "cap"), 5, 2)
        delta = 0.3
        got = list_decode_scalar(f, delta)
        assert len(got) <= 1 / (0.25 * delta) ** 2

    def test_non_scalar_respecting_rejected(self):
        f = FunctionTable(5, 1, 1, [[0], [1], [2], [3], [3]])
        assert not f.is_scalar_respecting()
        with pytest.raises(ContractViolation):
            list_decode_scalar(f, 0.5)

    @pytest.mark.parametrize("delta", [0.0, -0.5, math.nan, math.inf, -math.inf])
    def test_delta_must_be_finite_and_positive(self, delta):
        # NaN compares false both ways, so a bare `<= 0` test lets it through
        f = FunctionTable.from_linear(LinearVecFn(5, 2, ((1, 2), (3, 4))))
        with pytest.raises(ContractViolation, match="finite and positive"):
            list_decode_scalar(f.coordinate(0), delta)
        with pytest.raises(ContractViolation, match="finite and positive"):
            piece_together(f, 0.5, Fraction(1, 4), delta_schedule=lambda e, ei: delta)

    @pytest.mark.parametrize("spoil", [lambda row: row * (1 + 1e-8), lambda row: row + 1e-6j])
    def test_each_coordinate_of_the_batch_is_checked(self, spoil, monkeypatch):
        # a Parseval or an imaginary-part failure on the last coordinate
        # alone: in the rows the character sums kept, and in the one
        # transform of a table whose three coordinates span three dimensions
        # over F_5^2, so that its pair counts take no transform
        f = FunctionTable.from_linear(LinearVecFn(5, 2, ((1, 2), (3, 4), (0, 1))))
        assert piece_together(f, 0.5, Fraction(1, 4)).ok
        rows = f._rows.copy()
        rows[-1] = spoil(rows[-1])
        f._rows = rows
        with pytest.raises(PropertyViolation):
            piece_together(f, 0.5, Fraction(1, 4))
        g = random_scalar_respecting_table(rngmod.stream(5, "spoil"), 5, 2, 3)
        assert lintest._column_basis(g) is None
        piece_together(FunctionTable(5, 2, 3, g.values), 0, Fraction(1, 4))
        dft = lintest._dft

        def spoiled(x, q, d, sign):
            out = dft(x, q, d, sign)
            if sign < 0:
                out[-1] = spoil(out[-1])
            return out

        monkeypatch.setattr(lintest, "_dft", spoiled)
        with pytest.raises(PropertyViolation):
            piece_together(g, 0, Fraction(1, 4))

    def test_coordinates_keep_a_known_scalar_flag(self, monkeypatch):
        calls = []
        closure = lintest._scalar_closure
        monkeypatch.setattr(lintest, "_scalar_closure", lambda *a: calls.append(a) or closure(*a))
        r = rngmod.stream(6, "coordinate-flag")
        f = random_scalar_respecting_table(r, 5, 2, 3)
        calls.clear()
        for i in range(f.l):
            list_decode_scalar(f.coordinate(i), 0.5)
        assert calls == []
        # a table not known to be scalar respecting, with one scalar
        # coordinate: each coordinate is checked on its own
        g = FunctionTable(5, 2, 2, np.hstack([f.values[:, :1], arbitrary_table(r, 5, 2, 1).values]))
        assert not g.is_scalar_respecting()
        calls.clear()
        assert g.coordinate(0).is_scalar_respecting() and len(calls) == 1
        assert not g.coordinate(1).is_scalar_respecting() and len(calls) == 2

    @pytest.mark.parametrize("q,d,delta", [(3, 2, 0.25), (5, 2, 0.1), (11, 2, 0.5)])
    def test_oracle_equivalence_spot(self, q, d, delta):
        f = random_scalar_respecting_table(rngmod.stream(q + d, "oe"), q, d)
        got = {c.rho for c in list_decode_scalar(f, delta)}
        thr = Fraction(1, q) + Fraction(q - 1, q) * Fraction(0.25 * delta)
        want = {
            rho
            for rho in itertools.product(range(q), repeat=d)
            if agreement(f, linear_scalar(q, rho)) >= thr
        }
        assert got == want


@pytest.mark.parametrize("q,d,l", [(2, 1, 1), (2, 5, 3), (3, 4, 2), (5, 3, 1), (7, 2, 2), (101, 2, 1)])
def test_random_table_matches_line_by_line_draws(q, d, l):
    # the reference fills one line at a time, drawing l values per line
    # representative in order; the tables and the rng state after must agree
    ref_rng, rng = rngmod.stream(q * d + l, "rt"), rngmod.stream(q * d + l, "rt")
    zero = FunctionTable(q, d, l, np.zeros((q**d, l), dtype=np.int64))
    draws = [(rep, [ref_rng.randrange(q) for _ in range(l)]) for rep in line_representatives(q, d)]
    expected = corrupt_lines(zero, draws)
    table = random_scalar_respecting_table(rng, q, d, l)
    assert table.values.tobytes() == expected.values.tobytes()
    assert rng.random() == ref_rng.random()


class TestPieceTogether:
    def test_exactly_linear_vector_function(self):
        fn = LinearVecFn(5, 2, ((1, 2), (3, 4), (0, 1)))
        res = piece_together(FunctionTable.from_linear(fn), Fraction(1, 2), Fraction(1, 4))
        assert res.ok and res.fn == fn and res.agreement == 1
        assert res.pass_probability == 1

    def test_noisy_linear_recovered_against_brute_force(self):
        # corrupt 2 of 12 lines of a linear vector function; the pieced
        # function must equal both the original and the per-coordinate
        # brute-force argmax over every candidate coefficient vector
        q, d, l = 11, 2, 4
        r = rngmod.stream(123, "noise")
        c0 = LinearVecFn(q, d, tuple(tuple(r.randrange(q) for _ in range(d)) for _ in range(l)))
        reps = line_representatives(q, d)
        f = corrupt_lines(
            FunctionTable.from_linear(c0),
            [(reps[2], [r.randrange(q) for _ in range(l)]),
             (reps[9], [r.randrange(q) for _ in range(l)])],
        )
        res = piece_together(f, 0.5, Fraction(1, 4), delta_schedule=lambda e, ei: 1.0)
        assert res.ok and res.fn == c0
        for i in range(l):
            fi = f.coordinate(i)
            best = max(
                itertools.product(range(q), repeat=d),
                key=lambda rho: (agreement(fi, linear_scalar(q, rho)), rho),
            )
            assert best == c0.rhos[i]
        # measured agreement satisfies the piecing guarantee
        eps = float(res.pass_probability)
        assert float(res.agreement) >= eps * eps / 3

    @pytest.mark.parametrize("q,d,l", [(3, 4, 128), (11, 2, 3)])
    def test_lists_match_one_coordinate_at_a_time(self, q, d, l):
        f = random_scalar_respecting_table(rngmod.stream(q * d * l, "batch"), q, d, l)
        lists = tuple(decoded_fns(q, d, ranks) for ranks in decoded_lists(f, (0.3,) * l))
        assert lists == tuple(list_decode_scalar(f.coordinate(i), 0.3) for i in range(l))

    @pytest.mark.parametrize("block", [1, 7, lintest.PAIR_BLOCK])
    @pytest.mark.parametrize("q,d,l", [(3, 4, 128), (11, 2, 3)])
    def test_labels_match_one_member_at_a_time(self, q, d, l, block, monkeypatch):
        # a point's label in the reference is the 1-based index of the one
        # list member that matches the table there, 0 when none or several
        # do; piecing decides as the reference does from every point's label
        monkeypatch.setattr(lintest, "PAIR_BLOCK", block)
        f = random_scalar_respecting_table(rngmod.stream(q * d * l, "labels"), q, d, l)
        schedule = lambda e, ei: 0.5
        lists = decoded_lists(f, (0.5,) * l)
        points = list(itertools.product(range(q), repeat=d))
        want = np.zeros((q**d, l), dtype=np.int64)
        for i, ranks in enumerate(lists):
            fns = decoded_fns(q, d, ranks)
            for r, p in enumerate(points):
                hits = [t for t, c in enumerate(fns) if eval_linear(c, p) == f.values[r, i]]
                want[r, i] = hits[0] + 1 if len(hits) == 1 else 0
        assert max(map(len, lists)) > 1
        assert (per_coordinate_matches(f, lists) == want).all() and want.any()
        res = piece_together(f, 0, Fraction(1, 4), delta_schedule=schedule)
        assert outcome(res) == per_point_piecing(f, 0, Fraction(1, 4), schedule)

    @pytest.mark.parametrize("block", [1, 7, lintest.PAIR_BLOCK])
    def test_one_pass_matches_the_per_coordinate_loop(self, block, monkeypatch):
        # linear coordinates decode to one member, random ones to none at a
        # high threshold and to several at a low one; two members of a list
        # agree on a hyperplane, where the label is 0
        monkeypatch.setattr(lintest, "PAIR_BLOCK", block)
        seen = set()
        for q, d, l in ((5, 2, 6), (3, 3, 9), (7, 2, 4)):
            r = rngmod.stream(q * d * l, "one-pass")
            linear = FunctionTable.from_linear(
                LinearVecFn(q, d, tuple(tuple(r.randrange(q) for _ in range(d)) for _ in range(l)))
            )
            noise = random_scalar_respecting_table(r, q, d, l)
            vals = np.where(np.arange(l) % 3 == 0, linear.values, noise.values)
            for delta in (0.2, 0.5, 4.0):
                f = FunctionTable(q, d, l, vals)
                schedule = lambda e, ei: delta
                res = piece_together(f, 0, Fraction(1, 4), delta_schedule=schedule)
                assert outcome(res) == per_point_piecing(f, 0, Fraction(1, 4), schedule)
                lists = decoded_lists(f, (delta,) * l)
                sizes = {ranks.size for ranks in lists}
                seen.update(("empty" if not s else "one" if s == 1 else "several") for s in sizes)
                points = np.array(list(itertools.product(range(q), repeat=d)))
                for i, ranks in enumerate(lists):
                    hits = (points @ points[ranks].T % q == f.values[:, i, None]).sum(axis=1)
                    if (hits > 1).any():
                        seen.add("tie")
        assert seen == {"empty", "one", "several", "tie"}

    # (q, d, l) over the primes 2 to 61, the extract workload's (3,4,128)
    # included; at 13, 31 and 61 the default schedule is one of the thresholds
    PER_POINT_SHAPES = [(2, 1, 1), (2, 4, 3), (2, 6, 2), (3, 2, 1), (3, 4, 128), (3, 6, 1), (5, 2, 4),
                        (5, 3, 2), (7, 2, 3), (7, 3, 1), (11, 2, 2), (13, 2, 1), (31, 2, 1), (61, 2, 1)]

    @pytest.mark.parametrize("block", [1, 7, lintest.PAIR_BLOCK])
    def test_representatives_decide_as_every_point_does(self, block, monkeypatch):
        # piecing labels the origin and each line's representative; the
        # reference labels every point.  Random scalar tables and linear
        # tables with 5% to 40% of their lines re-drawn, at five thresholds
        # and the default schedule, three eps and three kappa
        monkeypatch.setattr(lintest, "PAIR_BLOCK", block)
        r = rngmod.stream(block, "per-point")
        shapes = self.PER_POINT_SHAPES
        deltas = (0.1, 0.3, 0.6, 1.0, 4.0)
        seen = set()
        for t in range(210):
            q, d, l = shapes[t % len(shapes)]
            share = (0.05, 0.2, 0.4, None)[t // len(shapes) % 4]
            f = (random_scalar_respecting_table(r, q, d, l) if share is None
                 else noisy_linear_table(r, q, d, l, share))
            eps, kappa = r.choice((0, 0.1, 0.5)), r.choice((Fraction(0), Fraction(1, 4), Fraction(1, 2)))
            delta = r.choice(deltas + ((None,) if q > 11 else ()))
            schedule = lintest.default_delta_schedule if delta is None else lambda e, ei: delta
            got = outcome(piece_together(f, eps, kappa, delta_schedule=schedule))
            assert got == per_point_piecing(f, eps, kappa, schedule), (q, d, l, share, eps, kappa, delta)
            seen.add("ok" if got[0] else "no_anchor" if got[3] == "no_anchor" else "refused")
            if got[3] == "no_anchor" or got[0]:
                lists = decoded_lists(f, tuple(schedule(float(got[4]), float(p)) for p in got[5]))
                seen.update("empty" if not m.size else "one" if m.size == 1 else "several" for m in lists)
                # two members matching at a point past the origin: a label 0 there
                points = lintest._domain(q, d)[0]
                for i, m in enumerate(lists):
                    hits = (points[1:] @ points[m].T % q == f.values[1:, i, None]).sum(axis=1)
                    if (hits > 1).any():
                        seen.add("tie")
        assert seen == {"empty", "one", "several", "tie", "ok", "no_anchor", "refused"}

    def test_agreement_counts_mismatches_against_kappa_times_l(self):
        # three lines wrong on 1, 2 and 3 of the 4 coordinates; kappa * l
        # integral (0, 1, 2, 4) and not (1.2, 3.5)
        q, d, l = 11, 2, 4
        c0 = LinearVecFn(q, d, ((1, 2), (3, 4), (5, 6), (7, 8)))
        reps = line_representatives(q, d)
        value = lambda p: [sum(r * a for r, a in zip(rho, p)) % q for rho in c0.rhos]
        bump = lambda p, k: [(v + 1) % q if i < k else v for i, v in enumerate(value(p))]
        f = corrupt_lines(FunctionTable.from_linear(c0), [(reps[k], bump(reps[k], k)) for k in (1, 2, 3)])
        fn_vals = FunctionTable.from_linear(c0).values
        agreements = set()
        for kappa in (Fraction(0), Fraction(1, 4), Fraction(3, 10), Fraction(1, 2), Fraction(7, 8), Fraction(1)):
            res = piece_together(f, 0.3, kappa, delta_schedule=lambda e, ei: 1.0)
            assert res.ok and res.fn == c0
            var = np.flatnonzero(accepted_degrees(f)[0])
            mism = (f.values[var] != fn_vals[var]).sum(axis=1).tolist()
            assert res.agreement == Fraction(sum(m <= kappa * l for m in mism), len(var))
            agreements.add(res.agreement)
        assert len(agreements) == 4

    @pytest.mark.parametrize("kappa", [Fraction(0), Fraction(1, 8), Fraction(1, 2), Fraction(1)])
    def test_within_counts_points_at_relative_distance_kappa(self, kappa):
        # l = 8 coordinates, each point off a linear function on a random
        # share of them; a random subset of points, counted one at a time
        q, d, l = 5, 2, 8
        rng = np.random.default_rng(3)
        fn = LinearVecFn(q, d, tuple(tuple(rng.integers(q, size=d).tolist()) for _ in range(l)))
        wrong = rng.random((q**d, l)) < rng.random((q**d, 1))
        f = FunctionTable(q, d, l, (FunctionTable.from_linear(fn).values + wrong) % q)
        ranks = np.flatnonzero(rng.random(q**d) < 0.7)
        want = 0
        for r in ranks.tolist():
            p = unrank_tuple(q, d, r)
            fn_at = tuple(eval_linear(linear_scalar(q, rho), p) for rho in fn.rhos)
            want += Fraction(sum(u != v for u, v in zip(value_at(f, p), fn_at)), l) <= kappa
        assert lintest._within(f, fn, ranks, kappa) == want

    def test_low_pass_probability_refused(self):
        # refused before any list decoding, with the measured probabilities
        g = random_scalar_respecting_table(rngmod.stream(4, "low"), 5, 2)
        measured = pass_probability(g)
        res = piece_together(g, 0.99, Fraction(1, 4))
        assert not res.ok and res.fn is None and res.agreement is None
        assert res.pass_probability == measured and res.coordinate_pass == (measured,)
        assert res.failure == f"measured pass probability {measured} below threshold 0.99"

    def test_no_anchor_reported_not_raised(self):
        t = random_scalar_respecting_table(rngmod.stream(0, "na"), 5, 2, 2)
        res = piece_together(t, 0.05, Fraction(1, 4))
        assert not res.ok and res.fn is None and res.failure == "no_anchor"

    def test_agreement_bound_whenever_ok(self):
        # noisy linear tables at varying corruption; whenever piecing
        # succeeds, the measured agreement meets the eps^2 / 3 guarantee
        q, d, l = 7, 2, 3
        reps = line_representatives(q, d)
        hits = 0
        for i in range(12):
            r = rngmod.stream(i, "bnd")
            c0 = LinearVecFn(q, d, tuple(tuple(r.randrange(q) for _ in range(d)) for _ in range(l)))
            n_corrupt = i % 4
            f = corrupt_lines(
                FunctionTable.from_linear(c0),
                [(rep, [r.randrange(q) for _ in range(l)]) for rep in reps[:n_corrupt]],
            )
            res = piece_together(f, 0.2, Fraction(1, 4), delta_schedule=lambda e, ei: 1.0)
            if res.ok:
                hits += 1
                eps = float(res.pass_probability)
                assert float(res.agreement) >= eps * eps / 3
        assert hits >= 8


class TestSerialization:
    def test_round_trip(self, tmp_path):
        f = random_scalar_respecting_table(rngmod.stream(6, "ser"), 5, 2, 3)
        p = tmp_path / "table.json"
        with open(p, "w") as fh:
            json.dump(f.to_json(), fh)
        g = FunctionTable.load(p)
        assert g.q == f.q and g.d == f.d and g.l == f.l
        assert np.array_equal(g.values, f.values)

    @pytest.mark.parametrize("q", [4, 6, 9, 15])
    def test_composite_modulus_refused(self, q):
        with pytest.raises(ContractViolation, match="not prime"):
            FunctionTable(q, 1, 2, np.zeros((q, 2), dtype=np.int64))
        doc = {"version": 1, "q": q, "d": 1, "l": 1, "values": [0] * q}
        with pytest.raises(ContractViolation, match="not prime"):
            FunctionTable.from_json(doc)

    @pytest.mark.parametrize("values", [
        [[0.5], [1], [2]], [[0], [4.9], [2]], [[True], [1], [2]], [[0], [False], [2]],
        [[0], [1], [-1]], [[0], [3], [2]], [[7], [1], [2]],
        np.array([[0], [1], [3]]), np.array([[0], [-1], [2]]), np.array([[0.0], [1.0], [2.0]]),
    ])
    def test_values_are_residues_not_reduced(self, values):
        # entries must be ints (no floats or bools) in [0, 3): none is
        # truncated or reduced into range
        with pytest.raises(ContractViolation, match="residues in \\[0, 3\\)"):
            FunctionTable(3, 1, 1, values)
        if isinstance(values, list):
            doc = {"version": 1, "q": 3, "d": 1, "l": 1, "values": [v for (v,) in values]}
            with pytest.raises(ContractViolation, match="residues in \\[0, 3\\)"):
                FunctionTable.from_json(doc)

    def test_coordinates_share_the_checked_values(self):
        f = random_scalar_respecting_table(rngmod.stream(7, "coord"), 5, 2, 3)
        for i in range(3):
            c = f.coordinate(i)
            assert (c.q, c.d, c.l) == (5, 2, 1) and np.shares_memory(c.values, f.values)
            assert np.array_equal(c.values[:, 0], f.values[:, i]) and not c.values.flags.writeable
            assert np.array_equal(FunctionTable(5, 2, 1, c.values).values, c.values)

    def test_version_gate(self):
        with pytest.raises(ContractViolation):
            FunctionTable.from_json({"version": 2, "q": 3, "d": 1, "l": 1, "values": [0, 0, 0]})
