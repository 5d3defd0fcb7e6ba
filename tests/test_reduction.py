"""Reduction: schedule, codec, edge oracle, planted cliques, decoded
function, extraction, materialization, export."""

import itertools
import json
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gapclique import reduction, rng as rngmod
from gapclique.errors import BudgetExceeded, ContractViolation, PropertyViolation
from gapclique.cliquesolve import export_graph, max_clique_exact, read_dimacs, read_graph_json
from gapclique.lintest import MAX_TABLE_SIZE, pass_probability, random_scalar_respecting_table
from gapclique.randmap import LinearMapG, sample_g
from gapclique.reduction import (
    CliqueInstance,
    ReductionParams,
    Vertex,
    VertexCodec,
    _clique_values,
    as_clique,
    _pair_batches,
    build_gamma,
    extract_witness,
    floor_log2,
    is_valid_vertex,
    normalized_ratio_fn,
    param_schedule,
)
from gapclique.vecsum import generate_planted

import edge_reference as reference
from edge_reference import codec_rank, pair_rule_sets, unrank, value_relation, var_points
from field_reference import apply_map, block_inner, inner_product, sub, unrank_tuple
from graph_reference import has_edge, is_clique
from lintest_reference import value_at
from vecsum_reference import collections, from_collections, total


def make_instance(seed, q, k, m, n, l, planted=True):
    src = generate_planted(rngmod.stream(seed, "instance"), q, k, m, n)
    g = sample_g(rngmod.stream(seed, "matrices"), q, k, m, l, seed=seed)
    return CliqueInstance(ReductionParams(q=q, k=k, l=l), g, src)


def random_vertex(rng, q, k, l):
    kk = k * k
    alpha = tuple(rng.randrange(q) for _ in range(kk))
    beta = tuple(rng.randrange(q) for _ in range(kk))
    x = tuple(rng.randrange(q) for _ in range(l))
    y = x if alpha == beta else tuple(rng.randrange(q) for _ in range(l))
    return Vertex(alpha, beta, x, y)


class TestParamSchedule:
    def test_nonprime_modulus_rejected(self):
        with pytest.raises(ContractViolation):
            ReductionParams(q=6, k=1, l=1)

    def test_first_scheduled_prime(self):
        sched = param_schedule(1, 16)
        assert (sched.k, sched.n, sched.qhat, sched.l) == (1, 16, 4099, 4)
        assert sched.lam == 4099**2

    def test_identity_normalizes_to_log_term(self):
        f = normalized_ratio_fn(lambda x: x)
        for v in (2, 7, 4099**2, 1 << 60):
            assert f(v) == floor_log2(v) // 15

    def test_bound_holds_up_to_k4(self):
        for k in range(1, 5):
            sched = param_schedule(k, 16)
            assert sched.qhat > 1 << (12 * k)
            assert sched.f_prime_at_lam < sched.bound == 2 * k**3
            assert sched.lam == sched.qhat ** (2 * k * k)

    def test_normalization_makes_bound_unconditional(self):
        # the clamped ratio function satisfies the bound for any input f
        sched = param_schedule(1, 16, f=lambda x: 10**9)
        assert sched.f_prime_at_lam < sched.bound

    def test_ratio_function_errors_propagate(self):
        def bad(_):
            raise ValueError("unevaluable")

        with pytest.raises(ValueError):
            param_schedule(1, 16, f=bad)

    def test_epsilon_kappa_defaults(self):
        p = ReductionParams(q=5, k=2, l=3)
        assert abs(p.epsilon() - 5 ** (-1 / 2)) < 1e-12
        assert p.kappa() == Fraction(1, 16)


class TestVertexCodec:
    @pytest.mark.parametrize(
        "q,k,l,count",
        [(2, 1, 1, 12), (3, 1, 1, 63), (2, 1, 2, 40), (3, 1, 2, 513), (2, 2, 1, 992)],
    )
    def test_counts(self, q, k, l, count):
        assert VertexCodec(q, k, l).count == count

    @pytest.mark.parametrize("q,k,l", [(2, 1, 1), (3, 1, 1), (2, 1, 2), (2, 2, 1)])
    def test_bijection(self, q, k, l):
        codec = VertexCodec(q, k, l)
        seen = set()
        params = ReductionParams(q=q, k=k, l=l)
        for r in range(codec.count):
            v = unrank(codec, r)
            assert is_valid_vertex(v, params)
            assert codec_rank(codec, v) == r
            seen.add(v)
        assert len(seen) == codec.count

    def test_count_matches_brute_enumeration(self):
        q, k, l = 3, 1, 2
        params = ReductionParams(q=q, k=k, l=l)
        brute = sum(
            1
            for alpha in itertools.product(range(q), repeat=1)
            for beta in itertools.product(range(q), repeat=1)
            for x in itertools.product(range(q), repeat=l)
            for y in itertools.product(range(q), repeat=l)
            if is_valid_vertex(Vertex(alpha, beta, x, y), params)
        )
        assert VertexCodec(q, k, l).count == brute


class TestVertexEval:
    def test_collapse_cases_enumerated_q2(self):
        # var has exactly 1 point iff alpha = beta = 0; never 3 points at q=2
        # with alpha = beta (since alpha+beta = 0 collides or coincides)
        q, k, l = 2, 1, 1
        codec = VertexCodec(q, k, l)
        for r in range(codec.count):
            v = unrank(codec, r)
            pts = var_points(v, q)
            assert 1 <= len(pts) <= 3
            if v.alpha == v.beta == (0,):
                assert len(pts) == 1
            direct = {v.alpha, v.beta, tuple((a + b) % q for a, b in zip(v.alpha, v.beta))}
            assert set(pts) == direct

    def test_value_relation_keeps_collided_values(self):
        # beta = 0 collides the alpha and alpha+beta slots; with y != 0 the
        # vertex is internally inconsistent and the relation records both
        v = Vertex((1,), (0,), (2,), (1,))
        rel = value_relation(v, 3)
        assert rel[(1,)] == {(2,), (0,)}


class TestEdgeOracle:
    def setup_method(self):
        self.ci = make_instance(21, 3, 1, 4, 4, 2)

    def test_self_pair_triggers_rule1_not_rule2(self):
        # for internally consistent vertices the self-pair fires only rule 1
        # (rule 3 can fire for alpha on a degenerate scalar line); an
        # internally inconsistent vertex legitimately conflicts with itself
        r = rngmod.stream(0, "v")
        vertices = []
        while len(vertices) < 50:
            v = random_vertex(r, 3, 1, 2)
            if not any(len(vals) > 1 for vals in value_relation(v, 3).values()):
                vertices.append(v)
        for types in pair_rule_sets(self.ci, [(v, v) for v in vertices]):
            assert 1 in types and 2 not in types

    def test_same_cloud_not_adjacent(self):
        v = Vertex((1,), (2,), (0, 1), (1, 1))
        w = Vertex((1,), (2,), (1, 1), (0, 1))
        assert 1 in pair_rule_sets(self.ci, [(v, w)])[0]

    def test_shared_point_value_mismatch_is_rule2(self):
        v = Vertex((1,), (2,), (0, 1), (1, 1))
        w = Vertex((2,), (0,), (2, 2), (0, 0))  # shares point (2,) with value y=v(2)
        # v(2) = x + y = (1,2); w(2) = (2,2) differs
        assert 2 in pair_rule_sets(self.ci, [(v, w)])[0]

    def test_planted_pairs_have_no_types(self):
        clique = self.ci.planted_clique(self.ci.source.planted)
        pairs = [(a, b) for a, b in itertools.combinations(clique[:8], 2) if a != b]
        assert pair_rule_sets(self.ci, pairs) == [frozenset()] * len(pairs)

    def test_is_edge_symmetric_on_random_pairs(self):
        r = rngmod.stream(33, "sym")
        pairs = [(random_vertex(r, 3, 1, 2), random_vertex(r, 3, 1, 2)) for _ in range(10000)]
        pairs = [(u, v) for u, v in pairs if u != v]
        forward = pair_rule_sets(self.ci, pairs)
        backward = pair_rule_sets(self.ci, [(v, u) for u, v in pairs])
        assert forward == backward

    def test_self_edge_query_rejected(self):
        # no vertex is adjacent to itself, internally inconsistent ones too
        r = rngmod.stream(1, "v")
        vertices = [random_vertex(r, 3, 1, 2) for _ in range(200)]
        for types in pair_rule_sets(self.ci, [(v, v) for v in vertices]):
            assert 1 in types

    def test_non_edge_types_subset_of_rules(self):
        r = rngmod.stream(34, "rules")
        pairs = [(random_vertex(r, 3, 1, 2), random_vertex(r, 3, 1, 2)) for _ in range(300)]
        for types in pair_rule_sets(self.ci, pairs):
            assert types <= {1, 2, 3, 4, 5}


class TestPlantedClique:
    @pytest.mark.parametrize("q,k,l", [(3, 1, 1), (3, 1, 2), (3, 1, 4), (2, 1, 2), (2, 2, 1)])
    def test_planted_is_verified_clique(self, q, k, l):
        ci = make_instance(40 + q + k + l, q, k, 8 if q == 2 else 4, 4, l)
        clique = ci.planted_clique(ci.source.planted)
        assert len(clique) == q ** (2 * k * k)
        assert ci.verify_clique(clique) is None

    def test_non_summing_tuple_has_rule5_violation(self):
        ci = make_instance(50, 3, 2, 4, 3, 2)
        src = ci.source
        bad = None
        cols = collections(src)
        for idx in itertools.product(*(range(len(us)) for us in cols)):
            if any(total(3, [cols[i][j] for i, j in enumerate(idx)])):
                bad = idx
                break
        assert bad is not None
        t = ci.planted_clique(bad)
        violation = ci.verify_clique(t)
        assert violation is not None
        # scan for a rule-5 pair specifically
        codes = ci._encode(t)
        assert any(ci._pair_rules(codes, I, J)[:, 4].any() for I, J in _pair_batches(len(t)))

    def test_budget_refusal(self):
        # (7,3,1): 7^9 points, past the table cap; refused before the point
        # table or the 7^9-row value table is built
        ci = make_instance(51, 7, 3, 4, 3, 1)
        seconds = []
        for _ in range(5):
            start = time.perf_counter()
            with pytest.raises(BudgetExceeded) as exc:
                ci.planted_clique(ci.source.planted)
            seconds.append(time.perf_counter() - start)
        assert (exc.value.what, exc.value.required, exc.value.budget) == (
            "table size", 7**9, MAX_TABLE_SIZE)
        assert min(seconds) < 1e-3
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                ci.planted_clique(ci.source.planted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_value_budget_refusal(self):
        # (2,4,64): 2^16 points, within the table cap, times l = 64 value
        # entries (a 32 MB value table and as much again for its planted
        # rows); refused before the point table or the value table is built
        ci = make_instance(52, 2, 4, 4, 2, 64)
        seconds = []
        for _ in range(5):
            start = time.perf_counter()
            with pytest.raises(BudgetExceeded) as exc:
                ci.planted_clique(ci.source.planted)
            seconds.append(time.perf_counter() - start)
        assert (exc.value.what, exc.value.required, exc.value.budget) == (
            "planted value table entries", 2**16 * 64, reduction.PLANTED_VALUE_BUDGET)
        assert min(seconds) < 1e-3
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                ci.planted_clique(ci.source.planted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_value_budget_bounds_points_times_l(self, monkeypatch):
        # at (3,2,l), 81 points: l = 2 fills a budget of 162 entries, l = 3
        # passes it
        monkeypatch.setattr(reduction, "PLANTED_VALUE_BUDGET", 162)
        ci = make_instance(54, 3, 2, 4, 2, 2)
        assert ci.verify_clique(ci.planted_clique(ci.source.planted)) is None
        ci = make_instance(54, 3, 2, 4, 2, 3)
        with pytest.raises(BudgetExceeded, match="planted value table entries"):
            ci.planted_clique(ci.source.planted)

    @pytest.mark.parametrize("indices", [(-1,), (3,), (1.0,), (True,), (0, 0), 0])
    def test_refuses_an_index_that_names_no_vector(self, indices):
        # one collection of three vectors: only the ints 0, 1 and 2 name one
        ci = make_instance(53, 3, 1, 4, 3, 2)
        assert ci.source.sizes == (3,)
        with pytest.raises(ContractViolation, match="one index in range per collection"):
            ci.planted_clique(indices)

    @pytest.mark.parametrize("q,k,l", [(2, 1, 2), (3, 1, 2), (2, 2, 1), (3, 2, 4)])
    def test_matches_vertex_by_vertex_reference(self, q, k, l):
        ci = make_instance(52 + q + k + l, q, k, 8 if q == 2 else 4, 3, l)
        for indices in itertools.islice(
            itertools.product(*map(range, ci.source.sizes)), 3
        ):
            got = ci.planted_clique(indices)
            assert list(got) == reference.planted_clique(ci, indices)
            assert all(is_valid_vertex(v, ci.params) for v in got)


def phase1_outcome(compute):
    """The phase-1 (point, value) items in order, from the reference dict or
    from the point and value arrays, or the refusal message."""
    try:
        got = compute()
    except PropertyViolation as exc:
        return str(exc)
    if isinstance(got, dict):
        return list(got.items())
    return list(zip(*(map(tuple, t.tolist()) for t in got)))


class TestGammaPhase1:
    """Phase 1 of build_gamma against the slot-by-slot reference loop:
    the same dict in the same order, or the same refusal message."""

    def check(self, vertices, ci):
        q = ci.params.q
        want = phase1_outcome(lambda: reference.clique_values(vertices, q))
        assert phase1_outcome(lambda: _clique_values(as_clique(vertices, ci.params), q)) == want
        return want

    @pytest.mark.parametrize("q,k,l", [(2, 1, 2), (3, 1, 2), (2, 2, 1), (3, 2, 4)])
    def test_planted_cliques(self, q, k, l):
        ci = make_instance(65 + q + k + l, q, k, 8 if q == 2 else 4, 3, l)
        assert isinstance(self.check(ci.planted_clique(ci.source.planted), ci), list)

    @pytest.mark.parametrize("q,k,l", [(3, 1, 2), (5, 1, 1), (2, 2, 3)])
    def test_random_subsets_and_random_lists(self, q, k, l):
        ci = make_instance(66 + q + k + l, q, k, 8 if q == 2 else 4, 3, l)
        clique = ci.planted_clique(ci.source.planted)
        r = rngmod.stream(q + k + l, "phase1")
        outcomes = set()
        for size in (1, 2, 3, 5, 8, len(clique) // 2):
            sub = r.sample(clique, min(size, len(clique)))
            assert isinstance(self.check(sub, ci), list)
            noise = [random_vertex(r, q, k, l) for _ in range(size)]
            outcomes.add(type(self.check(noise, ci)))
            mixed = sub + noise[:1]
            outcomes.add(type(self.check(mixed, ci)))
        assert outcomes == {list, str}

    @staticmethod
    def unshared(vertices):
        """The vertices through a JSON round trip: equal tuples, none of
        them shared between vertices."""
        return [Vertex(*map(tuple, v)) for v in json.loads(json.dumps(list(vertices)))]

    @pytest.mark.parametrize("q,k,l", [(3, 1, 2), (2, 2, 1), (3, 2, 4)])
    def test_json_round_trip_shares_no_tuples(self, q, k, l):
        ci = make_instance(69 + q + k + l, q, k, 8 if q == 2 else 4, 3, l)
        clique = ci.planted_clique(ci.source.planted)
        copy = self.unshared(clique)
        assert len({id(part) for v in copy for part in v}) == 4 * len(copy)
        want = self.check(clique, ci)
        assert isinstance(want, list) and self.check(copy, ci) == want

    @pytest.mark.parametrize("q,k,l", [(3, 1, 2), (2, 2, 3)])
    def test_some_tuples_shared_and_some_not(self, q, k, l):
        ci = make_instance(70 + q + k + l, q, k, 8 if q == 2 else 4, 3, l)
        clique = ci.planted_clique(ci.source.planted)
        r = rngmod.stream(q + k + l, "partly-shared")
        mixed = [self.unshared([v])[0] if r.random() < 0.5 else v for v in clique]
        r.shuffle(mixed)
        assert isinstance(self.check(mixed, ci), list)
        # one corrupted vertex among shared and unshared ones
        bad = mixed[len(mixed) // 2]
        x = tuple((e + 1) % q for e in bad.x)
        mixed[len(mixed) // 2] = bad._replace(x=x, y=x if bad.alpha == bad.beta else bad.y)
        assert "conflicting clique values" in self.check(mixed, ci)

    @pytest.mark.parametrize("q,k,l", [(3, 1, 2), (2, 2, 1), (3, 2, 4)])
    def test_conflict_in_the_last_vertex(self, q, k, l):
        # the last vertex of the list is on the diagonal; new values there
        # contradict the values its point got from earlier vertices
        ci = make_instance(71 + q + k + l, q, k, 8 if q == 2 else 4, 3, l)
        clique = ci.planted_clique(ci.source.planted)
        last = max(clique)
        assert last.alpha == last.beta
        x = tuple((e + 1) % q for e in last.x)
        vertices = [v for v in clique if v != last] + [last._replace(x=x, y=x)]
        message = self.check(vertices, ci)
        assert message == f"conflicting clique values at point {last.alpha}: {last.x} vs {x}"
        # reversed, the first conflicting slot is another one
        assert "conflicting clique values" in self.check(self.unshared(vertices)[::-1], ci)

    def test_internally_inconsistent_vertex(self):
        # beta = 0 collides the alpha and alpha + beta slots; y != 0 gives
        # them different values, alone or among consistent vertices
        ci = make_instance(67, 3, 1, 4, 4, 2)
        bad = Vertex((1,), (0,), (2, 0), (1, 1))
        clique = ci.planted_clique(ci.source.planted)
        for vertices in ([bad], clique[:4] + [bad], [bad] + list(clique)):
            assert "conflicting clique values at point (1,)" in self.check(vertices, ci)
            with pytest.raises(PropertyViolation, match="conflicting clique values"):
                build_gamma(vertices, ci, rng=rngmod.stream(67, "gamma-fill"), verify=False)

    def test_cross_vertex_conflict_without_verification(self):
        # the conflict is named in list order: the value its point got first,
        # then the value of the first slot that differs
        ci = make_instance(68, 3, 1, 4, 4, 2)
        v = Vertex((1,), (2,), (0, 1), (1, 1))
        w = Vertex((2,), (0,), (2, 2), (0, 0))  # point (2,): y = (1, 1) against x = (2, 2)
        for vertices, values in (([v, w], "(1, 1) vs (2, 2)"), ([w, v], "(2, 2) vs (1, 1)"),
                                 ([v, v, w, w], "(1, 1) vs (2, 2)")):
            message = self.check(vertices, ci)
            assert message == f"conflicting clique values at point (2,): {values}"
            with pytest.raises(PropertyViolation) as exc:
                build_gamma(vertices, ci, rng=rngmod.stream(68, "gamma-fill"), verify=False)
            assert str(exc.value) == message


class TestGamma:
    def test_planted_gamma_matches_image_sums(self):
        ci = make_instance(60, 3, 1, 4, 4, 2)
        clique = ci.planted_clique(ci.source.planted)
        gamma = build_gamma(clique, ci, rng=rngmod.stream(60, "gamma-fill"))
        u = collections(ci.source)[0][ci.source.planted[0]]
        img = apply_map(ci.gmap, u)
        for r in gamma.var_points.tolist():
            p = unrank_tuple(3, 1, r)
            assert value_at(gamma.table, p) == block_inner(3, p, img)

    def test_gamma_scalar_respecting(self):
        ci = make_instance(61, 3, 1, 4, 4, 2)
        clique = ci.planted_clique(ci.source.planted)
        gamma = build_gamma(clique, ci, rng=rngmod.stream(61, "gamma-fill"))
        assert gamma.table.is_scalar_respecting()

    def test_pass_probability_meets_clique_density(self):
        # a sub-clique of the planted set: the decoded function still passes
        # with probability at least |T| / P^2
        ci = make_instance(62, 3, 1, 4, 4, 2)
        clique = ci.planted_clique(ci.source.planted)
        q, k = 3, 1
        for size in (1, 3, len(clique)):
            sub = clique[:size]
            gamma = build_gamma(sub, ci, rng=rngmod.stream(62, "gamma-fill"))
            assert pass_probability(gamma.table) >= Fraction(size, q ** (4 * k * k))

    def test_non_clique_refused_with_pair(self):
        ci = make_instance(63, 3, 1, 4, 4, 2)
        v = Vertex((1,), (2,), (0, 1), (1, 1))
        w = Vertex((1,), (2,), (1, 1), (0, 1))
        with pytest.raises(PropertyViolation) as exc:
            build_gamma([v, w], ci, rng=rngmod.stream(63, "gamma-fill"))
        assert "not a clique" in str(exc.value)

    def test_fill_log_covers_domain(self):
        ci = make_instance(64, 3, 1, 4, 2, 2)
        planted = ci.planted_clique(ci.source.planted)
        rng = rngmod.stream(64, "gamma-fill")
        gamma = build_gamma(planted[:2], ci, rng=rng)
        # (0, 0) and (0, 1) assign the origin and the one line's point 1: a
        # value per rank of the domain, the planted one, and no fresh draw
        assert gamma.var_points.tolist() == [0, 1]
        assert np.array_equal(gamma.table.values, planted.values)
        assert rng.getstate() == rngmod.stream(64, "gamma-fill").getstate()


class TestExtraction:
    def test_round_trip_on_planted_clique(self):
        ci = make_instance(7, 3, 1, 4, 4, 2)
        clique = ci.planted_clique(ci.source.planted)
        rep = extract_witness(clique, ci, rng=rngmod.stream(7, "gamma-fill"))
        assert rep.verdict == "witness"
        assert all(d.max_residual == 0 for d in rep.directions)
        assert rep.z_star == (0,) * 4
        chosen = [collections(ci.source)[i][idx] for i, idx in enumerate(rep.witness_indices)]
        assert total(3, chosen) == (0,) * 4
        assert rep.r_star_dense

    def test_zero_kappa_still_exact(self):
        # a separation-certified map keeps distinct source vectors apart, so
        # tightening the distance bound to zero still decodes exactly
        from gapclique.experiments import certified_map

        src = generate_planted(rngmod.stream(8, "instance"), 3, 1, 4, 4)
        gmap, _ = certified_map(8, "zerokappa", src, 4, "separation")
        ci = CliqueInstance(ReductionParams(q=3, k=1, l=4), gmap, src)
        clique = ci.planted_clique(src.planted)
        rep = extract_witness(
            clique, ci, kappa=Fraction(0), rng=rngmod.stream(8, "gamma-fill")
        )
        assert rep.verdict == "witness"
        assert all(d.max_residual == 0 for d in rep.directions)

    @pytest.mark.parametrize("q,k,l", [(3, 2, 2), (3, 2, 4)])
    def test_r_star_reads_each_point_of_the_clique(self, q, k, l):
        # at k = 1 the planted vector, and so the pieced function, is zero;
        # at k = 2 it is not, so r* must compare each clique point's own value
        ci = make_instance(14, q, k, 4, 3, l)
        clique = ci.planted_clique(ci.source.planted)
        for kappa in (Fraction(0), Fraction(1, 4)):
            rep = extract_witness(clique, ci, kappa=kappa, rng=rngmod.stream(14, "gamma-fill"),
                                  verify=False)
            assert any(map(any, rep.fn.rhos))
            gamma = build_gamma(clique, ci, rng=rngmod.stream(14, "gamma-fill"), verify=False)
            points = reference.clique_values(list(clique), q)
            mism = [sum(value_at(gamma.table, p)[j] != inner_product(q, rho, p)
                        for j, rho in enumerate(rep.fn.rhos)) for p in points]
            assert rep.r_star_size == sum(Fraction(m, l) <= kappa for m in mism)

    def test_bounds_decide_like_fractions(self):
        # kappa * l integral (kappa = 0, 1/4, ...) and not (1/8, 3/10, ...):
        # r* and the in-bound vectors are those of exact Fraction comparisons
        q, k, l = 3, 1, 4
        ci = make_instance(12, q, k, 2, 4, l)
        clique = ci.planted_clique(ci.source.planted)
        directions = list(itertools.product(range(q), repeat=k))[1:]
        outcomes = set()
        for kappa in [Fraction(j, 8) for j in range(9)] + [Fraction(3, 10), Fraction(7, 20)]:
            rep = extract_witness(clique, ci, kappa=kappa, rng=rngmod.stream(12, "gamma-fill"))
            gamma = build_gamma(clique, ci, rng=rngmod.stream(12, "gamma-fill"))
            mism = [sum(value_at(gamma.table, p)[j] != inner_product(q, rho, p)
                        for j, rho in enumerate(rep.fn.rhos))
                    for p in (unrank_tuple(q, k * k, r) for r in gamma.var_points.tolist())]
            assert rep.r_star_size == sum(Fraction(m, l) <= kappa for m in mism)
            for d in rep.directions:
                us = collections(ci.source)[d.collection]
                theta = tuple(rho[d.collection * k + c] for rho in rep.fn.rhos for c in range(k))
                for abar in directions:
                    weights = [sum(map(bool, block_inner(q, abar, sub(q, theta, apply_map(ci.gmap, u)))))
                               for u in us]
                    inside = {u for u, w in zip(us, weights) if Fraction(w, l) <= 2 * kappa}
                    assert d.residuals[abar][1] == Fraction(min(weights), l)
                    assert (abar in d.ambiguous_at) == (len(inside) >= 2)
                    assert (abar in d.out_of_bound_at) == (not inside)
            outcomes.add((rep.verdict, rep.stage))
        assert outcomes == {("witness", "complete"), ("failed", "decode")}

    def test_small_clique_refused_at_gate(self):
        ci = make_instance(9, 3, 1, 4, 4, 2)
        clique = ci.planted_clique(ci.source.planted)
        rep = extract_witness(clique[:2], ci, eps=0.9)
        assert rep.verdict == "refused" and rep.stage == "size_gate"

    def test_repeated_vertices_count_once_at_gate(self):
        # the gate of 3 at (3,1,2) counts distinct vertices, as verify_clique does
        ci = make_instance(9, 3, 1, 4, 4, 2)
        clique = ci.planted_clique(ci.source.planted)
        for vertices, size in (([clique[4]] * 9, 1), (clique[:2] * 5, 2), (clique[:3] * 3, 3)):
            rep = extract_witness(vertices, ci, rng=rngmod.stream(9, "gamma-fill"))
            assert rep.clique_size == size
            assert rep.size_threshold == 3 and (rep.stage == "size_gate") == (size < 3)

    @pytest.mark.parametrize("point", [(3, 1, 2), (2, 2, 1), (3, 2, 4)], ids=str)
    def test_gate_counts_distinct_vertices_as_a_set_does(self, point):
        # lists drawn with repeats from planted and random vertices and from
        # twins differing in y alone; a gate above every list's length
        # reports the count
        q, k, l = point
        ci = make_instance(12, q, k, 8 if q == 2 else 4, 4, l)
        planted = list(ci.planted_clique(ci.source.planted))
        r = rngmod.stream(12, "distinct")
        sizes = set()
        for _ in range(20):
            pool = r.sample(planted, r.randrange(1, 8)) + [random_vertex(r, q, k, l) for _ in range(r.randrange(4))]
            pool += [v._replace(y=tuple((e + 1) % q for e in v.y)) for v in pool[:3] if v.alpha != v.beta]
            for vertices in (pool, [r.choice(pool) for _ in range(r.randrange(1, 30))]):
                rep = extract_witness(vertices, ci, eps=2.0, verify=False)
                assert rep.stage == "size_gate" and rep.clique_size == len(set(vertices))
                sizes.add(len(vertices) - rep.clique_size)
        assert 0 in sizes and max(sizes) > 0

    def test_piecing_refusal_reported_with_pass_probability(self, monkeypatch):
        # a decoded table whose measured pass probability is below eps: the
        # report names the piecing stage and carries the measured value
        ci = make_instance(11, 2, 2, 8, 3, 1)
        table = random_scalar_respecting_table(rngmod.stream(11, "low"), 2, 4)
        measured = pass_probability(table)
        assert measured < 0.9
        gamma = reduction.GammaTable(table, np.arange(0))
        monkeypatch.setattr(reduction, "build_gamma", lambda *args, **kwargs: gamma)
        rep = extract_witness(ci.planted_clique(ci.source.planted), ci, eps=0.9)
        assert (rep.verdict, rep.stage) == ("failed", "piecing")
        assert rep.detail == f"measured pass probability {measured} below threshold 0.9"
        assert rep.pass_probability == measured and rep.fn is None

    def test_ambiguity_reported_never_guessed(self):
        # a collapsing map sends two distinct source vectors to the same
        # image; the extractor must name the ambiguity instead of choosing
        q, m, l = 3, 2, 2
        src = from_collections(
            q=q,
            k=1,
            m=m,
            collections=(((0, 0), (0, 1)),),
            planted=(0,),
        )
        gmap = LinearMapG(q=q, k=1, m=m, l=l, matrices=((1, 0),) * l)
        ci = CliqueInstance(ReductionParams(q=q, k=1, l=l), gmap, src)
        clique = ci.planted_clique((0,))
        rep = extract_witness(clique, ci, rng=rngmod.stream(10, "gamma-fill"))
        assert rep.verdict == "failed"
        assert rep.stage == "decode"
        assert "ambiguous" in rep.detail

    def test_report_serializes_exact_rationals(self):
        ci = make_instance(11, 3, 1, 4, 4, 2)
        clique = ci.planted_clique(ci.source.planted)
        rep = extract_witness(clique, ci, rng=rngmod.stream(11, "gamma-fill"))
        doc = rep.to_json()
        assert doc["verdict"] == "witness"
        for d in doc["directions"]:
            assert d["max_residual"] == "0/1"
            for _, (idx, frac) in zip(d["residuals"], d["residuals"].items()):
                num, den = frac[1].split("/")
                assert int(den) > 0
        json.dumps(doc)


class TestSoundnessDeskScale:
    @pytest.mark.parametrize("l", [2, 4])
    def test_no_instance_graphs_have_small_cliques(self, l):
        # certified NO instances + wellspread-certified maps: the exact
        # maximum clique stays strictly below the completeness target
        from gapclique.experiments import certified_no_instance

        for seed in range(3):
            inst, gmap, _, _ = certified_no_instance(
                seed, f"soundness-module/{l}/{seed}", 2, 1, 8, 4, l
            )
            ci = CliqueInstance(ReductionParams(q=2, k=1, l=l), gmap, inst)
            res = max_clique_exact(ci.materialize())
            assert res.optimal and res.size < 4


class TestMaterializeExport:
    def test_twelve_vertex_graph(self):
        ci = make_instance(70, 2, 1, 8, 4, 1)
        graph = ci.materialize()
        assert graph.n == 12
        assert all(
            has_edge(graph, u, v) == has_edge(graph, v, u) for u in range(12) for v in range(12)
        )

    def test_rematerialization_identical(self):
        ci = make_instance(71, 2, 1, 8, 4, 1)
        a = ci.materialize()
        b = ci.materialize()
        assert a.adj == b.adj

    def test_planted_graph_contains_target_clique(self):
        ci = make_instance(72, 2, 1, 8, 4, 1)
        graph = ci.materialize()
        res = max_clique_exact(graph)
        assert res.optimal and res.size == 2 ** 2  # q^(2k^2)
        vertices = [unrank(ci.codec, v) for v in res.vertices]
        assert is_clique(graph, res.vertices)
        assert len({(v.alpha, v.beta) for v in vertices}) == len(vertices)  # one per cloud

    def test_budget_refusal_names_exact_count(self):
        ci = make_instance(73, 3, 1, 4, 4, 2)
        with pytest.raises(BudgetExceeded) as exc:
            ci.materialize(budget=100)
        assert exc.value.required == 513

    def test_dimacs_round_trip(self, tmp_path):
        ci = make_instance(74, 2, 1, 8, 4, 1)
        graph = ci.materialize()
        p = tmp_path / "g.dimacs"
        export_graph(graph, "dimacs", p)
        back = read_dimacs(p)
        assert back.n == graph.n and back.adj == graph.adj

    def test_dimacs_empty_edges(self, tmp_path):
        from gapclique.cliquesolve import DenseGraph

        p = tmp_path / "empty.dimacs"
        export_graph(DenseGraph.from_edges(5, []), "dimacs", p)
        lines = p.read_text().splitlines()
        assert lines == ["p edge 5 0"]

    def test_json_meta_hash_tracks_instance(self, tmp_path):
        a = make_instance(75, 2, 1, 8, 4, 1)
        b = make_instance(76, 2, 1, 8, 4, 1)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        export_graph(a.materialize(), "json", pa, meta={"instance_hash": a.source.fingerprint()})
        export_graph(b.materialize(), "json", pb, meta={"instance_hash": b.source.fingerprint()})
        _, ma = read_graph_json(pa)
        _, mb = read_graph_json(pb)
        assert ma["instance_hash"] != mb["instance_hash"]

    def test_reduction_json_round_trip(self):
        ci = make_instance(77, 3, 1, 4, 4, 2)
        back = CliqueInstance.from_json(ci.to_json())
        assert back.codec.count == ci.codec.count
        assert back.gmap.to_json() == ci.gmap.to_json()
        assert back.source.to_json() == ci.source.to_json()

    def test_reduction_json_keeps_mode(self):
        # a desk document round-trips to equal parameters; any other mode, a
        # missing one or a schedule is refused
        ci = make_instance(78, 3, 1, 4, 4, 2)
        doc = ci.to_json()
        back = CliqueInstance.from_json(doc)
        assert back.params == ci.params and back.to_json() == doc
        assert doc["params"] == {"q": 3, "k": 1, "l": 2, "mode": "desk"}
        spoils = [
            lambda p: p.update(mode="paper_faithful"),
            lambda p: p.pop("mode"),
            lambda p: p.update(schedule={"k": 1, "n": 4, "qhat": 3, "lam_bits": 4,
                                         "f_prime_at_lam": 0, "bound": 2}),
        ]
        for spoil in spoils:
            bad = json.loads(json.dumps(doc))
            spoil(bad["params"])
            with pytest.raises(ContractViolation, match="desk"):
                CliqueInstance.from_json(bad)
