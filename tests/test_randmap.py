"""The random block-linear map: sampling, application, goodness checks."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapclique import randmap, rng as rngmod
from gapclique.errors import BudgetExceeded, ContractViolation, PropertyViolation
from gapclique.randmap import (
    LinearMapG,
    check_pairwise_separation,
    check_wellspread,
    draw_matrices,
    estimate_failure_rate,
    sample_g,
    source_images,
    union_bound_values,
    wellspread_excluded,
    wellspread_holds,
    wellspread_sums,
)
from gapclique.experiments import SCREEN_BLOCK, certified_map, certified_no_instance
from gapclique.vecsum import generate_planted, generate_unsat

import randmap_reference
import vecsum_reference
from vecsum_reference import collections, from_collections
from field_reference import (
    add,
    apply_map,
    block_inner,
    enumerate_sumset,
    identity,
    rel_hamming,
    rel_weight,
    scale,
    sub,
)


def single_vector_instance(q, entries):
    return from_collections(q=q, k=1, m=len(entries), collections=((tuple(entries),),))


def images(g, vectors):
    """Images of the vectors under g, through source_images: the vectors
    form the first collection, the other k - 1 collections repeat one."""
    vectors = list(vectors)
    cols = (vectors,) + ((vectors[0],),) * (g.k - 1)
    _, imgs = source_images(g, from_collections(q=g.q, k=g.k, m=g.m, collections=cols))
    assert imgs.shape == (len(vectors) + g.k - 1, g.l * g.k)
    return [tuple(row) for row in imgs[: len(vectors)].tolist()]


class TestSampleApply:
    # q = 2 and 5 reject most often (top bits 2 and 3 of 4 and 8); the
    # largest prime below 2^32 takes all 32 bits of a word; 4294967311 is
    # past 2^32, where randrange reads two words a draw; 95 and 96 entries
    # lie on either side of the switch to blocks of words
    @pytest.mark.parametrize("q", [2, 3, 5, 101, 65537, 4294967291, 4294967311])
    @pytest.mark.parametrize("k,m,l", [(1, 3, 2), (1, 4, 8), (2, 4, 4), (1, 5, 19), (2, 6, 8), (3, 3, 128)])
    def test_draws_are_randrange_draws(self, q, k, m, l):
        # the same entries, row-major, and the same rng state afterwards
        ours, ref = rngmod.stream(q, f"draw/{k}/{m}/{l}"), rngmod.stream(q, f"draw/{k}/{m}/{l}")
        want = [[ref.randrange(q) for _ in range(k * m)] for _ in range(l)]
        got = draw_matrices(ours, q, k, m, l)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert got.tolist() == want
        assert ours.getstate() == ref.getstate()

    @pytest.mark.parametrize("q", [4, 6, 9, 2**63])
    def test_composite_modulus_refused(self, q):
        for build in (lambda: LinearMapG(q=q, k=1, m=2, l=1, matrices=[[1, 2]]),
                      lambda: sample_g(rngmod.stream(1, "m"), q, 1, 2, 1)):
            with pytest.raises(ContractViolation, match=f"modulus {q} is not prime"):
                build()
        # a source instance keeps any modulus whose residues fit int64
        assert generate_planted(rngmod.stream(1, "s"), q, 1, 2, 2).q == q

    def test_same_seed_same_map(self):
        a = sample_g(rngmod.stream(5, "m"), 5, 2, 3, 4)
        b = sample_g(rngmod.stream(5, "m"), 5, 2, 3, 4)
        assert a.matrices.tolist() == b.matrices.tolist()

    def test_identity_embedding(self):
        g = LinearMapG(q=5, k=3, m=3, l=1, matrices=(identity(3),))
        assert images(g, [(1, 2, 3)]) == [(1, 2, 3)]

    def test_output_shape(self):
        g = sample_g(rngmod.stream(1, "m"), 5, 2, 3, 4)
        (out,) = images(g, [(1, 0, 4)])
        assert len(out) == 2 * 4 and out == apply_map(g, (1, 0, 4))

    def test_zero_maps_to_zero(self):
        g = sample_g(rngmod.stream(2, "m"), 3, 2, 4, 3)
        assert images(g, [(0, 0, 0, 0)]) == [(0,) * 6]

    def test_identity_and_zero_blocks(self):
        g = LinearMapG(q=3, k=2, m=2, l=2, matrices=(identity(2), (0,) * 4))
        assert images(g, [(1, 2)]) == [(1, 2, 0, 0)]

    def test_linear_and_scalar_respecting_exhaustively(self):
        g = sample_g(rngmod.stream(3, "m"), 3, 2, 2, 2)
        pts = list(itertools.product(range(3), repeat=2))
        img = dict(zip(pts, images(g, pts)))
        for b1, b2 in itertools.product(pts, repeat=2):
            assert img[add(3, b1, b2)] == add(3, img[b1], img[b2])
        for b in pts:
            assert img[b] == apply_map(g, b)
            for c in range(3):
                assert img[scale(3, c, b)] == scale(3, c, img[b])

    def test_json_round_trip(self):
        g = sample_g(rngmod.stream(4, "m"), 5, 2, 3, 4, seed=4)
        assert LinearMapG.from_json(g.to_json()).to_json() == g.to_json()

    def test_malformed_map_refused_not_fixed_up(self):
        good = sample_g(rngmod.stream(4, "m"), 5, 2, 3, 4, seed=4).to_json()
        for key, value in [("matrices", good["matrices"][:3]),  # l = 4 needs 4
                           ("matrices", [[1] * 5] + good["matrices"][1:]),  # k*m = 6
                           ("matrices", [[5] * 6] + good["matrices"][1:]),  # not mod 5
                           ("matrices", [[1.0] * 6] + good["matrices"][1:]),
                           ("q", "5"), ("k", 0), ("version", 2)]:
            with pytest.raises(ContractViolation):
                LinearMapG.from_json({**good, key: value})


class TestWellspread:
    def test_zero_sums_excluded(self):
        # only the zero vector in the collection: every scaled sum is zero,
        # so nothing is checked and the certificate is vacuous
        inst = single_vector_instance(5, (0, 0, 0))
        g = sample_g(rngmod.stream(5, "w"), 5, 1, 3, 4)
        cert = check_wellspread(g, inst)
        assert cert.passed and cert.checked == 0

    def test_adversarial_zero_map_fails_immediately(self):
        inst = single_vector_instance(5, (1, 2, 3))
        g = LinearMapG(q=5, k=1, m=3, l=8, matrices=((0, 0, 0),) * 8)
        cert = check_wellspread(g, inst)
        assert not cert.passed
        assert cert.counterexample is not None

    def test_counterexample_reverifies(self):
        inst = generate_planted(rngmod.stream(6, "w"), 3, 2, 3, 3)
        found = None
        for t in range(50):
            g = sample_g(rngmod.stream(6, f"w/{t}"), 3, 2, 3, 2)
            cert = check_wellspread(g, inst)
            if not cert.passed:
                found = (g, cert)
                break
        assert found is not None
        g, cert = found
        cx = cert.counterexample
        s = (0, 0, 0)
        for i, (gamma, idx) in enumerate(zip(cx["gammas"], cx["indices"])):
            s = add(3, s, scale(3, gamma, collections(inst)[i][idx]))
        assert list(s) == cx["sum"]
        assert rel_weight(apply_map(g, s)) < Fraction(2, 3)

    def test_empirical_certification_rate(self):
        # single direction, 8 blocks at q=5: per-map pass chance is about
        # 0.8; the exhaustive check per map is the oracle (threshold is a
        # test configuration, not an asserted constant)
        inst = single_vector_instance(5, (1, 2, 3))
        certified = sum(
            check_wellspread(
                sample_g(rngmod.stream(78, f"ws/{t}"), 5, 1, 3, 8), inst
            ).passed
            for t in range(50)
        )
        assert certified >= 30

    def test_matches_sumset_quantification(self):
        # scaled tuple sums are exactly the order-k sumset elements built
        # from one sample per collection; verdicts must agree on that subset
        inst = generate_planted(rngmod.stream(7, "w"), 3, 2, 2, 2)
        g = sample_g(rngmod.stream(7, "wm"), 3, 2, 2, 3)
        cert = check_wellspread(g, inst)
        reachable = set()
        for gammas in itertools.product(range(3), repeat=2):
            for us in itertools.product(*collections(inst)):
                s = (0, 0)
                for c, u in zip(gammas, us):
                    s = add(3, s, scale(3, c, u))
                if any(s):
                    reachable.add(s)
        cols = collections(inst)
        merged = cols[0] + cols[1]
        sumset = enumerate_sumset(3, merged, 2)
        assert reachable <= sumset
        ok = all(rel_weight(apply_map(g, s)) >= Fraction(2, 3) for s in reachable)
        assert ok == cert.passed

    def test_budget_refusal(self, monkeypatch):
        inst = generate_planted(rngmod.stream(8, "w"), 5, 3, 2, 5)
        g = sample_g(rngmod.stream(8, "wm"), 5, 3, 2, 2)
        monkeypatch.setattr(randmap, "CHECK_BUDGET", 100)
        with pytest.raises(BudgetExceeded):
            check_wellspread(g, inst)

    @pytest.mark.parametrize("q,k,m,n,l", [(3, 1, 6, 8, 2), (5, 1, 4, 8, 1), (2, 2, 4, 3, 3),
                                           (3, 2, 3, 3, 2), (2, 1, 3, 4, 3)])
    def test_case_sums_decide_like_the_check(self, q, k, m, n, l):
        # the resampling screen must pass exactly the maps the check passes
        for s in range(3):
            inst = generate_planted(rngmod.stream(s, "ws-sums"), q, k, m, n)
            maps = [sample_g(rngmod.stream(s, f"ws-sums/{t}"), q, k, m, l) for t in range(150)]
            screened = wellspread_holds(q, wellspread_sums(inst), [g.matrices for g in maps])
            assert screened.tolist() == [check_wellspread(g, inst).passed for g in maps]

    def test_case_sums_only_within_one_batch(self):
        assert wellspread_sums(generate_planted(rngmod.stream(8, "w"), 5, 3, 2, 5)) is None
        sums = wellspread_sums(single_vector_instance(5, (0, 0, 0)))
        assert sums.shape == (0, 3)
        g = sample_g(rngmod.stream(5, "w"), 5, 1, 3, 4)
        assert wellspread_holds(5, sums, [g.matrices]).tolist() == [True]

    def test_certified_map_is_the_first_passing_sample(self):
        # 46 draws: the screen spans three blocks and a cut inside one
        inst = generate_planted(rngmod.stream(1, "ws-cm"), 3, 1, 4, 6)
        g, tries = certified_map(1, "ws-cm", inst, 2, "wellspread")
        maps = [sample_g(rngmod.stream(1, f"ws-cm/map/{t}"), 3, 1, 4, 2, seed=1)
                for t in range(tries)]
        passes = [check_wellspread(h, inst).passed for h in maps]
        assert passes == [False] * (tries - 1) + [True] and tries > 2 * SCREEN_BLOCK
        assert g.to_json() == maps[-1].to_json()
        assert certified_map(1, "ws-cm", inst, 2, "wellspread", max_tries=tries - 1) is None


class TestPairwiseSeparation:
    def test_equal_differences_excluded(self):
        # a collection of one vector has no distinct differences at all
        inst = single_vector_instance(5, (1, 2, 3))
        g = sample_g(rngmod.stream(9, "s"), 5, 1, 3, 4)
        cert = check_pairwise_separation(g, inst)
        assert cert.passed and cert.checked == 0

    def test_dependent_direction_pairs_not_checked(self):
        # at k=1 no pair of directions is linearly independent, so only the
        # degenerate single-difference case contributes checks
        inst = from_collections(
            q=3,
            k=1,
            m=2,
            collections=(((1, 0), (0, 1)),),
        )
        for t in range(20):
            g = sample_g(rngmod.stream(10, f"s/{t}"), 3, 1, 2, 4)
            cert = check_pairwise_separation(g, inst)
            if cert.passed:
                break
        assert cert.passed
        # 2 ordered nonzero differences x 2 nonzero directions, nothing else
        assert cert.checked == 4

    def test_exhaustive_at_tiny_k2(self):
        inst = generate_planted(rngmod.stream(11, "s"), 3, 2, 3, 2)
        passed = 0
        for t in range(10):
            g = sample_g(rngmod.stream(11, f"s24/{t}"), 3, 2, 3, 24)
            if check_pairwise_separation(g, inst).passed:
                passed += 1
        # empirical rate reported; at l=24 most maps separate
        assert passed >= 6

    def test_direction_image_table_is_bounded(self):
        # 5^6 directions x 6 source rows x 200 blocks is past the table limit;
        # sampling has no case budget, so this refusal bounds its memory
        inst = generate_planted(rngmod.stream(11, "s"), 5, 6, 3, 1)
        g = sample_g(rngmod.stream(11, "sb"), 5, 6, 3, 200)
        with pytest.raises(BudgetExceeded, match="direction images"):
            check_pairwise_separation(g, inst, samples=10, rng=rngmod.stream(11, "mc"))

    def test_difference_tables_are_bounded(self):
        # 4 directions x 128 source rows x 1024 blocks of direction images
        # fit, but the two collections' difference tables of images and of
        # vectors, 64^2 entries of 4 * 1024 + 2 each, do not
        q, k, m, n, l = 2, 2, 2, 64, 1024
        inst = generate_planted(rngmod.stream(13, "s"), q, k, m, n)
        g = sample_g(rngmod.stream(13, "sb"), q, k, m, l)
        assert q**k * k * n * l <= 1 << 24
        with pytest.raises(BudgetExceeded) as exc:
            check_pairwise_separation(g, inst, samples=10, rng=rngmod.stream(13, "mc"))
        assert exc.value.what == "separation direction images"
        assert exc.value.required == (q**k * l + m) * k * n * n + (q**k - 1) * (q**k - q)
        assert exc.value.budget == 1 << 24

    def test_no_independent_pair_tables_at_k1(self):
        # at k = 1 no two directions are independent: the tables of the
        # directions that are no multiple of another (q^2 entries, 256 MiB
        # here) are not built, and only single differences are checked
        q = 4099
        inst = generate_planted(rngmod.stream(14, "s"), q, 1, 1, 2)
        g = sample_g(rngmod.stream(14, "sb"), q, 1, 1, 1)
        tracemalloc.start()
        try:
            cert = check_pairwise_separation(g, inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        # the two ordered pairs of distinct vectors, under every nonzero direction
        assert cert.passed and cert.checked == 2 * (q - 1)

    def test_counterexample_reverifies(self):
        inst = generate_planted(rngmod.stream(12, "s"), 3, 1, 2, 3)
        found = None
        for t in range(200):
            g = sample_g(rngmod.stream(12, f"s/{t}"), 3, 1, 2, 2)
            cert = check_pairwise_separation(g, inst)
            if not cert.passed:
                found = (g, cert)
                break
        assert found is not None
        g, cert = found
        cx = cert.counterexample
        us = collections(inst)[cx["collection"]]
        if cx["case"] == "single-difference":
            a, b = cx["pair"]
            w = sub(3, us[a], us[b])
            img = block_inner(3, tuple(cx["alpha"]), apply_map(g, w))
            assert rel_weight(img) < Fraction(1, 2)
        else:
            t1, t2, t3 = cx["triple"]
            d1, d2 = sub(3, us[t3], us[t1]), sub(3, us[t2], us[t3])
            i1 = block_inner(3, tuple(cx["alpha"]), apply_map(g, d1))
            i2 = block_inner(3, tuple(cx["beta"]), apply_map(g, d2))
            assert rel_hamming(i1, i2) < Fraction(1, 2)


class TestFailureRates:
    def test_zero_trials_degenerate(self):
        inst = single_vector_instance(5, (1, 2, 3))
        rep = estimate_failure_rate(inst, 4, 0, rngmod.stream(13, "r"))
        assert rep.wellspread_rate is None and rep.separation_rate is None

    def test_rates_and_intervals(self):
        inst = generate_planted(rngmod.stream(14, "r"), 5, 1, 3, 3)
        rep = estimate_failure_rate(inst, 8, 40, rngmod.stream(14, "rm"))
        lo, hi = rep.wellspread_ci
        assert 0 <= lo <= (rep.wellspread_rate or 0) <= hi <= 1

    def test_union_bound_vacuous_flag(self):
        # at small q the binomial-coefficient bound never drops below 1
        # (that is exactly why the schedule demands a huge modulus)
        vals = union_bound_values(q=5, k=1, m=3, l=2, n=4)
        assert vals["wellspread_vacuous"]
        sched = union_bound_values(q=4099, k=1, m=3, l=12, n=4)
        assert not sched["wellspread_vacuous"]
        assert not sched["separation_vacuous"]


def all_maps(q, k, m, l):
    """Every map from F_q^m into l blocks of width k."""
    for entries in itertools.product(range(q), repeat=l * k * m):
        mats = tuple(entries[i * k * m : (i + 1) * k * m] for i in range(l))
        yield LinearMapG(q=q, k=k, m=m, l=l, matrices=mats)


class TestWellspreadExcluded:
    # binary instances with k = 2 and m = 2, small enough to check every map,
    # and whether they are refused when 3 does not divide k * l
    TWO_COLLECTIONS = {
        "u, w, u + w nonzero": ((((1, 0),), ((0, 1),)), True),
        "several vectors": ((((0, 0), (1, 1)), ((1, 1), (1, 0))), True),
        "u = w": ((((1, 0),), ((1, 0), (0, 0))), False),
        "one zero collection": ((((1, 0), (0, 1)), ((0, 0),)), False),
    }

    @pytest.mark.parametrize("name", list(TWO_COLLECTIONS))
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_refusal_matches_exhaustive_check_over_every_map(self, name, l):
        # on these instances, refused exactly when no map at all passes the
        # exhaustive check; at l = 3, k * l = 6 and nothing is refused
        cols, refused = self.TWO_COLLECTIONS[name]
        inst = from_collections(q=2, k=2, m=2, collections=cols)
        passing = any(check_wellspread(g, inst).passed for g in all_maps(2, 2, 2, l))
        assert (wellspread_excluded(inst, l) is not None) == (refused and l != 3) == (not passing)

    def test_refusal_is_only_sufficient(self):
        # u, w and u + w in one collection are also case sums, so no map
        # passes, and the refusal covers them as well as u and w from two
        # collections
        inst = from_collections(q=2, k=2, m=2, collections=(((1, 0), (0, 1), (1, 1)), ((0, 0),)))
        assert wellspread_excluded(inst, 1) is not None
        assert not any(check_wellspread(g, inst).passed for g in all_maps(2, 2, 2, 1))

    @pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 1), (2, 2), (4, 1)])
    def test_refusal_is_a_triple_of_case_sums(self, k, l):
        # refused exactly when three nonzero case sums a, b and a + b exist,
        # on sparse random binary instances small enough for wellspread_sums
        r = rngmod.stream(k * 10 + l, "triples")
        refused = []
        most = {1: 6, 2: 4, 4: 2}[k]
        for _ in range(100):
            m = r.randint(2, 4)
            vec = lambda: tuple(r.randrange(2) if r.random() < 0.4 else 0 for _ in range(m))
            cols = tuple(tuple(vec() for _ in range(r.randint(1, most))) for _ in range(k))
            inst = from_collections(q=2, k=k, m=m, collections=cols)
            sums = set(map(tuple, wellspread_sums(inst).tolist()))
            triple = any(tuple(x ^ y for x, y in zip(a, b)) in sums
                         for a, b in itertools.combinations(sums, 2))
            assert (wellspread_excluded(inst, l) is not None) == triple
            refused.append(triple)
        assert any(refused) and not all(refused)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_refusal_matches_tuple_reference(self, data):
        # the same refusal, word for word, as on tuples, or None from both
        k, m, l = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        vector = st.lists(st.sampled_from([0, 0, 1]), min_size=m, max_size=m).map(tuple)
        cols = data.draw(st.lists(st.lists(vector, min_size=1, max_size=4), min_size=k, max_size=k))
        inst = from_collections(q=2, k=k, m=m, collections=cols)
        assert wellspread_excluded(inst, l) == vecsum_reference.wellspread_excluded(inst, l)

    def test_certified_no_instance_resamples_excluded(self):
        # attempt 0 of this label draws a, b and a + b into the one collection
        label = "resample/91"
        first = generate_unsat(rngmod.stream(0, f"{label}/instance/0"), 2, 1, 8, 4)
        assert wellspread_excluded(first, 2) is not None
        inst, _, attempts, _ = certified_no_instance(0, label, 2, 1, 8, 4, 2)
        assert attempts == 2 and wellspread_excluded(inst, 2) is None

    def test_refusal_needs_binary_field_and_two_collections(self):
        assert wellspread_excluded(generate_planted(rngmod.stream(1, "wx"), 3, 2, 4, 3), 1) is None
        assert wellspread_excluded(generate_planted(rngmod.stream(1, "wx"), 2, 1, 8, 4), 1) is None

    @pytest.mark.parametrize("k,l", [(2, 1), (2, 2), (2, 4), (4, 1)])
    def test_certified_map_refuses_up_front(self, k, l):
        inst = generate_unsat(rngmod.stream(k + l, "wx"), 2, k, 8, 3)
        reason = wellspread_excluded(inst, l)
        assert reason is not None and "3" in reason
        with pytest.raises(ContractViolation, match="no map is wellspread"):
            certified_map(k + l, "wx", inst, l, "wellspread")

    def test_multiple_of_three_is_not_refused(self):
        inst = generate_unsat(rngmod.stream(3, "wx"), 2, 2, 8, 3)
        assert wellspread_excluded(inst, 3) is None
        assert wellspread_excluded(inst, 1) is not None


# -- the engine against the definitions ----------------------------------------


def reference_cases(g, inst, prop):
    """Every case of a property's case space in the documented order, as
    (counted, passed, counterexample), computed from the definitions."""
    q, k, cols = g.q, g.k, collections(inst)
    dirs = list(itertools.product(range(q), repeat=k))[1:]
    if prop == "wellspread":
        for gammas in itertools.product(range(q), repeat=k):
            for idx in itertools.product(*(range(s) for s in inst.sizes)):
                s = (0,) * inst.m
                for i in range(k):
                    s = add(q, s, scale(q, gammas[i], cols[i][idx[i]]))
                w = rel_weight(apply_map(g, s))
                cx = {"gammas": list(gammas), "indices": list(idx),
                      "sum": list(s), "weight": str(w)}
                yield any(s), w >= Fraction(2, 3), cx
        return

    def image(alpha, v):
        return block_inner(q, alpha, apply_map(g, v))

    for i, us in enumerate(cols):
        for a, b in itertools.product(range(len(us)), repeat=2):
            for alpha in dirs:
                w = rel_weight(image(alpha, sub(q, us[a], us[b])))
                cx = {"collection": i, "case": "single-difference", "pair": [a, b],
                      "alpha": list(alpha), "weight": str(w)}
                yield us[a] != us[b], w >= Fraction(1, 2), cx
        for t1, t2, t3 in itertools.product(range(len(us)), repeat=3):
            d1, d2 = sub(q, us[t3], us[t1]), sub(q, us[t2], us[t3])
            for alpha, beta in itertools.product(dirs, repeat=2):
                if any(beta == scale(q, c, alpha) for c in range(q)):
                    continue
                dist = rel_hamming(image(alpha, d1), image(beta, d2))
                cx = {"collection": i, "case": "triple", "triple": [t1, t2, t3],
                      "alpha": list(alpha), "beta": list(beta),
                      "distance": str(dist)}
                yield d1 != d2, dist >= Fraction(1, 2), cx


def reference_result(cases, order):
    """(passed, checked, counterexample) of visiting the cases in `order`."""
    checked = 0
    for t in order:
        counted, passed, cx = cases[t]
        checked += counted
        if counted and not passed:
            return False, checked, cx
    return True, checked, None


class FixedDraws:
    """Stands in for the Monte Carlo rng: hands out the given case indices,
    one per getrandbits call, which is one rng.draws draw below 96 draws
    when the index lies below the bound."""

    def __init__(self, *indices):
        self._it = iter(indices)

    def getrandbits(self, bits):
        return next(self._it)


CHECKS = {"wellspread": check_wellspread, "separation": check_pairwise_separation}


def outcome(cert):
    return cert.passed, cert.checked, cert.counterexample


class TestEngineAgainstReference:
    @pytest.mark.parametrize("prop", sorted(CHECKS))
    @pytest.mark.parametrize(
        "q,k,l,n", [(2, 1, 2, 4), (3, 1, 2, 8), (5, 1, 1, 4), (3, 2, 4, 3), (3, 2, 24, 2),
                    (2, 2, 4, 4), (3, 2, 6, 4), (5, 1, 70, 4), (7, 1, 129, 3), (3, 2, 70, 2)]
    )
    def test_both_modes_match_reference(self, q, k, l, n, prop, monkeypatch):
        check = CHECKS[prop]
        for seed in range(3):
            inst = generate_planted(rngmod.stream(seed, f"ref/{q}/{k}/{n}"), q, k, 3, n)
            g = sample_g(rngmod.stream(seed, f"ref/{q}/{k}/{l}/map"), q, k, 3, l)
            cases = list(reference_cases(g, inst, prop))
            # the case space has exactly the reference's cases, in its order
            want = reference_result(cases, range(len(cases)))
            monkeypatch.setattr(randmap, "CHECK_BUDGET", len(cases))
            assert outcome(check(g, inst)) == want
            monkeypatch.setattr(randmap, "CHECK_BUDGET", len(cases) - 1)
            with pytest.raises(BudgetExceeded):
                check(g, inst)
            # Monte Carlo draws index the same space
            draws = rngmod.stream(seed, "ref/mc")
            want = reference_result(cases, [draws.randrange(len(cases)) for _ in range(30)])
            mc = dict(samples=30, rng=rngmod.stream(seed, "ref/mc"))
            if want[1] == 0:
                with pytest.raises(PropertyViolation):
                    check(g, inst, **mc)
            else:
                assert outcome(check(g, inst, **mc)) == want
            # and a drawn case gets its reference verdict (about 100 cases each)
            step = 1 + len(cases) // 100
            for t, (counted, passed, cx) in enumerate(cases[::step]):
                one = dict(samples=1, rng=FixedDraws(step * t))
                if not counted:
                    with pytest.raises(PropertyViolation):
                        check(g, inst, **one)
                else:
                    assert outcome(check(g, inst, **one)) == (passed, 1, None if passed else cx)


    @pytest.mark.parametrize("q,k,l,n", [(2, 2, 4, 4), (3, 2, 6, 4)])
    def test_k2_rows_fail_inside_the_triple_block(self, q, k, l, n):
        # the two k = 2 rows above reach the triple cases: some map fails
        # there, after passing every single-difference case before it
        cases = []
        for seed in range(3):
            inst = generate_planted(rngmod.stream(seed, f"ref/{q}/{k}/{n}"), q, k, 3, n)
            g = sample_g(rngmod.stream(seed, f"ref/{q}/{k}/{l}/map"), q, k, 3, l)
            cert = check_pairwise_separation(g, inst)
            cases.append(cert.counterexample and cert.counterexample["case"])
        assert "triple" in cases


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 4099])
@pytest.mark.parametrize("l", [1, 12, 63, 64, 65, 130])
def test_bit_plane_counts_match_entry_compares(q, l):
    # the separation check's weights and distances on packed rows: one word
    # of 8 to 64 bits or three of 64, of up to 12 planes, against one
    # compare per entry
    r = np.random.default_rng(q * l)
    rows = r.integers(0, q, size=(40, l)).astype(np.min_scalar_type(-2 * q))
    rows[:5] = 0
    rows[5:10] = rows[10:15]
    planes = randmap._bit_planes(rows, q)
    words, bits = -(-l // 64), {1: 8, 12: 16, 63: 64, 64: 64, 65: 64, 130: 64}[l]
    assert planes.shape == (words, (q - 1).bit_length(), 40)
    assert planes.dtype.itemsize * 8 == bits
    a, b = r.integers(0, 40, 500), r.integers(0, 40, 500)
    a[:5], b[:5] = np.arange(5, 10), np.arange(10, 15)
    assert np.array_equal(randmap._differing(planes, a), np.count_nonzero(rows[a], axis=1))
    assert np.array_equal(randmap._differing(planes, a, b),
                          np.count_nonzero(rows[a] != rows[b], axis=1))


class TestMonteCarlo:
    @pytest.mark.parametrize("samples,sampler", [(10, False), (-1, False), (0, True), (-5, True)],
                             ids=["samples-without-rng", "negative-without-rng",
                                  "rng-without-samples", "rng-with-negative-samples"])
    def test_sampling_needs_an_rng_and_samples(self, samples, sampler):
        inst = generate_planted(rngmod.stream(1, "s"), 3, 1, 3, 3)
        g = sample_g(rngmod.stream(1, "g"), 3, 1, 3, 2)
        rng = rngmod.stream(1, "mc") if sampler else None
        for check in CHECKS.values():
            with pytest.raises(ContractViolation, match="an rng and samples >= 1"):
                check(g, inst, samples=samples, rng=rng)

    def test_the_sampler_decides_the_mode(self):
        inst = generate_planted(rngmod.stream(1, "s"), 3, 1, 3, 3)
        g = sample_g(rngmod.stream(1, "g"), 3, 1, 3, 2)
        for check in CHECKS.values():
            assert check(g, inst).mode == "exhaustive"
            assert check(g, inst, samples=50, rng=rngmod.stream(1, "mc")).mode == "monte_carlo"

    def k1_map(self):
        # check-map --seed 3 at q=5, k=1, l=1 on gen-vecsum --seed 3 --q 5 --k 1
        inst = generate_planted(rngmod.stream(3, "instance"), 5, 1, 4, 4)
        g = sample_g(rngmod.stream(3, "matrices"), 5, 1, 4, 1, seed=3)
        return g, inst

    def test_k1_separation_failure_found_by_both_modes(self):
        # at k = 1 only single-difference cases exist; sampling must reach them
        g, inst = self.k1_map()
        ex = check_pairwise_separation(g, inst)
        mc = check_pairwise_separation(
            g, inst, samples=1000, rng=rngmod.stream(3, "map-check")
        )
        assert not ex.passed and ex.checked == 21
        assert not mc.passed and mc.checked >= 1
        assert mc.counterexample["case"] == "single-difference"

    def test_no_countable_case_is_inconclusive(self):
        # every scaled sum is zero: exhaustive passes vacuously, sampling refuses
        inst = single_vector_instance(5, (0, 0, 0))
        g = sample_g(rngmod.stream(5, "w"), 5, 1, 3, 4)
        assert check_wellspread(g, inst).passed
        with pytest.raises(PropertyViolation, match="1000 Monte Carlo samples"):
            check_wellspread(g, inst, samples=1000, rng=rngmod.stream(5, "mc"))


# -- the grid walk against the numbered walk -------------------------------------


@pytest.mark.parametrize("radices", [(3,), (4, 5), (2, 3, 4), (7, 1, 5, 2), (6, 6, 6, 48),
                                     (5, 0, 3), (2, 4099)])
@pytest.mark.parametrize("limit", [1, 2, 7, 12, 100, 10**6])
def test_blocks_run_through_the_case_numbers_in_order(radices, limit):
    # each block's digits are those of the next run of case numbers, at most
    # `limit` of them
    seen = []
    for extents, digits in randmap._blocks(radices, limit):
        assert np.broadcast_shapes(*(x.shape for x in digits)) == extents
        seen.append(np.ravel_multi_index(np.broadcast_arrays(*digits), radices).ravel())
    assert all(0 < block.size <= limit for block in seen)
    got = np.concatenate(seen) if seen else np.zeros(0, dtype=np.int64)
    assert np.array_equal(got, np.arange(math.prod(radices)))


# (q, k, m, n, l): passing and failing maps for both properties, k = 1 and
# k = 2, wide rows and q past the narrow types
WALK_POINTS = [(2, 2, 4, 4, 16), (3, 1, 2, 3, 2), (5, 1, 4, 4, 1), (5, 2, 3, 3, 12),
               (7, 2, 3, 2, 64), (3, 2, 12, 6, 128), (4099, 1, 1, 2, 1)]


def walk_certificates(monkeypatch, point, walk, check, **kwargs):
    """Certificates (or inconclusive refusals) of three maps at the point,
    with the engine's walk swapped for `walk` when one is given; each with
    the state its Monte Carlo rng is left in."""
    q, k, m, n, l = point
    if walk is not None:
        monkeypatch.setattr(randmap, "_run_check", walk)
    out = []
    for s in range(3):
        inst = generate_planted(rngmod.stream(s, f"walk/{point}"), q, k, m, n)
        g = sample_g(rngmod.stream(s, f"walk/{point}/map"), q, k, m, l, seed=s)
        r = rngmod.stream(s, "walk/mc") if kwargs else None
        try:
            cert = check(g, inst, rng=r, **kwargs).to_json()
        except PropertyViolation as exc:
            cert = str(exc)
        out.append((cert, r and r.getstate()))
    monkeypatch.undo()
    return out


class TestWalkAgainstNumberedReference:
    @pytest.mark.parametrize("block_bytes", [None, 1000, 1 << 14])
    @pytest.mark.parametrize("point", WALK_POINTS, ids=str)
    def test_exhaustive_certificates_match(self, monkeypatch, point, block_bytes):
        for check in CHECKS.values():
            want = walk_certificates(monkeypatch, point, randmap_reference.run_check, check)
            if block_bytes is not None:
                # small blocks split the parts at every digit
                monkeypatch.setattr(randmap, "_BLOCK_BYTES", block_bytes)
            assert walk_certificates(monkeypatch, point, None, check) == want

    @pytest.mark.parametrize("point", WALK_POINTS, ids=str)
    def test_monte_carlo_certificates_and_rng_match(self, monkeypatch, point):
        for check in CHECKS.values():
            mc = dict(samples=2500)
            want = walk_certificates(monkeypatch, point, randmap_reference.run_check, check, **mc)
            assert walk_certificates(monkeypatch, point, None, check, **mc) == want

    def test_points_have_passing_and_failing_maps(self, monkeypatch):
        outcomes = {name: set() for name in CHECKS}
        for point in WALK_POINTS:
            for name, check in CHECKS.items():
                certs = walk_certificates(monkeypatch, point, None, check)
                outcomes[name] |= {cert["passed"] for cert, _ in certs}
        assert outcomes == {name: {False, True} for name in CHECKS}


@pytest.mark.parametrize("check,point,margin", [
    # rows of 12 + 2 * 256 int64 entries: blocks no larger than the
    # numbered walk's 1,024 cases
    (check_wellspread, (5, 2, 12, 16, 256), 0),
    # blocks of whole 10,368-case parts, against 1,024
    (check_pairwise_separation, (3, 2, 12, 6, 128), 2 << 20),
])
def test_walk_peak_memory(monkeypatch, check, point, margin):
    q, k, m, n, l = point
    inst = generate_planted(rngmod.stream(0, "peak"), q, k, m, n)
    g = sample_g(rngmod.stream(0, "peak/map"), q, k, m, l)
    peaks = []
    for walk in (randmap_reference.run_check, None):
        if walk is not None:
            monkeypatch.setattr(randmap, "_run_check", walk)
        tracemalloc.start()
        try:
            check(g, inst)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
    assert peaks[1] <= peaks[0] + margin
