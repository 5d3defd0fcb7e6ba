"""Vector-sum instances: generators, brute-force deciding, validation."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapclique import rng as rngmod, vecsum
from gapclique.errors import BudgetExceeded, ContractViolation, PropertyViolation
from gapclique.vecsum import (
    VecSumInstance,
    brute_force_decide,
    generate_planted,
    generate_unsat,
    paper_dimension,
)

from field_reference import enumerate_sumset
from vecsum_reference import brute_force, collections, from_collections, total

# the largest prime below 2^63: from k = 2 on, k * (q - 1) >= 2^63, so a sum
# of residues taken in int64 would wrap
BIG_Q = 2**63 - 25


class TestGeneratePlanted:
    def test_planted_vectors_sum_to_zero(self):
        inst = generate_planted(rngmod.stream(3, "p"), 5, 3, 4, 5)
        s = total(5, [collections(inst)[i][idx] for i, idx in enumerate(inst.planted)])
        assert s == (0,) * 4

    def test_degenerate_k1_contains_zero(self):
        inst = generate_planted(rngmod.stream(4, "p"), 3, 1, 3, 4)
        assert (0, 0, 0) in collections(inst)[0]

    def test_decides_yes_over_many_seeds(self):
        # every planted instance is decided YES by full enumeration
        for seed in range(100):
            q = 3
            k = 1 + seed % 3
            m = 1 + seed % 4
            n = 2 + seed % 4
            inst = generate_planted(rngmod.stream(seed, "plant"), q, k, m, n)
            w = brute_force_decide(inst)
            assert w is not None
            assert total(q, [us[i] for us, i in zip(collections(inst), w.indices)]) == (0,) * m


class TestGenerateUnsat:
    def test_certified_no(self):
        inst = generate_unsat(rngmod.stream(5, "no"), 5, 2, 3, 4)
        assert inst.certificate["certified_no"]
        assert inst.certificate["tuples_checked"] == 16
        assert brute_force_decide(inst) is None  # certificate replay

    def test_exhausts_when_space_too_small(self):
        # q^m <= n^k makes collisions essentially unavoidable
        with pytest.raises(PropertyViolation):
            generate_unsat(rngmod.stream(6, "no"), 2, 3, 1, 4, max_retries=30)


class TestBruteForce:
    def test_witness_found(self):
        inst = from_collections(q=3, k=2, m=1, collections=(((1,),), ((2,),)))
        w = brute_force_decide(inst)
        assert w is not None and w.indices == (0, 0)

    def test_no_witness(self):
        inst = from_collections(q=3, k=2, m=1, collections=(((1,),), ((1,),)))
        assert brute_force_decide(inst) is None

    def test_lexicographically_first(self):
        # two witnesses exist; enumeration in index order returns (0, 1)
        inst = from_collections(q=3, k=2, m=1, collections=(((1,), (2,)), ((0,), (2,), (1,))))
        w = brute_force_decide(inst)
        assert w.indices == (0, 1)

    def test_budget_refusal(self, monkeypatch):
        inst = generate_planted(rngmod.stream(7, "b"), 3, 3, 2, 5)
        monkeypatch.setattr(vecsum, "TUPLE_BUDGET", 100)
        with pytest.raises(BudgetExceeded):
            brute_force_decide(inst)

    def test_budget_refusal_names_the_reference_count(self):
        inst = from_collections(q=3, k=3, m=1, collections=(((0,),) * 4, ((1,),) * 5, ((2,),) * 6))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vecsum, "TUPLE_BUDGET", 119)
            with pytest.raises(BudgetExceeded) as got:
                brute_force_decide(inst)
            with pytest.raises(BudgetExceeded) as want:
                brute_force(inst)
            assert got.value.required == want.value.required == 120
            mp.setattr(vecsum, "TUPLE_BUDGET", 120)
            assert brute_force_decide(inst).indices == brute_force(inst) == (0, 0, 0)

    def test_blocks_keep_lexicographic_order(self, monkeypatch):
        # blocks of one prefix or of less than the last collection still
        # return the first witness; witnesses at (1, 2) and (2, 0)
        inst = from_collections(q=5, k=2, m=1, collections=(((0,), (1,), (2,)), ((3,), (2,), (4,))))
        for block in (1, 2, 3, 7):
            monkeypatch.setattr(vecsum, "_TUPLE_BLOCK", block)
            assert brute_force_decide(inst).indices == (1, 2)


@st.composite
def instances(draw):
    """Instances of k = 1-3 collections of unequal sizes, half of them
    with one tuple completed to sum to zero; at BIG_Q its residues come
    from both ends of [0, q), so their integer sums pass 2^63."""
    q = draw(st.sampled_from([2, 3, 5, BIG_Q]))
    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    residue = st.integers(0, q - 1) | st.sampled_from([0, 1, q - 1])
    cols = [[tuple(draw(st.lists(residue, min_size=m, max_size=m)))
             for _ in range(draw(st.integers(1, 5)))] for _ in range(k)]
    if draw(st.booleans()):
        idx = [draw(st.integers(0, len(us) - 1)) for us in cols]
        s = total(q, [(0,) * m] + [us[i] for us, i in zip(cols[:-1], idx)])
        cols[-1][idx[-1]] = tuple(-x % q for x in s)
    return from_collections(q, k, m, cols)


@given(instances())
@settings(max_examples=200, deadline=None)
def test_brute_force_matches_tuple_reference(inst):
    w = brute_force_decide(inst)
    assert (w.indices if w is not None else None) == brute_force(inst)


@given(instances(), st.integers(1, 60))
@settings(max_examples=60, deadline=None)
def test_budget_refusal_matches_tuple_reference(inst, budget):
    refusals = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vecsum, "TUPLE_BUDGET", budget)
        for decide in (brute_force_decide, brute_force):
            try:
                decide(inst)
            except BudgetExceeded as exc:
                refusals.append(exc.required)
    assert refusals == ([inst.tuple_count()] * 2 if inst.tuple_count() > budget else [])


class TestArrayInstance:
    def test_rows_are_the_collections_concatenated(self):
        inst = from_collections(q=5, k=2, m=2, collections=(((1, 2),), ((3, 4), (0, 1))))
        assert inst.sizes == (1, 2) and inst.starts == (0, 1)
        assert inst.vectors.dtype == np.int64 and not inst.vectors.flags.writeable
        assert inst.vectors.tolist() == [[1, 2], [3, 4], [0, 1]]
        assert collections(inst) == (((1, 2),), ((3, 4), (0, 1)))
        assert not hasattr(inst, "collections")

    @pytest.mark.parametrize("sizes", [(1,), (1, 1, 1), (2, 0), (1, True), (1.0, 1), None, "11"])
    def test_sizes_refused(self, sizes):
        with pytest.raises(ContractViolation):
            VecSumInstance(q=3, k=2, m=1, vectors=[[1], [2]], sizes=sizes)

    @pytest.mark.parametrize("vectors", [[[1], [2]], np.array([[1], [2]]), [[1, 2], [0, 0], [1, 1]],
                                         np.array([[1], [2], [0]], dtype=np.int32)])
    def test_rows_must_match_sizes(self, vectors):
        # three int64 rows of one entry, as the sizes and m say
        with pytest.raises(ContractViolation, match="shape \\(3, 1\\)"):
            VecSumInstance(q=3, k=2, m=1, vectors=vectors, sizes=(1, 2))

    def test_planted_sum_is_exact_past_int64(self):
        # (q - 1) + (q - 1) + 2 = 2q: zero mod q, though it passes 2^64
        cols = (((BIG_Q - 1,),), ((BIG_Q - 1,),), ((2,),))
        assert from_collections(q=BIG_Q, k=3, m=1, collections=cols, planted=(0, 0, 0))
        with pytest.raises(ContractViolation, match="does not sum to zero"):
            from_collections(q=BIG_Q, k=3, m=1, collections=cols[:2] + (((3,),),),
                             planted=(0, 0, 0))

    @pytest.mark.parametrize("q", [BIG_Q, 2**63])
    def test_generators_past_2_to_62(self, q):
        # at 2^63 the draws are Python ints, still below q
        inst = generate_planted(rngmod.stream(2, "big"), q, 3, 2, 3)
        assert total(q, [us[i] for us, i in zip(collections(inst), inst.planted)]) == (0, 0)
        assert brute_force_decide(inst).indices == brute_force(inst)
        assert generate_unsat(rngmod.stream(2, "big"), q, 2, 2, 3).certificate["certified_no"]


class TestGeneratorPins:
    # SHA-256 of the sorted-key JSON of generated instances, taken when the
    # generators built tuples, so the array generators write the same bytes;
    # at q = 2 the 96- and 108-entry collections are drawn in word blocks
    PINS = {
        ("planted", 2, 2, 12, 9): "9972eb19bdc7d1f5e5b121872ac0a7f7d57f014bfaff84a79501069e54e8db8f",
        ("unsat", 2, 2, 12, 8): "1b326116370dcd4b7167aafd80b1adb84689fe7a47d0a3eb688b0f04bcd2e5b1",
        ("planted", 3, 2, 4, 5): "36be9e6c2a79c55d90fd2772b7e27309dcceb6c606ce370f31aae09d87d9764c",
        ("unsat", 3, 2, 6, 8): "a7601193f983d70f5f821f898b4cc2e69aba19befd6b869ad70ce5a7db040853",
        ("planted", 5, 3, 3, 4): "f1f9e88fd7d202855f8e6781f5fb1e5d190d40e146943c24d2c935a3c8f88c09",
        ("unsat", 5, 2, 4, 5): "a28c55611e25537018c7bd7168ac0e144f192f685913cf28888826b8e8ff6fce",
    }

    @pytest.mark.parametrize("case", list(PINS))
    def test_generated_json_is_pinned(self, case):
        kind, q, k, m, n = case
        gen = generate_planted if kind == "planted" else generate_unsat
        inst = gen(rngmod.stream(q, f"pin/{kind}"), q, k, m, n)
        blob = json.dumps(inst.to_json(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == self.PINS[case]


class TestSumsets:
    # the sumset enumeration is the tests' reference for the wellspread
    # quantification (tests/field_reference.py)
    def test_zero_collection(self):
        assert enumerate_sumset(3, [(0, 0)], 2) == frozenset({(0, 0)})

    def test_order_one_is_all_scalings(self):
        b = [(1, 2), (3, 3)]
        want = {tuple((c * e) % 5 for e in v) for v in b for c in range(5)}
        assert enumerate_sumset(5, b, 1) == frozenset(want)

    def test_standard_basis_spans(self):
        assert len(enumerate_sumset(3, [(1, 0), (0, 1)], 2)) == 9

    def test_closed_under_scalars(self):
        elements = enumerate_sumset(3, [(1, 2), (2, 0)], 2)
        for x in elements:
            for c in range(3):
                assert tuple((c * e) % 3 for e in x) in elements

    def test_cap_refusal_reports_size(self):
        r = rngmod.stream(1, "s")
        b = [tuple(r.randrange(5) for _ in range(3)) for _ in range(4)]
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_sumset(5, b, 4, cap=1000)
        assert exc.value.required == (5 * 4) ** 4


class TestInstanceIO:
    def test_json_round_trip(self, tmp_path):
        inst = generate_planted(rngmod.stream(9, "io"), 5, 2, 3, 4)
        p = tmp_path / "inst.json"
        with open(p, "w") as fh:
            json.dump(inst.to_json(), fh)
        back = VecSumInstance.load(p)
        assert back.to_json() == inst.to_json()
        assert back.planted == inst.planted

    def test_fingerprint_tracks_content(self):
        a = generate_planted(rngmod.stream(1, "fp"), 3, 2, 2, 3)
        b = generate_planted(rngmod.stream(2, "fp"), 3, 2, 2, 3)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == VecSumInstance.from_json(a.to_json()).fingerprint()

    def test_bad_planted_rejected(self):
        with pytest.raises(ContractViolation):
            from_collections(q=3, k=1, m=1, collections=(((1,),),), planted=(0,))

    @pytest.mark.parametrize(
        "vector",
        [[1, 2.0, 3], [1, True, 3], [1, 5, 3], [1, -1, 3], [1, 2], [1, 2, 3, 4], "123", None],
    )
    def test_malformed_vector_refused_not_fixed_up(self, vector):
        # residues are taken as given: anything but 3 ints in [0, 5) is refused
        doc = generate_planted(rngmod.stream(9, "io"), 5, 1, 3, 2).to_json()
        doc["collections"][0][0] = vector
        with pytest.raises(ContractViolation):
            VecSumInstance.from_json(doc)

    def test_empty_collection_rejected(self):
        with pytest.raises(ContractViolation):
            from_collections(q=3, k=1, m=1, collections=((),))


def test_paper_dimension_shape():
    assert paper_dimension(1, 4) == 2
    assert paper_dimension(2, 8) == 12
    assert paper_dimension(3, 2) == 9


@given(st.integers(0, 2**32), st.sampled_from([2, 3, 5]), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_planted_always_decides_yes(seed, q, k, m):
    inst = generate_planted(rngmod.stream(seed, "hyp"), q, k, m, 3)
    assert brute_force_decide(inst) is not None
