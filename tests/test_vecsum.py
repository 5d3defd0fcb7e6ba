"""Vector-sum instances: generators, brute-force deciding, validation."""

import json

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


def total(q, vectors):
    return tuple(sum(col) % q for col in zip(*vectors))


class TestGeneratePlanted:
    def test_planted_vectors_sum_to_zero(self):
        inst = generate_planted(rngmod.stream(3, "p"), 5, 3, 4, 5)
        s = total(5, [inst.collections[i][idx] for i, idx in enumerate(inst.planted)])
        assert s == (0,) * 4

    def test_degenerate_k1_contains_zero(self):
        inst = generate_planted(rngmod.stream(4, "p"), 3, 1, 3, 4)
        assert (0, 0, 0) in inst.collections[0]

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
            assert total(q, [us[i] for us, i in zip(inst.collections, w.indices)]) == (0,) * m


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
        inst = VecSumInstance(
            q=3, k=2, m=1, collections=(((1,),), ((2,),))
        )
        w = brute_force_decide(inst)
        assert w is not None and w.indices == (0, 0)

    def test_no_witness(self):
        inst = VecSumInstance(
            q=3, k=2, m=1, collections=(((1,),), ((1,),))
        )
        assert brute_force_decide(inst) is None

    def test_lexicographically_first(self):
        # two witnesses exist; enumeration in index order returns (0, 1)
        inst = VecSumInstance(
            q=3,
            k=2,
            m=1,
            collections=(((1,), (2,)), ((0,), (2,), (1,))),
        )
        w = brute_force_decide(inst)
        assert w.indices == (0, 1)

    def test_budget_refusal(self, monkeypatch):
        inst = generate_planted(rngmod.stream(7, "b"), 3, 3, 2, 5)
        monkeypatch.setattr(vecsum, "TUPLE_BUDGET", 100)
        with pytest.raises(BudgetExceeded):
            brute_force_decide(inst)


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
        assert back.collections == inst.collections
        assert back.planted == inst.planted

    def test_fingerprint_tracks_content(self):
        a = generate_planted(rngmod.stream(1, "fp"), 3, 2, 2, 3)
        b = generate_planted(rngmod.stream(2, "fp"), 3, 2, 2, 3)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == VecSumInstance.from_json(a.to_json()).fingerprint()

    def test_bad_planted_rejected(self):
        with pytest.raises(ContractViolation):
            VecSumInstance(
                q=3, k=1, m=1, collections=(((1,),),), planted=(0,)
            )

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
            VecSumInstance(q=3, k=1, m=1, collections=((),))


def test_paper_dimension_shape():
    assert paper_dimension(1, 4) == 2
    assert paper_dimension(2, 8) == 12
    assert paper_dimension(3, 2) == 9


@given(st.integers(0, 2**32), st.sampled_from([2, 3, 5]), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_planted_always_decides_yes(seed, q, k, m):
    inst = generate_planted(rngmod.stream(seed, "hyp"), q, k, m, 3)
    assert brute_force_decide(inst) is not None
