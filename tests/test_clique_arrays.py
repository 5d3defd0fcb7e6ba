"""The array clique type against the tuple-list path: planted cliques,
verify_clique's first pair, phase 1 of the decoded function and extraction
reports are the same whether a clique is given as a Clique or as its list
of Vertex tuples, and equal the references in edge_reference.  Also the
one converter for caller tuples, the list behaviour of the type, rank ids
against byte-string ids, and the ids a clique keeps against its rows."""

import json
import os
import random
import tracemalloc

import numpy as np
import pytest

from gapclique import reduction, rng as rngmod
from gapclique.cli import EXIT_INVALID, main
from gapclique.errors import BudgetExceeded, ContractViolation, PropertyViolation
from gapclique.randmap import sample_g
from gapclique.reduction import (
    Clique,
    CliqueInstance,
    ReductionParams,
    Vertex,
    _clique_values,
    _row_ids,
    as_clique,
    build_gamma,
    extract_witness,
    is_valid_vertex,
)
from gapclique.vecsum import generate_planted

import edge_reference as reference
from edge_reference import ReferenceOracle
from field_reference import rank_tuple

POINTS = [(2, 1, 2), (3, 1, 2), (2, 2, 1), (2, 2, 3), (3, 2, 4)]


def make_instance(seed, q, k, l, n=3):
    m = 8 if q == 2 else 4
    src = generate_planted(rngmod.stream(seed, "instance"), q, k, m, n)
    g = sample_g(rngmod.stream(seed, "matrices"), q, k, m, l, seed=seed)
    return CliqueInstance(ReductionParams(q=q, k=k, l=l), g, src)


EXTRACTION_POINTS = [(3, 1, 4), (3, 2, 128)]
WIDE = (3, 1, 48)  # 3^48 > 2^63: values get byte-string ids
INSTANCES = {point: make_instance(80 + sum(point), *point)
             for point in POINTS + EXTRACTION_POINTS + [WIDE]}


def random_vertex(r, q, k, l):
    vec = lambda n: tuple(r.randrange(q) for _ in range(n))
    alpha, beta, x = vec(k * k), vec(k * k), vec(l)
    return Vertex(alpha, beta, x, x if alpha == beta else vec(l))


def corrupted(ci, r, count):
    """Planted cliques of ci with `count` vertices replaced through
    Clique.__setitem__: by a random vertex, by one with x moved, or by a
    copy of another vertex of the clique."""
    q, k, l = ci.params.q, ci.params.k, ci.params.l
    out = []
    for _ in range(count):
        clique = ci.planted_clique(ci.source.planted)
        t = r.randrange(len(clique))
        kind = r.randrange(3)
        if kind == 0:
            clique[t] = random_vertex(r, q, k, l)
        elif kind == 1:
            v = clique[t]
            x = tuple((e + r.randrange(1, q)) % q for e in v.x)
            clique[t] = v._replace(x=x, y=x if v.alpha == v.beta else v.y)
        else:
            clique[t] = clique[r.randrange(len(clique))]
        out.append(clique)
    return out


def phase1_outcome(compute):
    try:
        got = compute()
    except PropertyViolation as exc:
        return str(exc)
    if isinstance(got, dict):  # the reference loop
        return list(got.items())
    return list(zip(*(map(tuple, t.tolist()) for t in got)))


# -- planted cliques -------------------------------------------------------------------


@pytest.mark.parametrize("q,k,l", POINTS)
def test_planted_clique_reads_as_the_reference_list(q, k, l):
    ci = INSTANCES[(q, k, l)]
    clique = ci.planted_clique(ci.source.planted)
    want = reference.planted_clique(ci, ci.source.planted)
    assert isinstance(clique, Clique) and len(clique) == len(want) == q ** (2 * k * k)
    assert list(clique) == want
    assert [clique[i] for i in (0, 1, -1, len(want) // 2)] == [want[i] for i in (0, 1, -1, len(want) // 2)]
    a, b = np.divmod(np.arange(len(want)), q ** (k * k))
    assert all(np.array_equal(got, ab) and got.dtype == ab.dtype
               for got, ab in ((clique.a, a), (clique.b, b), (clique.x, a), (clique.y, b)))
    # iteration shares one tuple per point and per value
    assert len({id(v.alpha) for v in clique}) == q ** (k * k)


# -- verify_clique -----------------------------------------------------------------------


@pytest.mark.parametrize("q,k,l", POINTS)
def test_verify_clique_same_pair_for_the_type_and_its_list(q, k, l):
    ci = INSTANCES[(q, k, l)]
    r = random.Random(f"verify-{q}-{k}-{l}")
    found = 0
    for clique in corrupted(ci, r, 6):
        got = ci.verify_clique(clique)
        assert got == ci.verify_clique(list(clique))
        if len(clique) <= 256:
            assert got == ReferenceOracle(ci).verify(list(clique))
        found += got is not None
    assert found


@pytest.mark.parametrize("q,l", [(2, 40), (3, 40)])
def test_verify_clique_past_64_bit_pair_keys(q, l):
    # (2,1,40): value ranks up to 2^40, so a (value, value) pair key would
    # pass 2^63; (3,1,40): 3^40 > 2^63, so values get byte-string ids
    ci = make_instance(q + l, q, 1, l)
    clique = ci.planted_clique(ci.source.planted)
    assert ci.verify_clique(clique) is None
    ref, r = ReferenceOracle(ci), random.Random(f"wide-{q}")
    for bad in corrupted(ci, r, 6):
        assert ci.verify_clique(bad) == ref.verify(list(bad))


# -- the planted layout, decided from its value table -------------------------------------

DECISION_POINTS = [(2, 1, 2), (3, 1, 2), (5, 1, 1), (2, 2, 1), (2, 2, 3), (3, 2, 1)]


def planted_rows(params, values):
    """R, the planted layout's value rows at the k^2 unit points, if values
    = digits @ R; else None, as where int64 products could wrap."""
    q, kk = params.q, params.k**2
    if kk * q * q >= 2**63:
        return None
    digits, place = reduction._domain(q, kk)
    R = values[place]
    return R if (digits @ R % q == values).all() else None


def with_values(clique, values):
    # the planted layout over another value table, with its rows R where
    # the table is linear, as planted_clique hands them over
    return Clique(clique.params, clique.points, values, planted_rows=planted_rows(clique.params, values))


def decision_cases(ci, r):
    """(kind, clique) in the planted layout: the planted clique, one-entry
    corruptions of its value table X, a linear X whose blocks are images of
    vectors but do not sum to 0 ("rule 5"), and a linear X summing to 0
    whose block 0 is no vector's image ("rule 4").  A linear X is
    digits @ R, block i of R being an (k, l) image transposed.  Then the
    planted tables under index arrays off the layout, one wrong array each:
    diagonal vertices (alpha, alpha), P times each, and vertices
    (alpha, beta, X[alpha], X[alpha]) or (alpha, beta, X[beta], X[beta]);
    and the planted indices into the points in reverse order."""
    q, k, l = ci.params.q, ci.params.k, ci.params.l
    planted = ci.planted_clique(ci.source.planted)
    digits = reduction._domain(q, k * k)[0]
    yield "planted", planted
    a, b = planted.a, planted.b
    for rows in ((a, a, a, a), (b, b, b, b), (a, b, a, a), (a, b, b, b)):
        yield "off layout", Clique(ci.params, planted.points, planted.values, *rows)
    yield "off layout", Clique(ci.params, planted.points[::-1], planted.values, a, b, a, b)
    for _ in range(3):
        X = planted.values.copy()
        X[r.randrange(len(X)), r.randrange(l)] += r.randrange(1, q)
        yield "corrupted", with_values(planted, X % q)
    for _ in range(20):
        blocks = [images[r.randrange(len(images))].T for images in ci._images]
        if (sum(blocks) % q).any():
            yield "rule 5", with_values(planted, digits @ np.concatenate(blocks) % q)
            break
    images = ci._images[0]
    for _ in range(20):
        M = np.array([[r.randrange(q) for _ in range(k)] for _ in range(l)])
        if not (images == M).all(axis=(1, 2)).any():
            break
    blocks = [M.T] + [ci._images[i][r.randrange(len(ci._images[i]))].T for i in range(1, k - 1)]
    if k > 1:
        blocks.append(-sum(blocks) % q)
    yield "rule 4", with_values(planted, digits @ np.concatenate(blocks) % q)


def refuse(*args):
    raise AssertionError("a planted clique accepted from its value table never computes slot ids")


@pytest.mark.parametrize("q,k,l", DECISION_POINTS)
def test_planted_layout_decided_as_the_scan_decides(q, k, l, monkeypatch):
    # the list of a clique takes the general path: grouped test, then scan
    kinds = {}
    for seed in range(4):
        ci = make_instance(seed, q, k, l)
        for kind, clique in decision_cases(ci, random.Random(f"decide-{seed}")):
            want = ci.verify_clique(list(clique))
            with monkeypatch.context() as m:
                if want is None and kind != "off layout":
                    m.setattr(Clique, "slot_ids", property(refuse))
                assert ci.verify_clique(clique) == want
            rules = want[2] if want else frozenset()
            kinds.setdefault(kind, set()).add(rules)
            if kind == "rule 5":
                assert rules == {5}
            elif kind == "rule 4" and k > 1:
                assert rules <= {4}
    assert kinds["planted"] == {frozenset()} and kinds["corrupted"] - {frozenset()}
    assert {4} in kinds["rule 4"] or {4, 5} in kinds["rule 4"]


def gamma_outcome(clique, ci, seed, verify=False):
    """build_gamma's table and phase-1 ranks as bytes, or its refusal, and
    the state its rng is left in."""
    rng = rngmod.stream(seed, "gamma-fill")
    try:
        table, ranks = build_gamma(clique, ci, rng=rng, verify=verify)
        got = tuple((a.tobytes(), a.shape, a.dtype.str) for a in (table.values, ranks))
    except PropertyViolation as exc:
        got = str(exc)
    return got, rng.getstate()


@pytest.mark.parametrize("q,k,l", DECISION_POINTS)
def test_planted_layout_phase1_is_the_general_path(q, k, l):
    # a planted layout that carries its rows R (the planted clique, and the
    # linear "rule 4" and "rule 5" tables) gets its own value table back;
    # the general path on its vertex list builds the same bytes, draws
    # nothing, and refuses the corrupted tables alike
    outcomes = set()
    for seed in range(4):
        ci = make_instance(seed, q, k, l)
        for kind, clique in decision_cases(ci, random.Random(f"phase1-{seed}")):
            want = gamma_outcome(as_clique(list(clique), ci.params), ci, seed)
            assert gamma_outcome(clique, ci, seed) == want
            outcomes.add((kind, type(want[0]), clique.planted_rows is not None))
    assert ("corrupted", str, False) in outcomes
    assert {("planted", tuple, True), ("rule 5", tuple, True)} <= outcomes


@pytest.mark.parametrize("q,k,l", [(2, 2, 1), (2, 2, 2), (2, 2, 3), (3, 1, 4), (3, 2, 16), (5, 2, 8),
                                   (13, 2, 16)])
def test_planted_rows_are_the_recognized_rows(q, k, l):
    # planted_clique's R and value table, byte for byte, against the rows
    # the recognizer reads off the table and the per-block broadcast sums
    ci = make_instance(47, q, k, l)
    r = random.Random(f"rows-{q}-{k}-{l}")
    directions = reduction._domain(q, k)[0]
    for indices in (ci.source.planted, tuple(r.randrange(n) for n in ci.source.sizes)):
        clique = ci.planted_clique(list(indices))
        broadcast = np.zeros((1, l), dtype=np.int64)
        for i, idx in enumerate(indices):
            broadcast = (broadcast[:, None, :] + directions @ ci._images[i][idx].T % q).reshape(-1, l) % q
        R = planted_rows(ci.params, clique.values)
        for got, want in ((clique.planted_rows, R), (clique.values, broadcast)):
            assert (got.tobytes(), got.shape, got.dtype) == (want.tobytes(), want.shape, want.dtype)


@pytest.mark.parametrize("q,k,l", [(3, 1, 2), (3, 2, 1), (2, 2, 2)])
@pytest.mark.parametrize("verify", [False, True])
def test_planted_gamma_table_is_the_general_path(q, k, l, verify):
    # a planted clique's gamma table is the general path's on its vertex
    # list, neither drawing from the rng; it carries R and is scalar respecting
    ci = make_instance(47, q, k, l)
    clique = ci.planted_clique(ci.source.planted)
    want = gamma_outcome(as_clique(list(clique), ci.params), ci, q + l, verify)
    assert gamma_outcome(clique, ci, q + l, verify) == want
    assert want[1] == rngmod.stream(q + l, "gamma-fill").getstate()
    table, _ = build_gamma(clique, ci, verify=verify)
    assert np.array_equal(table._linear, clique.planted_rows.T) and table._scalar_respecting is True


def test_clique_without_planted_rows_takes_the_general_path(monkeypatch):
    # the planted layout built without R is decided, and its table built,
    # as its vertex list is: grouped test and phase 1, to the same outcome
    ci = INSTANCES[(2, 2, 1)]
    planted = ci.planted_clique(ci.source.planted)
    bare = Clique(ci.params, planted.points, planted.values)
    assert bare.planted and bare.planted_rows is None
    grouped, phase1 = [], []
    group, values = CliqueInstance._grouped_clique, reduction._clique_values
    monkeypatch.setattr(CliqueInstance, "_grouped_clique", lambda s, c: grouped.append(c) or group(s, c))
    monkeypatch.setattr(reduction, "_clique_values", lambda c, q: phase1.append(c) or values(c, q))
    assert ci.verify_clique(bare) is None and grouped == [bare]
    assert gamma_outcome(bare, ci, 0) == gamma_outcome(planted, ci, 0) and phase1 == [bare]
    grouped.clear()
    assert ci.verify_clique(planted) is None and gamma_outcome(planted, ci, 0) and grouped == []
    assert phase1 == [bare]


def test_planted_layout_decided_once_per_clique(monkeypatch):
    # the layout is decided when the clique is built, so a verified
    # extraction never encodes it; a replaced vertex makes it a vertex
    # list, so the corrupted clique is scanned and rejected
    ci = INSTANCES[(3, 1, 2)]
    clique = ci.planted_clique(ci.source.planted)
    assert clique.planted_rows is not None
    with monkeypatch.context() as m:
        m.setattr(Clique, "slot_ids", property(refuse))
        extract_witness(clique, ci, eps=0.5, verify=True)
        assert ci.verify_clique(clique) is None
    v = clique[1]
    clique[1] = v._replace(x=tuple((e + 1) % 3 for e in v.x))
    assert clique.planted_rows is None
    bad = ci.verify_clique(clique)
    assert bad is not None and bad == ReferenceOracle(ci).verify(list(clique))


@pytest.mark.parametrize("q,k,l", [(7, 2, 1), (11, 2, 1)])
def test_large_planted_cliques_never_reach_the_general_path(q, k, l, monkeypatch):
    # 5,764,801 and 214,358,881 vertices: index arrays of P^2 entries would
    # take 88 MB and 3.4 GB; the planted layout holds P value rows instead
    ci = make_instance(7, q, k, l)
    monkeypatch.setattr(Clique, "slot_ids", property(refuse))
    tracemalloc.start()
    try:
        clique = ci.planted_clique(ci.source.planted)
        assert ci.verify_clique(clique) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(clique) == q ** (2 * k * k)
    assert peak <= 4_000_000


@pytest.mark.parametrize("q,k,l", [(7, 2, 1), (11, 2, 1)])
def test_corrupted_large_planted_cliques_refused_by_budget(q, k, l):
    # one value entry off: the planted decision rejects the table, and the
    # general path refuses before building P^2-entry index arrays, at the
    # first read of one, whichever stage reads it
    ci = make_instance(7, q, k, l)
    planted = ci.planted_clique(ci.source.planted)
    X = planted.values.copy()
    X[5, 0] = (X[5, 0] + 1) % q
    bad = with_values(planted, X)
    assert bad.planted_rows is None
    tracemalloc.start()
    try:
        for read in (ci.verify_clique, lambda c: build_gamma(c, ci, verify=False),
                     lambda c: extract_witness(c, ci, eps=0.5), list, lambda c: c[0]):
            with pytest.raises(BudgetExceeded) as exc:
                read(bad)
            assert exc.value.what == "general path vertices"
            assert (exc.value.required, exc.value.budget) == (len(bad), reduction.GENERAL_PATH_BUDGET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_000_000


def test_general_path_runs_under_its_budget():
    # (5,2,2): 390,625 vertices, the largest k = 2 planted clique under the
    # budget; a corrupted table is encoded, grouped and scanned
    ci = make_instance(7, 5, 2, 2)
    planted = ci.planted_clique(ci.source.planted)
    assert len(planted) <= reduction.GENERAL_PATH_BUDGET < 7**8
    X = planted.values.copy()
    X[5, 0] = (X[5, 0] + 1) % 5
    bad = ci.verify_clique(with_values(planted, X))
    assert bad is not None and bad[2]


# -- phase 1 and extraction ------------------------------------------------------------


@pytest.mark.parametrize("q,k,l", POINTS + [WIDE])
def test_clique_values_match_reference(q, k, l):
    ci = INSTANCES[(q, k, l)]
    r = random.Random(f"phase1-{q}-{k}-{l}")
    outcomes = set()
    for clique in [ci.planted_clique(ci.source.planted)] + corrupted(ci, r, 6):
        want = phase1_outcome(lambda: reference.clique_values(list(clique), q))
        assert phase1_outcome(lambda: _clique_values(clique, q)) == want
        listed = as_clique(list(clique), ci.params)
        assert phase1_outcome(lambda: _clique_values(listed, q)) == want
        outcomes.add(type(want))
    assert outcomes == {list, str}


@pytest.mark.parametrize("q,k,l", [(3, 1, 2), (2, 2, 3), WIDE])
def test_clique_values_on_crowded_lists(q, k, l):
    # few points and x values, so many vertices tie on (alpha, beta, x) and
    # the sort falls through to y
    ci = INSTANCES[(q, k, l)]
    r = random.Random(f"crowded-{q}-{k}-{l}")
    points = [random_vertex(r, q, k, l).alpha for _ in range(2)]
    xs = [random_vertex(r, q, k, l).x for _ in range(2)]
    outcomes = set()
    for size in (2, 3, 5, 9) * 10:
        vertices = []
        for _ in range(size):
            alpha, beta, x = r.choice(points), r.choice(points), r.choice(xs)
            y = x if alpha == beta else random_vertex(r, q, k, l).y
            vertices.append(Vertex(alpha, beta, x, y))
        want = phase1_outcome(lambda: reference.clique_values(vertices, q))
        assert phase1_outcome(lambda: _clique_values(as_clique(vertices, ci.params), q)) == want
        outcomes.add(type(want))
    assert str in outcomes


def test_slot_sums_past_2_to_the_62():
    # two residues of this modulus can add past 2^63: the sum slots must
    # not wrap, in the ids the rules read nor in phase 1's rows
    q = 6917529027641081903
    params = ReductionParams(q=q, k=1, l=1)
    vertices = [Vertex((q - 1,), (q - 2,), (1,), (1,)), Vertex((q - 3,), (5,), (2,), (7,)),
                Vertex((7,), (8,), (q - 1,), (q - 2,))]
    clique = as_clique(vertices, params)
    point, value = clique.slot_ids
    assert point.tolist() == [[q - 1, q - 2, q - 3], [q - 3, 5, 2], [7, 8, 15]]
    assert value.tolist() == [[1, 1, 2], [2, 7, 9], [q - 1, q - 2, q - 3]]
    want = phase1_outcome(lambda: reference.clique_values(vertices, q))
    assert phase1_outcome(lambda: _clique_values(clique, q)) == want
    assert want[2] == ((q - 3,), (2,))


@pytest.mark.parametrize("q,k,l", POINTS + EXTRACTION_POINTS)
def test_extraction_report_same_for_the_type_and_its_list(q, k, l):
    ci = INSTANCES[(q, k, l)]
    clique = ci.planted_clique(ci.source.planted)
    for verify in (False, True):
        reports = [extract_witness(c, ci, eps=0.5, rng=rngmod.stream(q + l, "gamma-fill"),
                                   verify=verify).to_json()
                   for c in (clique, list(clique))]
        assert reports[0] == reports[1]


# -- ids ----------------------------------------------------------------------------------


@pytest.mark.parametrize("q,w", [(2, 3), (3, 4), (5, 2), (7, 1), (4294967291, 1)])
def test_rank_ids_are_byte_ids_relabelled(q, w, monkeypatch):
    r = np.random.default_rng(q + w)
    blocks = [r.integers(0, q, size=(n, w)) for n in (40, 1, 25)]
    blocks.append(blocks[0][::-1])
    ranks = np.concatenate(_row_ids(q, *blocks))
    monkeypatch.setattr(reduction, "RANK_LIMIT", 0)
    bytes_ = np.concatenate(_row_ids(q, *blocks))
    # both order like the rows, so densified ranks are the byte ids
    assert (np.unique(ranks, return_inverse=True)[1] == bytes_).all()
    rows = [tuple(row) for row in np.concatenate(blocks).tolist()]
    assert (ranks == [rank_tuple(q, row) for row in rows]).all()


@pytest.mark.parametrize("q,k,l", [(3, 1, 2), (2, 2, 1), (3, 2, 4), (3, 1, 40)])
def test_clique_ids_equal_iff_the_rows_are(q, k, l):
    # (3,1,40): 3^40 > 2^63, so the value ids are byte-string ids
    r = random.Random(f"ids-{q}-{k}-{l}")
    pool = [random_vertex(r, q, k, l) for _ in range(12)]
    params = ReductionParams(q=q, k=k, l=l)
    for size in (1, 5, 30):
        vertices = [r.choice(pool) for _ in range(size)]
        clique = as_clique(vertices, params)
        point, value = clique.slot_ids
        slots = [reference.slots(v, q) for v in vertices]
        rows = [[s[0] for s in vs] for vs in slots], [[s[1] for s in vs] for vs in slots]
        for ids, rows_of in zip((point, value), rows):
            flat, flat_rows = ids.reshape(-1), [row for vs in rows_of for row in vs]
            assert ids.shape == (size, 3)
            assert all((flat[i] == flat[j]) == (flat_rows[i] == flat_rows[j])
                       for i in range(len(flat)) for j in range(len(flat)))
        ids, first = clique.vertex_ids
        assert all((ids[i] == ids[j]) == (vertices[i] == vertices[j])
                   for i in range(size) for j in range(size))
        assert sorted(first.tolist()) == sorted(vertices.index(v) for v in set(vertices))
        assert (ids[first] == np.arange(len(first))).all()


def test_replaced_vertex_recomputes_the_ids():
    ci = INSTANCES[(3, 1, 2)]
    r = random.Random("replace-ids")
    clique = as_clique([random_vertex(r, 3, 1, 2) for _ in range(8)], ci.params)
    names = ("slot_ids", "vertex_ids", "rule_ids")
    for i, v in [(2, clique[5]), (0, random_vertex(r, 3, 1, 2)), (7, clique[0])]:
        for name in names:
            getattr(clique, name)  # cached for the vertices before the replacement
        clique[i] = v
        fresh = as_clique(list(clique), ci.params)
        for name in names:
            assert all(np.array_equal(a, b) for a, b in zip(getattr(clique, name), getattr(fresh, name)))
        assert ci.verify_clique(clique) == ci.verify_clique(fresh) == ReferenceOracle(ci).verify(list(clique))


def test_pair_ids_past_64_bit_keys():
    # a * (max(b) + 1) + b would wrap: 2^24 * 2^40 is 2^64, the key of (0, 0)
    a = np.array([1 << 24, 0, 0, 1 << 24])
    b = np.array([0, 0, (1 << 40) - 1, 0])
    ids, first = reduction._pair_ids(a, b)
    assert ids.tolist() == [2, 0, 1, 2] and first.tolist() == [1, 2, 0]


@pytest.mark.parametrize("q,k,l", [(2, 2, 1), (3, 1, 2), (3, 2, 4)])
def test_outputs_do_not_depend_on_the_id_kind(q, k, l, monkeypatch):
    ci = INSTANCES[(q, k, l)]
    cliques = [ci.planted_clique(ci.source.planted)] + corrupted(ci, random.Random(q), 4)

    def outputs():
        return ([ci.verify_clique(c) for c in cliques],
                [phase1_outcome(lambda: _clique_values(c, q)) for c in cliques],
                ci.materialize(budget=2000).adj if ci.codec.count <= 2000 else None)

    by_rank = outputs()
    monkeypatch.setattr(reduction, "RANK_LIMIT", 0)
    assert outputs() == by_rank


# -- the converter -----------------------------------------------------------------------


def first_invalid(vertices, params):
    return next(v for v in vertices if not is_valid_vertex(v, params))


@pytest.mark.parametrize("bad", [
    Vertex((1,), (2,), (0, 3), (1, 1)),  # out of range
    Vertex((1,), (2,), (0, -1), (1, 1)),  # negative
    Vertex((1,), (2,), (0, 2**70), (1, 1)),  # past 64 bits
    Vertex((1,), (2,), (0,), (1, 1)),  # too short
    Vertex((1,), (2,), (0, 1, 2), (1, 1)),  # too long
    Vertex((1,), (2,), (0, 1.0), (1, 1)),  # not an int
    Vertex((1,), (2,), (0, True), (1, 1)),  # a bool
    Vertex((1,), (2,), (0, np.int64(1)), (1, 1)),  # a numpy int
    Vertex((1,), (1,), (0, 1), (1, 1)),  # alpha = beta, x != y
    ((1,), (2,), (0, 1)),  # three parts
    5,  # not a sequence
    None,
    "abcd",  # four parts, none a list
    ([1], (1,), [0, 1], (1, 1)),  # alpha = beta, x != y, as a list and a tuple
])
def test_converter_names_the_first_invalid_vertex(bad):
    ci = INSTANCES[(3, 1, 2)]
    good = list(ci.planted_clique(ci.source.planted))
    other = Vertex((0,), (0,), (0, 0), (1, 0))
    for vertices in ([bad], good[:4] + [bad] + good[4:], good + [bad, other], good + [other, bad]):
        want = first_invalid(vertices, ci.params)
        with pytest.raises(ContractViolation) as exc:
            as_clique(vertices, ci.params)
        assert str(exc.value) == f"invalid vertex {want}"
        for read in (ci.verify_clique, lambda c: build_gamma(c, ci),
                     lambda c: extract_witness(c, ci)):
            with pytest.raises(ContractViolation, match="invalid vertex"):
                read(vertices)


def test_parts_compare_as_sequences():
    # a list and a tuple with the same entries are one part: alpha = beta
    # needs x = y whatever the sequence types, as the array check reads them
    params = ReductionParams(3, 1, 1)
    with pytest.raises(ContractViolation) as exc:
        as_clique([([1], (1,), [0], [1])], params)
    assert str(exc.value) == "invalid vertex ([1], (1,), [0], [1])"
    assert list(as_clique([([1], (1,), [0], (0,)), ([1], (2,), [0], (1,))], params)) == [
        Vertex((1,), (1,), (0,), (0,)), Vertex((1,), (2,), (0,), (1,))]


def test_converter_accepts_plain_tuples_and_refuses_other_parameters():
    ci = INSTANCES[(3, 1, 2)]
    clique = ci.planted_clique(ci.source.planted)
    plain = [tuple(map(list, v)) for v in clique]
    assert list(as_clique(plain, ci.params)) == list(clique)
    assert len(as_clique([], ci.params)) == 0 and list(as_clique([], ci.params)) == []
    assert as_clique(clique, ci.params) is clique
    with pytest.raises(ContractViolation, match="other reduction parameters"):
        as_clique(clique, ReductionParams(q=3, k=1, l=3))


def test_cli_refuses_a_clique_file_with_an_invalid_vertex(tmp_path, capsys):
    out = str(tmp_path)
    base = ["--seed", "2", "--out-dir", out]
    assert main(base + ["gen-vecsum", "--q", "3", "--k", "1", "--m", "4", "--n", "4",
                        "--planted"]) == 0
    assert main(base + ["reduce", "--instance", os.path.join(out, "instance.json"),
                        "--l", "2"]) == 0
    cl = os.path.join(out, "clique.json")
    for bad in ([[1], [2], [0, 3], [1, 1]], [[1], [1], [0, 1], [1, 1]], [[1], [2], [0, 1.5], [1, 1]]):
        with open(cl, "w") as fh:
            json.dump({"vertices": [[[0], [1], [0, 0], [0, 0]], bad]}, fh)
        capsys.readouterr()
        assert main(base + ["extract", "--reduction", os.path.join(out, "reduction.json"),
                            "--clique", cl]) == EXIT_INVALID
        assert f"invalid vertex {bad}" in capsys.readouterr().err


# -- list behaviour ---------------------------------------------------------------------


def test_clique_reads_like_a_list():
    ci = INSTANCES[(3, 1, 2)]
    clique = ci.planted_clique(ci.source.planted)
    vertices = list(clique)
    assert clique[2:5] == vertices[2:5] and clique[::-3] == vertices[::-3]
    assert list(clique) + vertices[:2] == vertices + vertices[:2]
    assert clique[-1] == vertices[-1] and vertices[3] in clique
    assert sorted(random.Random(1).sample(clique, 4)) == sorted(random.Random(1).sample(vertices, 4))
    with pytest.raises(IndexError):
        clique[len(clique)]
    # replacing a vertex validates it and leaves the others as they were
    v = Vertex((1,), (2,), (0, 1), (1, 1))
    clique[4] = v
    vertices[4] = v
    assert list(clique) == vertices
    with pytest.raises(ContractViolation, match="invalid vertex"):
        clique[0] = Vertex((1,), (2,), (0, 3), (1, 1))
    assert list(clique) == vertices


# -- materialize ---------------------------------------------------------------------------


@pytest.mark.parametrize("q,k,l", [(3, 1, 2), (2, 2, 1)])
def test_materialize_row_block_does_not_matter(q, k, l, monkeypatch):
    ci = make_instance(9, q, k, l, n=8)
    graph = ci.materialize()
    monkeypatch.setattr(reduction, "ROW_BLOCK", 7)
    assert ci.materialize().adj == graph.adj
    monkeypatch.setattr(reduction, "ROW_BLOCK", 1000)
    assert ci.materialize().adj == graph.adj


def test_materialize_heap_peak_at_3_1_2():
    # the rule-2 AND of a row block is ROW_BLOCK x 513 mask words
    ci = make_instance(3, 3, 1, 2, n=8)
    ci.materialize()
    tracemalloc.start()
    try:
        ci.materialize()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 525_000
