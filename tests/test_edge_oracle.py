"""The batched edge oracle against the pair-by-pair reference scan: exact rule
sets on every pair of small graphs and on targeted random pairs, the first
violation verify_clique reports, and materialized adjacency."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapclique import reduction, rng as rngmod
from gapclique.errors import ContractViolation
from gapclique.randmap import sample_g
from gapclique.reduction import CliqueInstance, ReductionParams, Vertex, as_clique, is_valid_vertex
from gapclique.vecsum import generate_planted

from edge_reference import ReferenceOracle, codec_vertices, pair_rule_sets, unrank
from field_reference import add, rank_tuple, scale
from graph_reference import has_edge


def make_instance(seed, q, k, l, n=4):
    m = 8 if q == 2 else 4
    src = generate_planted(rngmod.stream(seed, "instance"), q, k, m, n)
    g = sample_g(rngmod.stream(seed, "matrices"), q, k, m, l, seed=seed)
    return CliqueInstance(ReductionParams(q=q, k=k, l=l), g, src)


# -- vertices drawn to hit every rule's special cases ---------------------------------

RELATIONS = ("random", "zero_alpha", "zero_beta", "same_line", "single_block",
             "constant_shift", "same_cloud", "shared_point", "collided")


def _vertex(alpha, beta, x, y):
    return Vertex(alpha, beta, x, x if alpha == beta else y)


def random_vertex(pick, q, k, l):
    """pick(lo, hi) draws an int in [lo, hi]."""
    vec = lambda n: tuple(pick(0, q - 1) for _ in range(n))
    return _vertex(vec(k * k), vec(k * k), vec(l), vec(l))


def related_vertex(pick, q, k, l, u):
    """A vertex in one of the relations to u that the rules single out:
    alpha = 0 or beta = 0, alpha on u's scalar line, a one-block or constant
    block shift of u's alpha, u's cloud, a point u assigns, or collided
    slots of its own (beta = 0 or alpha + beta = 0 or alpha = beta)."""
    kk = k * k
    vec = lambda n: tuple(pick(0, q - 1) for _ in range(n))
    alpha, beta, x, y = vec(kk), vec(kk), vec(l), vec(l)
    kind = RELATIONS[pick(0, len(RELATIONS) - 1)]
    if kind == "zero_alpha":
        alpha = (0,) * kk
    elif kind == "zero_beta":
        beta = (0,) * kk
    elif kind == "same_line":
        c = pick(0, q - 1)
        alpha = scale(q, c, u.alpha)
        if pick(0, 1):
            x = scale(q, c, u.x)
    elif kind == "single_block":
        i = pick(0, k - 1)
        alpha = u.alpha[: i * k] + vec(k) + u.alpha[(i + 1) * k :]
        if pick(0, 1):
            x = u.x
    elif kind == "constant_shift":
        alpha = add(q, u.alpha, vec(k) * k)
        if pick(0, 1):
            x = u.x
    elif kind == "same_cloud":
        alpha, beta = u.alpha, u.beta
    elif kind == "shared_point":
        alpha = add(q, u.alpha, u.beta) if pick(0, 1) else u.beta
        if pick(0, 1):
            x = u.y
    elif kind == "collided":
        beta = scale(q, q - 1, alpha) if pick(0, 1) else alpha
    return _vertex(alpha, beta, x, y)


def seeded_pairs(seed, q, k, l, count):
    r = random.Random(seed)
    out = []
    for _ in range(count):
        u = random_vertex(r.randint, q, k, l)
        if r.randint(0, 1):
            u = related_vertex(r.randint, q, k, l, u)
        out.append((u, related_vertex(r.randint, q, k, l, u)))
    return out


POINTS = [(2, 2, 1), (2, 2, 2), (2, 2, 3), (3, 1, 2), (5, 1, 1)]
INSTANCES = {point: make_instance(sum(point), *point) for point in POINTS}


# -- rule sets --------------------------------------------------------------------------


@pytest.mark.parametrize("q,k,l", [(2, 1, 1), (2, 1, 2), (3, 1, 1)])
def test_all_pairs_match_reference(q, k, l):
    ci = make_instance(q + l, q, k, l)
    ref = ReferenceOracle(ci)
    vertices = [unrank(ci.codec, r) for r in range(ci.codec.count)]
    pairs = list(itertools.product(vertices, repeat=2))
    for (u, v), rules in zip(pairs, pair_rule_sets(ci, pairs)):
        assert rules == ref.rules(u, v), (u, v)


@pytest.mark.parametrize("q,k,l", POINTS)
def test_seeded_targeted_pairs_match_reference(q, k, l):
    ci = INSTANCES[(q, k, l)]
    ref = ReferenceOracle(ci)
    pairs = seeded_pairs(f"{q}-{k}-{l}", q, k, l, 1500)
    fired = set()
    for (u, v), rules in zip(pairs, pair_rule_sets(ci, pairs)):
        assert rules == ref.rules(u, v), (u, v)
        fired |= rules
    assert fired == {1, 2, 3, 4, 5}


@st.composite
def vertex_pairs(draw, q, k, l):
    pick = lambda lo, hi: draw(st.integers(lo, hi))
    u = random_vertex(pick, q, k, l)
    if pick(0, 1):
        u = related_vertex(pick, q, k, l, u)
    return u, related_vertex(pick, q, k, l, u)


@pytest.mark.parametrize("q,k,l", POINTS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_hypothesis_pairs_match_reference(q, k, l, data):
    ci = INSTANCES[(q, k, l)]
    u, v = data.draw(vertex_pairs(q, k, l))
    expected = ReferenceOracle(ci).rules(u, v)
    assert pair_rule_sets(ci, [(u, v), (v, u)]) == [expected, expected]


# -- verify_clique ----------------------------------------------------------------------


@pytest.mark.parametrize("q,k,l", [(2, 2, 1), (2, 2, 3), (3, 1, 2), (5, 1, 1)])
def test_corrupted_planted_clique_reports_reference_pair(q, k, l):
    ci = INSTANCES[(q, k, l)]
    ref = ReferenceOracle(ci)
    clique = ci.planted_clique(ci.source.planted)
    assert ci.verify_clique(clique) is None
    r = random.Random(f"corrupt-{q}-{k}-{l}")
    for _ in range(4):
        bad = list(clique)
        at = r.randrange(len(bad))
        bad[at] = related_vertex(r.randint, q, k, l, bad[at])
        if r.randint(0, 1):
            bad.insert(r.randrange(len(bad)), bad[at])  # a repeat is skipped
        assert ci.verify_clique(bad) == ref.verify(bad)


def test_repeated_vertices_are_skipped():
    ci = INSTANCES[(3, 1, 2)]
    clique = ci.planted_clique(ci.source.planted)
    assert ci.verify_clique(list(clique) + clique[:3]) is None


def test_lists_without_pairs():
    ci = INSTANCES[(3, 1, 2)]
    v = Vertex((1,), (2,), (0, 1), (1, 1))
    assert ci.verify_clique([]) is None and ci.verify_clique([v]) is None
    with pytest.raises(ContractViolation):
        ci.verify_clique([Vertex((1,), (2,), (0, 1), (1,))])


def test_invalid_vertex_after_a_violating_pair_raises():
    # every vertex is validated before any pair is compared: the first two
    # vertices share a cloud, the third is out of range, too short, holds a
    # non-int, or has alpha = beta with x != y
    ci = INSTANCES[(3, 1, 2)]
    v = Vertex((1,), (2,), (0, 1), (1, 1))
    w = Vertex((1,), (2,), (1, 1), (0, 1))
    assert 1 in ci.verify_clique([v, w])[2]
    for bad in (Vertex((1,), (2,), (0, 3), (1, 1)), Vertex((1,), (2,), (0,), (1, 1)),
                Vertex((1,), (2,), (0, 1.0), (1, 1)), Vertex((1,), (1,), (0, 1), (1, 1))):
        with pytest.raises(ContractViolation, match="invalid vertex"):
            ci.verify_clique([v, w, bad])


def test_modulus_past_64_bit_products_refused():
    # 4294967311 is the first prime above 2^32: alpha times an inverse would
    # overflow int64, so the encoding refuses instead of wrapping
    q = 4294967311
    src = generate_planted(rngmod.stream(1, "instance"), q, 1, 2, 2)
    ci = CliqueInstance(ReductionParams(q=q, k=1, l=1), sample_g(rngmod.stream(1, "g"), q, 1, 2, 1), src)
    with pytest.raises(ContractViolation, match="64-bit"):
        ci.verify_clique([Vertex((1,), (2,), (3,), (4,)), Vertex((q - 1,), (2,), (3,), (4,))])


def test_grouped_test_counts_only_the_points_touched():
    # point ids are base-q ranks up to 2^31 - 2: one bin per possible point
    # would take 16 GiB.  Rule 2 fires at beta = 2 (y = 4 against 5), rule 3
    # as alpha' = -alpha with x' = x != -x; k = 1 plants the zero vector,
    # whose image explains x - x' = 0, so rule 4 stays silent
    q = 2**31 - 1
    src = generate_planted(rngmod.stream(1, "instance"), q, 1, 2, 2)
    ci = CliqueInstance(ReductionParams(q=q, k=1, l=1), sample_g(rngmod.stream(1, "g"), q, 1, 2, 1), src)
    vertices = [Vertex((1,), (2,), (3,), (4,)), Vertex((q - 1,), (2,), (3,), (5,))]
    tracemalloc.start()
    try:
        got = ci.verify_clique(vertices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ReferenceOracle(ci).verify(vertices)
    assert got[2] == {2, 3}
    assert peak <= 1_000_000


def rule3_by_every_scalar(q, u, v):
    """Rule 3 read off its definition: some c in F_q has u.alpha = c v.alpha
    but u.x != c v.x."""
    return any(u.alpha == scale(q, c, v.alpha) and u.x != scale(q, c, v.x) for c in range(q))


@pytest.mark.parametrize("q,k,l", [(2, 2, 1), (3, 1, 2), (5, 2, 2), (7, 1, 1), (13, 2, 2)])
def test_reference_rule3_matches_every_scalar(q, k, l):
    # the reference's one candidate scalar decides as trying all q of them;
    # targeted pairs put alpha on the other's line, and the zero alpha and
    # zero x cases are listed whole
    ref = ReferenceOracle(make_instance(q + k + l, q, k, l))
    zero, one, xs = (0,) * (k * k), (1,) + (0,) * (k * k - 1), ((0,) * l, (1,) * l)
    pairs = seeded_pairs(f"rule3-{q}-{k}-{l}", q, k, l, 1000)
    pairs += [(_vertex(a, zero, x, xs[0]), _vertex(zero, zero, y, y))
              for a in (zero, one) for x in xs for y in xs]
    fired = set()
    for u, v in pairs + [(v, u) for u, v in pairs]:
        want = rule3_by_every_scalar(q, u, v)
        assert ref._rule3(u, v) == want, (u, v)
        fired.add(want)
    assert fired == {False, True}


# -- the grouped decision against the scan ----------------------------------------------


def grouped_against_scan(ci, vertices):
    """The reference scan's first violation, after checking that the grouped
    decision agrees with it and verify_clique returns it."""
    expected = ReferenceOracle(ci).verify(vertices)
    assert ci._grouped_clique(as_clique(vertices, ci.params)) == (expected is None)
    assert ci.verify_clique(vertices) == expected
    return expected


def fired_with(ci, u, vertices):
    """The union of the reference's rule sets between u and the others."""
    ref = ReferenceOracle(ci)
    return set().union(*(ref.rules(u, w) for w in vertices if w != u))


def corrupt(r, clique, u):
    """The clique with u in place of a random vertex, sometimes with a
    repeat of u or of another vertex inserted."""
    bad = list(clique)
    bad[r.randrange(len(bad))] = u
    if r.randint(0, 1):
        bad.insert(r.randrange(len(bad) + 1), r.choice((u, bad[0])))
    return bad


def nonzero(r, q, n):
    while True:
        t = tuple(r.randrange(q) for _ in range(n))
        if any(t):
            return t


@pytest.mark.parametrize("q,k,l", [(2, 2, 1), (2, 2, 3), (3, 1, 2), (5, 1, 1)])
def test_inconsistent_vertex_fires_only_rule2(q, k, l):
    # beta = 0 with y != 0: the vertex assigns x and x + y to alpha, and y
    # to the origin, whose clique value is 0; its (alpha, x) class is kept
    ci = INSTANCES[(q, k, l)]
    clique = ci.planted_clique(ci.source.planted)
    r = random.Random(f"rule2-{q}-{k}-{l}")
    at = [v for v in clique if not any(v.beta) and any(v.alpha)]
    for _ in range(4):
        v = r.choice(at)
        u = Vertex(v.alpha, v.beta, v.x, nonzero(r, q, l))
        bad = [w for w in clique if w != v]
        bad.insert(r.randrange(len(bad) + 1), u)
        assert fired_with(ci, u, bad) == {2}
        assert grouped_against_scan(ci, bad)[2] == {2}
        assert grouped_against_scan(ci, corrupt(r, clique, u)) is not None
    assert grouped_against_scan(ci, [u]) is None
    assert grouped_against_scan(ci, [u, u]) is None


@pytest.mark.parametrize("q,k,l", [(2, 2, 1), (2, 2, 3)])
def test_corruption_fires_only_rule4(q, k, l):
    # x moved off the planted value, among the clique vertices that meet the
    # moved vertex in rule 4 or not at all
    ci = INSTANCES[(q, k, l)]
    ref = ReferenceOracle(ci)
    clique = ci.planted_clique(ci.source.planted)
    r = random.Random(f"rule4-{q}-{k}-{l}")
    found = 0
    while found < 4:
        v = r.choice([v for v in clique if v.alpha != v.beta])
        u = Vertex(v.alpha, v.beta, add(q, v.x, nonzero(r, q, l)), v.y)
        rules = [ref.rules(u, w) for w in clique]
        if {4} not in rules:
            continue
        found += 1
        bad = [w for w, fired in zip(clique, rules) if fired <= {4}]
        bad.insert(r.randrange(len(bad) + 1), u)
        if r.randint(0, 1):
            bad.insert(r.randrange(len(bad) + 1), u)
        assert fired_with(ci, u, bad) == {4}
        assert grouped_against_scan(ci, bad)[2] == {4}


@pytest.mark.parametrize("q,k,l", [(2, 2, 1), (3, 1, 2), (5, 1, 1)])
def test_off_line_vertex(q, k, l):
    # alpha = 0 with x != 0 breaks rule 3 against every other vertex, even
    # one of its own (alpha, x) class, but a lone one (repeated or not) is
    # a clique
    ci = INSTANCES[(q, k, l)]
    clique = ci.planted_clique(ci.source.planted)
    r = random.Random(f"offline-{q}-{k}-{l}")
    zero = (0,) * (k * k)
    for _ in range(3):
        u = Vertex(zero, nonzero(r, q, k * k), nonzero(r, q, l), nonzero(r, q, l))
        w = Vertex(zero, nonzero(r, q, k * k), u.x, u.y)
        for alone in ([u], [u, u], [u, u, u]):
            assert grouped_against_scan(ci, alone) is None
        if w.beta != u.beta:
            assert grouped_against_scan(ci, [u, w, u]) == (u, w, frozenset({3}))
        assert 3 in grouped_against_scan(ci, corrupt(r, clique, u))[2]


@pytest.mark.parametrize("q,k,l", [(2, 2, 1), (3, 1, 2)])
def test_one_coordinate_corruptions(q, k, l):
    # the planted clique with one coordinate of one vertex changed, where
    # the result is still a vertex
    ci = INSTANCES[(q, k, l)]
    clique = ci.planted_clique(ci.source.planted)
    r = random.Random(f"onecoord-{q}-{k}-{l}")
    for _ in range(40):
        t = r.randrange(len(clique))
        flat = [e for part in clique[t] for e in part]
        c = r.randrange(len(flat))
        flat[c] = (flat[c] + r.randrange(1, q)) % q
        cuts = list(itertools.accumulate((k * k, k * k, l, l)))
        u = Vertex(*(tuple(flat[a:b]) for a, b in zip([0, *cuts], cuts)))
        if is_valid_vertex(u, ci.params):
            bad = list(clique)
            bad[t] = u
            grouped_against_scan(ci, bad)


# -- materialize ------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("q,k,l", [(3, 1, 2), (5, 1, 1)])
def test_materialize_matches_reference(q, k, l, seed):
    ci = make_instance(seed, q, k, l, n=8)
    graph = ci.materialize()
    expected = ReferenceOracle(ci).materialize()
    assert graph.adj == expected.adj
    assert codec_vertices(ci.codec) == [unrank(ci.codec, r) for r in range(ci.codec.count)]


@pytest.mark.parametrize("q,k,l", [(3, 1, 2), (5, 1, 1), (2, 2, 1), (2, 1, 5)])
def test_codec_ranks_match_reference_numbering(q, k, l):
    # every rank, and the vertices materialize numbers by the ranks
    ci = make_instance(0, q, k, l)
    codec = ci.codec
    expected = [unrank(codec, r) for r in range(codec.count)]
    ranks = zip(*(r.tolist() for r in codec.ranks()))
    assert list(ranks) == [tuple(rank_tuple(q, part) for part in v) for v in expected]
    assert codec_vertices(codec) == expected


@pytest.mark.parametrize("q,k,l", [(3, 1, 2), (5, 1, 1)])
def test_materialize_matches_reference_on_narrow_mask_words(q, k, l, monkeypatch):
    # one byte a word: the 27 (point, value) slot classes of (3,1,2) and
    # the 25 of (5,1,1) take four words each
    monkeypatch.setattr(reduction, "MASK_WORD", np.uint8)
    ci = make_instance(5, q, k, l, n=8)
    assert ci.materialize().adj == ReferenceOracle(ci).materialize().adj


def test_materialize_mask_word_width_does_not_matter(monkeypatch):
    # (2,1,5): points F_2 and values F_2^5 make 64 slot classes, exactly one
    # 64-bit word, or eight bytes; sampled pairs against the reference
    ci = make_instance(3, 2, 1, 5)
    count = ci.codec.count
    graph = ci.materialize(budget=count)
    monkeypatch.setattr(reduction, "MASK_WORD", np.uint8)
    assert ci.materialize(budget=count).adj == graph.adj
    ref, r = ReferenceOracle(ci), random.Random("mask-words")
    vertices = codec_vertices(ci.codec)
    for _ in range(3000):
        i, j = r.sample(range(count), 2)
        u, v = vertices[i], vertices[j]
        assert has_edge(graph, i, j) == (not ref.rules(u, v, first_only=True)), (u, v)


def test_materialize_matches_reference_at_k2():
    # (2,2,1): 992 vertices, about 0.64 of the pairs adjacent
    ci = INSTANCES[(2, 2, 1)]
    graph = ci.materialize()
    expected = ReferenceOracle(ci).materialize()
    assert graph.adj == expected.adj
    assert codec_vertices(ci.codec) == [unrank(ci.codec, r) for r in range(ci.codec.count)]
