"""The line table of lintest and the closure step on it, against the loops
they replace: the lines through the origin from a walk over every point,
the decoded function's phase 2 point by point, and the lintest suite's
corrupted linear tables line by line.  Also the refusal of a domain too
large to tabulate, before any table of it is built."""

import random

import numpy as np
import pytest

from gapclique import lintest, rng as rngmod
from gapclique.errors import BudgetExceeded, PropertyViolation
from gapclique.experiments import _corrupted_linear_table
from gapclique.lintest import (
    MAX_TABLE_SIZE,
    FunctionTable,
    _lines,
    _scalar_closure,
    random_scalar_respecting_table,
)
from gapclique.randmap import sample_g
from gapclique.reduction import CliqueInstance, ReductionParams, Vertex, build_gamma
from gapclique.vecsum import generate_planted

import edge_reference
import lintest_reference as reference
from field_reference import rank_tuple, scale

LINE_SHAPES = [(2, 1), (2, 5), (3, 4), (11, 2), (101, 2), (31, 3)]
GAMMA_POINTS = [(3, 1, 2), (3, 1, 4), (5, 1, 2), (2, 2, 2), (3, 2, 4), (7, 1, 3)]
SUBCLIQUES = 30  # per point
DIFFERENTIAL_POINTS = [(3, 1, 2), (5, 1, 1), (2, 2, 1), (3, 2, 2), (7, 1, 2)]
DIFFERENTIAL_LISTS = 150  # per point


@pytest.mark.parametrize("q,d", LINE_SHAPES)
def test_lines_match_reference(q, d):
    reps = reference.line_representatives(q, d)
    assert len(reps) == (q**d - 1) // (q - 1)
    want = [[rank_tuple(q, scale(q, c, rep)) for c in range(1, q)] for rep in reps]
    assert _lines(q, d).tolist() == want
    # each line's representative is the first point of its row
    assert tuple(map(tuple, lintest._domain(q, d)[0][_lines(q, d)[:, 0]].tolist())) == reps


def scalar_respecting(q, d, vals):
    """f(c * alpha) = c * f(alpha) for every scalar c, zero included."""
    digits, place = lintest._domain(q, d)
    return all((vals[digits * c % q @ place] == vals * c % q).all() for c in range(q))


@pytest.mark.parametrize("q,d", [(2, 3), (3, 2), (5, 2), (7, 1)])
@pytest.mark.parametrize("l", [1, 3])
def test_closure_is_scalar_respecting_with_given_rows(q, d, l):
    r = random.Random(q * d * l)
    rows = np.array([[r.randrange(q) for _ in range(l)] for _ in _lines(q, d)])
    vals = _scalar_closure(q, d, rows).values
    assert scalar_respecting(q, d, vals)
    assert (vals[_lines(q, d)[:, 0]] == rows).all()
    # the check agrees with the definition on the closure and on copies
    # with one entry changed
    for trial in range(20):
        changed = vals.copy()
        if trial:
            changed[r.randrange(q**d), r.randrange(l)] = r.randrange(q)
        got = FunctionTable(q, d, l, changed).is_scalar_respecting()
        assert got == scalar_respecting(q, d, changed)


@pytest.mark.parametrize("q,d", [(5, 1), (3, 4), (11, 2), (101, 2), (31, 3)])
@pytest.mark.parametrize("corrupt", [0.0, 0.3, 1.0])
def test_corrupted_linear_table_matches_reference(q, d, corrupt):
    got_rng, want_rng = random.Random(q + d), random.Random(q + d)
    got = _corrupted_linear_table(got_rng, q, d, corrupt)
    want = reference.corrupted_linear_values(want_rng, q, d, corrupt)
    assert (got.values == want).all()
    assert got.is_scalar_respecting()
    assert got_rng.getstate() == want_rng.getstate()


# -- the decoded function's phase 2 ------------------------------------------------


def make_instance(q, k, l):
    seed = 90 + q + k + l
    m = 8 if q == 2 else 4
    src = generate_planted(rngmod.stream(seed, "instance"), q, k, m, 3)
    g = sample_g(rngmod.stream(seed, "matrices"), q, k, m, l, seed=seed)
    return CliqueInstance(ReductionParams(q=q, k=k, l=l), g, src)


def gamma_outcome(vertices, ci, seed):
    """build_gamma's table values and phase-1 point ranks, or its refusal
    message; with the rng state after the call."""
    rng = random.Random(seed)
    try:
        gamma = build_gamma(vertices, ci, rng=rng, verify=False)
    except PropertyViolation as exc:
        return str(exc), rng.getstate()
    values = list(map(tuple, gamma.table.values.tolist()))
    return (values, gamma.var_points.tolist()), rng.getstate()


def reference_outcome(vertices, ci, seed):
    q, k, l = ci.params.q, ci.params.k, ci.params.l
    rng = random.Random(seed)
    try:
        values, var_points = edge_reference.decoded_function(vertices, q, k * k, l, rng)
    except PropertyViolation as exc:
        return str(exc), rng.getstate()
    if not FunctionTable(q, k * k, l, values).is_scalar_respecting():
        return ("decoded function is not scalar respecting; the clique's shared "
                "points carry scalar-inconsistent values"), rng.getstate()
    ranks = sorted(rank_tuple(q, p) for p in var_points)
    return (values, ranks), rng.getstate()


@pytest.mark.parametrize("point", GAMMA_POINTS, ids=str)
def test_gamma_matches_point_by_point_reference(point):
    q, k, l = point
    ci = make_instance(q, k, l)
    planted = list(ci.planted_clique(ci.source.planted))
    r = random.Random(sum(point))
    for trial in range(SUBCLIQUES):
        # sizes spread evenly on a log scale, from one vertex to all
        size = max(1, round(len(planted) ** (trial / (SUBCLIQUES - 1))))
        sub = r.sample(planted, size)
        assert gamma_outcome(sub, ci, trial) == reference_outcome(sub, ci, trial)


def differential_lists(ci, r):
    """DIFFERENTIAL_LISTS vertex lists of four kinds in turn: a planted
    subset, the same with one value perturbed, a few random vertices, and
    two vertices on one line whose values scale or not."""
    q, k, l = ci.params.q, ci.params.k, ci.params.l
    planted = list(ci.planted_clique(ci.source.planted))
    origin, zero = (0,) * (k * k), (0,) * l

    def residues(n):
        return tuple(r.randrange(q) for _ in range(n))

    for t in range(DIFFERENTIAL_LISTS):
        if t % 4 < 2:
            vertices = r.sample(planted, round(len(planted) ** r.random()))
            if t % 4:
                i, j = r.randrange(len(vertices)), r.randrange(l)
                v = vertices[i]
                x = v.x[:j] + ((v.x[j] + r.randrange(1, q)) % q,) + v.x[j + 1 :]
                vertices[i] = v._replace(x=x, y=x if v.alpha == v.beta else v.y)
        elif t % 4 == 2:
            vertices = []
            for _ in range(r.randrange(1, 4)):
                alpha, beta, x = residues(k * k), residues(k * k), residues(l)
                vertices.append(Vertex(alpha, beta, x, x if alpha == beta else residues(l)))
        else:
            p, c, x = origin, r.randrange(1, q), residues(l)
            while p == origin:
                p = residues(k * k)
            y = scale(q, c, x) if r.random() < 0.5 else residues(l)
            vertices = [Vertex(p, origin, x, zero), Vertex(scale(q, c, p), origin, y, zero)]
        yield vertices


@pytest.mark.parametrize("point", DIFFERENTIAL_POINTS, ids=str)
def test_gamma_decides_like_reference_on_mixed_lists(point):
    # every list decodes to the reference's table, phase-1 points and rng
    # state, or is refused with the reference's message
    ci = make_instance(*point)
    outcomes = set()
    for seed, vertices in enumerate(differential_lists(ci, random.Random(sum(point)))):
        got = gamma_outcome(vertices, ci, seed)
        assert got == reference_outcome(vertices, ci, seed)
        outcomes.add("table" if isinstance(got[0], tuple) else got[0][:20])
    assert outcomes >= {"table", "conflicting clique v"}
    if point[0] > 2:  # over F_2 only an assigned nonzero origin is scalar inconsistent
        assert "decoded function is " in outcomes


@pytest.mark.parametrize("point", GAMMA_POINTS, ids=str)
def test_gamma_edge_cases_match_reference(point):
    q, k, l = point
    kk = k * k
    ci = make_instance(q, k, l)
    origin, one = (0,) * kk, (0,) * (kk - 1) + (1,)
    x = (1,) + (0,) * (l - 1)
    cases = {
        # the origin is zero and every line draws
        "empty": [],
        # the clique's value at the origin is zero, or is not
        "planted at the origin": [v for v in ci.planted_clique(ci.source.planted)
                                  if not any(v.alpha)][:3],
        "nonzero at the origin": [Vertex(one, scale(q, q - 1, one), x, x)],
        # one line, two values that do not scale into each other
        "scalar-inconsistent": [Vertex(one, origin, x, (0,) * l),
                                Vertex(scale(q, q - 1, one), origin, x, (0,) * l)],
    }
    outcomes = {}
    for name, vertices in cases.items():
        got = gamma_outcome(vertices, ci, 5)
        assert got == reference_outcome(vertices, ci, 5), name
        outcomes[name] = got[0]
    assert isinstance(outcomes["planted at the origin"], tuple)
    assert isinstance(outcomes["empty"], tuple)
    if q > 2:  # over F_2 both lists are consistent
        assert "not scalar respecting" in outcomes["nonzero at the origin"]
        assert "not scalar respecting" in outcomes["scalar-inconsistent"]


@pytest.mark.parametrize("point", GAMMA_POINTS, ids=str)
def test_empty_clique_decodes_to_scalar_respecting_table(point):
    q, k, l = point
    rng, want = random.Random(5), random.Random(5)
    gamma = build_gamma([], make_instance(q, k, l), rng=rng, verify=False)
    assert scalar_respecting(q, k * k, gamma.table.values)
    assert not gamma.table.values[0].any()
    assert gamma.var_points.size == 0
    # every line's representative draws its l values, in order
    reps = _lines(q, k * k)[:, 0]
    assert (gamma.table.values[reps] == rngmod.draws(want, q, len(reps) * l).reshape(-1, l)).all()
    assert rng.getstate() == want.getstate()


def test_oversized_domain_refused_after_phase_1():
    # at (2,5,1) the domain holds 2^25 points; the refusal comes before any
    # table of the domain is built
    q, k, l = 2, 5, 1
    src = generate_planted(rngmod.stream(1, "instance"), q, k, 4, 2)
    g = sample_g(rngmod.stream(1, "matrices"), q, k, 4, l)
    ci = CliqueInstance(ReductionParams(q=q, k=k, l=l), g, src)
    vertex = Vertex((0,) * 25, (1,) + (0,) * 24, (0,), (1,))
    assert q ** (k * k) > MAX_TABLE_SIZE
    with pytest.raises(BudgetExceeded) as exc:
        build_gamma([vertex], ci, rng=random.Random(0), verify=False)
    assert (exc.value.what, exc.value.required) == ("table size", q ** (k * k))
    # a conflict in phase 1 is still reported first
    with pytest.raises(PropertyViolation, match="conflicting clique values"):
        build_gamma([vertex, Vertex((0,) * 25, (1,) + (0,) * 24, (1,), (0,))], ci,
                    rng=random.Random(0), verify=False)


@pytest.mark.parametrize("make", [
    lambda: random_scalar_respecting_table(random.Random(0), 2, 25),
    lambda: FunctionTable.from_linear(reference.linear_scalar(2, (1,) * 25)),
    lambda: _lines(2, 25),
])
def test_oversized_tables_refused_before_building(make):
    # the digit table of F_2^25 alone would take 6.25 GiB
    with pytest.raises(BudgetExceeded) as exc:
        make()
    assert (exc.value.what, exc.value.required) == ("table size", 2**25)
