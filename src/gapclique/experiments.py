"""Experiment suites: seeded, replayable measurement runs grouped as
lintest / props / completeness / soundness.

Every suite returns a list of row dicts tagged pass/fail/report; the CLI
serializes them as JSON lines and the acceptance tests assert on them.  All
randomness derives from one master seed through labeled streams, so any row
can be replayed in isolation.

Desk-scale conditioning: the schedule's huge modulus makes both goodness
properties of a sampled map hold with probability 1 - o(1); at desk moduli
they are rare events, and over F_2 they even exclude each other (full image
weight forces all images equal, which kills separation).  Each experiment
therefore conditions its maps on exactly the property its claim consumes:
soundness runs on wellspread-certified maps, extraction runs on
separation-certified maps, and completeness needs no conditioning at all.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
import numpy as np

from . import rng as rngmod
from .errors import ContractViolation, PropertyViolation
from .ffield import next_prime
from .lintest import (
    FLOAT_TOL,
    FunctionTable,
    LIST_CONSTANT,
    LinearVecFn,
    fourier_transform,
    list_decode_scalar,
    pass_probability,
    random_scalar_respecting_table,
    triple_correlation_check,
    _domain,
    _lines,
    _scalar_closure,
)
from .randmap import (
    LinearMapG,
    check_pairwise_separation,
    check_wellspread,
    draw_matrices,
    estimate_failure_rate,
    sample_g,
    wellspread_excluded,
    wellspread_holds,
    wellspread_sums,
)
from .reduction import (
    CliqueInstance,
    ReductionParams,
    Vertex,
    VertexCodec,
    extract_witness,
    is_valid_vertex,
    param_schedule,
)
from .vecsum import (
    VecSumInstance,
    brute_force_decide,
    generate_planted,
    generate_unsat,
    paper_dimension,
)
from .cliquesolve import max_clique_exact

COMPLETENESS_POINTS = ((2, 1, 2), (3, 1, 2), (3, 1, 4), (2, 2, 1))
COMPLETENESS_RUNS = 20
# one planted clique each, decided from its layout: 390,625 to 214,358,881 vertices
COMPLETENESS_FRONTIER = ((5, 2, 2), (7, 2, 1), (11, 2, 1))

VERTEX_COUNT_POINTS = ((2, 1, 1), (3, 1, 1), (2, 1, 2), (3, 1, 2), (5, 1, 1), (2, 2, 1))

SOUNDNESS_POINT = (2, 1, 2)
SOUNDNESS_RUNS = 10
SOUNDNESS_M = 8
SOUNDNESS_N = 4
NO_INSTANCE_TRIES = 20

EXTRACTION_MIX = (
    ((3, 1, 4), 8),
    ((5, 1, 4), 5),
    ((5, 1, 6), 4),
    ((3, 2, 64), 3),
)

PROPS_POINT = {"q": 5, "k": 1, "n": 4}
PROPS_LS = (4, 8, 12)
PROPS_TRIALS = 200

# map draws screened together for wellspread by certified_map
SCREEN_BLOCK = 16


def _row(suite: str, criterion: int, name: str, status: str, measured, expected, **extra) -> dict:
    out = {
        "suite": suite,
        "criterion": criterion,
        "name": name,
        "status": status,
        "measured": measured,
        "expected": expected,
    }
    out.update(extra)
    return out


def certified_map(
    seed: int,
    label: str,
    inst: VecSumInstance,
    l: int,
    prop: str,
    max_tries: int = 20000,
):
    """Resample maps from the labeled stream until the named goodness check
    certifies; returns (map, tries) or None when tries run out (possible at
    desk scale, e.g. when a binary source collection is linearly dependent).
    Refuses up front where no map can be wellspread."""
    if prop == "wellspread" and (reason := wellspread_excluded(inst, l)):
        raise ContractViolation(reason)
    check = {"wellspread": check_wellspread, "separation": check_pairwise_separation}[prop]
    # most maps fail wellspread: each block of draws is screened on the case
    # sums with one product, and only maps that pass it are certified
    sums = wellspread_sums(inst) if prop == "wellspread" else None
    block = 1 if sums is None else SCREEN_BLOCK
    for start in range(0, max_tries, block):
        tries = range(start, min(start + block, max_tries))
        maps = [draw_matrices(rngmod.stream(seed, f"{label}/map/{t}"), inst.q, inst.k, inst.m, l)
                for t in tries]
        keep = [True] * len(maps) if sums is None else wellspread_holds(inst.q, sums, maps)
        for t, mats, screened in zip(tries, maps, keep):
            if screened:
                g = LinearMapG(q=inst.q, k=inst.k, m=inst.m, l=l, matrices=mats, seed=seed)
                if check(g, inst).passed:
                    return g, t + 1
    return None


# -- completeness suite ---------------------------------------------------------


def _enumerate_vertex_set(q: int, k: int, l: int) -> int:
    """Count the vertex set directly from its defining constraint."""
    params = ReductionParams(q=q, k=k, l=l)
    parts = (itertools.product(range(q), repeat=n) for n in (k * k, k * k, l, l))
    return sum(is_valid_vertex(Vertex(*v), params) for v in itertools.product(*parts))


def _completeness_row(seed: int, q: int, k: int, l: int, runs: int) -> dict:
    """Criterion 1 at one point: in how many of `runs` labeled planted
    instances the planted set verifies as a clique of size q^(2k^2)."""
    m = paper_dimension(k, 4 * k)
    target = q ** (2 * k * k)
    ok = 0
    first_failure = None
    for s in range(runs):
        label = f"completeness/{q}-{k}-{l}/{s}"
        src = generate_planted(rngmod.stream(seed, f"{label}/instance"), q, k, m, 4)
        g = sample_g(rngmod.stream(seed, f"{label}/matrices"), q, k, m, l, seed=seed)
        ci = CliqueInstance(ReductionParams(q=q, k=k, l=l), g, src)
        clique = ci.planted_clique(src.planted)
        if len(clique) == target and ci.verify_clique(clique) is None:
            ok += 1
        elif first_failure is None:
            first_failure = s
    return _row(
        "completeness",
        1,
        f"planted clique is a clique of size {target} at (q,k,l)=({q},{k},{l})",
        "pass" if ok == runs else "fail",
        f"{ok}/{runs}",
        f"{runs}/{runs}",
        first_failure=first_failure,
    )


def suite_completeness(seed: int) -> list[dict]:
    rows = [_completeness_row(seed, q, k, l, COMPLETENESS_RUNS) for q, k, l in COMPLETENESS_POINTS]
    for q, k, l in VERTEX_COUNT_POINTS:
        codec = VertexCodec(q, k, l)
        brute = _enumerate_vertex_set(q, k, l)
        rows.append(
            _row(
                "completeness",
                4,
                f"vertex count formula at (q,k,l)=({q},{k},{l})",
                "pass" if codec.count == brute else "fail",
                codec.count,
                brute,
            )
        )
    for q, k, l in COMPLETENESS_FRONTIER:
        rows.append(_completeness_row(seed, q, k, l, 1))
    return rows


# -- soundness suite -------------------------------------------------------------


def certified_no_instance(seed: int, label: str, q: int, k: int, m: int, n: int, l: int):
    """A brute-force-certified NO instance together with a
    wellspread-certified map; resamples the instance when no map certifies
    or can (which happens when the collection is linearly degenerate)."""
    for attempt in range(NO_INSTANCE_TRIES):
        inst = generate_unsat(
            rngmod.stream(seed, f"{label}/instance/{attempt}"), q, k, m, n
        )
        if wellspread_excluded(inst, l):
            continue
        got = certified_map(seed, f"{label}/{attempt}", inst, l, "wellspread", max_tries=5000)
        if got is not None:
            return inst, got[0], attempt + 1, got[1]
    raise PropertyViolation(f"no certifiable NO instance after {NO_INSTANCE_TRIES} attempts")


def suite_soundness(seed: int) -> list[dict]:
    rows = []
    q, k, l = SOUNDNESS_POINT
    target = q ** (2 * k * k)
    sizes = []
    gaps = []
    all_optimal = True
    for s in range(SOUNDNESS_RUNS):
        label = f"soundness/{s}"
        inst, g, _, _ = certified_no_instance(seed, label, q, k, SOUNDNESS_M, SOUNDNESS_N, l)
        ci = CliqueInstance(ReductionParams(q=q, k=k, l=l), g, inst)
        graph = ci.materialize()
        res = max_clique_exact(graph)
        all_optimal = all_optimal and res.optimal
        sizes.append(res.size)
        gaps.append(target / res.size)
    ok = all(sz < target for sz in sizes) and all_optimal
    rows.append(
        _row(
            "soundness",
            5,
            f"NO instances give max clique < {target} at (q,k,l)=({q},{k},{l})",
            "pass" if ok else "fail",
            f"sizes {sizes}, all optimal: {all_optimal}",
            f"all sizes < {target}",
        )
    )
    rows.append(
        _row(
            "soundness",
            5,
            "measured completeness/soundness gap (no asserted constant)",
            "report",
            f"min gap {min(gaps):.3f}, max gap {max(gaps):.3f}",
            "report-only",
        )
    )

    ok_runs = 0
    failures = []
    for (eq, ek, el), count in EXTRACTION_MIX:
        m = paper_dimension(ek, 4 * ek)
        for s in range(count):
            label = f"extract/{eq}-{ek}-{el}/{s}"
            src = generate_planted(rngmod.stream(seed, f"{label}/instance"), eq, ek, m, 4)
            got = certified_map(seed, label, src, el, "separation", max_tries=2000)
            if got is None:
                failures.append((label, "no certified map"))
                continue
            ci = CliqueInstance(ReductionParams(q=eq, k=ek, l=el), got[0], src)
            clique = ci.planted_clique(src.planted)
            rep = extract_witness(
                clique, ci, rng=rngmod.stream(seed, f"{label}/gamma-fill"), verify=False
            )
            zero_residuals = all(d.max_residual == 0 for d in rep.directions)
            summed = rep.verdict == "witness" and rep.z_star is not None
            cross = brute_force_decide(src) is not None
            if summed and zero_residuals and rep.piecing_agreement == 1 and cross:
                ok_runs += 1
            else:
                failures.append((label, rep.stage, rep.detail))
    total = sum(c for _, c in EXTRACTION_MIX)
    rows.append(
        _row(
            "soundness",
            6,
            "extractor round trip on planted cliques (zero residuals, sum-zero witness)",
            "pass" if ok_runs == total else "fail",
            f"{ok_runs}/{total}",
            f"{total}/{total}",
            failures=failures[:3],
        )
    )
    return rows


# -- lintest suite -----------------------------------------------------------------


def _agreements(f: FunctionTable) -> np.ndarray:
    """[rho]: the number of points where a scalar table agrees with the
    linear function of the coefficient vector of rank rho, enumerated over
    every coefficient vector and point at once."""
    digits, _ = _domain(f.q, f.d)
    return (digits @ digits.T % f.q == f.values[:, 0]).sum(axis=1)


def _agreement_identity_max_diff(f: FunctionTable) -> float:
    """Max over all coefficient vectors of |agreement - (1/q + (q-1)/q g^)|."""
    q = f.q
    re = fourier_transform(f)[0]
    rhs = 1.0 / q + (q - 1) / q * re
    return float(np.max(np.abs(_agreements(f) / f.size - rhs)))


def suite_lintest(seed: int) -> list[dict]:
    rows = []
    shapes = ((3, 1), (3, 2), (5, 1), (5, 2))
    max_triple = 0.0
    max_agree = 0.0
    for i in range(50):
        q, d = shapes[i % len(shapes)]
        r = rngmod.stream(seed, f"lintest/fourier/{i}")
        g1 = random_scalar_respecting_table(r, q, d)
        g2 = random_scalar_respecting_table(r, q, d)
        g3 = random_scalar_respecting_table(r, q, d)
        rep = triple_correlation_check(g1, g2, g3)
        max_triple = max(max_triple, rep.abs_diff)
        max_agree = max(max_agree, _agreement_identity_max_diff(g1))
    rows.append(
        _row(
            "lintest",
            2,
            "triple correlation: enumeration vs Fourier formula (50 tables)",
            "pass" if max_triple <= FLOAT_TOL else "fail",
            max_triple,
            f"<= {FLOAT_TOL}",
        )
    )
    rows.append(
        _row(
            "lintest",
            2,
            "agreement vs Fourier coefficient identity (50 tables, all candidates)",
            "pass" if max_agree <= FLOAT_TOL else "fail",
            max_agree,
            f"<= {FLOAT_TOL}",
        )
    )

    # list-decoder oracle equivalence
    decode_shapes = ((3, 2), (5, 2), (7, 2), (11, 2), (5, 1))
    deltas = (0.1, 0.25, 0.5)

    def oracle_set(f: FunctionTable, delta: float) -> set:
        thr = Fraction(1, f.q) + Fraction(f.q - 1, f.q) * Fraction(LIST_CONSTANT * delta)
        agree = _agreements(f).tolist()
        digits = _domain(f.q, f.d)[0].tolist()
        return {tuple(rho) for rho, count in zip(digits, agree) if Fraction(count, f.size) >= thr}

    cases = [(random_scalar_respecting_table(rngmod.stream(seed, f"lintest/decode/{i}"),
                                             *decode_shapes[i % len(decode_shapes)]), deltas[i % len(deltas)])
             for i in range(100)]
    cases += [(_corrupted_linear_table(rngmod.stream(seed, f"lintest/decode-adv/{i}"), 11, 2,
                                       corrupt_lines=0.2 + 0.03 * i), deltas[i % len(deltas)])
              for i in range(20)]
    mismatches = sum({c.rho for c in list_decode_scalar(f, delta)} != oracle_set(f, delta)
                     for f, delta in cases)
    rows.append(
        _row(
            "lintest",
            3,
            "list decoder equals brute-force agreement filter (100 random + 20 corrupted)",
            "pass" if mismatches == 0 else "fail",
            f"{mismatches} mismatches over {len(cases)}",
            "0 mismatches",
        )
    )

    # baselines: linear tables (bare values, so counted) pass exactly, random tables average near 1/q
    linear_exact = True
    for i in range(10):
        q, d = shapes[i % len(shapes)]
        r = rngmod.stream(seed, f"lintest/linear/{i}")
        fn = LinearVecFn(q, d, (tuple(rngmod.draws(r, q, d).tolist()),))
        if pass_probability(FunctionTable(q, d, 1, FunctionTable.from_linear(fn).values)) != 1:
            linear_exact = False
    rows.append(
        _row(
            "lintest",
            8,
            "exactly linear tables pass with probability exactly 1",
            "pass" if linear_exact else "fail",
            linear_exact,
            True,
        )
    )
    vals = []
    for i in range(200):
        r = rngmod.stream(seed, f"lintest/random/{i}")
        f = FunctionTable(3, 1, 1, rngmod.draws(r, 3, 3).reshape(3, 1))
        vals.append(float(pass_probability(f)))
    mean = float(np.mean(vals))
    sigma = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
    dev = abs(mean - 1 / 3)
    rows.append(
        _row(
            "lintest",
            8,
            "random tables at q=3,d=1 average within 3 sigma of 1/3 (200 trials)",
            "pass" if dev <= 3 * sigma else "fail",
            f"mean {mean:.4f}, |dev| {dev:.4f}, 3*sigma {3 * sigma:.4f}",
            "|mean - 1/3| <= 3*sigma",
        )
    )
    return rows


def _corrupted_linear_table(
    rng: random.Random, q: int, d: int, corrupt_lines: float
) -> FunctionTable:
    """A linear scalar table with a fraction of its lines re-randomized,
    scalar-respecting closure re-applied per line."""
    fn = LinearVecFn(q, d, (tuple(rngmod.draws(rng, q, d).tolist()),))
    vals = FunctionTable.from_linear(fn).values[_lines(q, d)[:, 0]]
    for line in range(len(vals)):
        if rng.random() < corrupt_lines:
            vals[line] = rng.randrange(q)
    return _scalar_closure(q, d, vals)


# -- props suite --------------------------------------------------------------------


def suite_props(seed: int) -> list[dict]:
    rows = []
    q, k, n = PROPS_POINT["q"], PROPS_POINT["k"], PROPS_POINT["n"]
    m = paper_dimension(k, n)
    inst_rng = rngmod.stream(seed, "props/instance")
    inst = VecSumInstance(q=q, k=k, m=m, vectors=rngmod.draws(inst_rng, q, n * m).reshape(n, m),
                          sizes=(n,))
    ws_rates = []
    sep_rates = []
    for l in PROPS_LS:
        rep = estimate_failure_rate(
            inst, l, PROPS_TRIALS, rngmod.stream(seed, f"props/maps/{l}")
        )
        ws_rates.append(rep.wellspread_rate)
        sep_rates.append(rep.separation_rate)
        rows.append(
            _row(
                "props",
                7,
                f"goodness failure rates at (q,k,l,n)=({q},{k},{l},{n}), {PROPS_TRIALS} maps",
                "report",
                {
                    "wellspread_rate": rep.wellspread_rate,
                    "wellspread_ci": list(rep.wellspread_ci),
                    "separation_rate": rep.separation_rate,
                    "separation_ci": list(rep.separation_ci),
                    "union_bounds": {
                        kk: (vv if not isinstance(vv, float) else float(f"{vv:.4g}"))
                        for kk, vv in rep.union_bounds.items()
                    },
                },
                "report-only",
            )
        )
    ws_monotone = all(a >= b for a, b in zip(ws_rates, ws_rates[1:]))
    sep_monotone = all(a >= b for a, b in zip(sep_rates, sep_rates[1:]))
    rows.append(
        _row(
            "props",
            7,
            f"wellspread failure rate non-increasing across l in {PROPS_LS}",
            "pass" if ws_monotone else "fail",
            ws_rates,
            "non-increasing",
        )
    )
    rows.append(
        _row(
            "props",
            7,
            f"separation failure rate non-increasing across l in {PROPS_LS}",
            "pass" if sep_monotone else "fail",
            sep_rates,
            "non-increasing",
        )
    )

    # parameter schedule
    qhat1 = next_prime(1 << 12)
    rows.append(
        _row(
            "props",
            9,
            "smallest prime above 2^12 is 4099",
            "pass" if qhat1 == 4099 else "fail",
            qhat1,
            4099,
        )
    )
    sched_ok = True
    details = []
    for k_ in range(1, 5):
        try:
            sched = param_schedule(k_, 16)
            details.append(
                {
                    "k": k_,
                    "qhat": sched.qhat if k_ <= 2 else f"~2^{sched.qhat.bit_length() - 1}",
                    "f_prime": sched.f_prime_at_lam,
                    "bound": sched.bound,
                }
            )
        except PropertyViolation:
            sched_ok = False
    rows.append(
        _row(
            "props",
            9,
            "schedule bound holds for k <= 4 with identity ratio function (big integers)",
            "pass" if sched_ok else "fail",
            details,
            "normalized ratio below 2k^3 for every k",
        )
    )
    return rows


SUITES = {"lintest": suite_lintest, "props": suite_props, "soundness": suite_soundness,
          "completeness": suite_completeness}


def run_suite(suite: str, seed: int = 0) -> list[dict]:
    if suite not in SUITES:
        raise PropertyViolation(f"unknown suite {suite!r}")
    return SUITES[suite](seed)
