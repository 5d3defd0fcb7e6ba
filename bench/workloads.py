"""The benchmark's four seeded pipeline workloads.

Each workload turns (seed, instance index) into the inputs of one pipeline
instance, runs the instance through gapclique's public functions, and then,
outside the timed region, checks its outputs and returns them in an exact,
JSON-serializable form for the output digest.  Instance i runs point
``points[i % len(points)]``; the benchmark only ever gives the program the
generated inputs (seeds, parameters, tables), never the benchmark seed.

Functions are always called through their module attribute
(``vecsum.generate_planted``, ``reduction.extract_witness``, ...) so the
traced run can replace them with span-recording wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from gapclique import cli, experiments, lintest, randmap, reduction, vecsum


def derive(seed: int, *labels) -> int:
    """64-bit seed for one input of one instance; independent of gapclique's
    own stream derivation, so a change there cannot change the inputs."""
    blob = ":".join(str(x) for x in (seed,) + labels).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


@dataclass(frozen=True)
class Workload:
    name: str
    points: tuple
    # seconds per instance on a 2-vCPU x86 VM under load; sizes the runs
    nominal_s: float
    make_inputs: Callable[[int, int, tuple], dict]
    # (inputs, work dir) -> raw outputs; the timed region
    run: Callable[[dict, str], object]
    # (inputs, raw outputs, work dir) -> (failure messages, exact outputs)
    verify: Callable[[dict, object, str], tuple[list[str], dict]]
    # the speed reference kernel that does the same kind of work (bench/speed.py)
    reference: str = "python"

    def inputs(self, seed: int, i: int) -> dict:
        return self.make_inputs(seed, i, self.points[i % len(self.points)])


def clique_target(q: int, k: int) -> int:
    return q ** (2 * k * k)


# -- planted-verify --------------------------------------------------------------

PV_M = vecsum.paper_dimension(2, 8)
PV_N = 8


def pv_inputs(seed: int, i: int, point: tuple) -> dict:
    q, k, l = point
    return {
        "q": q, "k": k, "l": l, "m": PV_M, "n": PV_N,
        "instance_seed": derive(seed, "planted-verify", i, "instance"),
        "map_seed": derive(seed, "planted-verify", i, "map"),
    }


def pv_run(inp: dict, workdir: str):
    q, k, l, m = inp["q"], inp["k"], inp["l"], inp["m"]
    src = vecsum.generate_planted(random.Random(inp["instance_seed"]), q, k, m, inp["n"])
    g = randmap.sample_g(random.Random(inp["map_seed"]), q, k, m, l, seed=inp["map_seed"])
    ci = reduction.CliqueInstance(reduction.ReductionParams(q=q, k=k, l=l), g, src)
    clique = ci.planted_clique(src.planted)
    return clique, ci.verify_clique(clique)


def pv_verify(inp: dict, raw, workdir: str):
    clique, violation = raw
    failures = []
    if violation is not None:
        u, v, rules = violation
        failures.append(f"verify_clique rejected the planted clique: rules {sorted(rules)} "
                        f"between {u} and {v}")
    target = clique_target(inp["q"], inp["k"])
    if len(clique) != target:
        failures.append(f"planted clique has {len(clique)} vertices, expected {target}")
    return failures, {"clique": [list(map(list, v)) for v in clique], "verified": violation is None}


# -- unsat-solve ------------------------------------------------------------------

# At (3,1,2) a map is wellspread with probability about (4/9)^8, so the CLI's
# default of 5000 samples runs out on roughly one instance in 2000; 20000
# samples (the budget experiments.certified_map uses) makes that negligible.
US_MAP_TRIES = 20000


def us_inputs(seed: int, i: int, point: tuple) -> dict:
    q, k, l, m, n = point
    return {"q": q, "k": k, "l": l, "m": m, "n": n,
            "cli_seed": derive(seed, "unsat-solve", i) >> 1}


def _cli_steps(inp: dict, workdir: str) -> list[list[str]]:
    def p(name):
        return os.path.join(workdir, name)

    return [
        ["gen-vecsum", "--q", str(inp["q"]), "--k", str(inp["k"]), "--m", str(inp["m"]),
         "--n", str(inp["n"]), "--unsat"],
        ["reduce", "--instance", p("instance.json"), "--l", str(inp["l"]),
         "--certify", "wellspread", "--map-tries", str(US_MAP_TRIES)],
        ["export", "--reduction", p("reduction.json"), "--format", "dimacs",
         "--out", "graph.dimacs"],
        ["solve", "--graph", p("graph.dimacs")],
    ]


def us_run(inp: dict, workdir: str):
    """The README's certified-NO sequence, run in-process through cli.main;
    stops at the first nonzero exit."""
    base = ["--seed", str(inp["cli_seed"]), "--out-dir", workdir]
    results = []
    for step in _cli_steps(inp, workdir):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(base + step)
        results.append((step[0], code, err.getvalue().strip()))
        if code != 0:
            break
    return results


def _artifact(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    doc.get("meta", {}).pop("created_utc", None)
    return doc


def us_verify(inp: dict, raw, workdir: str):
    failures = [f"{cmd} exited {code}: {err}" for cmd, code, err in raw if code != 0]
    if failures:
        return failures, {"exit_codes": [c for _, c, _ in raw]}
    report = _artifact(os.path.join(workdir, "solve-report.json"))
    target = clique_target(inp["q"], inp["k"])
    if not report["exact_optimal"]:
        failures.append("exact search did not prove optimality")
    if not report["exact_size"] < target:
        failures.append(f"NO instance has a clique of size {report['exact_size']} >= {target}")
    with open(os.path.join(workdir, "graph.dimacs"), "rb") as fh:
        graph_sha = hashlib.sha256(fh.read()).hexdigest()
    return failures, {
        "instance": _artifact(os.path.join(workdir, "instance.json")),
        "reduction": _artifact(os.path.join(workdir, "reduction.json")),
        "graph_sha256": graph_sha,
        "solve": report,
    }


# -- extract ----------------------------------------------------------------------

EX_M = vecsum.paper_dimension(2, 8)
EX_N = 6
EX_MAX_TRIES = 2000


def ex_inputs(seed: int, i: int, point: tuple) -> dict:
    q, k, l = point
    return {
        "q": q, "k": k, "l": l, "m": EX_M, "n": EX_N,
        "instance_seed": derive(seed, "extract", i, "instance"),
        "map_seed": derive(seed, "extract", i, "map"),
        "fill_seed": derive(seed, "extract", i, "gamma-fill"),
    }


def ex_run(inp: dict, workdir: str):
    q, k, l = inp["q"], inp["k"], inp["l"]
    src = vecsum.generate_planted(random.Random(inp["instance_seed"]), q, k, inp["m"], inp["n"])
    got = experiments.certified_map(
        inp["map_seed"], "extract", src, l, "separation", max_tries=EX_MAX_TRIES
    )
    if got is None:
        return None, None, None
    g, tries = got
    ci = reduction.CliqueInstance(reduction.ReductionParams(q=q, k=k, l=l), g, src)
    clique = ci.planted_clique(src.planted)
    rep = reduction.extract_witness(
        clique, ci, rng=random.Random(inp["fill_seed"]), verify=False
    )
    return tries, rep, vecsum.brute_force_decide(src)


def ex_verify(inp: dict, raw, workdir: str):
    tries, rep, witness = raw
    if rep is None:
        return [f"no separation-certified map in {EX_MAX_TRIES} tries"], {"tries": None}
    failures = []
    if rep.verdict != "witness":
        failures.append(f"extraction verdict {rep.verdict} at stage {rep.stage}: {rep.detail}")
    if any(d.max_residual != 0 for d in rep.directions):
        failures.append("nonzero decoding residual on a planted clique")
    if witness is None:
        failures.append("brute_force_decide finds no witness in a planted instance")
    return failures, {
        "tries": tries,
        "report": rep.to_json(),
        "brute_force": list(witness.indices) if witness is not None else None,
    }


# -- lintest-tables ---------------------------------------------------------------

LT_CORRUPT_LINES = 0.1
LT_DECODE_DELTA = 0.5
LT_EPS = 0.1
LT_KAPPA = Fraction(1, 8)


def corrupted_linear_values(rng: random.Random, q: int, d: int, l: int):
    """A uniformly random linear map F_q^d -> F_q^l as a value table in
    lexicographic domain order, with a fraction of its lines through the
    origin re-randomized and scalar closure re-applied along each line."""
    rhos = tuple(tuple(rng.randrange(q) for _ in range(d)) for _ in range(l))
    digits = np.array(list(itertools.product(range(q), repeat=d)), dtype=np.int64)
    place = q ** np.arange(d - 1, -1, -1, dtype=np.int64)
    vals = digits @ np.array(rhos, dtype=np.int64).T % q
    seen = np.zeros(len(digits), dtype=bool)
    scalars = np.arange(1, q, dtype=np.int64)
    for r in range(1, len(digits)):
        if seen[r]:
            continue
        line = (scalars[:, None] * digits[r][None, :] % q) @ place
        seen[line] = True
        if rng.random() < LT_CORRUPT_LINES:
            newv = np.array([rng.randrange(q) for _ in range(l)], dtype=np.int64)
            vals[line] = scalars[:, None] * newv[None, :] % q
    return rhos, vals


def lt_inputs(seed: int, i: int, point: tuple) -> dict:
    q, d, l = point
    rhos, vals = corrupted_linear_values(
        random.Random(derive(seed, "lintest-tables", i)), q, d, l
    )
    return {"q": q, "d": d, "l": l, "rhos": rhos, "table": lintest.FunctionTable(q, d, l, vals)}


def constant_delta(eps: float, eps_i: float) -> float:
    return LT_DECODE_DELTA


def lt_run(inp: dict, workdir: str):
    f = inp["table"]
    pp = lintest.pass_probability(f)
    lists = [lintest.list_decode_scalar(f.coordinate(i), LT_DECODE_DELTA) for i in range(f.l)]
    piece = lintest.piece_together(f, LT_EPS, LT_KAPPA, delta_schedule=constant_delta)
    return pp, lists, piece


def lt_verify(inp: dict, raw, workdir: str):
    pp, lists, piece = raw
    n = inp["table"].size
    failures = []
    if (n * n) % pp.denominator:
        failures.append(f"pass probability {pp} has a denominator not dividing n^2 = {n * n}")
    for i, (fns, rho) in enumerate(zip(lists, inp["rhos"])):
        if rho not in {c.rho for c in fns}:
            failures.append(f"coordinate {i}: planted function missing from the decoded list")
    if not piece.ok or piece.fn.rhos != inp["rhos"]:
        failures.append(f"pieced function differs from the planted one ({piece.failure})")
    return failures, {
        "pass_probability": f"{pp.numerator}/{pp.denominator}",
        "lists": [[list(c.rho) for c in fns] for fns in lists],
        "pieced": [list(r) for r in piece.fn.rhos] if piece.fn else None,
        "agreement": str(piece.agreement),
        "coordinate_pass": [str(x) for x in piece.coordinate_pass],
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "planted-verify",
            ((2, 2, 1), (2, 2, 2), (2, 2, 3)),
            0.5,
            pv_inputs, pv_run, pv_verify,
        ),
        Workload(
            "unsat-solve",
            ((3, 1, 2, 6, 8), (5, 1, 1, 4, 8)),
            0.75,
            us_inputs, us_run, us_verify,
        ),
        Workload(
            "extract",
            ((3, 2, 128),),
            1.6,
            ex_inputs, ex_run, ex_verify,
        ),
        Workload(
            "lintest-tables",
            ((3, 6, 2), (2, 10, 1), (11, 3, 2), (5, 5, 1), (7, 3, 2)),
            0.65,
            lt_inputs, lt_run, lt_verify, "numpy",
        ),
    )
}
