"""Command-line pipeline: generate -> check-map -> reduce -> export / solve /
verify-complete / extract, plus the experiment harness.

Every artifact is a JSON document stamped with the seed and a hash of the
resolved configuration, so any run is replayable bit-for-bit from
(seed, config) alone; timestamps live outside the hashed payload.

Exit codes: 0 success, 2 budget refusal (the message names the exact budget
needed), 3 property violation (including failed experiment rows), 4 I/O
error, 5 invalid request (a usage error, a malformed input file, or arguments
that break a precondition).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from typing import Optional

from . import __version__
from . import rng as rngmod
from .errors import BudgetExceeded, ContractViolation, PropertyViolation
from .experiments import SUITES, certified_map, run_suite
from .cliquesolve import (
    export_graph,
    greedy_clique,
    max_clique_exact,
    read_dimacs,
    read_graph_json,
)
from .lintest import FunctionTable, list_decode_scalar, pass_probability
from .randmap import check_pairwise_separation, check_wellspread, sample_g
from .reduction import (
    CliqueInstance,
    DEFAULT_VERTEX_BUDGET,
    ReductionParams,
    Vertex,
    as_clique,
    extract_witness,
)
from .vecsum import VecSumInstance, brute_force_decide, generate_planted, generate_unsat

EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_PROPERTY = 3
EXIT_IO = 4
EXIT_INVALID = 5

OUT_DIR_ENV = "GAPCLIQUE_OUT_DIR"


def _config_hash(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class Command:
    """Holds the resolved run configuration and handles artifact output."""

    def __init__(self, args: argparse.Namespace, semantic: dict):
        self.args = args
        self.seed = args.seed
        self.out_dir = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
        self.config_hash = _config_hash({"command": args.command, "seed": args.seed, **semantic})

    def path(self, name: str) -> str:
        if os.path.isabs(name):
            return name
        os.makedirs(self.out_dir, exist_ok=True)
        return os.path.join(self.out_dir, name)

    def write_artifact(self, name: str, kind: str, payload: dict) -> str:
        doc = dict(payload)
        doc["kind"] = kind
        doc["meta"] = {
            "seed": self.seed,
            "config_hash": self.config_hash,
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        target = self.path(name)
        with open(target, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
            fh.write("\n")
        return target


def _load_reduction(path: str) -> CliqueInstance:
    with open(path) as fh:
        doc = json.load(fh)
    return CliqueInstance.from_json(doc)


def _load_clique(path: str) -> list[Vertex]:
    """The vertices of a clique file, {"vertices": [[alpha, beta, x, y], ...]};
    refuses anything but four lists per vertex."""
    with open(path) as fh:
        doc = json.load(fh)
    rows = doc.get("vertices") if isinstance(doc, dict) else None
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and len(row) == 4 and all(isinstance(p, list) for p in row)
        for row in rows
    ):
        raise ContractViolation("a clique file must list [alpha, beta, x, y] vertices")
    return [Vertex(*map(tuple, row)) for row in rows]


def _clique_payload(vertices) -> list:
    return [[list(v.alpha), list(v.beta), list(v.x), list(v.y)] for v in vertices]


# -- subcommand implementations ---------------------------------------------------


def cmd_gen_vecsum(cmd: Command) -> int:
    a = cmd.args
    r = rngmod.stream(cmd.seed, "instance")
    if a.unsat:
        inst = generate_unsat(r, a.q, a.k, a.m, a.n, max_retries=a.max_retries)
    else:
        inst = generate_planted(r, a.q, a.k, a.m, a.n)
    doc = inst.to_json()
    doc["seed"] = cmd.seed
    target = cmd.write_artifact(a.out, "vecsum-instance", doc)
    print(f"wrote {target} ({'certified NO' if a.unsat else 'planted YES'} instance)")
    return EXIT_OK


def cmd_check_map(cmd: Command) -> int:
    a = cmd.args
    inst = VecSumInstance.load(a.instance)
    g = sample_g(rngmod.stream(cmd.seed, "matrices"), inst.q, inst.k, inst.m, a.l, seed=cmd.seed)
    kwargs = {}
    if a.mode == "monte_carlo":
        kwargs = {
            "mode": "monte_carlo",
            "samples": a.samples,
            "rng": rngmod.stream(cmd.seed, "map-check"),
        }
    ws = check_wellspread(g, inst, **kwargs)
    sep = check_pairwise_separation(g, inst, **kwargs)
    target = cmd.write_artifact(
        a.out,
        "map-certificate",
        {
            "map": g.to_json(),
            "wellspread": ws.to_json(),
            "pairwise_separation": sep.to_json(),
        },
    )
    print(
        f"wrote {target} (wellspread: {'pass' if ws.passed else 'FAIL'}, "
        f"separation: {'pass' if sep.passed else 'FAIL'})"
    )
    return EXIT_OK


def cmd_reduce(cmd: Command) -> int:
    a = cmd.args
    inst = VecSumInstance.load(a.instance)
    params = ReductionParams(q=inst.q, k=inst.k, l=a.l)
    if a.certify == "none":
        g = sample_g(
            rngmod.stream(cmd.seed, "matrices"), inst.q, inst.k, inst.m, a.l, seed=cmd.seed
        )
        tries = 1
    else:
        got = certified_map(cmd.seed, "reduce", inst, a.l, a.certify, max_tries=a.map_tries)
        if got is None:
            raise PropertyViolation(
                f"no {a.certify}-certified map within {a.map_tries} samples"
            )
        g, tries = got
    ci = CliqueInstance(params, g, inst)
    count = ci.codec.count
    if count > a.vertex_cap:
        raise BudgetExceeded("vertex count", required=count, budget=a.vertex_cap)
    doc = ci.to_json()
    doc["map_certification"] = {"property": a.certify, "samples_used": tries}
    target = cmd.write_artifact(a.out, "reduction", doc)
    print(f"wrote {target} (|V| = {count}, map certification: {a.certify})")
    return EXIT_OK


def cmd_export(cmd: Command) -> int:
    a = cmd.args
    ci = _load_reduction(a.reduction)
    graph = ci.materialize(budget=a.vertex_cap)
    meta = {
        "seed": cmd.seed,
        "config_hash": cmd.config_hash,
        "params": ci.params.to_json(),
        "instance_hash": ci.source.fingerprint(),
    }
    target = cmd.path(a.out)
    export_graph(graph, a.format, target, meta=meta)
    print(f"wrote {target} ({graph.n} vertices, {graph.edge_count()} edges, {a.format})")
    return EXIT_OK


def cmd_solve(cmd: Command) -> int:
    a = cmd.args
    if a.graph.endswith(".json"):
        graph, _ = read_graph_json(a.graph)
    else:
        graph = read_dimacs(a.graph)
    exact = max_clique_exact(graph, time_budget=a.time_budget, vertex_cap=a.vertex_cap)
    greedy = greedy_clique(graph, restarts=a.restarts, rng=rngmod.stream(cmd.seed, "greedy"))
    target = cmd.write_artifact(
        a.out,
        "solve-report",
        {
            "n": graph.n,
            "edges": graph.edge_count(),
            "exact_size": exact.size,
            "exact_optimal": exact.optimal,
            "exact_vertices": list(exact.vertices),
            "exact_nodes": exact.nodes,
            "greedy_size": greedy.size,
            "greedy_vertices": list(greedy.vertices),
        },
    )
    print(
        f"wrote {target} (max clique {exact.size}, optimal: {exact.optimal}, "
        f"greedy {greedy.size})"
    )
    return EXIT_OK


def cmd_verify_complete(cmd: Command) -> int:
    a = cmd.args
    ci = _load_reduction(a.reduction)
    if ci.source.planted is None:
        raise ContractViolation("verify-complete needs a planted instance")
    clique = ci.planted_clique(ci.source.planted)
    target_size = ci.params.q ** (2 * ci.params.k**2)
    bad = ci.verify_clique(clique)
    payload = {
        "clique_size": len(clique),
        "expected_size": target_size,
        "verified": bad is None,
        "vertices": _clique_payload(clique),
        "instance_hash": ci.source.fingerprint(),
    }
    if bad is not None:
        payload["violation"] = {
            "pair": _clique_payload(bad[:2]),
            "rules": sorted(bad[2]),
        }
    target = cmd.write_artifact(a.out, "clique-certificate", payload)
    if bad is not None or len(clique) != target_size:
        print(f"wrote {target} (VERIFICATION FAILED)")
        raise PropertyViolation("planted set is not a clique of the expected size")
    print(f"wrote {target} (clique of size {len(clique)} verified)")
    return EXIT_OK


def cmd_extract(cmd: Command) -> int:
    a = cmd.args
    ci = _load_reduction(a.reduction)
    if a.clique:
        vertices = _load_clique(a.clique)
        # refused here, not only by the verification behind the size gate
        try:
            clique = as_clique(vertices, ci.params)
        except ContractViolation:
            raise ContractViolation("the clique file holds a vertex outside the vertex set") from None
        verify = True
    else:
        if ci.source.planted is None:
            raise ContractViolation("extract needs --clique or a planted instance")
        clique = ci.planted_clique(ci.source.planted)
        verify = not a.skip_verify
    rep = extract_witness(
        clique, ci, rng=rngmod.stream(cmd.seed, "gamma-fill"), verify=verify
    )
    payload = rep.to_json()
    if rep.verdict == "witness":
        payload["brute_force_agrees"] = brute_force_decide(ci.source) is not None
    target = cmd.write_artifact(a.out, "extraction-report", payload)
    print(f"wrote {target} (verdict: {rep.verdict}, stage: {rep.stage})")
    if rep.verdict != "witness":
        raise PropertyViolation(f"extraction did not produce a witness: {rep.detail}")
    return EXIT_OK


def cmd_lintest(cmd: Command) -> int:
    a = cmd.args
    table = FunctionTable.load(a.table)
    payload: dict = {"q": table.q, "d": table.d, "l": table.l}
    if a.samples:
        est = pass_probability(
            table, mode="monte_carlo", samples=a.samples,
            rng=rngmod.stream(cmd.seed, "lintest"),
        )
        payload["pass_probability"] = {
            "mode": "monte_carlo",
            "estimate": est.estimate,
            "ci99": [est.ci_low, est.ci_high],
            "samples": est.samples,
        }
    else:
        exact = pass_probability(table)
        payload["pass_probability"] = {
            "mode": "exact",
            "value": float(exact),
            "exact": f"{exact.numerator}/{exact.denominator}",
        }
    if a.decode_delta is not None:
        fns = list_decode_scalar(table, a.decode_delta)
        payload["decoded"] = {"delta": a.decode_delta, "list": [list(c.rho) for c in fns]}
    target = cmd.write_artifact(a.out, "lintest-report", payload)
    print(f"wrote {target}")
    return EXIT_OK


def cmd_experiment(cmd: Command) -> int:
    a = cmd.args
    rows = run_suite(a.suite, seed=cmd.seed)
    target = cmd.path(a.out)
    with open(target, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, default=str) + "\n")
    failures = 0
    for row in rows:
        print(f"[{row['status']:6s}] c{row['criterion']} {row['name']}")
        if row["status"] == "fail":
            failures += 1
    print(f"wrote {target} ({len(rows)} rows, {failures} failures)")
    if failures:
        raise PropertyViolation(f"{failures} experiment rows failed")
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors are invalid requests: exit 5, not argparse's 2, which here
    means budget refusal."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged (no appending actions or mutable defaults), so calls share it."""
    parser = _Parser(
        prog="gapclique",
        description="Vector-sum to gap-clique reduction pipeline and experiments",
    )
    parser.add_argument("--version", action="version", version=f"gapclique {__version__}")
    parser.add_argument("--seed", type=int, default=None, help="master 64-bit seed")
    parser.add_argument("--config", default=None, help="JSON config file; flags override")
    parser.add_argument("--out-dir", default=None, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-vecsum", help="generate a vector-sum instance")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None, help="vectors per collection")
    p.add_argument("--planted", action="store_true", help="planted YES instance (default)")
    p.add_argument("--unsat", action="store_true", help="brute-force certified NO instance")
    p.add_argument("--max-retries", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gen_vecsum)

    p = sub.add_parser("check-map", help="sample a map and run both goodness checks")
    p.add_argument("--instance", required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--mode", choices=["exhaustive", "monte_carlo"], default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_check_map)

    p = sub.add_parser("reduce", help="build the implicit reduced graph")
    p.add_argument("--instance", required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument(
        "--certify",
        choices=["none", "wellspread", "separation"],
        default=None,
        help="resample maps until the named property certifies",
    )
    p.add_argument("--map-tries", type=int, default=None)
    p.add_argument("--vertex-cap", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("export", help="materialize and write the graph")
    p.add_argument("--reduction", required=True)
    p.add_argument("--format", choices=["dimacs", "json"], default=None)
    p.add_argument("--vertex-cap", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("solve", help="exact + greedy clique search on a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--time-budget", type=float, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--vertex-cap", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify-complete", help="verify the planted clique pairwise")
    p.add_argument("--reduction", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify_complete)

    p = sub.add_parser("extract", help="decode a witness from a clique")
    p.add_argument("--reduction", required=True)
    p.add_argument("--clique", default=None, help="clique certificate JSON (default: planted)")
    p.add_argument("--skip-verify", action="store_true",
                   help="skip verifying the planted clique (a --clique file is always verified)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("lintest", help="linearity-test a serialized function table")
    p.add_argument("--table", required=True)
    p.add_argument("--samples", type=int, default=None, help="Monte Carlo samples (default exact)")
    p.add_argument("--decode-delta", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_lintest)

    p = sub.add_parser("experiment", help="run a measurement suite")
    p.add_argument("--suite", choices=list(SUITES), required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_experiment)

    return parser


DEFAULTS = {
    "seed": 0,
    "q": 3,
    "k": 1,
    "m": 4,
    "n": 4,
    "l": 2,
    "max_retries": 200,
    "mode": "exhaustive",
    "samples": 0,
    "certify": "none",
    "map_tries": 5000,
    "vertex_cap": DEFAULT_VERTEX_BUDGET,
    "time_budget": None,
    "restarts": 50,
    "format": "dimacs",
    "decode_delta": None,
}

# reduce keeps the graph implicit, so its default cap only guards against
# absurd index spaces; materializing commands keep the small default
PER_COMMAND_DEFAULTS = {"reduce": {"vertex_cap": 10**9}}

OUT_DEFAULTS = {
    "gen-vecsum": "instance.json",
    "check-map": "map-certificate.json",
    "reduce": "reduction.json",
    "export": "graph.dimacs",
    "solve": "solve-report.json",
    "verify-complete": "clique-certificate.json",
    "extract": "extraction-report.json",
    "lintest": "lintest-report.json",
    "experiment": "experiment-rows.jsonl",
}


def resolve_args(args: argparse.Namespace) -> dict:
    """Fill unset flags from the config file, then from hard defaults.
    Returns the semantic config that gets hashed into artifacts."""
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ContractViolation("config file must hold a JSON object")
    per_command = PER_COMMAND_DEFAULTS.get(args.command, {})
    # path-valued arguments stay out of the config hash: artifacts embed
    # their inputs by content, and hashes must not depend on file locations
    path_keys = ("out", "instance", "reduction", "graph", "clique", "table")
    semantic = {}
    for key, value in vars(args).items():
        if key in ("fn", "config", "out_dir"):
            continue
        if value is None or value == 0 and key == "samples":
            value = config.get(key, per_command.get(key, DEFAULTS.get(key, value)))
            setattr(args, key, value)
        if key not in path_keys:
            semantic[key] = value
    if getattr(args, "out", None) is None and args.command in OUT_DEFAULTS:
        args.out = config.get("out", OUT_DEFAULTS[args.command])
    for key in ("vertex_cap", "map_tries", "max_retries"):
        v = getattr(args, key, None)
        if v is not None and v <= 0:
            raise ContractViolation(f"budget {key} must be positive")
    return semantic


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        semantic = resolve_args(args)
        cmd = Command(args, semantic)
        return args.fn(cmd)
    except BudgetExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ContractViolation, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except PropertyViolation as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
