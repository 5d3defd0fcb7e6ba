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
    DEFAULT_VERTEX_CAP,
    export_graph,
    greedy_clique,
    max_clique_exact,
    read_dimacs,
    read_graph_json,
)
from .lintest import FunctionTable, estimate_pass_probability, list_decode_scalar, pass_probability
from .randmap import check_pairwise_separation, check_wellspread, sample_g
from .reduction import CliqueInstance, ReductionParams, VertexCodec, extract_witness
from .vecsum import VecSumInstance, brute_force_decide, generate_planted, generate_unsat

EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_PROPERTY = 3
EXIT_IO = 4
EXIT_INVALID = 5

OUT_DIR_ENV = "GAPCLIQUE_OUT_DIR"
# verify-complete writes every vertex of the planted clique into its certificate
CERTIFICATE_VERTICES = 1 << 16


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


def _load_clique(path: str) -> list:
    """The vertex rows of a clique file, {"vertices": [[alpha, beta, x, y], ...]};
    extract_witness checks each row (see as_clique) before anything else."""
    with open(path) as fh:
        doc = json.load(fh)
    rows = doc.get("vertices") if isinstance(doc, dict) else None
    if not isinstance(rows, list):
        raise ContractViolation("a clique file must list [alpha, beta, x, y] vertices")
    return rows


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
    check = {} if a.mode == "exhaustive" else {
        "samples": a.samples, "rng": rngmod.stream(cmd.seed, "map-check")}
    ws = check_wellspread(g, inst, **check)
    sep = check_pairwise_separation(g, inst, **check)
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
    count = VertexCodec(inst.q, inst.k, a.l).count  # set by (q, k, l): checked before any map
    if count > a.vertex_cap:
        raise BudgetExceeded("vertex count", required=count, budget=a.vertex_cap)
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
    doc = CliqueInstance(params, g, inst).to_json()
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
        graph, _ = read_graph_json(a.graph, vertex_cap=a.vertex_cap)
    else:
        graph = read_dimacs(a.graph, vertex_cap=a.vertex_cap)
    exact = max_clique_exact(graph, time_budget=a.time_budget, vertex_cap=a.vertex_cap)
    # past the proven clique number no restart can change the greedy clique
    greedy = greedy_clique(graph, restarts=a.restarts, rng=rngmod.stream(cmd.seed, "greedy"),
                           ceiling=exact.size if exact.optimal else None)
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
    target_size = ci.params.q ** (2 * ci.params.k**2)
    if target_size > CERTIFICATE_VERTICES:
        raise BudgetExceeded("clique certificate vertices", required=target_size,
                             budget=CERTIFICATE_VERTICES)
    clique = ci.planted_clique(ci.source.planted)
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
        clique, verify = _load_clique(a.clique), True
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
        est = estimate_pass_probability(table, a.samples, rngmod.stream(cmd.seed, "lintest"))
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
    parser.add_argument("--seed", type=int, default=None, help="master seed, any integer")
    parser.add_argument("--config", default=None, help="JSON config file; flags override")
    parser.add_argument("--out-dir", default=None, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-vecsum", help="generate a vector-sum instance")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None, help="vectors per collection")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--planted", action="store_true", help="planted YES instance (default)")
    kind.add_argument("--unsat", action="store_true", help="brute-force certified NO instance")
    p.add_argument("--max-retries", type=int, default=None)
    p.set_defaults(fn=cmd_gen_vecsum)

    p = sub.add_parser("check-map", help="sample a map and run both goodness checks")
    p.add_argument("--instance", required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--mode", choices=["exhaustive", "monte_carlo"], default=None)
    p.add_argument("--samples", type=int, default=None)
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
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("export", help="materialize and write the graph")
    p.add_argument("--reduction", required=True)
    p.add_argument("--format", choices=["dimacs", "json"], default=None)
    p.add_argument("--vertex-cap", type=int, default=None)
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("solve", help="exact + greedy clique search on a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--time-budget", type=float, default=None)
    p.add_argument("--restarts", type=int, default=None,
                   help="greedy restarts, at most; stops at the proven clique number")
    p.add_argument("--vertex-cap", type=int, default=None)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify-complete", help="verify the planted clique pairwise")
    p.add_argument("--reduction", required=True)
    p.set_defaults(fn=cmd_verify_complete)

    p = sub.add_parser("extract", help="decode a witness from a clique")
    p.add_argument("--reduction", required=True)
    p.add_argument("--clique", default=None, help="clique certificate JSON (default: planted)")
    p.add_argument("--skip-verify", action="store_true",
                   help="skip verifying the planted clique (a --clique file is always verified)")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("lintest", help="linearity-test a serialized function table")
    p.add_argument("--table", required=True)
    p.add_argument("--samples", type=int, default=None, help="Monte Carlo samples (default exact)")
    p.add_argument("--decode-delta", type=float, default=None)
    p.set_defaults(fn=cmd_lintest)

    p = sub.add_parser("experiment", help="run a measurement suite")
    p.add_argument("--suite", choices=list(SUITES), required=True)
    p.set_defaults(fn=cmd_experiment)

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
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
    "vertex_cap": DEFAULT_VERTEX_CAP,
    "time_budget": None,
    "restarts": 50,
    "format": "dimacs",
    "decode_delta": None,
}

# each command's output file; reduce keeps the graph implicit, so its default
# cap only guards against absurd index spaces, while materializing commands
# keep the small default
PER_COMMAND_DEFAULTS = {
    "gen-vecsum": {"out": "instance.json"},
    "check-map": {"out": "map-certificate.json"},
    "reduce": {"out": "reduction.json", "vertex_cap": 10**9},
    "export": {"out": "graph.dimacs"},
    "solve": {"out": "solve-report.json"},
    "verify-complete": {"out": "clique-certificate.json"},
    "extract": {"out": "extraction-report.json"},
    "lintest": {"out": "lintest-report.json"},
    "experiment": {"out": "experiment-rows.jsonl"},
}


def _check_config(config: dict, command: str) -> None:
    """Each config value of a valued option of the command passes its flag's
    type and choices as it is: an int flag takes an int that is not a bool, a
    float flag an int or a float, any other a string; null only where the
    hard default is null."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for option in parser._actions + sub.choices[command]._actions:
        if option.dest not in config or not option.option_strings or option.nargs is not None:
            continue
        value = config[option.dest]
        kinds = {int: int, float: (int, float)}.get(option.type, str)
        if not (value is None and DEFAULTS.get(option.dest, 0) is None) and (
                type(value) is bool or not isinstance(value, kinds)
                or option.choices is not None and value not in option.choices):
            raise ContractViolation(f"config {option.dest} = {value!r:.60} is no valid "
                                    f"{'/'.join(option.option_strings)}")


def resolve_args(args: argparse.Namespace) -> dict:
    """Fill unset flags from the config file, then from hard defaults.
    Returns the semantic config that gets hashed into artifacts."""
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ContractViolation("config file must hold a JSON object")
    _check_config(config, args.command)
    per_command = PER_COMMAND_DEFAULTS[args.command]
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
    # an option the run does not read enters the hash at its default (an
    # unset switch: False): gen-vecsum reads --unsat, not --planted
    unread = {"planted": True, "max_retries": not getattr(args, "unsat", True),
              "samples": getattr(args, "mode", None) == "exhaustive",
              "map_tries": getattr(args, "certify", None) == "none",
              "skip_verify": bool(getattr(args, "clique", None))}
    for key in semantic.keys() & {key for key, skip in unread.items() if skip}:
        semantic[key] = DEFAULTS.get(key, False)
    # `not v > 0` refuses NaN too; samples = 0 asks for the default (exact)
    for key in ("vertex_cap", "map_tries", "max_retries", "time_budget", "restarts", "samples"):
        v = getattr(args, key, None)
        if v is not None and not (v > 0 or v == 0 and key == "samples"):
            least = ">= 0" if key == "samples" else "> 0"
            raise ContractViolation(f"budget {key} = {v} must be {least}")
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
