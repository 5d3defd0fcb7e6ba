"""CLI pipeline: artifacts, exit codes, determinism, config handling."""

import argparse
import hashlib
import json
import os

import pytest

from gapclique import rng as rngmod
from gapclique.cli import (
    CERTIFICATE_VERTICES, EXIT_BUDGET, EXIT_INVALID, EXIT_IO, EXIT_OK, EXIT_PROPERTY,
    build_parser, main,
)
from gapclique.reduction import CliqueInstance, extract_witness

from lintest_reference import linear_scalar


def run(*argv):
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def strip_timestamp(path):
    doc = read_json(path)
    doc["meta"].pop("created_utc")
    return json.dumps(doc, sort_keys=True)


class TestPipeline:
    def test_planted_round_trip(self, tmp_path):
        out = str(tmp_path)
        assert run("--seed", "7", "--out-dir", out, "gen-vecsum",
                   "--q", "3", "--k", "1", "--m", "4", "--n", "4", "--planted") == EXIT_OK
        inst = os.path.join(out, "instance.json")
        assert run("--seed", "7", "--out-dir", out, "check-map",
                   "--instance", inst, "--l", "2") == EXIT_OK
        assert run("--seed", "7", "--out-dir", out, "reduce",
                   "--instance", inst, "--l", "2", "--certify", "separation") == EXIT_OK
        red = os.path.join(out, "reduction.json")
        assert run("--seed", "7", "--out-dir", out, "verify-complete",
                   "--reduction", red) == EXIT_OK
        cert = read_json(os.path.join(out, "clique-certificate.json"))
        assert cert["verified"] and cert["clique_size"] == 9
        assert run("--seed", "7", "--out-dir", out, "extract",
                   "--reduction", red, "--skip-verify") == EXIT_OK
        rep = read_json(os.path.join(out, "extraction-report.json"))
        assert rep["verdict"] == "witness" and rep["brute_force_agrees"]

    def test_unsat_solve_path(self, tmp_path):
        out = str(tmp_path)
        assert run("--seed", "3", "--out-dir", out, "gen-vecsum",
                   "--q", "2", "--k", "1", "--m", "8", "--n", "4", "--unsat") == EXIT_OK
        inst = os.path.join(out, "instance.json")
        assert read_json(inst)["certificate"]["certified_no"]
        assert run("--seed", "3", "--out-dir", out, "reduce",
                   "--instance", inst, "--l", "2", "--certify", "wellspread") == EXIT_OK
        red = os.path.join(out, "reduction.json")
        assert run("--seed", "3", "--out-dir", out, "export",
                   "--reduction", red, "--format", "json", "--out", "graph.json") == EXIT_OK
        assert run("--seed", "3", "--out-dir", out, "solve",
                   "--graph", os.path.join(out, "graph.json")) == EXIT_OK
        rep = read_json(os.path.join(out, "solve-report.json"))
        assert rep["exact_optimal"] and rep["exact_size"] < 4

    def test_dimacs_export_parses(self, tmp_path):
        out = str(tmp_path)
        run("--seed", "5", "--out-dir", out, "gen-vecsum",
            "--q", "2", "--k", "1", "--m", "4", "--n", "4", "--planted")
        run("--seed", "5", "--out-dir", out, "reduce",
            "--instance", os.path.join(out, "instance.json"), "--l", "1")
        assert run("--seed", "5", "--out-dir", out, "export",
                   "--reduction", os.path.join(out, "reduction.json"),
                   "--format", "dimacs", "--out", "g.dimacs") == EXIT_OK
        header = open(os.path.join(out, "g.dimacs")).readline().split()
        assert header[:2] == ["p", "edge"] and int(header[2]) == 12


class TestExitCodes:
    def test_vertex_cap_refusal_is_2_with_exact_count(self, tmp_path, capsys):
        out = str(tmp_path)
        run("--seed", "1", "--out-dir", out, "gen-vecsum",
            "--q", "3", "--k", "1", "--m", "4", "--n", "4", "--planted")
        code = run("--seed", "1", "--out-dir", out, "reduce",
                   "--instance", os.path.join(out, "instance.json"),
                   "--l", "2", "--vertex-cap", "10")
        assert code == EXIT_BUDGET
        assert "513" in capsys.readouterr().err

    def test_vertex_cap_is_checked_before_the_map_search(self, tmp_path, capsys):
        # the vertex count depends on (q, k, l) alone: refused by budget,
        # not after a search that runs out of tries (exit 3)
        out = str(tmp_path)
        assert run("--seed", "3", "--out-dir", out, "gen-vecsum", "--q", "3", "--k", "1",
                   "--m", "6", "--n", "8", "--unsat") == EXIT_OK
        capsys.readouterr()
        code = run("--seed", "3", "--out-dir", out, "reduce", "--instance",
                   os.path.join(out, "instance.json"), "--l", "2", "--certify", "wellspread",
                   "--map-tries", "1", "--vertex-cap", "10")
        assert code == EXIT_BUDGET
        assert "needs budget 513" in capsys.readouterr().err

    def test_planted_and_unsat_together_are_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--out-dir", str(tmp_path), "gen-vecsum", "--planted", "--unsat")
        assert exc.value.code == EXIT_INVALID
        assert "not allowed with" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(str(tmp_path), "instance.json"))

    def test_property_violation_is_3(self, tmp_path):
        out = str(tmp_path)
        run("--seed", "2", "--out-dir", out, "gen-vecsum",
            "--q", "3", "--k", "1", "--m", "4", "--n", "4", "--planted")
        run("--seed", "2", "--out-dir", out, "reduce",
            "--instance", os.path.join(out, "instance.json"), "--l", "2")
        # a same-cloud pair is not a clique: rule 1 fails verification; the
        # third vertex lifts the set to the (3,1,2) size gate of 3
        clique = {
            "vertices": [
                [[1], [2], [0, 1], [1, 1]],
                [[1], [2], [1, 1], [0, 1]],
                [[1], [2], [2, 1], [2, 1]],
            ]
        }
        cl = os.path.join(out, "bad-clique.json")
        with open(cl, "w") as fh:
            json.dump(clique, fh)
        code = run("--seed", "2", "--out-dir", out, "extract",
                   "--reduction", os.path.join(out, "reduction.json"), "--clique", cl)
        assert code == EXIT_PROPERTY
        rep = read_json(os.path.join(out, "extraction-report.json"))
        assert (rep["verdict"], rep["stage"]) == ("failed", "gamma")

    def test_skip_verify_still_verifies_a_clique_file(self, tmp_path):
        out = str(tmp_path)
        run("--seed", "2", "--out-dir", out, "gen-vecsum",
            "--q", "3", "--k", "1", "--m", "4", "--n", "4", "--planted")
        run("--seed", "2", "--out-dir", out, "reduce",
            "--instance", os.path.join(out, "instance.json"), "--l", "2")
        red = os.path.join(out, "reduction.json")
        # the planted layout of a vector that is not the witness: 9 vertices,
        # above the size gate, consistent, but rule 5 fires; unverified it
        # would fail only at the sum check
        ci = CliqueInstance.from_json(read_json(red))
        assert ci.source.planted != (0,)
        cl = os.path.join(out, "not-a-clique.json")
        with open(cl, "w") as fh:
            json.dump({"vertices": [list(map(list, v)) for v in ci.planted_clique((0,))]}, fh)
        code = run("--seed", "2", "--out-dir", out, "extract", "--reduction", red,
                   "--clique", cl, "--skip-verify")
        assert code == EXIT_PROPERTY
        rep = read_json(os.path.join(out, "extraction-report.json"))
        assert (rep["verdict"], rep["stage"]) == ("failed", "gamma")

    def test_io_error_is_4(self, tmp_path):
        code = run("--seed", "1", "--out-dir", str(tmp_path), "check-map",
                   "--instance", str(tmp_path / "missing.json"), "--l", "2")
        assert code == EXIT_IO

    def test_nonpositive_budget_rejected(self, tmp_path):
        out = str(tmp_path)
        run("--seed", "1", "--out-dir", out, "gen-vecsum",
            "--q", "3", "--k", "1", "--m", "4", "--n", "4")
        code = run("--seed", "1", "--out-dir", out, "reduce",
                   "--instance", os.path.join(out, "instance.json"),
                   "--l", "2", "--vertex-cap", "0")
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("flag", ["--time-budget", "--restarts"])
    def test_zero_solve_budget_rejected(self, tmp_path, flag):
        path = tmp_path / "g.dimacs"
        path.write_text("p edge 3 1\ne 1 2\n")
        assert run("--out-dir", str(tmp_path), "solve", "--graph", str(path), flag, "0") \
            == EXIT_INVALID
        assert not os.path.exists(tmp_path / "solve-report.json")

    def test_usage_error_is_invalid(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("check-map", "--instance", "instance.json", "--mode", "sometimes")
        assert exc.value.code == EXIT_INVALID
        assert "invalid choice" in capsys.readouterr().err

    def test_impossible_wellspread_certification_is_invalid(self, tmp_path, capsys):
        # over F_2 with k = 2 and l = 1 no map is wellspread: refused at once
        out = str(tmp_path)
        assert run("--seed", "2", "--out-dir", out, "gen-vecsum",
                   "--q", "2", "--k", "2", "--m", "8", "--n", "3", "--unsat") == EXIT_OK
        capsys.readouterr()
        code = run("--seed", "2", "--out-dir", out, "reduce", "--instance",
                   os.path.join(out, "instance.json"), "--l", "1", "--certify", "wellspread")
        assert code == EXIT_INVALID
        assert "no map is wellspread over F_2" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "reduction.json"))

    def test_monte_carlo_without_samples_is_invalid(self, tmp_path, capsys):
        out = str(tmp_path)
        run("--seed", "1", "--out-dir", out, "gen-vecsum", "--q", "3", "--k", "1")
        code = run("--seed", "1", "--out-dir", out, "check-map",
                   "--instance", os.path.join(out, "instance.json"), "--mode", "monte_carlo")
        assert code == EXIT_INVALID
        assert "samples >= 1" in capsys.readouterr().err

    def test_modulus_past_64_bit_images_refused_by_vertex_budget(self, tmp_path, capsys):
        # 4294967311 is the first prime above 2^32: its images overflow int64,
        # but the graph is refused for its size before any image is computed
        out = str(tmp_path)
        assert run("--seed", "1", "--out-dir", out, "gen-vecsum", "--q", "4294967311",
                   "--k", "1", "--m", "2", "--n", "2") == EXIT_OK
        code = run("--seed", "1", "--out-dir", out, "reduce",
                   "--instance", os.path.join(out, "instance.json"), "--l", "1")
        assert code == EXIT_BUDGET
        assert "vertex count" in capsys.readouterr().err


    def test_large_planted_clique_refused_by_budget(self, tmp_path, capsys):
        # (7,2,1): verify-complete would list the planted clique's 5,764,801
        # vertices in its certificate, so it refuses before building the clique
        out = str(tmp_path)
        assert run("--seed", "1", "--out-dir", out, "gen-vecsum", "--q", "7", "--k", "2",
                   "--m", "3", "--n", "3", "--planted") == EXIT_OK
        assert run("--seed", "1", "--out-dir", out, "reduce",
                   "--instance", os.path.join(out, "instance.json"), "--l", "1") == EXIT_OK
        capsys.readouterr()
        assert run("--seed", "1", "--out-dir", out, "verify-complete",
                   "--reduction", os.path.join(out, "reduction.json")) == EXIT_BUDGET
        err = capsys.readouterr().err
        assert "clique certificate vertices: needs budget 5764801" in err
        assert f"budget is {CERTIFICATE_VERTICES}" in err
        assert not os.path.exists(os.path.join(out, "clique-certificate.json"))

    @pytest.mark.parametrize("q,l,certify,code", [
        (7, 1, "none", EXIT_PROPERTY),  # one map row cannot tell the source vectors apart
        (5, 8, "separation", EXIT_OK),
    ])
    def test_extract_decodes_large_planted_layouts(self, tmp_path, q, l, certify, code):
        # 5,764,801 and 390,625 vertices: extract runs under defaults, past any vertex list
        out = str(tmp_path)
        base = ["--seed", "1", "--out-dir", out]
        assert run(*base, "gen-vecsum", "--q", str(q), "--k", "2", "--m", "4", "--n", "3",
                   "--planted") == EXIT_OK
        assert run(*base, "reduce", "--instance", os.path.join(out, "instance.json"),
                   "--l", str(l), "--certify", certify, "--vertex-cap", str(10**18)) == EXIT_OK
        red = os.path.join(out, "reduction.json")
        assert run(*base, "extract", "--reduction", red) == code
        doc = read_json(os.path.join(out, "extraction-report.json"))
        ci = CliqueInstance.from_json(read_json(red))
        rep = extract_witness(ci.planted_clique(ci.source.planted), ci,
                              rng=rngmod.stream(1, "gamma-fill"))
        assert doc["clique_size"] == q ** 8
        if code == EXIT_OK:
            assert rep.verdict == "witness" and doc.pop("brute_force_agrees") is True
        else:
            assert (rep.verdict, rep.stage) == ("failed", "decode")
        doc.pop("kind"), doc.pop("meta")
        assert doc == json.loads(json.dumps(rep.to_json()))


class TestDeterminism:
    def test_same_seed_byte_identical_modulo_timestamp(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert run("--seed", "11", "--out-dir", out, "gen-vecsum",
                       "--q", "3", "--k", "2", "--m", "3", "--n", "4") == EXIT_OK
            assert run("--seed", "11", "--out-dir", out, "reduce",
                       "--instance", os.path.join(out, "instance.json"),
                       "--l", "2") == EXIT_OK
        for name in ("instance.json", "reduction.json"):
            assert strip_timestamp(os.path.join(a, name)) == strip_timestamp(
                os.path.join(b, name)
            )

    def test_different_seed_changes_artifacts(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run("--seed", "11", "--out-dir", a, "gen-vecsum", "--q", "3", "--k", "1",
            "--m", "3", "--n", "4")
        run("--seed", "12", "--out-dir", b, "gen-vecsum", "--q", "3", "--k", "1",
            "--m", "3", "--n", "4")
        assert strip_timestamp(os.path.join(a, "instance.json")) != strip_timestamp(
            os.path.join(b, "instance.json")
        )

    # the certified-NO sequence at the unsat-solve benchmark points, seed 5:
    # SHA-256 of each JSON artifact without created_utc, and of the DIMACS file
    CERTIFIED_NO = {
        (3, 1, 2, 6, 8): {
            "instance.json": "e9ec8251c54dbb8bd9538969a1c624947acb558ac91996f8c395b95b21082a94",
            "reduction.json": "e37f958db1a9d5f07dfd7bd23eb4bd45f0f4d892f4e23e65daa356d53ebc6b21",
            "solve-report.json": "744a84635fa87e261d654331cf9486f676fddd7c2a1953023792480916c0118f",
            "graph.dimacs": "fc0c6f417a967c9a5e8fecc9f34e2d6e5fe581ea26962061e2fe7b3bc701f1b9",
        },
        (5, 1, 1, 4, 8): {
            "instance.json": "282f2c53e0446a18ab7ac617a033114e12d4a05228651848d51e253df50436f2",
            "reduction.json": "7517ddd723d79e80deff3f04e02bc0b2c12901e35e5eedc6e70582d27f435c15",
            "solve-report.json": "8ce5b9d67f8bfda8c07b84623dde3432f5b8fe56251592086d038afdd84ba2b9",
            "graph.dimacs": "f9e22e2c5c869c22957184ca29f70381cf3c494924d705a732392def71a53a6b",
        },
    }

    @pytest.mark.parametrize("point", sorted(CERTIFIED_NO), ids=str)
    def test_certified_no_sequence_pinned(self, tmp_path, point):
        q, k, l, m, n = point
        out = str(tmp_path)
        steps = [
            ["gen-vecsum", "--q", str(q), "--k", str(k), "--m", str(m), "--n", str(n), "--unsat"],
            ["reduce", "--instance", os.path.join(out, "instance.json"), "--l", str(l),
             "--certify", "wellspread", "--map-tries", "20000"],
            ["export", "--reduction", os.path.join(out, "reduction.json"),
             "--format", "dimacs", "--out", "graph.dimacs"],
            ["solve", "--graph", os.path.join(out, "graph.dimacs")],
        ]
        for step in steps:
            assert run("--seed", "5", "--out-dir", out, *step) == EXIT_OK
        got = {name: hashlib.sha256(strip_timestamp(os.path.join(out, name)).encode()).hexdigest()
               for name in ("instance.json", "reduction.json", "solve-report.json")}
        with open(os.path.join(out, "graph.dimacs"), "rb") as fh:
            got["graph.dimacs"] = hashlib.sha256(fh.read()).hexdigest()
        assert got == self.CERTIFIED_NO[point]

    # check-map --mode monte_carlo at (3,2,3,3,4), seed 2, without
    # created_utc: wellspread fails on its third draw, and separation draws
    # from the rng the first batch of 1,024 draws leaves behind
    MONTE_CARLO_PIN = "bf22ff17e8418ce2612e0877fd28d31bd21d3d452283bee60c51ad4aa96043d0"

    def test_monte_carlo_certificates_pinned(self, tmp_path):
        out = str(tmp_path)
        assert run("--seed", "2", "--out-dir", out, "gen-vecsum", "--q", "3", "--k", "2",
                   "--m", "3", "--n", "3", "--planted") == EXIT_OK
        assert run("--seed", "2", "--out-dir", out, "check-map", "--instance",
                   os.path.join(out, "instance.json"), "--l", "4", "--mode", "monte_carlo",
                   "--samples", "3000") == EXIT_OK
        path = os.path.join(out, "map-certificate.json")
        doc = read_json(path)
        assert not doc["wellspread"]["passed"] and doc["wellspread"]["checked"] == 3
        assert not doc["pairwise_separation"]["passed"]
        assert hashlib.sha256(strip_timestamp(path).encode()).hexdigest() == self.MONTE_CARLO_PIN

    # extraction reports at (3,1,2), seed 5, without created_utc: from the
    # planted clique, and from its sub-clique on (alpha, beta) = (0,0),
    # (0,1), (1,0), whose points leave (2,) to the scalar closure
    EXTRACT_PINS = {
        "planted": "12f876816a82d4775a1101963e5548147a8366d5383faea542b9c7b420345e48",
        "sub-clique": "da1e56cc3d6888428e54d46e0e6d601cf72c31569479b0569463dcb7cbdf9624",
    }

    def test_extraction_reports_pinned(self, tmp_path):
        out = str(tmp_path)
        red = os.path.join(out, "reduction.json")
        steps = [
            ["gen-vecsum", "--q", "3", "--k", "1", "--m", "4", "--n", "4", "--planted"],
            ["reduce", "--instance", os.path.join(out, "instance.json"), "--l", "2",
             "--certify", "separation"],
            ["verify-complete", "--reduction", red],
            ["extract", "--reduction", red, "--out", "planted.json"],
        ]
        for step in steps:
            assert run("--seed", "5", "--out-dir", out, *step) == EXIT_OK
        vertices = read_json(os.path.join(out, "clique-certificate.json"))["vertices"]
        sub = [v for v in vertices if (v[0], v[1]) in (([0], [0]), ([0], [1]), ([1], [0]))]
        assert len(sub) == 3
        with open(os.path.join(out, "sub.json"), "w") as fh:
            json.dump({"vertices": sub}, fh)
        assert run("--seed", "5", "--out-dir", out, "extract", "--reduction", red,
                   "--clique", os.path.join(out, "sub.json"), "--out", "sub-clique.json") == EXIT_OK
        got = {name: hashlib.sha256(strip_timestamp(os.path.join(out, f"{name}.json")).encode())
               .hexdigest() for name in self.EXTRACT_PINS}
        assert got == self.EXTRACT_PINS


def _subparsers():
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


# every option that takes a value, per subcommand, and the top-level seed
VALUED_OPTIONS = [("gen-vecsum", a) for a in build_parser()._actions if a.dest == "seed"] + [
    (command, a) for command, sub in _subparsers().choices.items()
    for a in sub._actions if a.option_strings and a.nargs is None
]
WRONG_CONFIG_VALUES = {
    "int": ["5", True, 2.5, None, [1]],
    "float": ["0.5", False, [0.5]],
    "choice": ["bogus", 1, None],
    "str": [5, None, ["a.json"]],
}


NUMERIC_COMMANDS = ("gen-vecsum", "check-map", "reduce", "export", "solve", "lintest")
# every numeric flag of those commands at -1, and every float flag at nan too
OUT_OF_RANGE = [
    (command, a.option_strings[0], value)
    for command in NUMERIC_COMMANDS for a in _subparsers().choices[command]._actions
    if a.type in (int, float) for value in ["-1"] + ["nan"] * (a.type is float)
]


@pytest.fixture(scope="module")
def valid_arguments(tmp_path_factory):
    """Per command, arguments that run it to exit 0 on small inputs."""
    from gapclique.lintest import FunctionTable

    d = str(tmp_path_factory.mktemp("inputs"))
    path = lambda name: os.path.join(d, name)  # noqa: E731
    assert run("--seed", "1", "--out-dir", d, "gen-vecsum", "--q", "3", "--k", "1",
               "--m", "4", "--n", "4") == EXIT_OK
    assert run("--seed", "1", "--out-dir", d, "reduce", "--instance", path("instance.json"),
               "--l", "1") == EXIT_OK
    assert run("--seed", "1", "--out-dir", d, "export",
               "--reduction", path("reduction.json")) == EXIT_OK
    with open(path("table.json"), "w") as fh:
        json.dump(FunctionTable.from_linear(linear_scalar(3, (1, 2))).to_json(), fh)
    return {
        "gen-vecsum": [],
        "check-map": ["--instance", path("instance.json")],
        "reduce": ["--instance", path("instance.json")],
        "export": ["--reduction", path("reduction.json")],
        "solve": ["--graph", path("graph.dimacs")],
        "lintest": ["--table", path("table.json"), "--decode-delta", "0.5"],
    }


@pytest.mark.parametrize("command", NUMERIC_COMMANDS)
def test_sweep_arguments_are_valid(tmp_path, capsys, valid_arguments, command):
    assert run("--seed", "1", "--out-dir", str(tmp_path), command,
               *valid_arguments[command]) == EXIT_OK


@pytest.mark.parametrize("command, flag, value", OUT_OF_RANGE)
def test_numeric_flag_out_of_range_is_invalid(tmp_path, capsys, valid_arguments,
                                              command, flag, value):
    # the --seed flag aside, no numeric flag takes -1 or nan
    assert run("--seed", "1", "--out-dir", str(tmp_path), command,
               *valid_arguments[command], flag, value) == EXIT_INVALID


@pytest.fixture(scope="module")
def planted_files(tmp_path_factory):
    """A planted (3,1,4,4) instance, its separation-certified reduction and
    the certificate of its planted clique, by name."""
    out = str(tmp_path_factory.mktemp("planted"))
    files = {name: os.path.join(out, f"{name}.json")
             for name in ("instance", "reduction", "clique-certificate")}
    steps = [["gen-vecsum", "--q", "3", "--k", "1", "--m", "4", "--n", "4"],
             ["reduce", "--instance", files["instance"], "--l", "2", "--certify", "separation"],
             ["verify-complete", "--reduction", files["reduction"]]]
    for step in steps:
        assert run("--seed", "5", "--out-dir", out, *step) == EXIT_OK
    return {name.replace("-", "_"): path for name, path in files.items()}


# a command line, and a flag its run does not read
UNREAD_OPTIONS = [
    (["check-map", "--instance", "{instance}"], ["--samples", "500"]),
    (["gen-vecsum"], ["--max-retries", "7"]),
    (["gen-vecsum"], ["--planted"]),
    (["reduce", "--instance", "{instance}", "--l", "2"], ["--map-tries", "7"]),
    (["extract", "--reduction", "{reduction}", "--clique", "{clique_certificate}"],
     ["--skip-verify"]),
]


class TestConfig:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": 5, "k": 2, "m": 3, "n": 3}))
        out = str(tmp_path)
        assert run("--seed", "4", "--config", str(cfg), "--out-dir", out,
                   "gen-vecsum") == EXIT_OK
        doc = read_json(os.path.join(out, "instance.json"))
        assert doc["q"] == 5 and doc["k"] == 2

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": 5}))
        out = str(tmp_path)
        run("--seed", "4", "--config", str(cfg), "--out-dir", out,
            "gen-vecsum", "--q", "3")
        assert read_json(os.path.join(out, "instance.json"))["q"] == 3

    def test_config_values_match_the_same_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": 5, "k": 2, "m": 3, "n": 3, "out": "a.json"}))
        out = str(tmp_path)
        assert run("--seed", "4", "--config", str(cfg), "--out-dir", out,
                   "gen-vecsum") == EXIT_OK
        assert run("--seed", "4", "--out-dir", out, "gen-vecsum", "--q", "5", "--k", "2",
                   "--m", "3", "--n", "3", "--out", "b.json") == EXIT_OK
        assert strip_timestamp(os.path.join(out, "a.json")) == strip_timestamp(
            os.path.join(out, "b.json"))

    @pytest.mark.parametrize("base,flag", UNREAD_OPTIONS,
                             ids=[f"{base[0]}{''.join(flag[:1])}" for base, flag in UNREAD_OPTIONS])
    def test_an_option_the_run_does_not_read_leaves_the_artifact(self, tmp_path, planted_files,
                                                                base, flag):
        # the same payload under the same config hash, created_utc aside
        argv = [arg.format(**planted_files) for arg in base]
        docs = []
        for extra in ([], flag):
            out = str(tmp_path / str(len(docs)))
            assert run("--seed", "5", "--out-dir", out, *argv, *extra, "--out", "a.json") == EXIT_OK
            docs.append(strip_timestamp(os.path.join(out, "a.json")))
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("command,option", VALUED_OPTIONS,
                             ids=[f"{c}:{o.dest}" for c, o in VALUED_OPTIONS])
    def test_config_value_of_the_wrong_type_is_invalid(self, tmp_path, capsys, command, option):
        # each config value passes its flag's type and choices before any work
        sub = _subparsers().choices[command]
        required = [arg for a in sub._actions if a.required for arg in (
            a.option_strings[0], a.choices[0] if a.choices else str(tmp_path / "missing.json"))]
        kind = {int: "int", float: "float"}.get(option.type, "choice" if option.choices else "str")
        out = tmp_path / "out"
        for value in WRONG_CONFIG_VALUES[kind]:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({option.dest: value}))
            code = run("--seed", "1", "--config", str(cfg), "--out-dir", str(out),
                       command, *required)
            assert code == EXIT_INVALID, value
            assert f"config {option.dest} = " in capsys.readouterr().err
            assert not out.exists()

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "env-out"
        monkeypatch.setenv("GAPCLIQUE_OUT_DIR", str(target))
        assert run("--seed", "4", "gen-vecsum", "--q", "3", "--k", "1",
                   "--m", "2", "--n", "3") == EXIT_OK
        assert (target / "instance.json").exists()

    def test_writes_stay_inside_out_dir(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        outdir = tmp_path / "out"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        run("--seed", "4", "--out-dir", str(outdir), "gen-vecsum",
            "--q", "3", "--k", "1", "--m", "2", "--n", "3")
        assert list(workdir.iterdir()) == []
        assert (outdir / "instance.json").exists()


class TestLintestCommand:
    def test_exact_and_decode(self, tmp_path):
        from gapclique.lintest import FunctionTable

        table = tmp_path / "table.json"
        with open(table, "w") as fh:
            json.dump(FunctionTable.from_linear(linear_scalar(5, (2, 3))).to_json(), fh)
        out = str(tmp_path)
        assert run("--seed", "1", "--out-dir", out, "lintest",
                   "--table", str(table), "--decode-delta", "0.5") == EXIT_OK
        rep = read_json(os.path.join(out, "lintest-report.json"))
        assert rep["pass_probability"]["exact"] == "1/1"
        assert rep["decoded"]["list"] == [[2, 3]]

    @pytest.mark.parametrize("delta", ["nan", "inf", "0"])
    def test_decode_delta_must_be_finite_and_positive(self, tmp_path, delta):
        # a non-finite delta would otherwise reach the report as NaN or
        # Infinity, which strict JSON readers refuse
        from gapclique.lintest import FunctionTable

        table = tmp_path / "table.json"
        with open(table, "w") as fh:
            json.dump(FunctionTable.from_linear(linear_scalar(5, (2, 3))).to_json(), fh)
        out = str(tmp_path)
        assert run("--seed", "1", "--out-dir", out, "lintest",
                   "--table", str(table), "--decode-delta", delta) == EXIT_INVALID
        assert not os.path.exists(os.path.join(out, "lintest-report.json"))

    def test_monte_carlo_mode(self, tmp_path):
        from gapclique.lintest import FunctionTable

        table = tmp_path / "table.json"
        with open(table, "w") as fh:
            json.dump(FunctionTable.from_linear(linear_scalar(3, (1, 2))).to_json(), fh)
        out = str(tmp_path)
        assert run("--seed", "1", "--out-dir", out, "lintest",
                   "--table", str(table), "--samples", "500") == EXIT_OK
        rep = read_json(os.path.join(out, "lintest-report.json"))
        assert rep["pass_probability"]["estimate"] == 1.0

    def test_exact_past_the_pair_budget(self, tmp_path):
        # 10,201 points, past the pair budget: one DFT pair counts them
        from gapclique import rng as rngmod
        from gapclique.lintest import pass_probability, random_scalar_respecting_table

        f = random_scalar_respecting_table(rngmod.stream(101, "cli-large"), 101, 2)
        table = tmp_path / "table.json"
        with open(table, "w") as fh:
            json.dump(f.to_json(), fh)
        out = str(tmp_path)
        assert run("--seed", "1", "--out-dir", out, "lintest", "--table", str(table)) == EXIT_OK
        rep = read_json(os.path.join(out, "lintest-report.json"))
        want = pass_probability(f)
        assert rep["pass_probability"]["exact"] == f"{want.numerator}/{want.denominator}"


class TestExperimentCommand:
    def test_lintest_suite_passes(self, tmp_path):
        out = str(tmp_path)
        assert run("--seed", "0", "--out-dir", out, "experiment",
                   "--suite", "lintest") == EXIT_OK
        rows = [json.loads(line) for line in
                open(os.path.join(out, "experiment-rows.jsonl"))]
        assert rows and all(r["status"] in ("pass", "report") for r in rows)


class TestCheckMapCommand:
    @pytest.mark.parametrize("mode", [[], ["--mode", "monte_carlo", "--samples", "100"]],
                             ids=["exhaustive", "monte_carlo"])
    def test_composite_modulus_is_invalid(self, tmp_path, capsys, mode):
        # the instance takes q = 4; no map over it is certified
        out = str(tmp_path)
        assert run("--seed", "1", "--out-dir", out, "gen-vecsum",
                   "--q", "4", "--k", "1", "--m", "3", "--n", "3") == EXIT_OK
        code = run("--seed", "1", "--out-dir", out, "check-map",
                   "--instance", os.path.join(out, "instance.json"), "--l", "2", *mode)
        assert code == EXIT_INVALID
        assert "map modulus 4 is not prime" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "map-certificate.json"))

    def test_monte_carlo_reports_k1_separation_failure(self, tmp_path):
        # exhaustive mode fails this map after 21 cases; sampling must too
        out = str(tmp_path)
        run("--seed", "3", "--out-dir", out, "gen-vecsum", "--q", "5", "--k", "1")
        assert run("--seed", "3", "--out-dir", out, "check-map",
                   "--instance", os.path.join(out, "instance.json"), "--l", "1",
                   "--mode", "monte_carlo", "--samples", "1000") == EXIT_OK
        sep = read_json(os.path.join(out, "map-certificate.json"))["pairwise_separation"]
        assert sep["mode"] == "monte_carlo"
        assert not sep["passed"] and sep["checked"] >= 1

    def test_monte_carlo_without_countable_case_is_3(self, tmp_path, capsys):
        # one vector per collection at k = 1 is the zero witness: no nonzero sum
        out = str(tmp_path)
        run("--seed", "1", "--out-dir", out, "gen-vecsum",
            "--q", "3", "--k", "1", "--m", "4", "--n", "1")
        code = run("--seed", "1", "--out-dir", out, "check-map",
                   "--instance", os.path.join(out, "instance.json"),
                   "--mode", "monte_carlo", "--samples", "50")
        assert code == EXIT_PROPERTY
        assert "50 Monte Carlo samples" in capsys.readouterr().err


class TestParserReuse:
    STEPS = (
        ("gen-vecsum", "--q", "3", "--k", "1", "--m", "4", "--n", "4", "--unsat"),
        ("check-map", "--instance", "{out}/instance.json", "--mode", "sometimes"),
        ("reduce", "--instance", "{out}/instance.json", "--l", "1", "--certify", "wellspread",
         "--map-tries", "20000"),
        ("--version",),
        ("export", "--format", "dimacs"),
        ("reduce", "--instance", "{out}/instance.json", "--out", "again.json"),
        ("export", "--reduction", "{out}/reduction.json", "--out", "g.dimacs"),
        ("solve", "--graph", "{out}/g.dimacs"),
        ("check-map", "--instance", "{out}/instance.json", "--l", "1"),
    )

    def run_steps(self, out, capsys, fresh):
        seen = []
        for step in self.STEPS:
            if fresh:
                build_parser.cache_clear()
            try:
                code = run("--seed", "4", "--out-dir", out, *(a.format(out=out) for a in step))
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            seen.append((code, captured.out.replace(out, "OUT"), captured.err.replace(out, "OUT")))
        artifacts = {}
        for name in sorted(os.listdir(out)):
            path = os.path.join(out, name)
            artifacts[name] = strip_timestamp(path) if name.endswith(".json") else open(path).read()
        return seen, artifacts

    def test_cached_parser_acts_like_a_fresh_one(self, tmp_path, capsys):
        # subcommands alternate, with usage errors (exit 5) and --version in
        # between; every call must see only its own arguments and defaults
        cached = self.run_steps(str(tmp_path / "cached"), capsys, fresh=False)
        fresh = self.run_steps(str(tmp_path / "fresh"), capsys, fresh=True)
        assert cached == fresh
        codes = [code for code, _, _ in cached[0]]
        assert codes == [EXIT_OK, ("exit", EXIT_INVALID), EXIT_OK, ("exit", 0),
                         ("exit", EXIT_INVALID), EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK]
        assert build_parser() is build_parser()
