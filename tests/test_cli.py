"""CLI pipeline: artifacts, exit codes, determinism, config handling."""

import hashlib
import json
import os

import pytest

from gapclique.cli import (
    EXIT_BUDGET, EXIT_INVALID, EXIT_IO, EXIT_OK, EXIT_PROPERTY, build_parser, main,
)
from gapclique.reduction import CliqueInstance


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

    def test_property_violation_is_3(self, tmp_path):
        out = str(tmp_path)
        run("--seed", "2", "--out-dir", out, "gen-vecsum",
            "--q", "3", "--k", "1", "--m", "4", "--n", "4", "--planted")
        run("--seed", "2", "--out-dir", out, "reduce",
            "--instance", os.path.join(out, "instance.json"), "--l", "2")
        # a same-cloud pair is not a clique: extraction must fail with 3
        red = read_json(os.path.join(out, "reduction.json"))
        clique = {
            "vertices": [
                [[1], [2], [0, 1], [1, 1]],
                [[1], [2], [1, 1], [0, 1]],
            ]
        }
        cl = os.path.join(out, "bad-clique.json")
        with open(cl, "w") as fh:
            json.dump(clique, fh)
        code = run("--seed", "2", "--out-dir", out, "extract",
                   "--reduction", os.path.join(out, "reduction.json"), "--clique", cl)
        assert code == EXIT_PROPERTY

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
        from gapclique.lintest import FunctionTable, LinearScalarFn

        table = tmp_path / "table.json"
        with open(table, "w") as fh:
            json.dump(FunctionTable.from_linear(LinearScalarFn(5, (2, 3))).to_json(), fh)
        out = str(tmp_path)
        assert run("--seed", "1", "--out-dir", out, "lintest",
                   "--table", str(table), "--decode-delta", "0.5") == EXIT_OK
        rep = read_json(os.path.join(out, "lintest-report.json"))
        assert rep["pass_probability"]["exact"] == "1/1"
        assert rep["decoded"]["list"] == [[2, 3]]

    def test_monte_carlo_mode(self, tmp_path):
        from gapclique.lintest import FunctionTable, LinearScalarFn

        table = tmp_path / "table.json"
        with open(table, "w") as fh:
            json.dump(FunctionTable.from_linear(LinearScalarFn(3, (1, 2))).to_json(), fh)
        out = str(tmp_path)
        assert run("--seed", "1", "--out-dir", out, "lintest",
                   "--table", str(table), "--samples", "500") == EXIT_OK
        rep = read_json(os.path.join(out, "lintest-report.json"))
        assert rep["pass_probability"]["estimate"] == 1.0


class TestExperimentCommand:
    def test_lintest_suite_passes(self, tmp_path):
        out = str(tmp_path)
        assert run("--seed", "0", "--out-dir", out, "experiment",
                   "--suite", "lintest") == EXIT_OK
        rows = [json.loads(line) for line in
                open(os.path.join(out, "experiment-rows.jsonl"))]
        assert rows and all(r["status"] in ("pass", "report") for r in rows)


class TestCheckMapCommand:
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
