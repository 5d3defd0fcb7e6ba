"""Fuzzing the readers of outside input: the two graph readers, the
instance, map and reduction loaders, the clique file reader and the
function table loader.  Malformed input may only raise
ContractViolation (a graph reader also refuses a well-formed but oversized
vertex count by budget), and through the CLI it may only end in a documented
exit code; whatever a loader accepts must serialize back to an equal object."""

import copy
import io
import json
import math
import os
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapclique import rng as rngmod
from gapclique.cli import EXIT_BUDGET, EXIT_INVALID, EXIT_IO, EXIT_OK, EXIT_PROPERTY, main
from gapclique.cliquesolve import (
    EDGE_LIST_VERTEX_LIMIT,
    DenseGraph,
    export_graph,
    read_dimacs,
    read_graph_json,
)
from gapclique.errors import BudgetExceeded, ContractViolation
from gapclique.ffield import next_prime
from gapclique.lintest import FunctionTable, LinearScalarFn, LinearVecFn
from gapclique.randmap import LinearMapG, sample_g
from gapclique.reduction import CliqueInstance, ReductionParams, Vertex, as_clique
from gapclique.vecsum import VecSumInstance, generate_planted, residue_array

from field_reference import residue_nested
from graph_reference import dimacs_edges, graph_from_edges

DOCUMENTED_EXIT_CODES = {EXIT_OK, EXIT_BUDGET, EXIT_PROPERTY, EXIT_IO, EXIT_INVALID}
FUZZ = settings(max_examples=150, deadline=None)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**70) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


@st.composite
def mutated(draw, doc):
    """doc with one to three nodes replaced by arbitrary JSON or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JSON)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JSON)
    return doc


def _small_reduction():
    src = generate_planted(rngmod.stream(5, "instance"), 2, 1, 3, 2)
    g = sample_g(rngmod.stream(5, "matrices"), 2, 1, 3, 1, seed=5)
    return CliqueInstance(ReductionParams(q=2, k=1, l=1), g, src)


INSTANCE_DOC = generate_planted(rngmod.stream(1, "fuzz"), 3, 2, 2, 2).to_json()
MAP_DOC = sample_g(rngmod.stream(2, "fuzz"), 3, 2, 2, 2, seed=2).to_json()
SMALL_REDUCTION = _small_reduction()
REDUCTION_DOC = SMALL_REDUCTION.to_json()
TABLE_DOC = FunctionTable.from_linear(LinearScalarFn(3, (1, 2))).to_json()
CLIQUE_DOC = {"vertices": [
    [list(v.alpha), list(v.beta), list(v.x), list(v.y)]
    for v in SMALL_REDUCTION.planted_clique(SMALL_REDUCTION.source.planted)
]}
GRAPH = DenseGraph.from_edges(4, [(0, 1), (1, 2), (0, 3)])
GRAPH_DOC = {"version": 1, "n": 4, "edges": [list(e) for e in GRAPH.edges()], "meta": {"a": 1}}
DIMACS_LINES = ["c x", "p edge 4 3", "e 1 2", "e 2 3", "e 1 4"]


@given(mutated(INSTANCE_DOC))
@FUZZ
def test_instance_loader(doc):
    try:
        inst = VecSumInstance.from_json(doc)
    except ContractViolation:
        return
    assert VecSumInstance.from_json(inst.to_json()).to_json() == inst.to_json()


@given(mutated(MAP_DOC))
@FUZZ
def test_map_loader(doc):
    try:
        g = LinearMapG.from_json(doc)
    except ContractViolation:
        return
    assert LinearMapG.from_json(g.to_json()).to_json() == g.to_json()


@given(mutated(REDUCTION_DOC))
@FUZZ
def test_reduction_loader(doc):
    try:
        ci = CliqueInstance.from_json(doc)
    except ContractViolation:
        return
    assert CliqueInstance.from_json(ci.to_json()).to_json() == ci.to_json()


@given(mutated(TABLE_DOC))
@FUZZ
def test_table_loader(doc):
    try:
        table = FunctionTable.from_json(doc)
    except ContractViolation:
        return
    assert FunctionTable.from_json(table.to_json()).to_json() == table.to_json()


# -- the residue validator every reader goes through ---------------------------

LEAVES = (st.integers(-2, 2**70) | st.integers(2**63 - 2, 2**64 + 2) | st.booleans()
          | st.floats(allow_nan=False) | st.text(max_size=2))


def _mutate(draw, x):
    """x with one node replaced by a leaf of any kind, cut one entry short,
    grown one entry long, or wrapped one level deeper."""
    if isinstance(x, list) and x and draw(st.booleans()):
        i = draw(st.integers(0, len(x) - 1))
        return x[:i] + [_mutate(draw, x[i])] + x[i + 1 :]
    how = draw(st.sampled_from(["leaf", "short", "long", "deeper"]))
    if how == "deeper":
        return [x]
    if how == "leaf" or not isinstance(x, list):
        return draw(LEAVES)
    return x[:-1] if how == "short" else x + [draw(LEAVES)]


def _tuples(x):
    return tuple(map(_tuples, x)) if isinstance(x, list) else x


@st.composite
def residue_inputs(draw):
    """(q, entries, shape): residues nested to the shape, as lists, tuples
    or an int64 or float array, often mutated, or arbitrary JSON."""
    q = draw(st.sampled_from([2, 3, 7, 2**31 - 1, 2**63]))
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    entries = np.array([draw(st.integers(0, q - 1)) for _ in range(math.prod(shape))],
                       dtype=object).reshape(shape).tolist()
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        entries = _mutate(draw, entries)
    form = draw(st.sampled_from(["lists", "tuples", "json", "int64", "float64"]))
    if form == "tuples":
        entries = _tuples(entries)
    elif form == "json":
        entries = draw(JSON)
    elif form in ("int64", "float64"):
        try:
            entries = np.array(entries, dtype=form)
        except (ValueError, TypeError, OverflowError):
            pass
        if isinstance(entries, np.ndarray) and draw(st.booleans()):
            entries = entries.reshape(-1)
    return q, entries, shape


def _reference(q, entries, shape):
    """residue_array's contract: an int64 array of exactly the shape is
    read as its entries, any other array is refused, and everything else
    is checked entry by entry."""
    if isinstance(entries, np.ndarray):
        if entries.dtype != np.int64 or entries.shape != shape:
            raise ContractViolation("not an int64 array of the shape")
        entries = entries.tolist()
    return residue_nested(q, entries, shape)


def _lists(x):
    return list(map(_lists, x)) if isinstance(x, tuple) else x


@given(residue_inputs())
@settings(max_examples=600, deadline=None)
def test_residue_array_refuses_exactly_what_the_reference_refuses(case):
    q, entries, shape = case
    writeable = isinstance(entries, np.ndarray) and entries.flags.writeable
    try:
        want = _reference(q, entries, shape)
    except ContractViolation:
        with pytest.raises(ContractViolation):
            residue_array(q, entries, shape)
        return
    got = residue_array(q, entries, shape)
    assert got.dtype == np.int64 and got.shape == shape and not got.flags.writeable
    assert got.tolist() == _lists(want)
    # the caller's array is copied, not frozen
    assert not isinstance(entries, np.ndarray) or entries.flags.writeable == writeable


class TestModulusPast64Bits:
    # residues of a modulus past 2^63 do not fit int64, whatever the entries
    Q = next_prime(2**63)

    def test_readers_refuse(self):
        q = self.Q
        for build in (
            lambda: LinearMapG(q=q, k=1, m=2, l=1, matrices=[[1, 2]]),
            lambda: LinearMapG.from_json({**MAP_DOC, "q": q}),
            lambda: sample_g(rngmod.stream(1, "m"), q, 1, 2, 1),
            lambda: VecSumInstance(q=q, k=1, m=2, vectors=[[1, 2]], sizes=(1,)),
            lambda: VecSumInstance.from_json({**INSTANCE_DOC, "q": q}),
            lambda: LinearScalarFn(q, (1, 2)),
            lambda: LinearVecFn(q, 2, ((1, 2),)),
            lambda: FunctionTable.from_json({**TABLE_DOC, "q": q}),
            lambda: as_clique([Vertex((1,), (2,), (3,), (4,))], ReductionParams(q=q, k=1, l=1)),
        ):
            with pytest.raises(ContractViolation, match="past 2\\^63"):
                build()

    def test_gen_vecsum_exits_invalid(self, tmp_path):
        assert _cli("--seed", "1", "--out-dir", str(tmp_path), "gen-vecsum", "--q", str(self.Q),
                    "--k", "1", "--m", "2", "--n", "2") == EXIT_INVALID
        assert not os.listdir(tmp_path)


def _write(directory, name, content) -> str:
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(content if isinstance(content, bytes) else content.encode())
    return path


def _exported_equal(graph, directory):
    path = os.path.join(directory, "back.dimacs")
    export_graph(graph, "dimacs", path)
    assert read_dimacs(path).adj == graph.adj


DIMACS_TOKEN = st.sampled_from(["p", "edge", "e", "c", "col", "0", "1", "2", "3", "4", "5", "-1",
                                "x", "1.5", "9" * 30])
DIMACS_TEXT = st.lists(
    st.sampled_from(DIMACS_LINES) | st.lists(DIMACS_TOKEN, max_size=5).map(" ".join), max_size=7
).map("\n".join)
RAW = st.binary(max_size=20)


@given(DIMACS_TEXT | RAW)
@FUZZ
def test_dimacs_reader(content):
    with tempfile.TemporaryDirectory() as d:
        path = _write(d, "g.dimacs", content)
        try:
            graph = read_dimacs(path)
        except (ContractViolation, BudgetExceeded):
            return
        _exported_equal(graph, d)


def _outcome(build):
    """What build() returns, or the type and message of what it raises."""
    try:
        return build()
    except (ValueError, TypeError, BudgetExceeded) as exc:
        return type(exc), str(exc)


# vertex numbers past int64 and the two ends of its range; "+2", "0_1",
# "1_0" and "٣" are numbers int() reads but a digit test does not, "0x1",
# "1e3" and "--1" numbers it refuses
VERTEX_NUMBER = st.sampled_from(["1", "2", "3", "4", "5", "6"])
DIMACS_NUMBER = VERTEX_NUMBER | VERTEX_NUMBER | VERTEX_NUMBER | st.sampled_from(
    ["0", "7", "-1", "+2", "0_1", "1_0", "٣", "x", "1.5", "0x1", "1e3", "--1", "9" * 30,
     str(2**63), str(-(2**63)), str(2**63 - 1)])
EDGE_LINE = st.tuples(DIMACS_NUMBER, DIMACS_NUMBER).map(" ".join).map("e ".__add__)
DIMACS_EDGES = st.builds(
    lambda lines, extra: "\n".join([f"p edge 6 {sum(s[:2] == 'e ' for s in lines) + extra}"] + lines),
    st.lists(EDGE_LINE | EDGE_LINE | EDGE_LINE
             | st.sampled_from(["c e 1 1", "", "e 1 2 3", "p edge 4 1"]), max_size=8),
    st.sampled_from([0, 0, 0, 1]),
)


@given(DIMACS_TEXT | DIMACS_EDGES | RAW)
@FUZZ
def test_dimacs_reader_matches_line_reference(content):
    # the same graph, or the same refusal with the same message, as reading
    # one line and inserting one edge at a time
    with tempfile.TemporaryDirectory() as d:
        path = _write(d, "g.dimacs", content)
        got = _outcome(lambda: read_dimacs(path).adj)
        want = _outcome(lambda: graph_from_edges(*dimacs_edges(path)))
    assert got == want


EDGE_END = st.integers(-2, 7) | st.sampled_from([True, False, 1.0, "1", 2**64, -(2**63) - 1, None])


@given(st.integers(-1, 7), st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6))
                                    | st.tuples(EDGE_END, EDGE_END)
                                    | st.lists(EDGE_END, max_size=3), max_size=10))
@FUZZ
def test_edge_list_matches_reference(n, edges):
    # the same rows, or the same refusal, as inserting one edge at a time
    got = _outcome(lambda: DenseGraph.from_edges(n, edges).adj)
    assert got == _outcome(lambda: graph_from_edges(n, edges))


JSON_END = st.integers(-2, 7) | st.sampled_from(
    [True, False, 1.0, 2.5, "1", None, 2**64, -(2**63) - 1, 2**63 - 1])


@given(st.integers(-1, 7) | st.sampled_from([None, 2.0, True, "3", 2**64]),
       st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)).map(list)
                | st.lists(JSON_END, min_size=2, max_size=2), max_size=10))
@FUZZ
def test_graph_json_reader_matches_reference(n, edges):
    # a JSON edge list: the same rows, or the same refusal with the same
    # message, as inserting one edge at a time
    with tempfile.TemporaryDirectory() as d:
        path = _write(d, "g.json", json.dumps({"version": 1, "n": n, "edges": edges}))
        got = _outcome(lambda: read_graph_json(path)[0].adj)
    assert got == _outcome(lambda: graph_from_edges(n, edges))


def test_edge_list_at_the_vertex_limit_stays_small():
    # the row list and its tuple take 8 bytes a vertex each; the widths and
    # offsets of the rows cover the two rows with an edge only
    tracemalloc.start()
    try:
        graph = DenseGraph.from_edges(EDGE_LIST_VERTEX_LIMIT, [(0, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.adj[:3] == (2, 1, 0) and graph.edge_count() == 1
    assert peak <= 20_000_000


@given(mutated(GRAPH_DOC).map(json.dumps) | RAW)
@FUZZ
def test_graph_json_reader(content):
    with tempfile.TemporaryDirectory() as d:
        path = _write(d, "g.json", content)
        try:
            graph, _ = read_graph_json(path)
        except (ContractViolation, BudgetExceeded):
            return
        _exported_equal(graph, d)


def _cli(*argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(list(argv))


CLI_INPUTS = st.one_of(
    st.tuples(st.just("solve"), st.just("g.dimacs"), DIMACS_TEXT | RAW),
    st.tuples(st.just("solve"), st.just("g.json"), mutated(GRAPH_DOC).map(json.dumps) | RAW),
    st.tuples(st.just("reduce"), st.just("i.json"), mutated(INSTANCE_DOC).map(json.dumps) | RAW),
    st.tuples(st.just("export"), st.just("r.json"),
              mutated(REDUCTION_DOC).map(json.dumps) | RAW),
)


@given(CLI_INPUTS)
@FUZZ
def test_cli_exits_with_documented_code(case):
    command, name, content = case
    flag = {"solve": "--graph", "reduce": "--instance", "export": "--reduction"}[command]
    with tempfile.TemporaryDirectory() as d:
        path = _write(d, name, content)
        code = _cli("--seed", "1", "--out-dir", d, command, flag, path, "--vertex-cap", "20")
    assert code in DOCUMENTED_EXIT_CODES


@given(mutated(CLIQUE_DOC).map(json.dumps) | RAW)
@FUZZ
def test_clique_file_exits_with_documented_code(content):
    with tempfile.TemporaryDirectory() as d:
        reduction = _write(d, "r.json", json.dumps(REDUCTION_DOC))
        path = _write(d, "c.json", content)
        code = _cli("--out-dir", d, "extract", "--reduction", reduction, "--clique", path)
    assert code in DOCUMENTED_EXIT_CODES


@given(mutated(TABLE_DOC).map(json.dumps) | RAW)
@FUZZ
def test_table_file_exits_with_documented_code(content):
    with tempfile.TemporaryDirectory() as d:
        code = _cli("--out-dir", d, "lintest", "--table", _write(d, "t.json", content),
                    "--decode-delta", "0.5")
    assert code in DOCUMENTED_EXIT_CODES


class TestReaderExamples:
    @pytest.mark.parametrize("tail", ["", "e 1 2", "e 7 7", "e 1 301", "e 0 3", "e 1 x\nq",
                                      f"e 1 {2**63}", f"e 1 {-(2**63)}", "p edge 3 3", "e 2 3 4"])
    def test_large_file_matches_line_reference(self, tmp_path, tail):
        # a 300-vertex graph with one more line: the same graph, or the same
        # refusal with the same message, as reading one line at a time
        upper = np.triu(np.random.default_rng(3).random((300, 300)) < 0.3, 1)
        rows = np.packbits(upper | upper.T, axis=1, bitorder="little")
        g = DenseGraph(300, tuple(int.from_bytes(row.tobytes(), "little") for row in rows))
        edges = "".join(f"e {u + 1} {v + 1}\n" for u, v in g.edges())
        m = g.edge_count() + tail.count("e ")
        path = _write(str(tmp_path), "g.dimacs", f"c big\np edge 300 {m}\n{edges}{tail}\n")
        got = _outcome(lambda: read_dimacs(path).adj)
        assert got == _outcome(lambda: graph_from_edges(*dimacs_edges(path)))
        assert (got == g.adj) == (tail == "")

    def test_short_edge_line_is_refused(self, tmp_path):
        # 'e 1' used to escape as an IndexError traceback
        path = _write(str(tmp_path), "g.dimacs", "p edge 2 1\ne 1\n")
        with pytest.raises(ContractViolation):
            read_dimacs(path)
        assert _cli("--out-dir", str(tmp_path), "solve", "--graph", path) == EXIT_INVALID

    @pytest.mark.parametrize("text", ["p edge 3 2\ne 1 2\n", "p edge 3 2\ne 1 2\ne 2 1\n"])
    def test_edge_count_and_duplicates_are_checked(self, tmp_path, text):
        # one edge short of the header, and one edge listed twice
        with pytest.raises(ContractViolation):
            read_dimacs(_write(str(tmp_path), "g.dimacs", text))

    def test_oversized_vertex_count_is_refused_by_budget(self, tmp_path):
        path = _write(str(tmp_path), "g.dimacs", f"p edge {10**30} 0\n")
        with pytest.raises(BudgetExceeded):
            read_dimacs(path)
        assert _cli("--out-dir", str(tmp_path), "solve", "--graph", path) == EXIT_BUDGET

    def test_duplicate_json_edge_is_refused(self, tmp_path):
        doc = {"version": 1, "n": 3, "edges": [[0, 1], [1, 0]]}
        with pytest.raises(ContractViolation, match="duplicate"):
            read_graph_json(_write(str(tmp_path), "g.json", json.dumps(doc)))

    @pytest.mark.parametrize("spoil", [
        lambda p: p.update(mode="paper_faithful"),
        lambda p: p.pop("mode"),
        lambda p: p.update(schedule={"k": 1, "n": 3, "qhat": 2, "lam_bits": 3,
                                     "f_prime_at_lam": 0, "bound": 2}),
    ], ids=["paper-faithful", "no-mode", "schedule"])
    def test_export_refuses_params_other_than_desk(self, tmp_path, spoil):
        doc = copy.deepcopy(REDUCTION_DOC)
        spoil(doc["params"])
        path = _write(str(tmp_path), "r.json", json.dumps(doc))
        assert _cli("--out-dir", str(tmp_path), "export", "--reduction", path) == EXIT_INVALID
        assert os.listdir(tmp_path) == ["r.json"]

    def test_clique_file_without_vertices_is_invalid(self, tmp_path):
        # a clique file {} used to escape as a KeyError traceback
        reduction = _write(str(tmp_path), "r.json", json.dumps(REDUCTION_DOC))
        path = _write(str(tmp_path), "c.json", "{}")
        assert _cli("--out-dir", str(tmp_path), "extract", "--reduction", reduction,
                    "--clique", path) == EXIT_INVALID

    def test_small_clique_with_an_invalid_vertex_is_invalid(self, tmp_path):
        # below the extraction size gate, so no verification would see it
        reduction = _write(str(tmp_path), "r.json", json.dumps(REDUCTION_DOC))
        path = _write(str(tmp_path), "c.json", json.dumps({"vertices": [[[0], [1], [0], [5]]]}))
        assert _cli("--out-dir", str(tmp_path), "extract", "--reduction", reduction,
                    "--clique", path) == EXIT_INVALID

    @pytest.mark.parametrize("rows", [[5], [None], ["abcd"], [[[0], [1], [0]]], [{"a": 1}]],
                             ids=["int", "null", "string", "three-parts", "object"])
    def test_clique_file_row_that_is_no_vertex_is_invalid(self, tmp_path, rows):
        # rows reach as_clique unchecked; it refuses each one, naming it
        reduction = _write(str(tmp_path), "r.json", json.dumps(REDUCTION_DOC))
        path = _write(str(tmp_path), "c.json", json.dumps({"vertices": rows}))
        assert _cli("--out-dir", str(tmp_path), "extract", "--reduction", reduction,
                    "--clique", path) == EXIT_INVALID
        with pytest.raises(ContractViolation, match="invalid vertex"):
            as_clique(rows, ReductionParams(q=3, k=1, l=1))

    def test_table_file_that_is_a_list_is_invalid(self, tmp_path):
        # a table file [1, 2] used to escape as an AttributeError traceback
        path = _write(str(tmp_path), "t.json", "[1, 2]")
        with pytest.raises(ContractViolation):
            FunctionTable.load(path)
        assert _cli("--out-dir", str(tmp_path), "lintest", "--table", path) == EXIT_INVALID
