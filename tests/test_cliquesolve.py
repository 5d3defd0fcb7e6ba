"""Exact and greedy clique search against a naive subset-DP oracle."""

import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gapclique.cli import EXIT_BUDGET, EXIT_INVALID, EXIT_OK, main
from gapclique.errors import BudgetExceeded, ContractViolation
from gapclique import cliquesolve
from gapclique.cliquesolve import (
    DenseGraph,
    _degeneracy_order,
    _rows,
    export_graph,
    greedy_clique,
    max_clique_exact,
    read_dimacs,
    read_graph_json,
)

from graph_reference import graph_from_edges, has_edge, is_clique, relabelled


def complete_graph(n):
    return DenseGraph.from_edges(n, itertools.combinations(range(n), 2))


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return DenseGraph.from_edges(n, edges)


def greedy_reference(g: DenseGraph, restarts, rng):
    """Greedy on rng.shuffle's orders: one shuffle of one list per restart,
    every vertex scanned."""
    best, order = [0], list(range(g.n))
    for _ in range(max(1, restarts)):
        rng.shuffle(order)
        clique, cand = [], (1 << g.n) - 1
        for v in order:
            if (cand >> v) & 1:
                clique.append(v)
                cand &= g.adj[v]
        if len(clique) > len(best):
            best = clique
    return tuple(sorted(best))


def bernoulli_graph(seed, n, p):
    """Each pair an edge with probability p, from a numpy stream (fast at
    n = 600, where random_graph would take 180,000 draws)."""
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < p, 1)
    return DenseGraph(n, np.argwhere(upper))


def degeneracy_order_reference(g: DenseGraph) -> list[int]:
    """Each step rescans every live vertex and removes the first one of
    minimum live degree; the quadratic definition of the order."""
    alive = (1 << g.n) - 1
    order = []
    for _ in range(g.n):
        best_v, best_d = -1, g.n + 1
        for v in range(g.n):
            if (alive >> v) & 1:
                d = (g.adj[v] & alive).bit_count()
                if d < best_d:
                    best_v, best_d = v, d
        order.append(best_v)
        alive &= ~(1 << best_v)
    return order


def tied_graph(rng, n):
    """A graph whose degrees tie a lot: a disjoint union of random cliques,
    cycles and stars, plus a few random edges, with shuffled labels."""
    labels = list(range(n))
    rng.shuffle(labels)
    edges, start = set(), 0
    while start < n:
        size = min(n - start, rng.randint(1, 6))
        part = labels[start : start + size]
        shape = rng.choice(("clique", "cycle", "star"))
        if shape == "clique":
            edges.update(itertools.combinations(part, 2))
        elif shape == "cycle" and size > 2:
            edges.update(zip(part, part[1:] + part[:1]))
        else:
            edges.update((part[0], v) for v in part[1:])
        start += size
    for _ in range(rng.randint(0, 3)):
        u, v = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if u != v:
            edges.add((u, v))
    return DenseGraph.from_edges(n, {(min(e), max(e)) for e in edges})


def naive_clique_number(g: DenseGraph) -> int:
    """Subset DP over all 2^n vertex subsets; the independent oracle."""
    n = g.n
    best = 0
    clique = bytearray(1 << n)
    clique[0] = 1
    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        if clique[rest] and (rest & ~g.adj[v]) == 0:
            clique[mask] = 1
            pc = mask.bit_count()
            if pc > best:
                best = pc
    return best


class TestIsClique:
    def test_small_sets_vacuous(self):
        g = random_graph(random.Random(1), 8)
        assert is_clique(g, [])
        assert is_clique(g, [3])

    def test_triangle(self):
        g = DenseGraph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
        assert is_clique(g, [0, 1, 2])
        assert not is_clique(g, [0, 1, 3])

    def test_out_of_range(self):
        g = complete_graph(3)
        with pytest.raises(ContractViolation):
            is_clique(g, [0, 5])


class TestExact:
    def test_complete_graph(self):
        res = max_clique_exact(complete_graph(9))
        assert res.size == 9 and res.optimal

    def test_empty_graph(self):
        res = max_clique_exact(DenseGraph.from_edges(6, []))
        assert res.size == 1 and res.optimal

    def test_five_cycle_is_triangle_free(self):
        g = DenseGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        res = max_clique_exact(g)
        assert res.size == 2 and res.optimal

    def test_matches_naive_enumeration(self):
        # randomized regression: sizes up to 18, mixed densities
        rng = random.Random(2024)
        for trial in range(100):
            n = 4 + trial % 15  # 4..18
            p = (0.25, 0.5, 0.75)[trial % 3]
            g = random_graph(rng, n, p)
            res = max_clique_exact(g)
            assert res.optimal
            assert res.size == naive_clique_number(g)
            assert is_clique(g, res.vertices)
            assert len(res.vertices) == res.size

    def test_clique_deeper_than_recursion_limit(self):
        # the search descends one level per clique vertex, past Python's
        # default recursion limit of 1000 but within the 2000-vertex cap
        n = 1200
        res = max_clique_exact(bernoulli_graph(0, n, 1.0))
        assert res.size == n and res.optimal

    def test_vertex_cap(self):
        with pytest.raises(BudgetExceeded):
            max_clique_exact(complete_graph(10), vertex_cap=5)

    def test_time_budget_clears_flag(self):
        rng = random.Random(9)
        g = random_graph(rng, 60, 0.9)
        res = max_clique_exact(g, time_budget=0.0)
        assert not res.optimal
        assert is_clique(g, res.vertices)

    @pytest.mark.parametrize("seed", range(4))
    def test_timed_out_clique_is_maximal(self, seed):
        # the deadline holds from the first leaf on, and from there the best
        # clique is one no vertex extends
        g = random_graph(random.Random(seed), 60, 0.9)
        res = max_clique_exact(g, time_budget=0.0)
        assert not res.optimal and is_clique(g, res.vertices)
        assert not any(is_clique(g, res.vertices + (v,)) for v in range(g.n)
                       if v not in res.vertices)


class TestGreedy:
    def test_complete_graph(self):
        res = greedy_clique(complete_graph(7), restarts=3, rng=random.Random(0))
        assert res.size == 7

    def test_outputs_valid_and_bounded(self):
        rng = random.Random(5)
        for trial in range(20):
            g = random_graph(rng, 14, 0.5)
            exact = max_clique_exact(g)
            gr = greedy_clique(g, restarts=25, rng=random.Random(trial))
            assert is_clique(g, gr.vertices)
            assert gr.size <= exact.size

    def test_deterministic_given_rng(self):
        g = random_graph(random.Random(3), 20, 0.5)
        a = greedy_clique(g, restarts=10, rng=random.Random(7))
        b = greedy_clique(g, restarts=10, rng=random.Random(7))
        assert a.vertices == b.vertices

    @pytest.mark.parametrize("n", [1, 2, 3, 33, 600])
    @pytest.mark.parametrize("p", [0.002, 0.5, 1.0])
    def test_matches_shuffle_reference(self, n, p):
        # same vertices as greedy on rng.shuffle's orders, and rng left in
        # the state the shuffles leave
        for seed in range(3):
            g = bernoulli_graph(seed, n, p)
            for restarts in (0, 1, 7, 50):
                ours, ref = random.Random(f"{seed}/{restarts}"), random.Random(f"{seed}/{restarts}")
                assert greedy_clique(g, restarts, ours).vertices == greedy_reference(g, restarts, ref)
                assert ours.getstate() == ref.getstate()


class CountingRandom(random.Random):
    """A Random that counts the 32-bit words its getrandbits calls read."""

    words = 0

    def getrandbits(self, k):
        self.words += -(-k // 32)
        return super().getrandbits(k)


class TestGreedyCeiling:
    @pytest.mark.parametrize("n,p", [(1, 0.5), (2, 1.0), (33, 0.5), (80, 0.3), (600, 0.002),
                                     (300, 1.0)])
    def test_same_clique_from_no_more_words(self, n, p):
        # a greedy clique is never larger than the clique number, and the
        # best one only changes to a larger one, so stopping there keeps it
        for seed in range(3):
            g = bernoulli_graph(seed, n, p)
            omega = max_clique_exact(g).size
            full, capped = CountingRandom(seed), CountingRandom(seed)
            want = greedy_clique(g, 50, full)
            got = greedy_clique(g, 50, capped, ceiling=omega)
            assert (got.vertices, got.size, got.optimal) == (want.vertices, want.size, want.optimal)
            assert capped.words <= full.words

    def test_fewer_words_once_the_ceiling_is_hit(self):
        # a complete graph: the first restart finds the whole vertex set
        g = complete_graph(40)
        full, capped = CountingRandom(1), CountingRandom(1)
        assert greedy_clique(g, 50, capped, ceiling=40).vertices == greedy_clique(g, 50, full).vertices
        assert 0 < capped.words * 40 < full.words
        # sparse graphs of the certified-NO size, clique numbers 2 and 3:
        # greedy reaches them within the first three restarts
        for seed, p in [(1, 0.002), (0, 0.01)]:
            g = bernoulli_graph(seed, 520, p)
            full, capped = CountingRandom(2), CountingRandom(2)
            greedy_clique(g, 50, full)
            greedy_clique(g, 50, capped, ceiling=max_clique_exact(g).size)
            assert capped.words * 10 < full.words


class TestRelabel:
    @pytest.mark.parametrize("seed", [1, 64, 1000])
    def test_matches_edge_by_edge_relabel(self, seed):
        # the exact search's relabelled rows: _rows of the edges under the
        # rank of each vertex in the order; a dense graph spans many blocks
        rng = random.Random(seed)
        for n, p in [(1, 0.5), (7, 0.5), (8, 1.0), (9, 0.3), (70, 0.05), (130, 0.5)]:
            g = bernoulli_graph(n, n, p)
            order = list(range(n))
            rng.shuffle(order)
            rank = np.empty(n, np.int32)
            rank[order] = np.arange(n)
            want = relabelled(graph_from_edges(n, g.uv.tolist()), order)
            assert _rows(n, rank[g.uv]) == want


class TestGraphType:
    @pytest.mark.parametrize("n,p", [(1, 0.5), (70, 0.05), (70, 0.5), (130, 1.0)])
    def test_edges_in_order(self, n, p):
        g = bernoulli_graph(n, n, p)
        expected = [[u, v] for u in range(n) for v in range(u + 1, n) if has_edge(g, u, v)]
        assert g.uv.tolist() == expected
        assert len(expected) == g.edge_count()

    def test_rejects_self_loop(self):
        with pytest.raises(ContractViolation):
            DenseGraph.from_edges(3, [(1, 1)])

    def test_symmetry_validation(self):
        g = DenseGraph.from_edges(4, [(0, 1), (2, 3)])
        assert all(has_edge(g, u, v) == has_edge(g, v, u) for u in range(4) for v in range(4))
        assert g.edge_count() == 2
        assert g.uv.tolist() == [[0, 1], [2, 3]]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_edge_array_is_the_sorted_edge_set(self, data):
        # any valid edge list, in any order and orientation
        n = data.draw(st.integers(0, 70))
        pairs = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        edges = data.draw(st.lists(pairs, unique_by=frozenset, max_size=300)) if n > 1 else []
        g = DenseGraph.from_edges(n, edges)
        assert g.uv.tolist() == sorted(sorted(e) for e in edges)
        assert g.edge_count() == len(edges)
        assert g.adj == graph_from_edges(n, edges)

    @pytest.mark.parametrize("n,uv", [
        (3, [[1, 2], [0, 1]]), (3, [[0, 1], [0, 1]]), (3, [[1, 0]]), (3, [[1, 1]]),
        (3, [[0, 3]]), (3, [[-1, 2]]), (-1, []), (True, []),
    ], ids=["unsorted", "repeated", "reversed", "self-loop", "past-n", "negative",
            "negative-n", "bool-n"])
    def test_construction_refuses_what_is_no_edge_array(self, n, uv):
        with pytest.raises(ContractViolation):
            DenseGraph(n, np.array(uv, np.int64).reshape(-1, 2))

    @pytest.mark.parametrize("uv", [np.array([[0, 1]], np.int32), np.array([0, 1]), [[0, 1]]],
                             ids=["int32", "flat", "list"])
    def test_construction_refuses_another_array_type(self, uv):
        with pytest.raises(ContractViolation):
            DenseGraph(3, uv)

    @pytest.mark.parametrize("n,p", [(0, 0.5), (1, 0.5), (9, 0.0), (70, 0.05), (130, 0.5)])
    def test_export_reads_back_the_same_edges(self, tmp_path, n, p):
        g = bernoulli_graph(n, n, p)
        export_graph(g, "dimacs", tmp_path / "g.dimacs")
        export_graph(g, "json", tmp_path / "g.json")
        for back in (read_dimacs(tmp_path / "g.dimacs"), read_graph_json(tmp_path / "g.json")[0]):
            assert back.n == n and np.array_equal(back.uv, g.uv)

    def test_only_the_searches_build_rows(self, tmp_path, monkeypatch):
        # with the row builder refusing, materialize, both exports, both
        # readers and edge_count still work, and solve refuses a graph past
        # --vertex-cap: nothing before the searches builds rows
        def refuse(n, uv):
            raise AssertionError("adjacency rows built")

        monkeypatch.setattr(cliquesolve, "_rows", refuse)
        out = str(tmp_path)
        red = f"{out}/reduction.json"
        steps = [["gen-vecsum", "--q", "3", "--k", "1", "--m", "6", "--n", "8", "--unsat"],
                 ["reduce", "--instance", f"{out}/instance.json", "--certify", "wellspread"],
                 ["export", "--reduction", red, "--out", "g.dimacs"],
                 ["export", "--reduction", red, "--format", "json", "--out", "g.json"]]
        for step in steps:
            assert main(["--seed", "5", "--out-dir", out, *step]) == EXIT_OK
        a, (b, _) = read_dimacs(f"{out}/g.dimacs"), read_graph_json(f"{out}/g.json")
        assert a.edge_count() == b.edge_count() > 0 and np.array_equal(a.uv, b.uv)
        for name in ("g.dimacs", "g.json"):
            assert main(["--out-dir", out, "solve", "--graph", f"{out}/{name}",
                         "--vertex-cap", str(a.n - 1)]) == EXIT_BUDGET

    @pytest.mark.parametrize("m", [0, 1, 1 << 16, (1 << 16) + 1, 191_890],
                             ids=["none", "one", "one-block", "two-blocks", "three-blocks"])
    def test_dimacs_export_matches_one_line_per_edge(self, tmp_path, m):
        # the export writes 2^16 edges a block: the same bytes as a writer
        # that formats one edge at a time, at and across block boundaries
        u, v = np.triu_indices(620, 1)
        g = DenseGraph(620, np.stack([u, v], axis=1)[:m].astype(np.int64))
        export_graph(g, "dimacs", tmp_path / "g.dimacs")
        want = [f"p edge 620 {m}\n"] + [f"e {a + 1} {b + 1}\n" for a, b in g.uv.tolist()]
        assert (tmp_path / "g.dimacs").read_text() == "".join(want)

    @pytest.mark.parametrize("m,meta", [
        (0, None), (1, {}), ((1 << 16) + 1, {"seed": 3}),
        (191_890, {"z": [1, {"b": 2.5, "a": None}], "config": {"q": 3, "name": "é"}}),
    ], ids=["empty", "one", "two-blocks", "three-blocks-nested-meta"])
    def test_json_export_matches_json_dump(self, tmp_path, m, meta):
        # the export writes the edge list 2^16 edges a block: the same bytes
        # as json.dump of the whole document with sorted keys
        u, v = np.triu_indices(620, 1)
        g = DenseGraph(620, np.stack([u, v], axis=1)[:m].astype(np.int64))
        export_graph(g, "json", tmp_path / "g.json", meta=meta)
        doc = {"version": 1, "n": 620, "edges": g.uv.tolist(), "meta": meta or {}}
        assert (tmp_path / "g.json").read_text() == json.dumps(doc, sort_keys=True)

    def test_dimacs_reader_needs_problem_line(self, tmp_path):
        p = tmp_path / "bad.dimacs"
        p.write_text("e 1 2\n")
        with pytest.raises(ContractViolation):
            read_dimacs(p)


class TestDegeneracyOrder:
    def test_matches_quadratic_reference(self):
        rng = random.Random(20)
        graphs = [DenseGraph.from_edges(0, []), DenseGraph.from_edges(1, []),
                  DenseGraph.from_edges(40, []),
                  complete_graph(1), complete_graph(2), complete_graph(33)]
        graphs += [tied_graph(rng, rng.randint(1, 60)) for _ in range(60)]
        graphs += [random_graph(rng, rng.randint(1, 50), p) for p in (0.05, 0.5, 0.95)
                   for _ in range(10)]
        for g in graphs:
            assert _degeneracy_order(g) == degeneracy_order_reference(g)

    def test_isolated_vertices_match_quadratic_reference(self):
        # most vertices isolated from the start, as in certified-NO graphs,
        # and more isolated as the sparse rest is removed, among vertices
        # of every degree
        rng = random.Random(21)
        isolated = 0
        for _ in range(60):
            n = rng.randint(1, 90)
            live = rng.sample(range(n), rng.randint(0, n // 3))
            pairs = [rng.sample(live, 2) for _ in range(len(live) * 2)] if len(live) > 1 else []
            g = DenseGraph.from_edges(n, {(min(e), max(e)) for e in pairs})
            isolated += sum(not row for row in g.adj)
            assert _degeneracy_order(g) == degeneracy_order_reference(g)
        assert isolated > 1000

    def test_ties_go_to_the_smallest_vertex(self):
        assert _degeneracy_order(complete_graph(5)) == [0, 1, 2, 3, 4]
        # a path 0-1-2-3: both ends have degree 1, so 0 goes first, then 1
        path = DenseGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert _degeneracy_order(path) == [0, 1, 2, 3]


class TestReaderVertexCap:
    """A reader given a vertex cap refuses a graph past it as max_clique_exact
    would, from the vertex count alone: nothing after it is read."""

    def want(self, n, cap):
        with pytest.raises(BudgetExceeded) as exc:
            max_clique_exact(DenseGraph(n, np.zeros((0, 2), np.int64)), vertex_cap=cap)
        return str(exc.value)

    def write(self, tmp_path, n):
        # both files are malformed after their vertex count
        dimacs, js = tmp_path / "g.dimacs", tmp_path / "g.json"
        dimacs.write_text(f"c a comment\np edge {n} 2\ne 1 2\nnot an edge line\n")
        js.write_text(json.dumps({"version": 1, "n": n, "edges": [[0, 1], "bad"]}))
        return (dimacs, read_dimacs), (js, read_graph_json)

    def test_refused_at_the_vertex_count(self, tmp_path):
        for path, read in self.write(tmp_path, 5):
            with pytest.raises(BudgetExceeded) as exc:
                read(path, vertex_cap=4)
            assert (exc.value.what, exc.value.required, exc.value.budget) == ("vertex count", 5, 4)
            assert str(exc.value) == self.want(5, 4)
            # at the cap, or with none, the malformed rest is read and refused
            for cap in (5, None):
                with pytest.raises(ContractViolation):
                    read(path, vertex_cap=cap)

    def test_json_count_that_is_no_int_is_refused_as_before(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"version": 1, "n": "5", "edges": [[0, 1]]}))
        with pytest.raises(ContractViolation, match="vertex count must be an integer"):
            read_graph_json(path, vertex_cap=4)

    def test_solve_exits_budget_before_the_malformed_rest(self, tmp_path, capsys):
        for path, _ in self.write(tmp_path, 5):
            capsys.readouterr()
            assert main(["--out-dir", str(tmp_path), "solve", "--graph", str(path),
                         "--vertex-cap", "4"]) == EXIT_BUDGET
            assert capsys.readouterr().err == f"refused: {self.want(5, 4)}\n"
            assert main(["--out-dir", str(tmp_path), "solve", "--graph", str(path),
                         "--vertex-cap", "5"]) == EXIT_INVALID
        assert not (tmp_path / "solve-report.json").exists()
