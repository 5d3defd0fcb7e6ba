"""Exact and heuristic clique search, used as the ground-truth oracle for the
soundness experiments, and the graph file formats (DIMACS and JSON) they
read and the reduction's export writes.

A graph is its sorted edge array; only the searches build adjacency rows
(Python ints used as bitmasks), through _rows.  The exact solver is
branch-and-bound with greedy-coloring upper bounds over bitset candidate
sets, with vertices relabelled along the reversed degeneracy order.
Deterministic: with no time budget the optimum depends on the graph only.
"""

from __future__ import annotations

import json
import random
import time
from array import array
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import BudgetExceeded, ContractViolation

DEFAULT_VERTEX_CAP = 2000
# vertex count past which an edge list is not turned into a graph: a search's
# row table alone would take 8 bytes per vertex before any edge is read
EDGE_LIST_VERTEX_LIMIT = 1 << 20


@dataclass(frozen=True, eq=False)
class DenseGraph:
    """Undirected graph on vertices 0..n-1 as its edges: an (m, 2) int64
    array of pairs u < v in strictly increasing (u, v) order.  Its bitmask
    rows, adj, are built on first read (greedy_clique reads them)."""

    n: int
    uv: np.ndarray

    def __post_init__(self):
        n, uv = self.n, self.uv
        if type(n) is not int or n < 0:
            raise ContractViolation(f"vertex count must be an integer >= 0, got {n!r:.60}")
        if not (isinstance(uv, np.ndarray) and uv.dtype == np.int64 and uv.shape[1:] == (2,)):
            raise ContractViolation("edges must be an (m, 2) int64 array")
        u, v = uv.T
        du = np.diff(u)
        if len(uv) and not (u[0] >= 0 and (u < v).all() and v.max() < n
                            and ((du > 0) | (du == 0) & (np.diff(v) > 0)).all()):
            raise ContractViolation("edges must be pairs 0 <= u < v < n in increasing order")

    @classmethod
    def from_edges(cls, n: int, edges) -> "DenseGraph":
        """Graph on vertices 0..n-1 from an iterable of (u, v) pairs; refuses
        a self-loop, an endpoint that is not an int in range, and an edge
        listed twice (in either order), the first in list order, and refuses
        by budget a vertex count past EDGE_LIST_VERTEX_LIMIT."""
        ints = []
        try:
            for u, v in edges:
                # an int past the limit is past every vertex, and might not fit int64
                if not (type(u) is type(v) is int and 0 <= u < EDGE_LIST_VERTEX_LIMIT > v >= 0):
                    raise ContractViolation(f"bad edge ({u!r:.20}, {v!r:.20})")
                ints += u, v
        finally:  # the pairs before the one the loop refuses, if any, are checked first
            graph = cls._from_array(n, np.array(ints, np.int64).reshape(-1, 2), ints.__getitem__)
        return graph

    @classmethod
    def _from_array(cls, n: int, uv: np.ndarray, given) -> "DenseGraph":
        """from_edges on an (m, 2) int64 array; given(i) names uv.ravel()[i] in a refusal."""
        if type(n) is not int or n < 0:
            raise ContractViolation(f"vertex count must be an integer >= 0, got {n!r:.60}")
        if n > EDGE_LIST_VERTEX_LIMIT:
            raise BudgetExceeded("vertex count", required=n, budget=EDGE_LIST_VERTEX_LIMIT)
        u, v = uv.T
        bad = (u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)
        stop = int(bad.argmax()) if bad.any() else len(uv)
        u, v = u[:stop], v[:stop]
        # u < v < n <= 2^20, so the key u * n + v fits and sorts as (u, v)
        keys, firsts = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_index=True)
        repeats = np.flatnonzero(np.bincount(firsts, minlength=stop) == 0)
        if len(repeats):
            raise ContractViolation("duplicate edge ({}, {})".format(*uv[repeats[0]].tolist()))
        if stop < len(uv):
            u, v = given(2 * stop), given(2 * stop + 1)
            raise ContractViolation(f"bad edge ({u!r:.20}, {v!r:.20})")
        return cls(n, np.stack(np.divmod(keys, n), axis=1))

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """Per-vertex adjacency bitmasks: bit v of row u is the edge (u, v)."""
        return tuple(_rows(self.n, self.uv))

    def edge_count(self) -> int:
        return len(self.uv)


def _rows(n: int, uv: np.ndarray) -> list[int]:
    """Adjacency bitmask rows of n vertices from an (m, 2) array of distinct
    edges in any order: row x has bit y for each edge {x, y}.  The keys
    x * n + y of both ends are sorted once, then fill the rows' bytes a
    block of rows at a time whose keys start within n of each other, so a
    block's temporaries stay a small multiple of n, whatever m is."""
    kind = np.int32 if n * (n + 1) < 2**31 else np.int64  # int32 halves the keys
    keys = np.multiply(uv.T, n, dtype=kind, order="C")  # rows u * n and v * n
    keys += uv.T[::-1]
    keys = keys.ravel()
    keys.sort()
    # the rows with edges, each a run of keys listing its neighbours in order
    first = np.searchsorted(keys, np.arange(n + 1, dtype=kind) * n)
    live = np.flatnonzero(first[1:] > first[:-1])
    lo, hi = first[live], first[live + 1]
    width = keys[hi - 1] % n // 8 + 1  # a row's bytes, up to its last neighbour's
    end = np.cumsum(width)
    start = end - width
    at = np.zeros(n, np.int64)  # the byte each row starts at
    at[live] = start
    rows, spans, i = [0] * n, list(zip(live.tolist(), start.tolist(), end.tolist())), 0
    while i < len(live):
        # live rows i..j-1: their keys start within n of row i's, and a row has fewer
        j = int(np.searchsorted(lo, lo[i] + n, "right"))
        row, col = np.divmod(keys[lo[i] : hi[j - 1]], n)
        base = spans[i][1]
        data = np.zeros(spans[j - 1][2] - base, np.uint8)
        # distinct edges set distinct bits, so adding them ORs them
        np.add.at(data, at[row] - base + col // 8, np.left_shift(1, col % 8).astype(np.uint8))
        data = memoryview(data.tobytes())
        for x, s, e in spans[i:j]:
            rows[x] = int.from_bytes(data[s - base : e - base], "little")
        i = j
    return rows


@dataclass(frozen=True)
class CliqueSearchResult:
    vertices: tuple[int, ...]
    size: int
    optimal: bool
    nodes: int


def _degeneracy_order(graph: DenseGraph) -> list[int]:
    """Repeatedly remove a minimum-degree vertex, the smallest on ties;
    returns removal order.  Live vertices are kept in one bitmask per
    degree: the smallest vertex of the lowest bucket goes next, and its live
    neighbours move down one bucket, a whole bucket's share at a time, so a
    removal costs one mask operation per distinct degree, not per edge.
    Its rows are not graph.adj's, so the exact search never holds two sets."""
    adj = _rows(graph.n, graph.uv)
    buckets: dict[int, int] = {}
    for v, row in enumerate(adj):
        d = row.bit_count()
        buckets[d] = buckets.get(d, 0) | 1 << v
    alive = (1 << graph.n) - 1
    order = []
    while buckets:
        d = min(buckets)
        low = buckets.pop(d)
        if d == 0:  # no live neighbours: the bucket goes whole, smallest first
            alive ^= low
            while low:
                order.append((low & -low).bit_length() - 1)
                low &= low - 1
            continue
        v = (low & -low).bit_length() - 1
        order.append(v)
        if low ^ 1 << v:
            buckets[d] = low ^ 1 << v
        alive ^= 1 << v
        neighbours = adj[v] & alive
        # ascending, so a vertex moved into bucket e - 1 is not moved again
        for e in sorted(buckets) if neighbours else ():
            moved = buckets[e] & neighbours
            if moved:
                if buckets[e] == moved:
                    del buckets[e]
                else:
                    buckets[e] ^= moved
                buckets[e - 1] = buckets.get(e - 1, 0) | moved
    return order


class _TimeUp(Exception):
    pass


def max_clique_exact(
    graph: DenseGraph,
    time_budget: Optional[float] = None,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> CliqueSearchResult:
    """Exact maximum clique by branch and bound.

    When the optimality flag is set the returned size is the clique number;
    on time-budget exhaustion the best clique found so far is returned with
    the flag cleared.  The budget holds from the first leaf on, so even
    then the clique returned is maximal.
    """
    n = graph.n
    if n > vertex_cap:
        raise BudgetExceeded("vertex count", required=n, budget=vertex_cap)
    if n == 0:
        return CliqueSearchResult((), 0, True, 0)
    deadline = None if time_budget is None else time.monotonic() + time_budget

    # relabel along the reversed degeneracy order: dense cores come first
    order = _degeneracy_order(graph)[::-1]
    rank = np.argsort(order).astype(np.int32)  # int32 halves the relabelled edges
    adj = _rows(n, rank[graph.uv])

    best: list[int] = [0]
    best_size = 1
    nodes = 0

    def color_sort(cand: int) -> list[tuple[int, int]]:
        out = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                out.append((v, color))
                avail &= ~adj[v] & ~(1 << v)
                rest &= ~(1 << v)
        return out

    def node(cand: int) -> list:
        """Enter a search node: [candidate set, (vertex, color) in the
        order still to branch on, taken from the end]."""
        nonlocal nodes
        nodes += 1
        # the first leaf, when the graph has an edge, sets best_size to 2 or more
        if deadline is not None and best_size > 1 and time.monotonic() > deadline:
            raise _TimeUp
        return [cand, color_sort(cand)]

    def expand():
        # depth-first with an explicit stack of open nodes, since the clique
        # size can exceed the recursion limit; stack[d] was chosen in
        # nodes_open[d]
        nonlocal best, best_size
        stack: list[int] = []
        nodes_open = [node((1 << n) - 1)]
        while nodes_open:
            top = nodes_open[-1]
            cand, todo = top
            if not todo or len(stack) + todo[-1][1] <= best_size:
                nodes_open.pop()
                if nodes_open:
                    nodes_open[-1][0] &= ~(1 << stack.pop())
                continue
            v, _ = todo.pop()
            stack.append(v)
            nxt = cand & adj[v]
            if nxt:
                nodes_open.append(node(nxt))
                continue
            if len(stack) > best_size:
                best = stack.copy()
                best_size = len(stack)
            stack.pop()
            top[0] = cand & ~(1 << v)

    try:
        expand()
        optimal = True
    except _TimeUp:
        optimal = False
    clique = tuple(sorted(order[i] for i in best))
    return CliqueSearchResult(clique, len(clique), optimal, nodes)


def greedy_clique(
    graph: DenseGraph, restarts: int = 50, rng: Optional[random.Random] = None,
    ceiling: Optional[int] = None,
) -> CliqueSearchResult:
    """Randomized greedy: per restart, scan a random vertex order and keep
    every vertex compatible with the clique so far, until none is left.
    Output is always a clique; size is at most the exact optimum.

    The orders are those of rng.shuffle applied to one list once per
    restart, drawn the way shuffle draws them (step i repeats
    getrandbits(bit_length(i + 1)) until it falls below i + 1), so rng ends
    in the state the shuffles leave.  With `ceiling`, the clique number,
    the restarts stop once the best clique has that size: the best clique
    only changes to a larger one, so it is the one all restarts give."""
    n = graph.n
    if n == 0:
        return CliqueSearchResult((), 0, False, 0)
    if rng is None:
        rng = random.Random(0)
    adj, full = graph.adj, (1 << n) - 1
    draw, bits = rng.getrandbits, [(i + 1).bit_length() for i in range(n)]
    best: list[int] = [0]
    order = list(range(n))
    for _ in range(max(1, restarts)):
        if len(best) == ceiling:
            break
        for i in range(n - 1, 0, -1):
            j = draw(bits[i])
            while j > i:
                j = draw(bits[i])
            order[i], order[j] = order[j], order[i]
        clique, cand = [], full
        for v in order:
            if cand >> v & 1:
                clique.append(v)
                cand &= adj[v]
                if not cand:
                    break
        if len(clique) > len(best):
            best = clique
    return CliqueSearchResult(tuple(sorted(best)), len(best), False, 0)


# -- graph file formats -------------------------------------------------------


def export_graph(graph: DenseGraph, fmt: str, path, meta: Optional[dict] = None):
    """Write a materialized graph, its edges formatted 2^16 at a time.
    DIMACS: 'p edge N M' header then one 'e u v' line per edge with
    1-indexed u < v.  JSON: the bytes json.dump(sort_keys=True) writes for
    the vertex count, the edge list of [u, v] pairs, and the metadata."""
    if fmt == "dimacs":
        head, tail = f"p edge {graph.n} {graph.edge_count()}\n", ""
        edge, sep, base = "e %d %d\n", "", 1
    elif fmt == "json":
        # "edges" sorts first: the rest of the document follows the list
        rest = json.dumps({"meta": meta or {}, "n": graph.n, "version": 1}, sort_keys=True)
        head, tail = '{"edges": [', "], " + rest[1:]
        edge, sep, base = "[%d, %d]", ", ", 0
    else:
        raise ContractViolation(f"unknown graph format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(head)
        for s in range(0, graph.edge_count(), 1 << 16):
            block = (graph.uv[s : s + (1 << 16)] + base).ravel().tolist()
            fh.write((sep if s else "") + sep.join([edge] * (len(block) // 2)) % tuple(block))
        fh.write(tail)


def read_dimacs(path, vertex_cap: Optional[int] = None) -> DenseGraph:
    """Read the 'p edge N M' / 'e u v' format with 1-indexed vertices.

    Besides 'c' comment lines and blank lines the file must hold exactly one
    problem line, followed by exactly M edge lines of two vertices each; a
    duplicate edge or any other line is refused, the first in file order.
    The layout is checked line by line, then one pass reads every edge
    line's numbers as int() does into an int64 array; a problem line past
    vertex_cap vertices is refused by budget as soon as it is read."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ContractViolation(f"DIMACS file is not text: {exc}") from exc
    header, tokens = None, []
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] == "e" and header is not None:
            parts[0] = line  # names the line if int() refuses a number in it
            tokens += parts
        elif parts and not parts[0].startswith("c"):
            with suppress(ValueError):
                if parts[0] == "p" and header is None and len(parts) == 4 and parts[1] == "edge":
                    header = int(parts[2]), int(parts[3])
                    if vertex_cap is not None and header[0] > vertex_cap:
                        raise BudgetExceeded("vertex count", required=header[0], budget=vertex_cap)
                    continue
            tokens += line, "", ""  # no numbers: refused after any edge line before it
            break
    texts = tokens[::3]
    del tokens[::3]
    # len(ends) indexes a refused number (extend keeps what came before); 0 stands in past int64
    numbers, ends = iter(tokens), array("q")
    while len(ends) < len(tokens):
        try:
            ends.extend(map(int, numbers))
        except OverflowError:
            ends.append(0)
        except ValueError:
            raise ContractViolation(f"bad DIMACS line: {texts[len(ends) // 2]!r:.80}") from None
    if header is None:
        raise ContractViolation("missing problem line")
    n, m = header
    if m != len(texts):
        raise ContractViolation(f"problem line announces {m} edges, the file lists {len(texts)}")
    # int64's least value wraps past every vertex too; a refusal names the numbers as read
    uv = np.frombuffer(ends, np.int64).reshape(-1, 2) - 1
    return DenseGraph._from_array(n, uv, lambda i: int(tokens[i]) - 1)


def read_graph_json(path, vertex_cap: Optional[int] = None) -> tuple[DenseGraph, dict]:
    """Read the JSON graph format; returns the graph and its metadata, and
    refuses by budget a vertex count past vertex_cap before any edge."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not JSON, or not text at all
        raise ContractViolation(f"graph file is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ContractViolation("a graph document must be a JSON object")
    if doc.get("version") != 1:
        raise ContractViolation(f"unsupported graph version {doc.get('version')!r:.60}")
    n, edges = doc.get("n"), doc.get("edges")
    if vertex_cap is not None and type(n) is int and n > vertex_cap:
        raise BudgetExceeded("vertex count", required=n, budget=vertex_cap)
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise ContractViolation("graph edges must be a list of vertex pairs")
    return DenseGraph.from_edges(n, edges), doc.get("meta", {})
