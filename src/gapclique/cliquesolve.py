"""Exact and heuristic clique search, used as the ground-truth oracle for the
soundness experiments, and the graph file formats (DIMACS and JSON) they
read and the reduction's export writes.

The exact solver is branch-and-bound with greedy-coloring upper bounds over
bitset candidate sets (adjacency rows are Python ints used as bitmasks),
with vertices pre-ordered by degeneracy.  Deterministic: with no time budget
the reported optimum never depends on anything but the graph.
"""

from __future__ import annotations

import json
import random
import time
from array import array
from contextlib import suppress
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceeded, ContractViolation

DEFAULT_VERTEX_CAP = 2000
# vertex count past which an edge list is not turned into a graph: the
# adjacency table alone would take 8 bytes per vertex before any edge is read
EDGE_LIST_VERTEX_LIMIT = 1 << 20
RELABEL_BITS = 1 << 22  # adjacency bits the exact search relabels at once, a byte each


@dataclass(frozen=True)
class DenseGraph:
    """Undirected graph as per-vertex adjacency bitmasks; no self-loops."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if len(self.adj) != self.n:
            raise ContractViolation("adjacency length mismatch")
        for v, row in enumerate(self.adj):
            if row >> self.n:
                raise ContractViolation("adjacency bits out of range")
            if (row >> v) & 1:
                raise ContractViolation(f"self-loop at vertex {v}")

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
        _, firsts = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_index=True)
        repeats = np.flatnonzero(np.bincount(firsts, minlength=stop) == 0)
        if len(repeats):
            raise ContractViolation("duplicate edge ({}, {})".format(*uv[repeats[0]].tolist()))
        if stop < len(uv):
            u, v = given(2 * stop), given(2 * stop + 1)
            raise ContractViolation(f"bad edge ({u!r:.20}, {v!r:.20})")
        # each edge sets a bit in both endpoints' rows, a row as the bytes up
        # to its last neighbour's, kept for rows with edges only; distinct edges set distinct bits
        cols, ends = np.concatenate([v, u]), np.concatenate([u, v])
        live = np.flatnonzero(np.bincount(ends))
        rows = np.searchsorted(live, ends)
        width = np.zeros(len(live), dtype=np.int64)
        np.maximum.at(width, rows, cols // 8 + 1)
        start = np.cumsum(width) - width
        data = np.bincount(start[rows] + cols // 8, weights=1 << cols % 8,
                           minlength=width.sum()).astype(np.uint8).tobytes()
        adj = [0] * n
        for v, a, w in zip(live.tolist(), start.tolist(), width.tolist()):
            adj[v] = int.from_bytes(data[a : a + w], "little")
        return cls(n, tuple(adj))

    def edges(self):
        """The edges (u, v), u < v, in (u, v) order, one set bit at a time."""
        for u, row in enumerate(self.adj):
            row >>= u + 1
            while row:
                low = row & -row
                yield u, u + low.bit_length()
                row ^= low

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


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
    removal costs one mask operation per distinct degree, not per edge."""
    buckets: dict[int, int] = {}
    for v, row in enumerate(graph.adj):
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
        neighbours = graph.adj[v] & alive
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


def _relabelled(adj: tuple[int, ...], order: list[int]) -> list[int]:
    """The adjacency rows with vertex order[i] renamed i: row i is row
    order[i] with bit order[j] moved to bit j, done on unpacked bits about
    RELABEL_BITS at a time.  An empty row stays empty."""
    n, width = len(adj), (len(adj) + 7) // 8
    # whole bytes a row: the padding bits past n are zero in every row
    columns = order + [-1] * (8 * width - n)
    live, rows = [i for i, v in enumerate(order) if adj[v]], [0] * n
    step = max(1, RELABEL_BITS // n)
    for start in range(0, len(live), step):
        block = live[start : start + step]
        packed = b"".join(adj[order[i]].to_bytes(width, "little") for i in block)
        bits = np.unpackbits(np.frombuffer(packed, np.uint8), bitorder="little")
        packed = np.packbits(bits.reshape(len(block), -1)[:, columns], bitorder="little").tobytes()
        for j, i in enumerate(block):
            rows[i] = int.from_bytes(packed[j * width : (j + 1) * width], "little")
    return rows


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
    the flag cleared.
    """
    n = graph.n
    if n > vertex_cap:
        raise BudgetExceeded("vertex count", required=n, budget=vertex_cap)
    if n == 0:
        return CliqueSearchResult((), 0, True, 0)
    deadline = None if time_budget is None else time.monotonic() + time_budget

    # relabel along the reversed degeneracy order: dense cores come first
    order = _degeneracy_order(graph)[::-1]
    adj = _relabelled(graph.adj, order)

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
        if deadline is not None and time.monotonic() > deadline:
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
    """Write a materialized graph.  DIMACS: 'p edge N M' header then one
    'e u v' line per edge with 1-indexed u < v.  JSON: vertex count, edge
    list, and metadata."""
    if fmt == "dimacs":
        body = "".join(f"e {u + 1} {v + 1}\n" for u, v in graph.edges())
        with open(path, "w") as fh:
            fh.write(f"p edge {graph.n} {graph.edge_count()}\n{body}")
    elif fmt == "json":
        doc = {
            "version": 1,
            "n": graph.n,
            "edges": [[u, v] for u, v in graph.edges()],
            "meta": meta or {},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
    else:
        raise ContractViolation(f"unknown graph format {fmt!r}")


def read_dimacs(path) -> DenseGraph:
    """Read the 'p edge N M' / 'e u v' format with 1-indexed vertices.

    Besides 'c' comment lines and blank lines the file must hold exactly one
    problem line, followed by exactly M edge lines of two vertices each; a
    duplicate edge or any other line is refused, the first in file order.
    The layout is checked line by line, then one pass reads every edge
    line's numbers as int() does into an int64 array."""
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


def read_graph_json(path) -> tuple[DenseGraph, dict]:
    """Read the JSON graph format; returns the graph and its metadata."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not JSON, or not text at all
        raise ContractViolation(f"graph file is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ContractViolation("a graph document must be a JSON object")
    if doc.get("version") != 1:
        raise ContractViolation(f"unsupported graph version {doc.get('version')!r:.60}")
    edges = doc.get("edges")
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise ContractViolation("graph edges must be a list of vertex pairs")
    return DenseGraph.from_edges(doc.get("n"), edges), doc.get("meta", {})
