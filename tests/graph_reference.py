"""Definition-level graph queries that the tests use as reference oracles.

The library keeps a graph as its sorted edge array, builds adjacency
bitmask rows only for its searches, and never asks these questions of
either; the tests do, one vertex or one pair at a time, on the rows.
"""

from gapclique.cliquesolve import EDGE_LIST_VERTEX_LIMIT
from gapclique.errors import BudgetExceeded, ContractViolation


def has_edge(graph, u, v):
    return bool((graph.adj[u] >> v) & 1)


def is_clique(graph, vertices):
    """True iff every pair of distinct listed vertices is adjacent."""
    vs = sorted(set(vertices))
    for v in vs:
        if not (0 <= v < graph.n):
            raise ContractViolation(f"vertex {v} out of range")
    mask = 0
    for v in vs:
        mask |= 1 << v
    for v in vs:
        if mask & ~(graph.adj[v] | (1 << v)):
            return False
    return True


def graph_from_edges(n, edges):
    """Adjacency rows of an edge list, one edge at a time; refuses as
    DenseGraph.from_edges does, at the first edge at fault."""
    if type(n) is not int or n < 0:
        raise ContractViolation(f"vertex count must be an integer >= 0, got {n!r:.60}")
    if n > EDGE_LIST_VERTEX_LIMIT:
        raise BudgetExceeded("vertex count", required=n, budget=EDGE_LIST_VERTEX_LIMIT)
    adj = [0] * n
    for u, v in edges:
        if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n) or u == v:
            raise ContractViolation(f"bad edge ({u!r:.20}, {v!r:.20})")
        if (adj[u] >> v) & 1:
            raise ContractViolation(f"duplicate edge ({u}, {v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def dimacs_edges(path):
    """(n, edges) of a DIMACS file, one line at a time; refuses as
    read_dimacs does, at the first line at fault."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ContractViolation(f"DIMACS file is not text: {exc}") from exc
    header, edges = None, []
    for line in lines:
        parts = line.split()
        if not parts or parts[0].startswith("c"):
            continue
        try:
            if parts[0] == "p" and header is None and len(parts) == 4 and parts[1] == "edge":
                header = int(parts[2]), int(parts[3])
            elif parts[0] == "e" and header is not None and len(parts) == 3:
                edges.append((int(parts[1]) - 1, int(parts[2]) - 1))
            else:
                raise ValueError
        except ValueError:
            raise ContractViolation(f"bad DIMACS line: {line!r:.80}") from None
    if header is None:
        raise ContractViolation("missing problem line")
    n, m = header
    if m != len(edges):
        raise ContractViolation(f"problem line announces {m} edges, the file lists {len(edges)}")
    return n, edges


def relabelled(adj, order):
    """Row i is row order[i] with bit order[j] moved to bit j, one set bit
    at a time."""
    pos = {v: i for i, v in enumerate(order)}
    rows = [0] * len(adj)
    for v, row in enumerate(adj):
        new = 0
        while row:
            u = (row & -row).bit_length() - 1
            row &= row - 1
            new |= 1 << pos[u]
        rows[pos[v]] = new
    return rows
