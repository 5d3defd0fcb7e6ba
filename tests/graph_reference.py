"""Definition-level graph queries that the tests use as reference oracles.

The library keeps a graph as per-vertex adjacency bitmasks and never asks
these questions of it; the tests do, one vertex or one pair at a time.
"""

from gapclique.errors import ContractViolation


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
