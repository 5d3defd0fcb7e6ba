"""The reduction on residue tuples, kept as the differential reference for
the library's array code: the edge oracle as a pair-by-pair scan, the
vertex codec's numbering and its inverse, planted cliques vertex by vertex,
and the decoded function as loops: phase 1 over the clique, phase 2 over
every point of the domain.  Also the tests' entry point to the library's
batched rule evaluator.

Every rule is read straight off its definition, one vertex pair at a time,
on residue tuples; the images of the source vectors come from the
definition-level map image in field_reference, not from the library's
matrix product.
"""

import itertools

import numpy as np

from gapclique.cliquesolve import DenseGraph
from gapclique.errors import ContractViolation, PropertyViolation
from gapclique.reduction import Vertex, is_valid_vertex

from vecsum_reference import collections, total
from field_reference import apply_map, block_inner, rank_tuple, scale, sub, unrank_tuple


def pair_rule_sets(ci, pairs):
    """The library's rule sets of the vertex pairs (u, v), from one encoding
    of all their vertices and one batch."""
    vertices = [v for pair in pairs for v in pair]
    rules = ci._pair_rules(
        ci._encode(vertices), np.arange(0, len(vertices), 2), np.arange(1, len(vertices), 2)
    )
    return [frozenset((np.flatnonzero(row) + 1).tolist()) for row in rules]


def planted_clique(ci, indices):
    """One vertex per (alpha, beta) in lexicographic order; the value at a
    point sums, over the blocks, the block-inner product of the point's
    block with the image of that block's chosen vector."""
    q, k = ci.params.q, ci.params.k
    cols = collections(ci.source)
    images = [apply_map(ci.gmap, cols[i][idx]) for i, idx in enumerate(indices)]

    def value(point):
        return total(q, (block_inner(q, point[i * k : (i + 1) * k], images[i]) for i in range(k)))

    points = list(itertools.product(range(q), repeat=k * k))
    return [Vertex(a, b, value(a), value(b)) for a in points for b in points]


def slots(v, q):
    """The vertex's three (point, value) assignments, in slot order: alpha
    takes x, beta takes y, alpha + beta takes x + y."""
    return ((v.alpha, v.x), (v.beta, v.y), (total(q, (v.alpha, v.beta)), total(q, (v.x, v.y))))


def value_relation(v, q):
    """Every (point -> value) assignment the vertex makes, keeping all values
    when slots collide on a point.  A vertex whose own slots disagree at a
    collided point is internally inconsistent; it is still a member of the
    vertex set, but it conflicts with anything sharing that point."""
    rel = {}
    for p, val in slots(v, q):
        rel.setdefault(p, set()).add(val)
    return rel


def clique_values(clique, q):
    """Phase 1 of the decoded function, slot by slot with the vertices in
    list order: point -> value in order of first assignment, refusing at the
    first slot whose value differs from the first value its point got."""
    phase1 = {}
    for v in clique:
        for p, val in slots(v, q):
            prev = phase1.setdefault(p, val)
            if prev != val:
                raise PropertyViolation(f"conflicting clique values at point {p}: {prev} vs {val}")
    return phase1


def decoded_function(clique, q, kk, l, rng):
    """Both phases of the decoded function on F_q^kk: the table's values as
    a list of l-tuples in rank order and the phase-1 points.
    Phase 2 walks every other point in lexicographic order: the origin is
    zero; another point takes c times the value of c^-1 times itself when
    that point is valued (phase-1 points first, then scalars c in increasing
    order); any other point draws l fresh values."""
    phase1 = clique_values(clique, q)
    fill = {}
    domain = list(itertools.product(range(q), repeat=kk))
    for p in domain:
        if p in phase1:
            continue
        assigned = None
        if not any(p):
            assigned = (0,) * l
        else:
            for known, c in itertools.product((phase1, fill), range(1, q)):
                base = scale(q, pow(c, -1, q), p)
                if base in known:
                    assigned = scale(q, c, known[base])
                    break
        if assigned is None:
            assigned = tuple(rng.randrange(q) for _ in range(l))
        fill[p] = assigned
    return [phase1.get(p) or fill[p] for p in domain], frozenset(phase1)


def var_points(v, q):
    """The up-to-three points the vertex assigns values to, deduplicated and
    in slot order (alpha, beta, alpha+beta)."""
    seen = []
    for p in (v.alpha, v.beta, total(q, (v.alpha, v.beta))):
        if p not in seen:
            seen.append(p)
    return tuple(seen)


def unrank(codec, r):
    """Vertex number r of the codec's layout, one region at a time: the
    diagonal (alpha = beta, x = y), then the pairs (alpha, beta != alpha)
    in order, each with its L^2 values."""
    q, kk, l = codec.q, codec.kk, codec.l
    if not (0 <= r < codec.count):
        raise ContractViolation("vertex rank out of range")
    diag = codec.P * codec.L
    if r < diag:
        a, x = divmod(r, codec.L)
        alpha, xv = unrank_tuple(q, kk, a), unrank_tuple(q, l, x)
        return Vertex(alpha, alpha, xv, xv)
    pair, xy = divmod(r - diag, codec.L * codec.L)
    x, y = divmod(xy, codec.L)
    a, b = divmod(pair, codec.P - 1)
    b += b >= a
    return Vertex(unrank_tuple(q, kk, a), unrank_tuple(q, kk, b),
                  unrank_tuple(q, l, x), unrank_tuple(q, l, y))


def codec_vertices(codec):
    """The vertices in the order materialize numbers them: row r of
    codec.ranks(), read back as residue tuples."""
    dims = (codec.kk, codec.kk, codec.l, codec.l)
    return [Vertex(*(unrank_tuple(codec.q, dim, r) for dim, r in zip(dims, row)))
            for row in zip(*(part.tolist() for part in codec.ranks()))]


def codec_rank(codec, v):
    """The number of vertex v in the codec's layout: the diagonal region
    (alpha = beta, so x = y) first, then the off-diagonal region, pairs
    (alpha, beta != alpha) in order, each with its L^2 values."""
    q = codec.q
    a, b, x, y = (rank_tuple(q, part) for part in v)
    if v.alpha == v.beta:
        if v.x != v.y:
            raise ContractViolation("invalid vertex: alpha = beta but x != y")
        return a * codec.L + x
    pair = a * (codec.P - 1) + (b if b < a else b - 1)
    return codec.P * codec.L + pair * codec.L * codec.L + x * codec.L + y


class ReferenceOracle:
    """All five non-edge rules of one reduced graph, pair by pair."""

    def __init__(self, ci):
        self.ci = ci
        self.q, self.k = ci.params.q, ci.params.k
        self._value_sets = {}
        self._relations = {}

    def _value_set(self, i, abar):
        """The block-inner images of collection i's vectors under direction
        abar, as a set of l-tuples."""
        key = (i, abar)
        if key not in self._value_sets:
            self._value_sets[key] = frozenset(
                block_inner(self.q, abar, apply_map(self.ci.gmap, u))
                for u in collections(self.ci.source)[i]
            )
        return self._value_sets[key]

    def _rule3(self, u, v):
        q = self.q
        return any(
            u.alpha == scale(q, c, v.alpha) and u.x != scale(q, c, v.x) for c in range(q)
        )

    def rules(self, u, v, first_only=False):
        """The set of rules the pair fires; with first_only, at most the
        first one found (cheap rules first), enough to decide adjacency."""
        q, k = self.q, self.k
        out = set()
        if u.alpha == v.alpha and u.beta == v.beta:
            out.add(1)
            if first_only:
                return out
        diff = sub(q, u.alpha, v.alpha)
        blocks = [diff[i * k : (i + 1) * k] for i in range(k)]
        if all(b == blocks[0] for b in blocks) and u.x != v.x:
            out.add(5)
            if first_only:
                return out
        if self._rule3(u, v) or self._rule3(v, u):
            out.add(3)
            if first_only:
                return out
        rel_u, rel_v = self._relation(u), self._relation(v)
        if any(p in rel_v and len(vals | rel_v[p]) > 1 for p, vals in rel_u.items()):
            out.add(2)
            if first_only:
                return out
        moved = [i for i in range(k) if any(blocks[i])]
        if len(moved) == 1 and sub(q, u.x, v.x) not in self._value_set(moved[0], blocks[moved[0]]):
            out.add(4)
        return out

    def _relation(self, v):
        if v not in self._relations:
            self._relations[v] = value_relation(v, self.q)
        return self._relations[v]

    def verify(self, vertices):
        """The first violating pair in (i, j) order with its rules, skipping
        duplicates; None for a clique."""
        vs = list(vertices)
        for i, u in enumerate(vs):
            if not is_valid_vertex(u, self.ci.params):
                raise ContractViolation(f"invalid vertex {u}")
            for w in vs[i + 1 :]:
                if u != w:
                    types = self.rules(u, w)
                    if types:
                        return u, w, frozenset(types)
        return None

    def materialize(self):
        codec = self.ci.codec
        vertices = [unrank(codec, r) for r in range(codec.count)]
        edges = [
            (i, j) for i, u in enumerate(vertices) for j in range(i + 1, codec.count)
            if not self.rules(u, vertices[j], first_only=True)
        ]
        return DenseGraph(codec.count, np.array(edges, np.int64).reshape(-1, 2))
