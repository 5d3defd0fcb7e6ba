"""Reference view of a vector-sum instance as int tuples, and the tuple
computations the array code in gapclique.vecsum and gapclique.randmap
replaced: instances built from and read as collections of residue tuples,
coordinate-wise sums, the tuple-by-tuple brute force and the F_2
wellspread refusal on tuples."""

from __future__ import annotations

import itertools
from typing import Optional

from gapclique import vecsum
from gapclique.errors import BudgetExceeded
from gapclique.vecsum import VecSumInstance


def from_collections(q, k, m, collections, **kw) -> VecSumInstance:
    """The instance whose collections are the given lists of vectors."""
    return VecSumInstance(q=q, k=k, m=m, vectors=[u for us in collections for u in us],
                          sizes=tuple(map(len, collections)), **kw)


def collections(inst: VecSumInstance) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every collection of the instance as a tuple of residue tuples."""
    return tuple(tuple(map(tuple, inst.collection(i).tolist())) for i in range(inst.k))


def total(q: int, vectors) -> tuple[int, ...]:
    """Coordinate-wise sum mod q of residue tuples, in Python ints."""
    return tuple(sum(col) % q for col in zip(*vectors))


def brute_force(inst: VecSumInstance) -> Optional[tuple[int, ...]]:
    """The lexicographically first index tuple whose vectors sum to zero,
    or None, trying one tuple at a time; refuses as brute_force_decide does."""
    count = inst.tuple_count()
    if count > vecsum.TUPLE_BUDGET:
        raise BudgetExceeded("tuple enumeration", required=count, budget=vecsum.TUPLE_BUDGET)
    cols = collections(inst)
    for indices in itertools.product(*(range(len(us)) for us in cols)):
        if not any(total(inst.q, (us[i] for us, i in zip(cols, indices)))):
            return indices
    return None


def wellspread_excluded(inst: VecSumInstance, l: int) -> Optional[str]:
    """randmap.wellspread_excluded on the tuples of the instance."""
    if inst.q != 2 or inst.k * l % 3 == 0:
        return None
    nonzero = [sorted({u for u in us if any(u)}) for us in collections(inst)]
    for (i, us), (j, ws) in itertools.combinations_with_replacement(enumerate(nonzero), 2):
        for u, w in itertools.product(us, ws):
            s = tuple(a ^ b for a, b in zip(u, w))
            if any(s) and (i != j or s in us):
                return (f"no map is wellspread over F_2 with k*l = {inst.k * l} not a multiple "
                        f"of 3: case sums {u} (collection {i}), {w} (collection {j}) and "
                        f"their sum {s} are nonzero, and their images cannot all have "
                        f"weight >= 2/3")
    return None
