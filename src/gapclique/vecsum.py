"""Vector-sum instances: k collections of vectors over a prime field, with
the question whether one vector per collection sums to zero.

Generators produce either planted YES instances or brute-force-certified NO
instances; certification is never probabilistic because downstream soundness
experiments need ground truth.

Vectors are int64 rows of residues in [0, q).  Instances, maps, tables and
linear functions refuse anything else (residue_array): they are also read from files.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import functools
import math
import random
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import BudgetExceeded, ContractViolation, PropertyViolation
from .rng import draws

TUPLE_BUDGET = 2_000_000  # tuples brute force enumerates at most
_TUPLE_BLOCK = 1 << 14  # tuples brute force sums at once


def check_int(name: str, value, low: int = 1) -> int:
    """value itself; refuses anything but an int >= low."""
    if type(value) is not int or value < low:
        raise ContractViolation(f"{name} must be an integer >= {low}, got {value!r:.60}")
    return value


def check_modulus(q) -> int:
    """q itself; refuses anything but an int in [2, 2^63], whose residues fit int64."""
    if check_int("modulus q", q, 2) > 2**63:
        raise ContractViolation(f"modulus {q} is past 2^63: its residues do not fit int64")
    return q


def residue_array(q: int, entries, shape: tuple[int, ...]) -> np.ndarray:
    """entries as a read-only int64 array of the given shape: an int64 array
    of exactly that shape, or lists or tuples nested to exactly that shape
    whose entries are ints (no bools, floats or strings), every entry in
    [0, q).  Refuses anything else, and a modulus check_modulus refuses."""
    check_modulus(q)
    a = None
    if isinstance(entries, np.ndarray):
        # one range test: a negative entry read as uint64 is at least 2^63 >= q
        if entries.dtype == np.int64 and entries.shape == shape and not (
                entries.size and int(entries.view(np.uint64).max()) >= q):
            a = entries.copy()
    else:
        flat = [entries]
        for n in shape:
            if not all(isinstance(x, (list, tuple)) and len(x) == n for x in flat):
                break
            flat = list(itertools.chain.from_iterable(flat))
        else:
            # ints in [0, q) fit int64, since q <= 2^63
            if set(map(type, flat)) <= {int} and (not flat or 0 <= min(flat) and max(flat) < q):
                a = np.array(flat, dtype=np.int64).reshape(shape)
    if a is None:
        raise ContractViolation(f"need residues in [0, {q}) of shape {shape}, got {entries!r:.60}")
    a.setflags(write=False)
    return a


def residue_sum(q: int, terms) -> np.ndarray:
    """The sum mod q of residue arrays, broadcast together, as uint64 reduced
    after each addition: exact for every modulus check_modulus admits, since
    two residues add up below 2^64."""
    return functools.reduce(lambda s, t: (s + t.astype(np.uint64)) % np.uint64(q), terms, 0)


@dataclass(frozen=True, eq=False)
class VecSumInstance:
    """k collections of m-dimensional vectors over F_q, with an optional
    planted witness (one index per collection) and provenance metadata.
    `vectors` holds every vector as a row, collections concatenated (sizes[i]
    rows from starts[i] on), as the read-only int64 array residue_array checked."""

    q: int
    k: int
    m: int
    vectors: np.ndarray
    sizes: tuple[int, ...]
    planted: Optional[tuple[int, ...]] = None
    seed: Optional[int] = None
    generator: Optional[str] = None
    certificate: Optional[dict] = None

    def __post_init__(self):
        check_int("k", self.k)
        check_int("dimension m", self.m)
        sizes = self.sizes
        if not isinstance(sizes, (list, tuple)) or len(sizes) != self.k or not all(
                type(n) is int and n >= 1 for n in sizes):
            raise ContractViolation(f"expected {self.k} non-empty collections")
        object.__setattr__(self, "sizes", tuple(sizes))
        vectors = residue_array(self.q, self.vectors, (sum(sizes), self.m))
        object.__setattr__(self, "vectors", vectors)
        planted = self.planted
        if planted is not None:
            if not isinstance(planted, (list, tuple)) or len(planted) != self.k or not all(
                    type(i) is int and 0 <= i < n for i, n in zip(planted, sizes)):
                raise ContractViolation("planted witness needs one index per collection")
            object.__setattr__(self, "planted", tuple(planted))
            if residue_sum(self.q, vectors[np.add(self.starts, planted)]).any():
                raise ContractViolation("planted witness does not sum to zero")

    @cached_property
    def starts(self) -> tuple[int, ...]:
        """The row of `vectors` at which each collection starts."""
        return tuple(itertools.accumulate(self.sizes[:-1], initial=0))

    def collection(self, i: int) -> np.ndarray:
        """The rows of collection i."""
        return self.vectors[self.starts[i] : self.starts[i] + self.sizes[i]]

    def tuple_count(self) -> int:
        return math.prod(self.sizes)

    def to_json(self) -> dict:
        return {
            "version": 1,
            "q": self.q,
            "k": self.k,
            "m": self.m,
            "collections": [self.collection(i).tolist() for i in range(self.k)],
            "planted": list(self.planted) if self.planted is not None else None,
            "seed": self.seed,
            "generator": self.generator,
            "certificate": self.certificate,
        }

    @classmethod
    def from_json(cls, doc) -> "VecSumInstance":
        if not isinstance(doc, dict):
            raise ContractViolation("an instance document must be a JSON object")
        if doc.get("version") != 1:
            raise ContractViolation(f"unsupported instance version {doc.get('version')!r:.60}")
        cols = doc.get("collections")
        if not isinstance(cols, list) or not all(isinstance(us, list) and us for us in cols):
            raise ContractViolation("collections must be non-empty lists of vectors")
        return cls(
            q=doc.get("q"),
            k=doc.get("k"),
            m=doc.get("m"),
            vectors=[u for us in cols for u in us],
            sizes=tuple(map(len, cols)),
            planted=doc.get("planted"),
            seed=doc.get("seed"),
            generator=doc.get("generator"),
            certificate=doc.get("certificate"),
        )

    @classmethod
    def load(cls, path) -> "VecSumInstance":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def fingerprint(self) -> str:
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        # the instance is immutable, so one hash serves every map checked on it
        doc = self.to_json()
        doc.pop("certificate", None)
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class Witness:
    """A sum-zero tuple: one vector index per collection."""

    indices: tuple[int, ...]


def generate_planted(
    rng: random.Random, q: int, k: int, m: int, n_per_collection: int
) -> VecSumInstance:
    """Planted YES instance: the first k-1 collections are fully uniform; one
    tuple is completed by the negated partial sum and inserted at a random
    position of the last collection."""
    if n_per_collection < 1:
        raise ContractViolation("need at least one vector per collection")
    check_int("k", k), check_int("dimension m", m), check_modulus(q)  # before they shape arrays
    n, q_, cols, witness = n_per_collection, np.uint64(q), [], []
    for size in [n] * (k - 1) + [n - 1]:
        cols.append(draws(rng, q, size * m))
        witness.append(rng.randrange(n))
    # draws hands out Python ints from 2^63 on, all below q
    vectors = np.concatenate(cols).astype(np.int64).reshape(-1, m)
    partial = residue_sum(q, vectors[[i * n + w for i, w in enumerate(witness[:-1])]])
    at, last = (k - 1) * n + witness[-1], ((q_ - partial) % q_).astype(np.int64)
    vectors = np.concatenate([vectors[:at], np.broadcast_to(last, (1, m)), vectors[at:]])
    return VecSumInstance(q=q, k=k, m=m, vectors=vectors, sizes=(n,) * k,
                          planted=tuple(witness), generator="planted")


def brute_force_decide(inst: VecSumInstance) -> Optional[Witness]:
    """Full enumeration; returns the lexicographically first witness tuple or
    None after checking every tuple: the prefixes (every index but the last)
    in lexicographic blocks, each with the whole last collection, about
    _TUPLE_BLOCK tuples at a time."""
    total = inst.tuple_count()
    if total > TUPLE_BUDGET:
        raise BudgetExceeded("tuple enumeration", required=total, budget=TUPLE_BUDGET)
    q, radices, n = inst.q, inst.sizes[:-1], inst.sizes[-1]
    prefixes, step = math.prod(radices), max(1, _TUPLE_BLOCK // n)
    for start in range(0, prefixes, step):
        t = np.arange(start, min(start + step, prefixes))
        digits = np.unravel_index(t, radices) if radices else ()
        # [p, j]: the sum of prefix p's vectors and vector j of the last collection
        sums = residue_sum(q, [inst.collection(i)[d, None] for i, d in enumerate(digits)]
                           + [inst.collection(inst.k - 1)])
        hits = ~sums.any(axis=-1)
        if hits.any():
            p, last = divmod(int(hits.argmax()), n)
            return Witness(indices=tuple(int(d[p]) for d in digits) + (last,))
    return None


def generate_unsat(
    rng: random.Random,
    q: int,
    k: int,
    m: int,
    n_per_collection: int,
    max_retries: int = 200,
) -> VecSumInstance:
    """Uniform collections, rejection-sampled until brute force certifies NO.

    The returned instance carries a certificate recording the exhaustive
    check.  Raises PropertyViolation when retries run out, which is the
    expected outcome when q^m is small relative to the tuple count.
    """
    n, total = n_per_collection, n_per_collection**k
    if total > TUPLE_BUDGET:
        raise BudgetExceeded("tuple enumeration", required=total, budget=TUPLE_BUDGET)
    check_int("k", k), check_int("dimension m", m), check_modulus(q)  # before they shape arrays
    for attempt in range(max_retries):
        vectors = draws(rng, q, k * n * m).astype(np.int64).reshape(-1, m)
        inst = VecSumInstance(q=q, k=k, m=m, vectors=vectors, sizes=(n,) * k, generator="unsat")
        if brute_force_decide(inst) is None:
            certificate = {"certified_no": True, "tuples_checked": total, "attempts": attempt + 1}
            return replace(inst, certificate=certificate)
    raise PropertyViolation(
        f"could not sample a NO instance in {max_retries} attempts "
        f"(q^m={q**m} vs {total} tuples)"
    )


def paper_dimension(k: int, n: int) -> int:
    """Schedule-faithful ambient dimension: ceil(k^2 * log2 n)."""
    return max(1, math.ceil(k * k * (math.log2(n) if n > 1 else 1)))
